// Tests of the bounded per-subspace trace cache (`--cache-cap`):
// least-recently-used eviction with deterministic order, byte
// accounting, thread safety under concurrent fill, and the engine-level
// guarantee that a capped cache changes no simulated metric — an evicted
// entry is refilled by the same pure function, and the miss path replays
// identically to the hit path.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/subspace_cache.h"

namespace skypeer {
namespace {

std::shared_ptr<const ScanTrace> MakeTrace(size_t events) {
  auto trace = std::make_shared<ScanTrace>();
  trace->accepted.assign(events, 1);
  trace->dist_u.assign(events, 0.5);
  return trace;
}

TEST(CacheCap, EvictsTheLeastRecentlyUsedEntry) {
  SubspaceScanTraceCache cache(/*max_entries=*/2);
  cache.Insert(0, 0, 0b01, 0, MakeTrace(4));
  cache.Insert(0, 0, 0b10, 0, MakeTrace(4));
  EXPECT_EQ(cache.size(), 2u);

  // Touch the first entry, then overflow: the untouched one goes.
  EXPECT_NE(cache.Lookup(0, 0, 0b01, 0), nullptr);
  cache.Insert(0, 0, 0b11, 0, MakeTrace(4));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup(0, 0, 0b01, 0), nullptr);
  EXPECT_EQ(cache.Lookup(0, 0, 0b10, 0), nullptr);  // Evicted.
  EXPECT_NE(cache.Lookup(0, 0, 0b11, 0), nullptr);

  const SubspaceScanTraceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(CacheCap, InsertRefreshesRecencyAndReinsertDoesNotDuplicate) {
  SubspaceScanTraceCache cache(2);
  const auto first = cache.Insert(0, 0, 0b01, 0, MakeTrace(4));
  cache.Insert(0, 0, 0b10, 0, MakeTrace(4));
  // Re-inserting an existing key returns the published trace and
  // refreshes it, so the *other* entry is the LRU victim.
  const auto again = cache.Insert(0, 0, 0b01, 0, MakeTrace(99));
  EXPECT_EQ(again.get(), first.get());  // First publisher wins.
  cache.Insert(0, 0, 0b11, 0, MakeTrace(4));
  EXPECT_NE(cache.Lookup(0, 0, 0b01, 0), nullptr);
  EXPECT_EQ(cache.Lookup(0, 0, 0b10, 0), nullptr);
}

TEST(CacheCap, UnboundedCacheNeverEvicts) {
  SubspaceScanTraceCache cache;  // max_entries = 0.
  for (uint32_t mask = 1; mask <= 64; ++mask) {
    cache.Insert(0, 0, mask, 0, MakeTrace(2));
  }
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheCap, ByteAccountingTracksResidentTraces) {
  SubspaceScanTraceCache cache(8);
  const auto a = MakeTrace(10);
  const auto b = MakeTrace(20);
  cache.Insert(0, 0, 0b01, 0, a);
  cache.Insert(1, 0, 0b01, 0, b);
  EXPECT_EQ(cache.stats().bytes, a->ByteSize() + b->ByteSize());

  cache.Invalidate(0);
  EXPECT_EQ(cache.stats().bytes, b->ByteSize());
  EXPECT_EQ(cache.size(), 1u);

  cache.Invalidate(1);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheCap, EvictionOrderIsDeterministic) {
  // The same lookup/insert sequence produces the same survivors and the
  // same statistics on every run.
  auto run = [] {
    SubspaceScanTraceCache cache(3);
    for (int sp = 0; sp < 2; ++sp) {
      for (uint32_t mask = 1; mask <= 5; ++mask) {
        cache.Insert(sp, 0, mask, 0, MakeTrace(mask));
        cache.Lookup(sp, 0, 1, 0);  // Keep (sp, 1) hot.
      }
    }
    std::vector<bool> present;
    for (int sp = 0; sp < 2; ++sp) {
      for (uint32_t mask = 1; mask <= 5; ++mask) {
        present.push_back(cache.Lookup(sp, 0, mask, 0) != nullptr);
      }
    }
    return std::make_pair(present, cache.stats());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second.hits, b.second.hits);
  EXPECT_EQ(a.second.misses, b.second.misses);
  EXPECT_EQ(a.second.evictions, b.second.evictions);
  EXPECT_EQ(a.second.bytes, b.second.bytes);
}

TEST(CacheCap, ConcurrentFillRespectsTheCap) {
  SubspaceScanTraceCache cache(4);
  ThreadPool pool(8);
  pool.ParallelFor(64, [&](size_t i) {
    const int sp = static_cast<int>(i % 4);
    const uint32_t mask = static_cast<uint32_t>(1 + i % 11);
    cache.Insert(sp, 0, mask, 0, MakeTrace(1 + i % 3));
    cache.Lookup(sp, 0, mask, 0);
    if (i % 16 == 0) {
      cache.Invalidate(sp);
    }
  });
  EXPECT_LE(cache.size(), 4u);
  const SubspaceScanTraceCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, cache.size());
}

// --- engine-level: a capped cache changes no simulated metric ---------------

NetworkConfig CachedConfig(size_t cap) {
  NetworkConfig config;
  config.num_peers = 40;
  config.num_super_peers = 8;
  config.points_per_peer = 30;
  config.dims = 4;
  config.seed = 7;
  config.enable_cache = true;
  config.cache_max_entries = cap;
  return config;
}

TEST(CacheCap, TinyCapMatchesUnboundedMetricsExactly) {
  ThreadPool::SetGlobalConcurrency(1);
  SkypeerNetwork unbounded(CachedConfig(0));
  unbounded.Preprocess();
  // Cap of 2 against 8 super-peers and several subspaces: constant
  // thrash.
  SkypeerNetwork capped(CachedConfig(2));
  capped.Preprocess();

  // Repeat subspaces so hits, misses and evictions all occur.
  std::vector<QueryTask> tasks =
      GenerateWorkload(4, 2, 5, CachedConfig(0).num_super_peers, 107);
  const std::vector<QueryTask> base = tasks;
  tasks.insert(tasks.end(), base.begin(), base.end());

  for (const QueryTask& task : tasks) {
    for (Variant variant : kAllVariants) {
      const QueryResult a =
          unbounded.ExecuteQuery(task.subspace, task.initiator_sp, variant);
      const QueryResult b =
          capped.ExecuteQuery(task.subspace, task.initiator_sp, variant);
      EXPECT_EQ(a.skyline.points.Ids(), b.skyline.points.Ids())
          << VariantName(variant);
      EXPECT_EQ(a.metrics.computational_time_s, b.metrics.computational_time_s)
          << VariantName(variant);
      EXPECT_EQ(a.metrics.total_time_s, b.metrics.total_time_s)
          << VariantName(variant);
      EXPECT_EQ(a.metrics.bytes_transferred, b.metrics.bytes_transferred)
          << VariantName(variant);
      EXPECT_EQ(a.metrics.store_points_scanned, b.metrics.store_points_scanned)
          << VariantName(variant);
      EXPECT_TRUE(a.metrics.ops == b.metrics.ops) << VariantName(variant);
    }
  }
  // The capped instance really evicted; the unbounded one never does.
  EXPECT_GT(capped.result_cache()->stats().evictions, 0u);
  EXPECT_EQ(unbounded.result_cache()->stats().evictions, 0u);
  EXPECT_LE(capped.result_cache()->size(), 2u);
}

TEST(CacheCap, WorkloadAggregateReportsCacheCounters) {
  ThreadPool::SetGlobalConcurrency(1);
  // Cap 8 = one query's worth of entries (one per super-peer), so an
  // immediately repeated subspace hits while a different subspace
  // evicts — exercising hits, misses and evictions in one workload.
  SkypeerNetwork network(CachedConfig(8));
  network.Preprocess();
  const std::vector<QueryTask> base =
      GenerateWorkload(4, 2, 4, CachedConfig(0).num_super_peers, 109);
  std::vector<QueryTask> tasks;
  for (const QueryTask& task : base) {
    tasks.push_back(task);
    tasks.push_back(task);  // Adjacent repeat: hits while resident.
  }

  const AggregateMetrics aggregate =
      RunWorkload(&network, tasks, Variant::kRTPM);
  EXPECT_GT(aggregate.cache_misses, 0u);
  EXPECT_GT(aggregate.cache_hits, 0u);
  EXPECT_GT(aggregate.cache_evictions, 0u);
  EXPECT_LE(aggregate.cache_entries, 8u);
  EXPECT_GT(aggregate.cache_bytes, 0u);
}

}  // namespace
}  // namespace skypeer
