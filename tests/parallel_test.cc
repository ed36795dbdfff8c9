// Tests of the worker thread pool and of the engine's parallel-execution
// guarantee: any `--threads` setting produces bit-identical query results
// and simulated metrics; only host wall-clock time may differ.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"

namespace skypeer {
namespace {

// --- thread pool ------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) {
    h = 0;
  }
  pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ConcurrencyOneRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<size_t> order;
  pool.ParallelFor(5, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), std::this_thread::get_id());
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, SubmitResolvesFutureAndPropagatesExceptions) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto ok = pool.Submit([&] { ++ran; });
  ok.get();
  EXPECT_EQ(ran.load(), 1);

  auto bad = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](size_t i) {
                                  if (i % 7 == 3) {
                                    throw std::runtime_error("bad index");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // The batch driver nests per-query ParallelFor inside workload-level
  // ParallelFor on the same pool; the caller must make progress even
  // when every worker is busy with an outer task.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(16, [&](size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ThreadPool, GlobalConcurrencyIsAdjustable) {
  ThreadPool::SetGlobalConcurrency(3);
  EXPECT_EQ(ThreadPool::GlobalConcurrency(), 3);
  EXPECT_EQ(ThreadPool::Global()->num_threads(), 3);
  ThreadPool::SetGlobalConcurrency(1);
  EXPECT_EQ(ThreadPool::Global()->num_threads(), 1);
}

// --- engine determinism -----------------------------------------------------

NetworkConfig SmallConfig() {
  NetworkConfig config;
  config.num_peers = 40;
  config.num_super_peers = 8;
  config.points_per_peer = 30;
  config.dims = 4;
  config.seed = 7;
  // Virtual clocks must not depend on host timing for exact comparison.
  return config;
}

/// Full content signature of a result list: (id, f, coords) per entry.
std::vector<std::vector<double>> Signature(const ResultList& list) {
  std::vector<std::vector<double>> rows;
  rows.reserve(list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    std::vector<double> row;
    row.push_back(static_cast<double>(list.points.id(i)));
    row.push_back(list.f[i]);
    for (int d = 0; d < list.points.dims(); ++d) {
      row.push_back(list.points[i][d]);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void ExpectMetricsEqual(const QueryMetrics& a, const QueryMetrics& b,
                        const char* context) {
  EXPECT_EQ(a.computational_time_s, b.computational_time_s) << context;
  EXPECT_EQ(a.total_time_s, b.total_time_s) << context;
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred) << context;
  EXPECT_EQ(a.messages, b.messages) << context;
  EXPECT_EQ(a.result_size, b.result_size) << context;
  EXPECT_EQ(a.store_points_scanned, b.store_points_scanned) << context;
  EXPECT_EQ(a.local_result_points, b.local_result_points) << context;
  EXPECT_EQ(a.super_peers_participated, b.super_peers_participated) << context;
}

TEST(ParallelDeterminism, PreprocessingIsThreadCountInvariant) {
  const NetworkConfig config = SmallConfig();

  ThreadPool::SetGlobalConcurrency(1);
  SkypeerNetwork sequential(config);
  const PreprocessStats seq_stats = sequential.Preprocess();

  ThreadPool::SetGlobalConcurrency(4);
  SkypeerNetwork parallel(config);
  const PreprocessStats par_stats = parallel.Preprocess();
  ThreadPool::SetGlobalConcurrency(1);

  EXPECT_EQ(seq_stats.total_points, par_stats.total_points);
  EXPECT_EQ(seq_stats.peer_ext_points, par_stats.peer_ext_points);
  EXPECT_EQ(seq_stats.super_peer_ext_points, par_stats.super_peer_ext_points);
  ASSERT_EQ(sequential.num_super_peers(), parallel.num_super_peers());
  for (int sp = 0; sp < sequential.num_super_peers(); ++sp) {
    EXPECT_EQ(Signature(sequential.super_peer(sp).store()),
              Signature(parallel.super_peer(sp).store()))
        << "store of super-peer " << sp;
  }
}

TEST(ParallelDeterminism, QueriesMatchSequentialForAllVariants) {
  const NetworkConfig config = SmallConfig();
  const std::vector<QueryTask> tasks =
      GenerateWorkload(config.dims, 2, 6, config.num_super_peers, 42);

  struct Reference {
    std::vector<std::vector<double>> skyline;
    QueryMetrics metrics;
  };

  ThreadPool::SetGlobalConcurrency(1);
  SkypeerNetwork sequential(config);
  sequential.Preprocess();
  std::vector<std::vector<Reference>> references;
  std::vector<Variant> variants(kAllVariants, kAllVariants + 5);
  variants.push_back(Variant::kPipeline);
  for (Variant variant : variants) {
    std::vector<Reference> per_task;
    for (const QueryTask& task : tasks) {
      const QueryResult result =
          sequential.ExecuteQuery(task.subspace, task.initiator_sp, variant);
      per_task.push_back({Signature(result.skyline), result.metrics});
    }
    references.push_back(std::move(per_task));
  }

  ThreadPool::SetGlobalConcurrency(4);
  SkypeerNetwork parallel(config);
  parallel.Preprocess();
  for (size_t v = 0; v < variants.size(); ++v) {
    for (size_t t = 0; t < tasks.size(); ++t) {
      const QueryResult result = parallel.ExecuteQuery(
          tasks[t].subspace, tasks[t].initiator_sp, variants[v]);
      const std::string context =
          std::string(VariantName(variants[v])) + " task " + std::to_string(t);
      EXPECT_EQ(Signature(result.skyline), references[v][t].skyline)
          << context;
      ExpectMetricsEqual(result.metrics, references[v][t].metrics,
                         context.c_str());
    }
  }
  ThreadPool::SetGlobalConcurrency(1);
}

TEST(ParallelDeterminism, WorkloadAggregatesMatchSequential) {
  const NetworkConfig config = SmallConfig();
  const std::vector<QueryTask> tasks =
      GenerateWorkload(config.dims, 3, 8, config.num_super_peers, 5);

  ThreadPool::SetGlobalConcurrency(1);
  SkypeerNetwork sequential(config);
  sequential.Preprocess();
  ThreadPool::SetGlobalConcurrency(4);
  SkypeerNetwork parallel(config);
  parallel.Preprocess();
  EXPECT_TRUE(parallel.SupportsParallelWorkloads());

  for (Variant variant : kAllVariants) {
    ThreadPool::SetGlobalConcurrency(1);
    const AggregateMetrics seq = RunWorkload(&sequential, tasks, variant);
    ThreadPool::SetGlobalConcurrency(4);
    const AggregateMetrics par = RunWorkload(&parallel, tasks, variant);
    EXPECT_EQ(seq.queries, par.queries) << VariantName(variant);
    // Sample-for-sample equality: aggregation happens in task order
    // regardless of which worker executed which query.
    EXPECT_EQ(seq.comp_s.samples(), par.comp_s.samples())
        << VariantName(variant);
    EXPECT_EQ(seq.total_s.samples(), par.total_s.samples())
        << VariantName(variant);
    EXPECT_EQ(seq.kb.samples(), par.kb.samples()) << VariantName(variant);
    EXPECT_EQ(seq.messages.samples(), par.messages.samples())
        << VariantName(variant);
    EXPECT_EQ(seq.result.samples(), par.result.samples())
        << VariantName(variant);
    EXPECT_EQ(seq.scanned.samples(), par.scanned.samples())
        << VariantName(variant);
  }
  ThreadPool::SetGlobalConcurrency(1);
}

// --- per-network pool --------------------------------------------------------

TEST(PerNetworkPool, ScopedPoolMatchesGlobalSequential) {
  // NetworkConfig::threads scopes concurrency to the instance: with the
  // process-global pool pinned to 1 thread, a network configured with 4
  // private threads must still produce the sequential results.
  ThreadPool::SetGlobalConcurrency(1);
  const NetworkConfig config = SmallConfig();
  SkypeerNetwork sequential(config);
  sequential.Preprocess();

  NetworkConfig pooled_config = config;
  pooled_config.threads = 4;
  SkypeerNetwork pooled(pooled_config);
  EXPECT_EQ(pooled.pool()->num_threads(), 4);
  EXPECT_EQ(ThreadPool::Global()->num_threads(), 1);
  pooled.Preprocess();

  const std::vector<QueryTask> tasks =
      GenerateWorkload(config.dims, 2, 5, config.num_super_peers, 71);
  std::vector<Variant> variants(kAllVariants, kAllVariants + 5);
  variants.push_back(Variant::kPipeline);
  for (Variant variant : variants) {
    for (const QueryTask& task : tasks) {
      const QueryResult seq =
          sequential.ExecuteQuery(task.subspace, task.initiator_sp, variant);
      const QueryResult par =
          pooled.ExecuteQuery(task.subspace, task.initiator_sp, variant);
      const std::string context = std::string(VariantName(variant));
      EXPECT_EQ(Signature(seq.skyline), Signature(par.skyline)) << context;
      ExpectMetricsEqual(par.metrics, seq.metrics, context.c_str());
    }
  }
}

TEST(PerNetworkPool, CloneSharesTheParentPool) {
  ThreadPool::SetGlobalConcurrency(1);
  NetworkConfig config = SmallConfig();
  config.threads = 3;
  SkypeerNetwork network(config);
  network.Preprocess();
  const auto clone = network.CloneForQueries();
  EXPECT_EQ(clone->pool(), network.pool());
  EXPECT_EQ(clone->pool()->num_threads(), 3);

  const Subspace u = Subspace::FromDims({0, 2});
  const QueryResult original = network.ExecuteQuery(u, 1, Variant::kFTPM);
  const QueryResult replica = clone->ExecuteQuery(u, 1, Variant::kFTPM);
  EXPECT_EQ(Signature(original.skyline), Signature(replica.skyline));
  ExpectMetricsEqual(original.metrics, replica.metrics, "pooled clone FTPM");
}

// --- kernel dispatch bit-identity --------------------------------------------

struct Reference {
  std::vector<std::vector<double>> skyline;
  QueryMetrics metrics;
  std::vector<double> final_thresholds;  // Per super-peer.
};

std::vector<double> CollectFinalThresholds(const SkypeerNetwork& network) {
  std::vector<double> thresholds;
  thresholds.reserve(network.num_super_peers());
  for (int sp = 0; sp < network.num_super_peers(); ++sp) {
    thresholds.push_back(network.super_peer(sp).last_query_stats()
                             .final_threshold);
  }
  return thresholds;
}

TEST(KernelDispatchDeterminism, ForcedScalarMatchesDispatchedAcrossVariants) {
  // The SIMD tentpole guarantee: the dispatched (AVX2/NEON) dominance
  // kernels reproduce the forced-scalar execution bit-identically —
  // skylines, scan counts, volume, messages and simulated times —
  // across all five variants plus the pipeline, at 1/2/8 threads.
  const NetworkConfig config = SmallConfig();
  const std::vector<QueryTask> tasks =
      GenerateWorkload(4, 2, 4, config.num_super_peers, 83);
  std::vector<Variant> variants(kAllVariants, kAllVariants + 5);
  variants.push_back(Variant::kPipeline);

  SetForceScalarKernels(true);
  ThreadPool::SetGlobalConcurrency(1);
  SkypeerNetwork scalar_net(config);
  scalar_net.Preprocess();
  std::vector<std::vector<Reference>> references;
  for (Variant variant : variants) {
    std::vector<Reference> per_task;
    for (const QueryTask& task : tasks) {
      const QueryResult result =
          scalar_net.ExecuteQuery(task.subspace, task.initiator_sp, variant);
      per_task.push_back({Signature(result.skyline), result.metrics,
                          CollectFinalThresholds(scalar_net)});
    }
    references.push_back(std::move(per_task));
  }

  SetForceScalarKernels(false);
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalConcurrency(threads);
    SkypeerNetwork dispatched(config);
    dispatched.Preprocess();
    for (size_t v = 0; v < variants.size(); ++v) {
      for (size_t t = 0; t < tasks.size(); ++t) {
        const QueryResult result = dispatched.ExecuteQuery(
            tasks[t].subspace, tasks[t].initiator_sp, variants[v]);
        const std::string context =
            std::string(VariantName(variants[v])) + " task " +
            std::to_string(t) + " threads " + std::to_string(threads);
        EXPECT_EQ(Signature(result.skyline), references[v][t].skyline)
            << context;
        ExpectMetricsEqual(result.metrics, references[v][t].metrics,
                           context.c_str());
        EXPECT_EQ(CollectFinalThresholds(dispatched),
                  references[v][t].final_thresholds)
            << context;
      }
    }
  }
  ThreadPool::SetGlobalConcurrency(1);
}

TEST(ParallelDeterminism, FaultedRunsAreThreadCountInvariant) {
  // Fault injection composes with every parallel-execution feature: the
  // fault pattern is a pure function of the (virtual-time) event
  // sequence and the fault seed, so results, coverage and transport
  // statistics are bit-identical at any thread count.
  constexpr Variant kFaultedVariants[] = {Variant::kNaive, Variant::kFTPM,
                                          Variant::kRTFM, Variant::kRTPM,
                                          Variant::kPipeline};
  const Subspace u = Subspace::FromDims({0, 1, 3});

  NetworkConfig config = SmallConfig();
  config.reliable = true;
  config.drop_prob = 0.2;
  config.delay_jitter = 0.05;
  config.fault_seed = 21;
  config.crashed_sps = {5};
  config.max_retries = 2;

  struct Reference {
    std::vector<std::vector<double>> skyline;
    QueryMetrics metrics;
  };
  std::vector<Reference> references;

  ThreadPool::SetGlobalConcurrency(1);
  {
    SkypeerNetwork sequential(config);
    sequential.Preprocess();
    for (Variant variant : kFaultedVariants) {
      const QueryResult result = sequential.ExecuteQuery(u, 0, variant);
      references.push_back({Signature(result.skyline), result.metrics});
    }
  }

  for (const int threads : {2, 8}) {
    ThreadPool::SetGlobalConcurrency(threads);
    SkypeerNetwork parallel(config);
    parallel.Preprocess();
    for (size_t v = 0; v < std::size(kFaultedVariants); ++v) {
      const std::string context = "threads=" + std::to_string(threads) +
                                  " variant=" + std::to_string(v);
      const QueryResult result =
          parallel.ExecuteQuery(u, 0, kFaultedVariants[v]);
      EXPECT_EQ(Signature(result.skyline), references[v].skyline)
          << context;
      const QueryMetrics& want = references[v].metrics;
      EXPECT_EQ(result.metrics.total_time_s, want.total_time_s) << context;
      EXPECT_EQ(result.metrics.bytes_transferred, want.bytes_transferred)
          << context;
      EXPECT_EQ(result.metrics.messages, want.messages) << context;
      EXPECT_EQ(result.metrics.partial, want.partial) << context;
      EXPECT_EQ(result.metrics.covered, want.covered) << context;
      EXPECT_EQ(result.metrics.retransmits, want.retransmits) << context;
      EXPECT_EQ(result.metrics.hops_gave_up, want.hops_gave_up) << context;
      EXPECT_EQ(result.metrics.messages_dropped, want.messages_dropped)
          << context;
    }
  }
  ThreadPool::SetGlobalConcurrency(1);
}

TEST(ParallelDeterminism, CloneForQueriesAnswersLikeTheOriginal) {
  ThreadPool::SetGlobalConcurrency(1);
  const NetworkConfig config = SmallConfig();
  SkypeerNetwork network(config);
  network.Preprocess();
  const auto clone = network.CloneForQueries();

  const Subspace u = Subspace::FromDims({0, 3});
  const QueryResult original = network.ExecuteQuery(u, 2, Variant::kRTPM);
  const QueryResult replica = clone->ExecuteQuery(u, 2, Variant::kRTPM);
  EXPECT_EQ(Signature(original.skyline), Signature(replica.skyline));
  ExpectMetricsEqual(original.metrics, replica.metrics, "clone RTPM");
}

}  // namespace
}  // namespace skypeer
