// Zone-map block skipping: threshold scans with and without the
// `block_skip` summary probe, on correlated and anticorrelated d=5 data.
//
// Each row runs the same subspace scan twice — plain and with
// `ThresholdScanOptions::block_skip` — and *asserts* the skipping
// contract: identical skyline, identical scan count and identical final
// threshold; op counts may differ only in the new `summary_tests` /
// `blocks_skipped` charges and in reduced dominance-test / page-read
// charges.
//
// Two sections:
//
// The *monolithic* table scans one store per distribution under two
// forms — `window` (unseeded; only points the scan itself accepted can
// reject blocks) and `filtered` (window seeded with a broadcast filter
// set sampled from a disjoint initiator partition's subspace skyline,
// SKYPEER's filter-point regime, filter_set.h). On one homogeneous
// store the rejection band is the tail of the scan prefix, so savings
// are real but modest.
//
// The *partitioned* table is where zone maps earn their keep: the
// correlated dataset is range-partitioned on f across four peers (the
// f-sorted exchange format makes f-ranges the natural partition), the
// lowest-f partition acts as initiator and broadcasts its filter set,
// and each higher partition scans its own store under those seeds —
// SKYPEER's remote-peer configuration. A higher partition's blocks are
// near-uniformly rejected by the filter before a single point is read,
// its local threshold never tightens (rejected points have no side
// effects), and runs of wholesale-skipped blocks leave whole pages
// unread. The bench CHECKs the headline claims here: >= 20%
// dominance-test reduction and strictly fewer logical page reads
// across the remote partitions in total.
//
// A final paged section re-runs the most-dominated partition's scan
// through a small pinning buffer pool and asserts op counts — skip
// charges included — are bit-identical to the in-memory run.
//
//   ./bench_block_skip [--buffer-pages N] [--page-size B] [--seed S]
//                      [--json PATH] [--full]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "skypeer/algo/filter_set.h"
#include "skypeer/algo/result_list.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/macros.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/data/generator.h"
#include "skypeer/storage/buffer_manager.h"
#include "skypeer/storage/page_layout.h"
#include "skypeer/storage/paged_store.h"
#include "skypeer/storage/store_summary.h"
#include "skypeer/storage/store_view.h"

namespace skypeer::bench {
namespace {

struct SkipOutcome {
  ResultList result;
  ThresholdScanStats stats;
};

SkipOutcome Scan(const StoreView& input, Subspace u, const ResultList* filter,
                 bool block_skip) {
  ThresholdScanOptions options;
  options.filter = filter;
  options.block_skip = block_skip;
  ThresholdScanStats stats;
  ResultList result = SortedSkyline(input, u, options, &stats);
  return {std::move(result), stats};
}

/// Asserts the skipping contract between a plain scan and its
/// block-skip twin: identical skyline, scan count and final threshold.
void CheckIdentical(const SkipOutcome& plain, const SkipOutcome& skip) {
  SKYPEER_CHECK(skip.result.size() == plain.result.size());
  for (size_t i = 0; i < plain.result.size(); ++i) {
    SKYPEER_CHECK(skip.result.points.id(i) == plain.result.points.id(i));
  }
  SKYPEER_CHECK(skip.stats.scanned == plain.stats.scanned);
  SKYPEER_CHECK(skip.stats.final_threshold == plain.stats.final_threshold);
  // Skipping only ever removes per-point work: it must never add
  // dominance tests or page reads, and a plain scan never charges the
  // summary counters.
  SKYPEER_CHECK(skip.stats.ops.dominance_tests <= plain.stats.ops.dominance_tests);
  SKYPEER_CHECK(skip.stats.ops.page_reads <= plain.stats.ops.page_reads);
  SKYPEER_CHECK(plain.stats.ops.summary_tests == 0);
  SKYPEER_CHECK(plain.stats.ops.blocks_skipped == 0);
}

double ReductionPct(uint64_t before, uint64_t after) {
  if (before == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(after) / static_cast<double>(before));
}

int Run(const BenchOptions& options) {
  const int dims = 5;
  const size_t points = options.full ? 200000 : 50000;
  const PageLayout layout(options.page_size, dims);

  std::printf("# points=%zu dims=%d page_size=%zu cost_model=%s\n", points,
              dims, options.page_size,
              CostModelModeName(options.cost_model.mode));

  // Each distribution contributes a scanned store plus a disjoint
  // "initiator" partition of the same distribution; the initiator's
  // subspace skyline sources the broadcast filter set, exactly as a
  // query-originating peer's local scan would (filter_set.h).
  struct Distro {
    const char* name;
    ResultList sorted;
    ResultList initiator;
  };
  Rng rng(options.seed);
  std::vector<Distro> distros;
  distros.push_back({"corr",
                     BuildSortedByF(GenerateCorrelated(dims, points, &rng)),
                     BuildSortedByF(GenerateCorrelated(dims, points / 4, &rng))});
  distros.push_back(
      {"anti", BuildSortedByF(GenerateAnticorrelated(dims, points, &rng)),
       BuildSortedByF(GenerateAnticorrelated(dims, points / 4, &rng))});

  const std::vector<Subspace> subspaces = {
      Subspace::FromDims({0, 1}),
      Subspace::FromDims({0, 1, 2, 3}),
      Subspace::FullSpace(dims),
  };

  Table table({"data", "k", "form", "result", "scanned", "dom_plain",
               "dom_skip", "dom_red%", "pages_plain", "pages_skip",
               "blocks_skipped"});

  for (const Distro& distro : distros) {
    const StoreSummary summary = StoreSummary::Build(distro.sorted, layout);
    const StoreView plain_view(&distro.sorted, options.page_size);
    const StoreView skip_view(&distro.sorted, options.page_size, &summary);

    for (const Subspace& u : subspaces) {
      // Broadcast filter set, sampled from the initiator partition's
      // subspace skyline (the strongest pruners an originating peer can
      // legitimately ship — see SelectFilterSet).
      const ResultList initiator_skyline =
          SortedSkyline(distro.initiator, u);
      const ResultList filter =
          SelectFilterSet(initiator_skyline, u, 16, nullptr);
      struct Form {
        const char* name;
        const ResultList* filter;
      };
      const std::vector<Form> forms = {
          {"window", nullptr},    // Pure window-driven skipping.
          {"filtered", &filter},  // SKYPEER broadcast-filter regime.
      };
      for (const Form& form : forms) {
        const SkipOutcome plain = Scan(plain_view, u, form.filter, false);
        const SkipOutcome skip = Scan(skip_view, u, form.filter, true);
        CheckIdentical(plain, skip);

        const double dom_red = ReductionPct(plain.stats.ops.dominance_tests,
                                            skip.stats.ops.dominance_tests);
        table.AddRow({distro.name, std::to_string(u.Count()), form.name,
                      std::to_string(plain.result.size()),
                      std::to_string(plain.stats.scanned),
                      std::to_string(plain.stats.ops.dominance_tests),
                      std::to_string(skip.stats.ops.dominance_tests),
                      Fmt(dom_red, 1),
                      std::to_string(plain.stats.ops.page_reads),
                      std::to_string(skip.stats.ops.page_reads),
                      std::to_string(skip.stats.ops.blocks_skipped)});
      }
    }
  }
  table.Print();

  // Partitioned section: the correlated dataset range-partitioned on f
  // across four peers. Partition 0 (lowest f) is the initiator; its
  // full-space skyline sources the broadcast filter set, and each
  // higher partition scans its own store under those seeds. Filter
  // points drawn from the strongest f-range dominate the min-vector of
  // nearly every remote block, so remote scans reject blocks wholesale
  // and never tighten their local threshold — the zone-map headline
  // regime.
  const ResultList& corr = distros[0].sorted;
  const Subspace full = Subspace::FullSpace(dims);
  const int parts = 4;
  const size_t part_size = corr.size() / parts;
  std::vector<ResultList> partitions;
  for (int p = 0; p < parts; ++p) {
    ResultList part(dims);
    const size_t begin = static_cast<size_t>(p) * part_size;
    const size_t end = p + 1 == parts ? corr.size() : begin + part_size;
    for (size_t i = begin; i < end; ++i) {
      part.points.AppendFrom(corr.points, i);
      part.f.push_back(corr.f[i]);
    }
    partitions.push_back(std::move(part));
  }
  const ResultList part_filter = SelectFilterSet(
      SortedSkyline(partitions[0], full), full, 16, nullptr);

  Table part_table({"peer", "points", "scanned", "dom_plain", "dom_skip",
                    "dom_red%", "pages_plain", "pages_skip",
                    "blocks_skipped"});
  uint64_t total_dom_plain = 0, total_dom_skip = 0;
  uint64_t total_pages_plain = 0, total_pages_skip = 0;
  std::vector<StoreSummary> part_summaries;
  part_summaries.reserve(parts);
  for (int p = 0; p < parts; ++p) {
    part_summaries.push_back(StoreSummary::Build(partitions[p], layout));
  }
  for (int p = 1; p < parts; ++p) {
    const StoreView plain_view(&partitions[p], options.page_size);
    const StoreView skip_view(&partitions[p], options.page_size,
                              &part_summaries[p]);
    const SkipOutcome plain = Scan(plain_view, full, &part_filter, false);
    const SkipOutcome skip = Scan(skip_view, full, &part_filter, true);
    CheckIdentical(plain, skip);
    total_dom_plain += plain.stats.ops.dominance_tests;
    total_dom_skip += skip.stats.ops.dominance_tests;
    total_pages_plain += plain.stats.ops.page_reads;
    total_pages_skip += skip.stats.ops.page_reads;
    part_table.AddRow(
        {std::to_string(p), std::to_string(partitions[p].size()),
         std::to_string(plain.stats.scanned),
         std::to_string(plain.stats.ops.dominance_tests),
         std::to_string(skip.stats.ops.dominance_tests),
         Fmt(ReductionPct(plain.stats.ops.dominance_tests,
                          skip.stats.ops.dominance_tests),
             1),
         std::to_string(plain.stats.ops.page_reads),
         std::to_string(skip.stats.ops.page_reads),
         std::to_string(skip.stats.ops.blocks_skipped)});
  }
  const double total_dom_red = ReductionPct(total_dom_plain, total_dom_skip);
  part_table.AddRow({"total", std::to_string(corr.size() - partitions[0].size()),
                     "-", std::to_string(total_dom_plain),
                     std::to_string(total_dom_skip), Fmt(total_dom_red, 1),
                     std::to_string(total_pages_plain),
                     std::to_string(total_pages_skip), "-"});
  part_table.Print();
  // Headline acceptance: across the remote partitions, skipping removes
  // at least 20% of the dominance tests and leaves whole pages unread.
  SKYPEER_CHECK(total_dom_red >= 20.0);
  SKYPEER_CHECK(total_pages_skip < total_pages_plain);

  // Paged section: the last (most-dominated) partition's filter-seeded
  // scan through a pool an order of magnitude smaller than the store.
  // Logical op counts — skip charges included — must be bit-identical
  // to the in-memory block-skip run; pages whose blocks all skip are
  // never fetched, so the physical miss count drops too (printed
  // out-of-band, `physical:` lines are in no deterministic output).
  const ResultList& remote = partitions[parts - 1];
  const size_t frames =
      options.buffer_pages > 0 ? options.buffer_pages : 8;
  BufferManager buffer(options.page_size, frames, ThreadPool::Global());
  const PagedStore paged_store = PagedStore::Build(remote, &buffer);
  const StoreView paged(&paged_store);
  const StoreView mem(&remote, options.page_size,
                      &part_summaries[parts - 1]);

  const SkipOutcome mem_skip = Scan(mem, full, &part_filter, true);
  const SkipOutcome paged_plain = Scan(paged, full, &part_filter, false);
  const SkipOutcome paged_skip = Scan(paged, full, &part_filter, true);
  CheckIdentical(paged_plain, paged_skip);
  SKYPEER_CHECK(paged_skip.result.size() == mem_skip.result.size());
  SKYPEER_CHECK(paged_skip.stats.scanned == mem_skip.stats.scanned);
  SKYPEER_CHECK(paged_skip.stats.ops == mem_skip.stats.ops);
  SKYPEER_CHECK(paged_skip.stats.ops.page_reads < paged_plain.stats.ops.page_reads);
  std::printf(
      "paged: frames=%zu store_pages=%zu page_reads plain=%llu skip=%llu "
      "(-%.1f%%) blocks_skipped=%llu\n",
      frames, paged_store.num_pages(),
      static_cast<unsigned long long>(paged_plain.stats.ops.page_reads),
      static_cast<unsigned long long>(paged_skip.stats.ops.page_reads),
      ReductionPct(paged_plain.stats.ops.page_reads,
                   paged_skip.stats.ops.page_reads),
      static_cast<unsigned long long>(paged_skip.stats.ops.blocks_skipped));

  const BufferManager::Stats stats = buffer.stats();
  std::printf("physical: buffer hits=%llu misses=%llu evictions=%llu\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions));
  return 0;
}

}  // namespace
}  // namespace skypeer::bench

int main(int argc, char** argv) {
  const skypeer::bench::BenchOptions options =
      skypeer::bench::ParseArgs(argc, argv);
  return skypeer::bench::Run(options);
}
