// Beyond-RAM store scans: threshold scans over an f-sorted store more
// than 10x larger than the buffer pool serving it, paged vs in-memory.
//
// The bench builds one large f-sorted store, spills it through a
// deliberately small pinning buffer pool (`--buffer-pages`, default 16
// frames here — the store is sized to >= 10x the pool by construction)
// and runs unconstrained subspace scans in both store modes. It reports
// wall time per mode and the measured
// paged/in-memory slowdown, and *asserts* the paging contract on every
// row: identical skylines and identical op counts — including the
// logical `page_reads`/`page_bytes` charges, which are pure functions of
// the scan and never of the pool — across modes, repeats and thread
// counts. Physical pool statistics are printed out-of-band under the
// `physical:` prefix and appear in no deterministic output.
//
//   ./bench_paged_scan [--buffer-pages N] [--page-size B] [--threads N]
//                      [--seed S] [--json PATH] [--full]

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "skypeer/algo/result_list.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/macros.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/data/generator.h"
#include "skypeer/storage/buffer_manager.h"
#include "skypeer/storage/page_layout.h"
#include "skypeer/storage/paged_store.h"
#include "skypeer/storage/store_view.h"

namespace skypeer::bench {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ScanOutcome {
  size_t result_size = 0;
  size_t scanned = 0;
  OpCounts ops;
  double best_wall_s = 0.0;
};

/// Runs `scan` `repeats` times, keeping the best wall time and CHECKing
/// that every repeat reproduces the same result size, scan count and op
/// counts (the determinism half of the paging contract).
template <typename Scan>
ScanOutcome Repeat(int repeats, const Scan& scan) {
  ScanOutcome outcome;
  for (int r = 0; r < repeats; ++r) {
    ThresholdScanStats stats;
    const auto start = std::chrono::steady_clock::now();
    const ResultList result = scan(&stats);
    const double wall = SecondsSince(start);
    if (r == 0) {
      outcome.result_size = result.size();
      outcome.scanned = stats.scanned;
      outcome.ops = stats.ops;
      outcome.best_wall_s = wall;
    } else {
      SKYPEER_CHECK(result.size() == outcome.result_size);
      SKYPEER_CHECK(stats.scanned == outcome.scanned);
      SKYPEER_CHECK(stats.ops == outcome.ops);
      outcome.best_wall_s = std::min(outcome.best_wall_s, wall);
    }
  }
  return outcome;
}

int Run(const BenchOptions& options) {
  const int dims = 6;
  const size_t frames = options.buffer_pages > 0 ? options.buffer_pages : 16;
  const PageLayout layout(options.page_size, dims);
  // Size the store to >= 10x the pool by construction (12x, and 40x
  // under --full).
  const size_t multiplier = options.full ? 40 : 12;
  const size_t points = frames * layout.points_per_page() * multiplier;
  const int repeats = options.QueriesOr(3, 5);

  Rng rng(options.seed);
  const ResultList store_list =
      BuildSortedByF(GenerateUniform(dims, points, &rng));
  BufferManager buffer(options.page_size, frames, ThreadPool::Global());
  const PagedStore paged_store = PagedStore::Build(store_list, &buffer);

  const size_t store_pages = paged_store.num_pages();
  const double capacity_ratio =
      static_cast<double>(store_pages) / static_cast<double>(frames);
  std::printf(
      "# points=%zu dims=%d page_size=%zu store_pages=%zu pool_frames=%zu "
      "capacity_ratio=%.1fx repeats=%d threads=%d cost_model=%s\n",
      points, dims, options.page_size, store_pages, frames, capacity_ratio,
      repeats, ThreadPool::Global()->num_threads(),
      CostModelModeName(options.cost_model.mode));
  SKYPEER_CHECK(capacity_ratio >= 10.0);

  const StoreView in_memory(&store_list, options.page_size);
  const StoreView paged(&paged_store);

  const std::vector<Subspace> subspaces = {
      Subspace::FromDims({0, 1}),
      Subspace::FromDims({0, 1, 2, 3}),
      Subspace::FullSpace(dims),
  };

  Table table({"k", "result", "scanned", "page_reads", "mem_ms", "paged_ms",
               "slowdown"});
  for (const Subspace& u : subspaces) {
    ThresholdScanOptions scan_options;  // Unconstrained full-store scan.

    const ScanOutcome mem = Repeat(repeats, [&](ThresholdScanStats* stats) {
      return SortedSkyline(in_memory, u, scan_options, stats);
    });
    const ScanOutcome pgd = Repeat(repeats, [&](ThresholdScanStats* stats) {
      return SortedSkyline(paged, u, scan_options, stats);
    });
    // The paging contract: identical result and identical op counts —
    // page charges included — in both modes.
    SKYPEER_CHECK(pgd.result_size == mem.result_size);
    SKYPEER_CHECK(pgd.scanned == mem.scanned);
    SKYPEER_CHECK(pgd.ops == mem.ops);

    table.AddRow({std::to_string(u.Count()), std::to_string(mem.result_size),
                  std::to_string(mem.scanned),
                  std::to_string(mem.ops.page_reads), FmtMs(mem.best_wall_s),
                  FmtMs(pgd.best_wall_s),
                  Fmt(pgd.best_wall_s / std::max(1e-9, mem.best_wall_s), 2)});
  }
  table.Print();

  // Physical pool behavior — out-of-band observability only; no
  // deterministic output above depends on any of these numbers.
  const BufferManager::Stats stats = buffer.stats();
  std::printf(
      "physical: buffer hits=%" PRIu64 " misses=%" PRIu64
      " evictions=%" PRIu64 " prefetches=%" PRIu64 " prefetch_hits=%" PRIu64
      " pages_written=%" PRIu64 "\n",
      stats.hits, stats.misses, stats.evictions, stats.prefetches_issued,
      stats.prefetch_hits, stats.pages_written);
  return 0;
}

}  // namespace
}  // namespace skypeer::bench

int main(int argc, char** argv) {
  const skypeer::bench::BenchOptions options =
      skypeer::bench::ParseArgs(argc, argv);
  return skypeer::bench::Run(options);
}
