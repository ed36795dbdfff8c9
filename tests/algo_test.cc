// Tests for the centralized skyline substrate: cross-algorithm
// equivalence (BNL = SFS = SortedSkyline) over a parameterized
// sweep, BNL's blocked window against the scalar window,
// SkylineAccumulator semantics, scan traces against fresh scans,
// Algorithm 2 merging, and the f-sorted list builder.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/algo/merge.h"
#include "skypeer/algo/result_list.h"
#include "skypeer/algo/scan_trace.h"
#include "skypeer/algo/sfs.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/dominance.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/data/generator.h"
#include "skypeer/storage/buffer_manager.h"
#include "skypeer/storage/paged_store.h"
#include "skypeer/storage/store_view.h"

#include "scalar_window.h"

namespace skypeer {
namespace {

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

PointSet MakeData(Distribution distribution, int dims, size_t n,
                  uint64_t seed) {
  Rng rng(seed);
  switch (distribution) {
    case Distribution::kUniform:
      return GenerateUniform(dims, n, &rng);
    case Distribution::kClustered:
      return GenerateClustered(RandomCentroid(dims, &rng), n, kClusterStdDev,
                               &rng);
    case Distribution::kCorrelated:
      return GenerateCorrelated(dims, n, &rng);
    case Distribution::kAnticorrelated:
      return GenerateAnticorrelated(dims, n, &rng);
  }
  return PointSet(dims);
}

// Reference skyline: quadratic double loop, no cleverness at all.
std::vector<PointId> ReferenceSkyline(const PointSet& points, Subspace u,
                                      bool ext) {
  std::vector<PointId> result;
  for (size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < points.size() && !dominated; ++j) {
      if (i == j) {
        continue;
      }
      dominated = ext ? ExtDominates(points[j], points[i], u)
                      : Dominates(points[j], points[i], u);
    }
    if (!dominated) {
      result.push_back(points.id(i));
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

// --- fixed, hand-checked instances -------------------------------------

TEST(Bnl, PaperFigure2PeerA) {
  // Peer P_A from the paper's Figure 2: A1..A5, dimensionality 4.
  // Skyline = {A1, A2, A4, A5}; ext-skyline additionally contains A3.
  PointSet data(4, {{2, 2, 2, 2},    // A1 (id 0)
                    {1, 3, 2, 3},    // A2 (id 1)
                    {1, 3, 5, 4},    // A3 (id 2)
                    {2, 3, 2, 1},    // A4 (id 3)
                    {5, 2, 4, 1}});  // A5 (id 4)
  Subspace full = Subspace::FullSpace(4);
  EXPECT_EQ(SortedIds(BnlSkyline(data, full)),
            (std::vector<PointId>{0, 1, 3, 4}));
  EXPECT_EQ(SortedIds(BnlSkyline(data, full, /*ext=*/true)),
            (std::vector<PointId>{0, 1, 2, 3, 4}));
}

TEST(Bnl, PaperFigure2PeerC) {
  // Peer P_C: skyline {C4}; ext-skyline {C4, C5} per the paper's text.
  PointSet data(4, {{5, 7, 6, 8},    // C1 (id 0)
                    {7, 5, 8, 5},    // C2 (id 1)
                    {6, 5, 5, 6},    // C3 (id 2)
                    {1, 1, 3, 4},    // C4 (id 3)
                    {6, 6, 6, 4}});  // C5 (id 4)
  Subspace full = Subspace::FullSpace(4);
  EXPECT_EQ(SortedIds(BnlSkyline(data, full)), (std::vector<PointId>{3}));
  EXPECT_EQ(SortedIds(BnlSkyline(data, full, /*ext=*/true)),
            (std::vector<PointId>{3, 4}));
}

TEST(Bnl, AllEqualPointsAreAllSkyline) {
  PointSet data(2, {{1, 1}, {1, 1}, {1, 1}});
  EXPECT_EQ(BnlSkyline(data, Subspace::FullSpace(2)).size(), 3u);
  EXPECT_EQ(BnlSkyline(data, Subspace::FullSpace(2), true).size(), 3u);
}

TEST(Bnl, SingleDimension) {
  PointSet data(3, {{5, 0, 0}, {3, 9, 9}, {3, 1, 1}, {4, 0, 0}});
  // On dim 0 only: minimum value 3 appears twice; both are skyline.
  EXPECT_EQ(SortedIds(BnlSkyline(data, Subspace::FromDims({0}))),
            (std::vector<PointId>{1, 2}));
}

TEST(Bnl, EmptyInput) {
  PointSet data(2);
  EXPECT_TRUE(BnlSkyline(data, Subspace::FullSpace(2)).empty());
}

// --- BNL on the blocked window vs the scalar BNL loop -------------------

/// The scalar window over `input` in order, the oracle of the
/// blocked-window BNL: ids in window order and the counting rule's tests.
ScalarWindow ScalarBnl(const PointSet& input, Subspace u, bool ext) {
  ScalarWindow window(input.dims(), u, ext);
  for (size_t i = 0; i < input.size(); ++i) {
    window.Offer(input[i], input.id(i), /*f=*/0.0);
  }
  return window;
}

/// Uniform points, or points on a coarse 4-value grid with every fifth
/// point a copy of an earlier one, so ties and duplicates are common.
PointSet BnlInput(int dims, size_t n, uint64_t seed, bool gridded) {
  Rng rng(seed);
  PointSet data(dims);
  for (size_t i = 0; i < n; ++i) {
    double row[kMaxDims];
    if (gridded && i % 5 == 4) {
      const auto earlier =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
      std::copy_n(data[earlier], dims, row);
    } else {
      for (int d = 0; d < dims; ++d) {
        row[d] = gridded ? rng.UniformInt(0, 3) / 4.0 : rng.Uniform();
      }
    }
    data.Append(row, i);
  }
  return data;
}

void ExpectMatchesScalarBnl(const PointSet& result, const OpCounts& ops,
                            const ScalarWindow& oracle, const PointSet& input,
                            const std::string& context) {
  EXPECT_EQ(result.Ids(), oracle.Ids()) << context;
  EXPECT_EQ(ops.dominance_tests, oracle.ops().dominance_tests) << context;
  EXPECT_EQ(ops.scan_steps, input.size()) << context;
  // Rows travel with their ids.
  for (size_t i = 0; i < result.size(); ++i) {
    const size_t src = static_cast<size_t>(result.id(i));
    EXPECT_TRUE(std::equal(result[i], result[i] + input.dims(), input[src]))
        << context << " row " << i;
  }
}

// Ids in window order, dominance tests, scan steps and page charges of
// `BnlSkyline` and `BnlSkylineView` (resident and paged) equal the scalar
// loop's, under both kernel families.
TEST(Bnl, BlockedWindowMatchesScalarLoop) {
  constexpr size_t kPageSize = 4096;
  for (bool force_scalar : {false, true}) {
    SetForceScalarKernels(force_scalar);
    for (int dims : {2, 3, 5, 8}) {
      for (bool gridded : {false, true}) {
        for (size_t n : {0u, 1u, 9u, 300u}) {
          const uint64_t seed = 97 * dims + 7 * n + gridded;
          const PointSet data = BnlInput(dims, n, seed, gridded);
          const ResultList sorted = BuildSortedByF(data);
          BufferManager buffer(kPageSize, 3);
          const PagedStore paged_store = PagedStore::Build(sorted, &buffer);
          std::vector<Subspace> subspaces = {Subspace::FullSpace(dims),
                                             Subspace::FromDims({0})};
          if (dims >= 3) {
            subspaces.push_back(Subspace::FromDims({0, 2}));
          }
          for (Subspace u : subspaces) {
            for (bool ext : {false, true}) {
              const std::string context =
                  "scalar=" + std::to_string(force_scalar) +
                  " d=" + std::to_string(dims) + " n=" + std::to_string(n) +
                  " gridded=" + std::to_string(gridded) + " u=" +
                  u.ToString() + " ext=" + std::to_string(ext);
              OpCounts ops;
              const PointSet bnl = BnlSkyline(data, u, ext, &ops);
              ExpectMatchesScalarBnl(bnl, ops, ScalarBnl(data, u, ext), data,
                                     context);
              EXPECT_EQ(ops.page_reads, 0u) << context;

              // Views stream the f-sorted store in its own order.
              const ScalarWindow oracle = ScalarBnl(sorted.points, u, ext);
              OpCounts expect_pages;
              ChargeScanPages(PageLayout(kPageSize, dims), n, n,
                              &expect_pages);
              for (const StoreView& view :
                   {StoreView(&sorted, kPageSize), StoreView(&paged_store)}) {
                const std::string view_context =
                    context + (view.paged() ? " paged" : " resident");
                OpCounts view_ops;
                const PointSet result = BnlSkylineView(view, u, ext, &view_ops);
                ExpectMatchesScalarBnl(result, view_ops, oracle, data,
                                       view_context);
                EXPECT_EQ(view_ops.page_reads, expect_pages.page_reads)
                    << view_context;
                EXPECT_EQ(view_ops.page_bytes, expect_pages.page_bytes)
                    << view_context;
              }
            }
          }
        }
      }
    }
  }
  SetForceScalarKernels(false);
}

void ExpectSameScan(const ResultList& cut, const ThresholdScanStats& cut_stats,
                    const ResultList& fresh,
                    const ThresholdScanStats& fresh_stats,
                    const std::string& context) {
  EXPECT_EQ(cut.points.Ids(), fresh.points.Ids()) << context;
  EXPECT_EQ(cut.f, fresh.f) << context;
  EXPECT_EQ(cut.points.values(), fresh.points.values()) << context;
  EXPECT_EQ(cut_stats.final_threshold, fresh_stats.final_threshold)
      << context;
  EXPECT_EQ(cut_stats.scanned, fresh_stats.scanned) << context;
  EXPECT_TRUE(cut_stats.ops == fresh_stats.ops)
      << context << "\n  cut:   " << cut_stats.ops.ToString()
      << "\n  fresh: " << fresh_stats.ops.ToString();
}

TEST(ScanTrace, EveryCutEqualsAFreshScan) {
  // The prefix property: on one store and subspace, the scan from any
  // threshold and BNL over the whole store are prefixes of one window
  // evolution. Every cut from any trace that covers it must equal a fresh
  // `SortedSkyline` (or `BnlSkylineView`) in ids, order, f, rows, final
  // threshold, scanned count and every `OpCounts` field, on uniform,
  // anti-correlated and 3-value-grid stores (ties, equal f), every
  // subspace, thresholds below, at and above the store's own stop, and
  // resident and small-page paged views.
  constexpr size_t kPageSize = kMinPageSize;
  constexpr int kDims = 4;
  constexpr size_t kPoints = 400;
  const double inf = std::numeric_limits<double>::infinity();
  const char* const kStores[] = {"uniform", "anticorrelated", "grid"};
  for (int store_kind = 0; store_kind < 3; ++store_kind) {
    Rng rng(41 + store_kind);
    PointSet data(kDims);
    if (store_kind == 0) {
      data = GenerateUniform(kDims, kPoints, &rng);
    } else if (store_kind == 1) {
      data = GenerateAnticorrelated(kDims, kPoints, &rng);
    } else {
      for (size_t i = 0; i < kPoints; ++i) {
        double row[kDims];
        for (double& x : row) {
          x = rng.UniformInt(0, 2) / 2.0;
        }
        data.Append(row, i);
      }
    }
    const ResultList sorted = BuildSortedByF(data);
    BufferManager buffer(kPageSize, 3);
    const PagedStore paged_store = PagedStore::Build(sorted, &buffer);
    ASSERT_GT(paged_store.num_pages(), 3u);
    for (uint32_t mask = 1; mask < (1u << kDims); ++mask) {
      const Subspace u(mask);
      for (const StoreView& view :
           {StoreView(&sorted, kPageSize), StoreView(&paged_store)}) {
        const std::string context =
            std::string(kStores[store_kind]) + " u=" + u.ToString() +
            (view.paged() ? " paged" : " resident");
        ThresholdScanStats open_stats;
        SortedSkyline(view, u, {}, &open_stats);
        const double stop = open_stats.final_threshold;
        const std::vector<double> thresholds = {
            stop - 0.25, std::nextafter(stop, -inf), stop,
            std::nextafter(stop, inf), stop + 0.25, inf};

        OpCounts bnl_ops;
        const ResultList bnl =
            BuildSortedByF(BnlSkylineView(view, u, /*ext=*/false, &bnl_ops));
        ThresholdScanStats bnl_stats;
        bnl_stats.scanned = view.size();
        bnl_stats.ops = bnl_ops;

        // One trace re-records every time, as a node's does.
        ScanTrace trace;
        EXPECT_FALSE(trace.Covers(-inf, /*to_end=*/false)) << context;
        std::vector<double> recordings = thresholds;
        recordings.push_back(inf);  // the last one records BNL
        for (size_t r = 0; r < recordings.size(); ++r) {
          const bool bnl_recording = r + 1 == recordings.size();
          trace.Record(view, u, recordings[r], bnl_recording);
          const std::string trace_context =
              context + " recorded=" +
              (bnl_recording ? std::string("bnl")
                             : std::to_string(recordings[r]));
          ThresholdScanStats recorded_stats;
          SortedSkyline(view, u, {.initial_threshold = recordings[r]},
                        &recorded_stats);
          const bool reached_end =
              bnl_recording || recorded_stats.scanned == view.size();
          EXPECT_EQ(trace.Covers(inf, /*to_end=*/true), reached_end)
              << trace_context;
          for (double threshold : thresholds) {
            EXPECT_EQ(trace.Covers(threshold, /*to_end=*/false),
                      reached_end || threshold <= recordings[r])
                << trace_context;
            if (!trace.Covers(threshold, /*to_end=*/false)) {
              continue;
            }
            ThresholdScanStats fresh_stats;
            const ResultList fresh = SortedSkyline(
                view, u, {.initial_threshold = threshold}, &fresh_stats);
            ThresholdScanStats cut_stats;
            const ResultList cut =
                trace.Cut(view, threshold, /*to_end=*/false, &cut_stats);
            ExpectSameScan(cut, cut_stats, fresh, fresh_stats,
                           trace_context +
                               " threshold=" + std::to_string(threshold));
          }
          if (trace.Covers(inf, /*to_end=*/true)) {
            ThresholdScanStats cut_stats;
            const ResultList cut =
                trace.Cut(view, inf, /*to_end=*/true, &cut_stats);
            bnl_stats.final_threshold = inf;
            ExpectSameScan(cut, cut_stats, bnl, bnl_stats,
                           trace_context + " bnl");
          }
        }
      }
    }
  }
}

TEST(SortedSkyline, StatsReportScanAndThreshold) {
  // Points sorted by f: the scan must stop early.
  PointSet data(2, {{0.1, 0.1},    // f=0.1, dist=0.1 -> threshold 0.1
                    {0.2, 0.05},   // f=0.05 ... appears first after sort
                    {0.5, 0.6},    // f=0.5 > 0.1: never scanned
                    {0.9, 0.8}});  // f=0.8: never scanned
  ResultList sorted = BuildSortedByF(data);
  ThresholdScanStats stats;
  ResultList result =
      SortedSkyline(sorted, Subspace::FullSpace(2), {}, &stats);
  EXPECT_EQ(stats.scanned, 2u);
  EXPECT_EQ(stats.final_threshold, 0.1);
  EXPECT_EQ(SortedIds(result.points), (std::vector<PointId>{0, 1}));
}

TEST(SortedSkyline, InitialThresholdPrunesEverything) {
  PointSet data(2, {{0.5, 0.5}, {0.6, 0.7}});
  ResultList sorted = BuildSortedByF(data);
  ThresholdScanOptions options;
  options.initial_threshold = 0.2;  // Smaller than every f.
  ThresholdScanStats stats;
  ResultList result =
      SortedSkyline(sorted, Subspace::FullSpace(2), options, &stats);
  EXPECT_TRUE(result.empty());
  EXPECT_EQ(stats.scanned, 0u);
}

TEST(SortedSkyline, TieWithThresholdIsNotLost) {
  // q ties p on every queried dimension and has f == dist_U(p): a scan
  // with a strict `<` stop condition would drop it. Exactness requires
  // both in the skyline.
  PointSet data(2, {{0.3, 0.3}, {0.3, 0.3}});
  ResultList sorted = BuildSortedByF(data);
  ResultList result = SortedSkyline(sorted, Subspace::FullSpace(2));
  EXPECT_EQ(result.size(), 2u);
}

TEST(BuildSortedByF, SortsAndComputesF) {
  PointSet data(3, {{0.9, 0.5, 0.7}, {0.2, 0.8, 0.4}, {0.6, 0.1, 0.9}});
  ResultList sorted = BuildSortedByF(data);
  ASSERT_TRUE(sorted.IsSorted());
  EXPECT_EQ(sorted.f, (std::vector<double>{0.1, 0.2, 0.5}));
  EXPECT_EQ(sorted.points.id(0), 2u);
  EXPECT_EQ(sorted.points.id(1), 1u);
  EXPECT_EQ(sorted.points.id(2), 0u);
}

TEST(ResultList, IsSortedDetectsViolations) {
  ResultList list(2);
  PointSet data(2, {{0.5, 0.5}, {0.1, 0.9}});
  list.points.AppendAll(data);
  list.f = {0.5, 0.1};
  EXPECT_FALSE(list.IsSorted());
  list.f = {0.1, 0.5};
  EXPECT_TRUE(list.IsSorted());
  list.f = {0.1};
  EXPECT_FALSE(list.IsSorted());  // Not parallel.
}

// --- SkylineAccumulator -------------------------------------------------

TEST(SkylineAccumulator, EvictsDominatedEarlierPoints) {
  // Earlier point with smaller f can still be dominated by a later point.
  ThresholdScanOptions options;
  SkylineAccumulator acc(2, Subspace::FullSpace(2), options);
  const double a[] = {0.1, 0.9};  // f = 0.1
  const double b[] = {0.2, 0.3};  // f = 0.2, incomparable to a
  const double c[] = {0.2, 0.25};  // dominates b (later f? 0.2 == 0.2)
  EXPECT_TRUE(acc.Offer(a, 1, 0.1));
  EXPECT_TRUE(acc.Offer(b, 2, 0.2));
  EXPECT_TRUE(acc.Offer(c, 3, 0.2));
  EXPECT_EQ(acc.alive(), 2u);
  ResultList result = acc.TakeResult();
  EXPECT_EQ(SortedIds(result.points), (std::vector<PointId>{1, 3}));
}

TEST(SkylineAccumulator, ThresholdMonotonicallyDecreases) {
  ThresholdScanOptions options;
  SkylineAccumulator acc(2, Subspace::FullSpace(2), options);
  Rng rng(5);
  double last = acc.threshold();
  for (int i = 0; i < 100; ++i) {
    double p[2] = {rng.Uniform(), rng.Uniform()};
    acc.Offer(p, i, std::min(p[0], p[1]));
    EXPECT_LE(acc.threshold(), last);
    last = acc.threshold();
  }
}

TEST(SkylineAccumulator, TakeResultResetsState) {
  ThresholdScanOptions options;
  SkylineAccumulator acc(2, Subspace::FullSpace(2), options);
  const double a[] = {0.5, 0.5};
  acc.Offer(a, 1, 0.5);
  ResultList first = acc.TakeResult();
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(acc.alive(), 0u);
  // Note: threshold keeps its tightened value by design; a fresh
  // accumulator is needed for an independent scan.
  ResultList second = acc.TakeResult();
  EXPECT_TRUE(second.empty());
}

// --- Algorithm 2 (merge) ------------------------------------------------

TEST(Merge, TwoListsBasic) {
  PointSet a(2, {{0.1, 0.9}, {0.8, 0.8}});
  PointSet b(2, {{0.9, 0.1}, {0.85, 0.84}});
  // Give b distinct ids.
  PointSet b_ids(2);
  b_ids.Append(b[0], 10);
  b_ids.Append(b[1], 11);
  std::vector<ResultList> lists;
  lists.push_back(BuildSortedByF(a));
  lists.push_back(BuildSortedByF(b_ids));
  ResultList merged = MergeSortedSkylines(lists, Subspace::FullSpace(2));
  // {0.1,0.9} and {0.9,0.1} are incomparable; {0.8,0.8} dominates
  // {0.85,0.84}; nothing dominates {0.8,0.8}.
  EXPECT_EQ(SortedIds(merged.points), (std::vector<PointId>{0, 1, 10}));
  EXPECT_TRUE(merged.IsSorted());
}

TEST(Merge, EquivalentToConcatenatedScan) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const int dims = 3 + trial % 3;
    std::vector<ResultList> lists;
    PointSet all(dims);
    PointId next_id = 0;
    const int num_lists = 1 + trial % 5;
    for (int l = 0; l < num_lists; ++l) {
      PointSet data =
          GenerateUniform(dims, 50 + 20 * l, &rng, next_id);
      next_id += data.size();
      all.AppendAll(data);
      // Lists must themselves be skylines? No — Algorithm 2 only needs
      // f-sorted lists; feed raw sorted data to stress it.
      lists.push_back(BuildSortedByF(data));
    }
    for (Subspace u :
         {Subspace::FullSpace(dims), Subspace::FromDims({0, 1})}) {
      ResultList merged = MergeSortedSkylines(lists, u);
      EXPECT_EQ(SortedIds(merged.points), ReferenceSkyline(all, u, false))
          << "trial " << trial << " u=" << u.ToString();
    }
  }
}

TEST(Merge, ExtMergeMatchesReference) {
  Rng rng(23);
  const int dims = 4;
  std::vector<ResultList> lists;
  PointSet all(dims);
  for (int l = 0; l < 4; ++l) {
    PointSet data = GenerateUniform(dims, 80, &rng, l * 1000);
    all.AppendAll(data);
    lists.push_back(BuildSortedByF(data));
  }
  ThresholdScanOptions options;
  options.ext = true;
  ResultList merged =
      MergeSortedSkylines(lists, Subspace::FullSpace(dims), options);
  EXPECT_EQ(SortedIds(merged.points),
            ReferenceSkyline(all, Subspace::FullSpace(dims), true));
}

TEST(Merge, SingleListEqualsSortedSkyline) {
  PointSet data = MakeData(Distribution::kUniform, 4, 200, 31);
  std::vector<ResultList> lists;
  lists.push_back(BuildSortedByF(data));
  Subspace u = Subspace::FromDims({1, 3});
  EXPECT_EQ(SortedIds(MergeSortedSkylines(lists, u).points),
            SortedIds(SortedSkyline(lists[0], u).points));
}

TEST(Merge, EmptyListsYieldEmptyResult) {
  std::vector<ResultList> lists;
  lists.emplace_back(3);
  lists.emplace_back(3);
  ResultList merged = MergeSortedSkylines(lists, Subspace::FullSpace(3));
  EXPECT_TRUE(merged.empty());
}

TEST(Merge, ZeroListsWithExplicitDimsYieldEmptyResult) {
  // A super-peer drained of every peer merges zero lists; there is no
  // dims source among the inputs, so the explicit-dims overload must
  // return an empty result instead of aborting.
  ThresholdScanOptions options;
  options.initial_threshold = 0.75;
  ThresholdScanStats stats;
  const ResultList merged = MergeSortedSkylines(
      3, std::vector<const ResultList*>{}, Subspace::FullSpace(3), options,
      &stats);
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(merged.points.dims(), 3);
  EXPECT_EQ(stats.scanned, 0u);
  EXPECT_EQ(stats.final_threshold, 0.75);

  const ResultList ext_merged = MergeSortedSkylines(
      2, std::vector<ResultList>{}, Subspace::FullSpace(2),
      ThresholdScanOptions{.ext = true});
  EXPECT_TRUE(ext_merged.empty());
  EXPECT_EQ(ext_merged.points.dims(), 2);
}

TEST(Merge, InitialThresholdPrunes) {
  PointSet data(2, {{0.5, 0.5}, {0.7, 0.8}});
  std::vector<ResultList> lists;
  lists.push_back(BuildSortedByF(data));
  ThresholdScanOptions options;
  options.initial_threshold = 0.1;
  ThresholdScanStats stats;
  ResultList merged =
      MergeSortedSkylines(lists, Subspace::FullSpace(2), options, &stats);
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(stats.scanned, 0u);
}

// --- window compaction --------------------------------------------------

/// Eviction-heavy input: ascending f (driven by dimension 1) while
/// dimension 0 descends, so on U={0} every offer strictly dominates and
/// evicts all earlier points. Without compaction the window holds every
/// point ever offered with a single survivor.
PointSet EvictionHeavyData(size_t n) {
  PointSet data(2);
  for (size_t i = 0; i < n; ++i) {
    const double row[2] = {1.0 - 0.001 * static_cast<double>(i),
                           0.001 * static_cast<double>(i)};
    data.Append(row, static_cast<PointId>(i));
  }
  return data;
}

TEST(SkylineAccumulator, CompactionKeepsResultsUnchanged) {
  const PointSet data = EvictionHeavyData(300);
  const ResultList sorted = BuildSortedByF(data);
  const Subspace u = Subspace::FromDims({0});
  for (bool ext : {false, true}) {
    ThresholdScanOptions options;
    options.ext = ext;
    const ResultList result = SortedSkyline(sorted, u, options);
    EXPECT_EQ(SortedIds(result.points), ReferenceSkyline(data, u, ext))
        << "ext=" << ext;
  }
}

TEST(SkylineAccumulator, CompactionWithInterleavedSurvivors) {
  // Mix the evicting sequence with incomparable survivors so compaction
  // must preserve several alive entries and their f-order, not just a
  // single point.
  Rng rng(91);
  PointSet data(3);
  PointId id = 0;
  for (size_t i = 0; i < 400; ++i) {
    const double t = 0.001 * static_cast<double>(i);
    const double evict_row[3] = {0.9 - t, t, 0.95};
    data.Append(evict_row, id++);
    const double keep_row[3] = {rng.Uniform(), t, 0.1 + 0.5 * rng.Uniform()};
    data.Append(keep_row, id++);
  }
  const ResultList sorted = BuildSortedByF(data);
  for (Subspace u : {Subspace::FromDims({0}), Subspace::FromDims({0, 2}),
                     Subspace::FullSpace(3)}) {
    const ResultList result = SortedSkyline(sorted, u);
    EXPECT_EQ(SortedIds(result.points), ReferenceSkyline(data, u, false))
        << "u=" << u.ToString();
    EXPECT_TRUE(result.IsSorted());
  }
}

// --- cross-algorithm equivalence sweep ----------------------------------

class SkylineEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<Distribution, int, int, bool>> {
 protected:
  Distribution distribution() const { return std::get<0>(GetParam()); }
  int dims() const { return std::get<1>(GetParam()); }
  int n() const { return std::get<2>(GetParam()); }
  bool ext() const { return std::get<3>(GetParam()); }
};

TEST_P(SkylineEquivalenceTest, AllAlgorithmsAgree) {
  PointSet data =
      MakeData(distribution(), dims(), n(), 7919 * dims() + n());
  ResultList sorted = BuildSortedByF(data);
  std::vector<Subspace> subspaces = {Subspace::FullSpace(dims())};
  if (dims() >= 3) {
    subspaces.push_back(Subspace::FromDims({0, 2}));
    subspaces.push_back(Subspace::FromDims({1}));
  }
  for (Subspace u : subspaces) {
    const std::vector<PointId> expected = ReferenceSkyline(data, u, ext());
    EXPECT_EQ(SortedIds(BnlSkyline(data, u, ext())), expected)
        << "BNL " << u.ToString();
    EXPECT_EQ(SortedIds(SfsSkyline(data, u, ext())), expected)
        << "SFS " << u.ToString();
    ThresholdScanOptions options;
    options.ext = ext();
    EXPECT_EQ(SortedIds(SortedSkyline(sorted, u, options).points), expected)
        << "SortedSkyline " << u.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkylineEquivalenceTest,
    ::testing::Combine(::testing::Values(Distribution::kUniform,
                                         Distribution::kClustered,
                                         Distribution::kCorrelated,
                                         Distribution::kAnticorrelated),
                       ::testing::Values(2, 4, 6),
                       ::testing::Values(40, 400),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(DistributionName(std::get<0>(info.param))) + "_d" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_ext" : "_sky");
    });

// Ties are where skyline algorithms usually break: duplicate coordinates
// from a coarse grid.
TEST(SkylineEquivalence, GriddedDataWithManyTies) {
  Rng rng(555);
  PointSet data(3);
  for (int i = 0; i < 300; ++i) {
    double row[3];
    for (int d = 0; d < 3; ++d) {
      row[d] = rng.UniformInt(0, 3) / 4.0;
    }
    data.Append(row, i);
  }
  ResultList sorted = BuildSortedByF(data);
  for (Subspace u : AllSubspaces(3)) {
    for (bool ext : {false, true}) {
      const std::vector<PointId> expected = ReferenceSkyline(data, u, ext);
      EXPECT_EQ(SortedIds(BnlSkyline(data, u, ext)), expected);
      EXPECT_EQ(SortedIds(SfsSkyline(data, u, ext)), expected);
      ThresholdScanOptions options;
      options.ext = ext;
      EXPECT_EQ(SortedIds(SortedSkyline(sorted, u, options).points),
                expected);
    }
  }
}

}  // namespace
}  // namespace skypeer
