// Equivalence suite for the batched dominance kernels: every batched
// result must match the scalar dominance.h predicates lane by lane, for
// both the forced-scalar and the runtime-dispatched implementation, on
// sizes that exercise partial final blocks and killed lanes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/dominance.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/mapping.h"
#include "skypeer/common/rng.h"
#include "skypeer/data/generator.h"

namespace skypeer {
namespace {

/// Restores runtime dispatch when a test that forced the scalar path exits.
struct ScopedKernelMode {
  explicit ScopedKernelMode(bool force_scalar) {
    SetForceScalarKernels(force_scalar);
  }
  ~ScopedKernelMode() { SetForceScalarKernels(false); }
};

/// Gridded coordinates make equal values (and thus tie-sensitive lanes)
/// common; continuous coordinates exercise the generic ordering.
PointSet RandomPoints(int k, size_t n, uint64_t seed, bool gridded) {
  Rng rng(seed);
  PointSet data(k);
  for (size_t i = 0; i < n; ++i) {
    double row[kMaxDims];
    for (int d = 0; d < k; ++d) {
      row[d] = gridded ? rng.UniformInt(0, 3) / 4.0 : rng.Uniform();
    }
    data.Append(row, i);
  }
  return data;
}

constexpr int kDimSweep[] = {1, 2, 3, 5, 8, 13};
constexpr size_t kSizeSweep[] = {0, 1, 5, 7, 8, 9, 16, 33, 100};

class KernelEquivalenceTest : public ::testing::TestWithParam<bool> {
 protected:
  bool force_scalar() const { return GetParam(); }
};

TEST_P(KernelEquivalenceTest, BlockedMatchesScalarLaneByLane) {
  ScopedKernelMode mode(force_scalar());
  for (int k : kDimSweep) {
    const Subspace full = Subspace::FullSpace(k);
    for (size_t n : kSizeSweep) {
      for (bool gridded : {false, true}) {
        const uint64_t seed = 1000 * k + 10 * n + gridded;
        PointSet window = RandomPoints(k, n, seed, gridded);
        BlockedProjection blocked(k);
        for (size_t i = 0; i < n; ++i) {
          blocked.Append(window[i]);
        }
        ASSERT_EQ(blocked.size(), n);

        PointSet queries = RandomPoints(k, 32, seed ^ 0xabcd, gridded);
        std::vector<uint8_t> masks(blocked.num_blocks());
        std::vector<uint8_t> flags(n);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          const double* q = queries[qi];
          for (bool strict : {false, true}) {
            // Forward: does any window point dominate q?
            bool expect_any = false;
            for (size_t i = 0; i < n; ++i) {
              expect_any =
                  expect_any || (strict ? ExtDominates(window[i], q, full)
                                        : Dominates(window[i], q, full));
            }
            EXPECT_EQ(AnyDominates(blocked, q, strict), expect_any)
                << "k=" << k << " n=" << n << " strict=" << strict;
            EXPECT_EQ(AnyDominatesRows(window.values().data(),
                                       static_cast<size_t>(k), n, k, q,
                                       strict),
                      expect_any);

            // Reverse: which window points does q dominate?
            DominatedMask(blocked, q, strict, masks.data());
            DominatedFlagsRows(window.values().data(), static_cast<size_t>(k),
                               n, k, q, strict, flags.data());
            for (size_t i = 0; i < n; ++i) {
              const bool expect = strict ? ExtDominates(q, window[i], full)
                                         : Dominates(q, window[i], full);
              EXPECT_EQ((masks[i / kDomBlockWidth] >> (i % kDomBlockWidth)) & 1,
                        expect ? 1 : 0)
                  << "k=" << k << " n=" << n << " i=" << i
                  << " strict=" << strict;
              EXPECT_EQ(flags[i] != 0, expect);
            }
            // Padding bits past size() must be clear.
            if (n % kDomBlockWidth != 0 && !masks.empty()) {
              EXPECT_EQ(masks.back() >> (n % kDomBlockWidth), 0);
            }
          }
        }
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, KilledLanesNeverDominate) {
  ScopedKernelMode mode(force_scalar());
  for (int k : {2, 5}) {
    const Subspace full = Subspace::FullSpace(k);
    const size_t n = 21;
    PointSet window = RandomPoints(k, n, 7 * k, /*gridded=*/true);
    BlockedProjection blocked(k);
    for (size_t i = 0; i < n; ++i) {
      blocked.Append(window[i]);
    }
    // Kill every third entry; the survivors alone define forward results.
    std::vector<bool> alive(n, true);
    for (size_t i = 0; i < n; i += 3) {
      blocked.Kill(i);
      alive[i] = false;
    }
    PointSet queries = RandomPoints(k, 16, 99 * k, /*gridded=*/true);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const double* q = queries[qi];
      for (bool strict : {false, true}) {
        bool expect_any = false;
        for (size_t i = 0; i < n; ++i) {
          if (alive[i]) {
            expect_any =
                expect_any || (strict ? ExtDominates(window[i], q, full)
                                      : Dominates(window[i], q, full));
          }
        }
        EXPECT_EQ(AnyDominates(blocked, q, strict), expect_any);
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, BatchMinCoordBitwiseEqual) {
  ScopedKernelMode mode(force_scalar());
  for (int dims : kDimSweep) {
    for (size_t n : kSizeSweep) {
      PointSet data = RandomPoints(dims, n, 31 * dims + n, /*gridded=*/false);
      std::vector<double> batched(n);
      BatchMinCoord(data.values().data(), n, dims, batched.data());
      for (size_t i = 0; i < n; ++i) {
        const double expect = MinCoord(data[i], dims);
        // Bitwise equality, not just numeric: f-values feed sort keys and
        // thresholds that must not depend on the kernel path.
        EXPECT_EQ(batched[i], expect) << "dims=" << dims << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, KernelEquivalenceTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "forced_scalar" : "dispatched";
                         });

TEST(BlockedProjectionTest, AppendRowRoundTripAndBookkeeping) {
  BlockedProjection blocked(3);
  EXPECT_TRUE(blocked.empty());
  EXPECT_EQ(blocked.num_blocks(), 0u);
  PointSet data = RandomPoints(3, 19, 5, /*gridded=*/false);
  for (size_t i = 0; i < data.size(); ++i) {
    blocked.Append(data[i]);
  }
  EXPECT_EQ(blocked.size(), 19u);
  EXPECT_EQ(blocked.num_blocks(), 3u);
  double row[3];
  for (size_t i = 0; i < data.size(); ++i) {
    blocked.Row(i, row);
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(row[d], data[i][d]);
    }
  }
  blocked.Kill(4);
  blocked.Row(4, row);
  for (int d = 0; d < 3; ++d) {
    EXPECT_TRUE(std::isinf(row[d]));
  }
  blocked.Clear();
  EXPECT_TRUE(blocked.empty());
  EXPECT_EQ(blocked.num_blocks(), 0u);
}

TEST(KernelDispatchTest, ForceScalarPinsTheMode) {
  const DomKernelMode detected = ActiveDomKernelMode();
  EXPECT_STRNE(DomKernelModeName(detected), "unknown");
  SetForceScalarKernels(true);
  EXPECT_EQ(ActiveDomKernelMode(), DomKernelMode::kScalar);
  SetForceScalarKernels(false);
  EXPECT_EQ(ActiveDomKernelMode(), detected);
}

// A pathological evict-heavy stream — every offer dominates and evicts the
// previous survivor, so one point is alive while the window accretes dead
// slots — must stay bounded by the compaction policy's 64-slot window.
TEST(AccumulatorCompactionTest, EvictHeavyStreamKeepsWindowBounded) {
  constexpr size_t kMinWindow = 64;
  for (bool use_rtree : {false, true}) {
    ThresholdScanOptions options;
    options.use_rtree = use_rtree;
    SkylineAccumulator accumulator(2, Subspace::FullSpace(2), options);
    size_t max_window = 0;
    const size_t kOffers = 4000;
    for (size_t i = 0; i < kOffers; ++i) {
      // Constant first coordinate keeps f = min coord non-decreasing;
      // the strictly shrinking second coordinate means each point
      // dominates (and evicts) its predecessor.
      const double p[2] = {0.25, 1.0 - static_cast<double>(i) / 8000.0};
      EXPECT_TRUE(accumulator.Offer(p, i, 0.25));
      max_window = std::max(max_window, accumulator.window_size());
      EXPECT_EQ(accumulator.alive(), 1u);
    }
    // alive == 1 < half the window triggers compaction as soon as the
    // window reaches 64 slots, so it can never exceed it.
    EXPECT_LE(max_window, kMinWindow) << "use_rtree=" << use_rtree;
    ResultList result = accumulator.TakeResult();
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result.points.id(0), kOffers - 1);
  }
}

// End-to-end scan bit-identity between the forced-scalar and dispatched
// kernels, on both the linear-window and the R-tree paths.
TEST(KernelDispatchTest, SortedSkylineBitIdenticalAcrossModes) {
  for (int dims : {2, 4, 8}) {
    PointSet data = RandomPoints(dims, 800, 13 * dims, /*gridded=*/true);
    const Subspace u = Subspace::FullSpace(dims);
    for (bool use_rtree : {false, true}) {
      ThresholdScanOptions options;
      options.use_rtree = use_rtree;
      ResultList scalar_result(dims);
      ThresholdScanStats scalar_stats;
      {
        ScopedKernelMode mode(/*force_scalar=*/true);
        ResultList sorted = BuildSortedByF(data);
        scalar_result = SortedSkyline(sorted, u, options, &scalar_stats);
      }
      ResultList dispatched_result(dims);
      ThresholdScanStats dispatched_stats;
      {
        ScopedKernelMode mode(/*force_scalar=*/false);
        ResultList sorted = BuildSortedByF(data);
        dispatched_result = SortedSkyline(sorted, u, options, &dispatched_stats);
      }
      EXPECT_EQ(scalar_result.points.Ids(), dispatched_result.points.Ids());
      EXPECT_EQ(scalar_result.f, dispatched_result.f);
      EXPECT_EQ(scalar_result.points.values(),
                dispatched_result.points.values());
      EXPECT_EQ(scalar_stats.scanned, dispatched_stats.scanned);
      EXPECT_EQ(scalar_stats.final_threshold, dispatched_stats.final_threshold);
    }
  }
}

}  // namespace
}  // namespace skypeer
