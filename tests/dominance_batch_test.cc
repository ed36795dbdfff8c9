// Equivalence suite for the batched dominance kernels: every batched
// result must match the scalar dominance.h predicates lane by lane (and
// `FirstDominator` the first scalar dominator in window order), for
// both the forced-scalar and the runtime-dispatched implementation, on
// every width up to kMaxDims and on sizes that exercise partial final
// blocks and erased lanes. The accumulator suite checks the window's
// counting rule and the append-only path against the scalar window.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/dominance.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/mapping.h"
#include "skypeer/common/rng.h"
#include "skypeer/data/generator.h"

#include "scalar_window.h"

namespace skypeer {
namespace {

/// Restores runtime dispatch when a test that forced the scalar path exits.
struct ScopedKernelMode {
  explicit ScopedKernelMode(bool force_scalar) {
    SetForceScalarKernels(force_scalar);
  }
  ~ScopedKernelMode() { SetForceScalarKernels(false); }
};

/// Seeds every row of `seed` into `window`, as `SeedWindow` does.
void SeedAll(const ResultList& seed, ScalarWindow* window) {
  for (size_t i = 0; i < seed.size(); ++i) {
    window->Seed(seed.points[i], seed.points.id(i), seed.f[i]);
  }
}

/// How `RandomPoints` draws coordinates. Gridded coordinates make equal
/// values (and thus tie-sensitive lanes) common; continuous coordinates
/// exercise the generic ordering; infinite ones are gridded with about a
/// sixth of the coordinates at -inf or +inf, so rows may hold both.
enum class Coords { kContinuous, kGridded, kInfinite };

constexpr Coords kAllCoords[] = {Coords::kContinuous, Coords::kGridded,
                                 Coords::kInfinite};

const char* CoordsName(Coords coords) {
  switch (coords) {
    case Coords::kContinuous:
      return "continuous";
    case Coords::kGridded:
      return "gridded";
    case Coords::kInfinite:
      return "infinite";
  }
  return "?";
}

PointSet RandomPoints(int k, size_t n, uint64_t seed, Coords coords) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(seed);
  PointSet data(k);
  for (size_t i = 0; i < n; ++i) {
    double row[kMaxDims];
    for (int d = 0; d < k; ++d) {
      if (coords == Coords::kContinuous) {
        row[d] = rng.Uniform();
        continue;
      }
      const int cell = static_cast<int>(
          rng.UniformInt(0, coords == Coords::kInfinite ? 11 : 3));
      row[d] = cell == 10 ? -kInf : cell == 11 ? kInf : (cell % 4) / 4.0;
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

// Every width 1..kMaxDims: the AVX2 kernels test for dead blocks after
// dimension 1 and then every 4 dimensions, so the 1/2, 5/6, 9/10 and
// 13/14 boundaries all need covering.
TEST_P(KernelEquivalenceTest, BlockedMatchesScalarLaneByLane) {
  ScopedKernelMode mode(force_scalar());
  for (int k = 1; k <= kMaxDims; ++k) {
    const Subspace full = Subspace::FullSpace(k);
    for (size_t n : kSizeSweep) {
      for (Coords coords : kAllCoords) {
        const uint64_t seed = 1000 * k + 10 * n + static_cast<int>(coords);
        PointSet window = RandomPoints(k, n, seed, coords);
        BlockedProjection blocked(k);
        for (size_t i = 0; i < n; ++i) {
          blocked.Append(window[i]);
        }
        ASSERT_EQ(blocked.size(), n);

        PointSet queries = RandomPoints(k, 32, seed ^ 0xabcd, coords);
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
                << "k=" << k << " n=" << n << " strict=" << strict
                << " coords=" << CoordsName(coords);
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
                  << " strict=" << strict << " coords=" << CoordsName(coords);
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

// Erase frees lanes back to +inf padding. Neither those lanes nor the
// padding of a partial block ever dominates a query or enters a mask: the
// forward and reverse kernels over the erased window equal the scalar
// predicates over the survivors, in order.
TEST_P(KernelEquivalenceTest, ErasedAndPaddingLanesNeverDominate) {
  ScopedKernelMode mode(force_scalar());
  for (int k : {2, 5}) {
    const Subspace full = Subspace::FullSpace(k);
    const size_t n = 21;
    PointSet window = RandomPoints(k, n, 7 * k, Coords::kGridded);
    BlockedProjection blocked(k);
    for (size_t i = 0; i < n; ++i) {
      blocked.Append(window[i]);
    }
    // Erase every third entry; the survivors alone define every result.
    std::vector<uint8_t> drop(blocked.num_blocks(), 0);
    std::vector<size_t> survivors;
    for (size_t i = 0; i < n; ++i) {
      if (i % 3 == 0) {
        drop[i / kDomBlockWidth] |=
            static_cast<uint8_t>(1u << (i % kDomBlockWidth));
      } else {
        survivors.push_back(i);
      }
    }
    blocked.Erase(drop.data());
    ASSERT_EQ(blocked.size(), survivors.size());
    // The queries include the erased points themselves, which would
    // dominate some survivors and tie with themselves.
    PointSet queries = RandomPoints(k, 16, 99 * k, Coords::kGridded);
    for (size_t i = 0; i < n; i += 3) {
      queries.AppendFrom(window, i);
    }
    std::vector<uint8_t> masks(blocked.num_blocks());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const double* q = queries[qi];
      for (bool strict : {false, true}) {
        const auto dom = [&](const double* a, const double* b) {
          return strict ? ExtDominates(a, b, full) : Dominates(a, b, full);
        };
        size_t expect_first = survivors.size();
        for (size_t j = 0; j < survivors.size(); ++j) {
          if (dom(window[survivors[j]], q)) {
            expect_first = j;
            break;
          }
        }
        EXPECT_EQ(FirstDominator(blocked, q, strict), expect_first);
        EXPECT_EQ(AnyDominates(blocked, q, strict),
                  expect_first < survivors.size());
        DominatedMask(blocked, q, strict, masks.data());
        for (size_t j = 0; j < masks.size() * kDomBlockWidth; ++j) {
          const bool bit =
              (masks[j / kDomBlockWidth] >> (j % kDomBlockWidth)) & 1;
          EXPECT_EQ(bit, j < survivors.size() && dom(q, window[survivors[j]]))
              << "k=" << k << " q=" << qi << " strict=" << strict
              << " lane=" << j;
        }
      }
    }
  }
}

// `FirstDominator` is the first window entry a scalar scan in window order
// finds dominating q, or `size()`. Duplicated window points and queries
// copied from the window make ties common; padding lanes sit at +inf and
// must never be returned. Every width 1..kMaxDims, as for the lane-by-lane
// test.
TEST_P(KernelEquivalenceTest, FirstDominatorIsTheFirstScalarDominator) {
  ScopedKernelMode mode(force_scalar());
  for (int k = 1; k <= kMaxDims; ++k) {
    const Subspace full = Subspace::FullSpace(k);
    for (size_t n : kSizeSweep) {
      for (Coords coords : kAllCoords) {
        const uint64_t seed = 7000 * k + 10 * n + static_cast<int>(coords);
        PointSet window = RandomPoints(k, n, seed, coords);
        for (size_t i = 0; i + 1 < n; i += 4) {
          std::copy_n(window[i], k, window.mutable_row(i + 1));
        }
        BlockedProjection blocked(k);
        for (size_t i = 0; i < n; ++i) {
          blocked.Append(window[i]);
        }
        PointSet queries = RandomPoints(k, 24, seed ^ 0x5eed, coords);
        for (size_t i = 0; i < n; i += 3) {
          queries.AppendFrom(window, i);
        }
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          const double* q = queries[qi];
          for (bool strict : {false, true}) {
            size_t expect = n;
            for (size_t i = 0; i < n && expect == n; ++i) {
              if (strict ? ExtDominates(window[i], q, full)
                         : Dominates(window[i], q, full)) {
                expect = i;
              }
            }
            EXPECT_EQ(FirstDominator(blocked, q, strict), expect)
                << "k=" << k << " n=" << n << " q=" << qi
                << " strict=" << strict << " coords=" << CoordsName(coords);
            EXPECT_EQ(AnyDominates(blocked, q, strict), expect < n);
          }
        }
      }
    }
  }
}

TEST_P(KernelEquivalenceTest, BatchMinCoordBitwiseEqual) {
  ScopedKernelMode mode(force_scalar());
  for (int dims : kDimSweep) {
    for (size_t n : kSizeSweep) {
      PointSet data = RandomPoints(dims, n, 31 * dims + n, Coords::kContinuous);
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
  PointSet data = RandomPoints(3, 19, 5, Coords::kContinuous);
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
  blocked.Clear();
  EXPECT_TRUE(blocked.empty());
  EXPECT_EQ(blocked.num_blocks(), 0u);
}

// Erase keeps the survivors in order, shrinks the block count, and leaves
// a projection the kernels treat exactly like one built from the
// survivors alone.
TEST(BlockedProjectionTest, EraseCompactsInOrder) {
  for (size_t n : {1u, 8u, 19u, 33u}) {
    PointSet data = RandomPoints(3, n, 40 + n, Coords::kContinuous);
    BlockedProjection blocked(3);
    for (size_t i = 0; i < n; ++i) {
      blocked.Append(data[i]);
    }
    std::vector<uint8_t> drop(blocked.num_blocks(), 0);
    BlockedProjection expect(3);
    for (size_t i = 0; i < n; ++i) {
      if (i % 3 == 1 || i + 1 == n) {
        drop[i / kDomBlockWidth] |=
            static_cast<uint8_t>(1u << (i % kDomBlockWidth));
      } else {
        expect.Append(data[i]);
      }
    }
    blocked.Erase(drop.data());
    ASSERT_EQ(blocked.size(), expect.size()) << "n=" << n;
    EXPECT_EQ(blocked.num_blocks(), expect.num_blocks());
    double got[3];
    double want[3];
    for (size_t i = 0; i < expect.size(); ++i) {
      blocked.Row(i, got);
      expect.Row(i, want);
      EXPECT_EQ(std::vector<double>(got, got + 3),
                std::vector<double>(want, want + 3));
    }
    // Freed lanes of a partial last block are back at +inf.
    if (blocked.size() % kDomBlockWidth != 0) {
      const BlockedProjection& erased = blocked;
      const double* tail = erased.BlockData(erased.num_blocks() - 1);
      for (size_t lane = blocked.size() % kDomBlockWidth;
           lane < kDomBlockWidth; ++lane) {
        for (size_t d = 0; d < 3; ++d) {
          EXPECT_TRUE(std::isinf(tail[d * kDomBlockWidth + lane]));
        }
      }
    }
    PointSet queries = RandomPoints(3, 16, 77 + n, Coords::kContinuous);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_EQ(FirstDominator(blocked, queries[qi], false),
                FirstDominator(expect, queries[qi], false));
    }
  }
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
// previous survivor — leaves no evicted entry behind: after every offer
// the window holds exactly the one live entry, so each accepted offer
// after the first is charged `2|W|` = 2 tests.
TEST(AccumulatorCompactionTest, EvictHeavyStreamKeepsWindowBounded) {
  SkylineAccumulator accumulator(2, Subspace::FullSpace(2), {});
  const size_t kOffers = 4000;
  for (size_t i = 0; i < kOffers; ++i) {
    // Constant first coordinate keeps f = min coord non-decreasing; the
    // strictly shrinking second coordinate means each point dominates
    // (and evicts) its predecessor.
    const double p[2] = {0.25, 1.0 - static_cast<double>(i) / 8000.0};
    EXPECT_TRUE(accumulator.Offer(p, i, 0.25));
    EXPECT_EQ(accumulator.alive(), 1u);
    EXPECT_EQ(accumulator.ops().dominance_tests, 2 * i);
  }
  ResultList result = accumulator.TakeResult();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.points.id(0), kOffers - 1);
}

using AccumulatorWindowTest = KernelEquivalenceTest;

// The accumulator is the scalar window behind a threshold: on f-sorted
// streams whose subspace leaves out dimensions that set f (so later
// points evict earlier ones), with and without ext-dominance and a seed
// set that is not itself a skyline, every offer's verdict, the result
// ids, f values and order, the threshold and `ops()` equal the scalar
// window's. The infinite streams hold rows with both -inf and +inf. The
// full-space shapes with ext on and no seed run append-only; the
// 12-dimension one (`lossy_wide`'s pre-processing shape) takes the
// runtime-width kernel.
TEST_P(AccumulatorWindowTest, MatchesScalarWindow) {
  ScopedKernelMode mode(force_scalar());
  struct Shape {
    int dims;
    Subspace u;
  };
  const Shape shapes[] = {{5, Subspace::FromDims({1, 2, 4})},
                          {4, Subspace::FullSpace(4)},
                          {6, Subspace::FromDims({0, 3})},
                          {8, Subspace::FromDims({1, 2, 3, 5, 6, 7})},
                          {12, Subspace::FullSpace(12)}};
  for (const Shape& shape : shapes) {
    const int dims = shape.dims;
    for (int stream = 0; stream < 4; ++stream) {
      const uint64_t seed = 97 * dims + stream;
      Rng rng(seed);
      PointSet data =
          stream == 0 ? GenerateAnticorrelated(dims, 700, &rng)
          : stream == 1
              ? RandomPoints(dims, 700, seed, Coords::kContinuous)
              : RandomPoints(dims, 700, seed,
                             stream == 2 ? Coords::kGridded
                                         : Coords::kInfinite);
      const ResultList sorted = BuildSortedByF(data);
      const ResultList seeds =
          BuildSortedByF(RandomPoints(dims, 40, seed ^ 0xf1, Coords::kGridded));
      for (bool ext : {false, true}) {
        for (bool seeded : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "dims=" << dims << " stream=" << stream
                       << " ext=" << ext << " seeded=" << seeded);
          ThresholdScanOptions options;
          options.ext = ext;
          SkylineAccumulator accumulator(dims, shape.u, options);
          ScalarWindow oracle(dims, shape.u, ext);
          if (seeded) {
            accumulator.SeedWindow(seeds);
            SeedAll(seeds, &oracle);
          }
          for (size_t i = 0; i < sorted.size(); ++i) {
            const double* p = sorted.points[i];
            const PointId id = sorted.points.id(i);
            const double f = sorted.f[i];
            ASSERT_EQ(accumulator.Offer(p, id, f),
                      f <= oracle.threshold() && oracle.Offer(p, id, f))
                << "offer " << i;
            ASSERT_EQ(accumulator.alive(), oracle.size()) << "offer " << i;
          }
          EXPECT_EQ(accumulator.threshold(), oracle.threshold());
          EXPECT_EQ(accumulator.ops(), oracle.ops());
          const ResultList result = accumulator.TakeResult();
          EXPECT_EQ(result.points.Ids(), oracle.Ids());
          EXPECT_EQ(result.f, oracle.F());
        }
      }
    }
  }
}

// The append-only path covers only ext-dominance on the full space with
// no seeds. Just outside that shape a later offer does evict an earlier
// entry, and the accumulator must still run the eviction pass:
// (a) ext-dominance on a proper subspace, where the dimension that sets
//     f lies outside `u`; (b) ext-dominance on the full space with a seed,
//     which need not precede the offers in f order; (c) plain dominance
//     on the full space, where a point of equal f dominates. Verdicts,
//     result, threshold and `ops()` match the scalar window, and the
//     dominated entry is gone.
TEST_P(AccumulatorWindowTest, EvictsOutsideTheAppendOnlyShape) {
  ScopedKernelMode mode(force_scalar());
  struct Case {
    const char* name;
    int dims;
    Subspace u;
    bool ext;
    std::vector<std::vector<double>> seed;
    std::vector<std::vector<double>> offers;
    size_t alive_after;
    std::vector<PointId> result;
  };
  const Case cases[] = {
      {"ext_proper_subspace", 3, Subspace::FromDims({0, 1}), true,
       {},
       {{0.5, 0.6, 0.0}, {0.4, 0.5, 0.1}},
       1,
       {1}},
      {"ext_full_space_seeded", 3, Subspace::FullSpace(3), true,
       {{0.5, 0.5, 0.5}},
       {{0.2, 0.3, 0.4}, {0.3, 0.2, 0.45}},
       2,
       {0, 1}},
      {"dominance_full_space_equal_f", 2, Subspace::FullSpace(2), false,
       {},
       {{0.2, 0.5}, {0.2, 0.4}},
       1,
       {1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ThresholdScanOptions options;
    options.ext = c.ext;
    SkylineAccumulator accumulator(c.dims, c.u, options);
    ScalarWindow oracle(c.dims, c.u, c.ext);
    if (!c.seed.empty()) {
      PointSet seed_points(c.dims);
      for (size_t i = 0; i < c.seed.size(); ++i) {
        seed_points.Append(c.seed[i].data(), 100 + i);
      }
      const ResultList seed = BuildSortedByF(seed_points);
      accumulator.SeedWindow(seed);
      SeedAll(seed, &oracle);
    }
    for (size_t i = 0; i < c.offers.size(); ++i) {
      const double* p = c.offers[i].data();
      const double f = MinCoord(p, c.dims);
      EXPECT_EQ(accumulator.Offer(p, i, f),
                f <= oracle.threshold() && oracle.Offer(p, i, f))
          << "offer " << i;
    }
    EXPECT_EQ(accumulator.alive(), c.alive_after);
    EXPECT_EQ(accumulator.threshold(), oracle.threshold());
    EXPECT_EQ(accumulator.ops(), oracle.ops());
    const ResultList result = accumulator.TakeResult();
    EXPECT_EQ(result.points.Ids(), oracle.Ids());
    EXPECT_EQ(result.points.Ids(), c.result);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, AccumulatorWindowTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "forced_scalar" : "dispatched";
                         });

// End-to-end scan bit-identity between the forced-scalar and dispatched
// kernels.
TEST(KernelDispatchTest, SortedSkylineBitIdenticalAcrossModes) {
  for (int dims : {2, 4, 8}) {
    PointSet data = RandomPoints(dims, 800, 13 * dims, Coords::kGridded);
    const Subspace u = Subspace::FullSpace(dims);
    ResultList scalar_result(dims);
    ThresholdScanStats scalar_stats;
    {
      ScopedKernelMode mode(/*force_scalar=*/true);
      ResultList sorted = BuildSortedByF(data);
      scalar_result = SortedSkyline(sorted, u, {}, &scalar_stats);
    }
    ResultList dispatched_result(dims);
    ThresholdScanStats dispatched_stats;
    {
      ScopedKernelMode mode(/*force_scalar=*/false);
      ResultList sorted = BuildSortedByF(data);
      dispatched_result = SortedSkyline(sorted, u, {}, &dispatched_stats);
    }
    EXPECT_EQ(scalar_result.points.Ids(), dispatched_result.points.Ids());
    EXPECT_EQ(scalar_result.f, dispatched_result.f);
    EXPECT_EQ(scalar_result.points.values(),
              dispatched_result.points.values());
    EXPECT_EQ(scalar_stats.scanned, dispatched_stats.scanned);
    EXPECT_EQ(scalar_stats.final_threshold, dispatched_stats.final_threshold);
  }
}

}  // namespace
}  // namespace skypeer
