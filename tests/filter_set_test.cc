// Unit and integration tests of the sampled filter-point broadcast
// (algo/filter_set.h): deterministic selection with per-dimension minima,
// exact up-rounding quantization onto the wire grid, fingerprinting and
// seeded-scan equivalence (subset + merge-identity).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/algo/filter_set.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/op_counts.h"
#include "skypeer/common/subspace.h"
#include "skypeer/engine/network_builder.h"

namespace skypeer {
namespace {

NetworkConfig SmallConfig(uint64_t seed) {
  NetworkConfig config;
  config.num_peers = 40;
  config.num_super_peers = 8;
  config.points_per_peer = 30;
  config.dims = 5;
  config.seed = seed;
  return config;
}

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Full content signature of a result list: (id, f, coords) per entry.
std::vector<std::vector<double>> FullSignature(const ResultList& list) {
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

// --- selection ----------------------------------------------------------

TEST(SelectFilterSet, EmptyBudgetOrInputYieldsEmptyFilter) {
  SkypeerNetwork network(SmallConfig(31));
  network.Preprocess();
  const ResultList& local = network.super_peer(0).store();
  const Subspace u = Subspace::FromDims({0, 2});
  EXPECT_TRUE(SelectFilterSet(local, u, 0, nullptr).empty());
  const ResultList empty(network.dims());
  EXPECT_TRUE(SelectFilterSet(empty, u, 8, nullptr).empty());
  EXPECT_EQ(BuildQueryFilter(local, u, 0, nullptr), nullptr);
  EXPECT_EQ(BuildQueryFilter(empty, u, 8, nullptr), nullptr);
}

TEST(SelectFilterSet, RespectsBudgetDeterministicallyAndChargesOneScanPass) {
  SkypeerNetwork network(SmallConfig(31));
  network.Preprocess();
  const ResultList& local = network.super_peer(1).store();
  const Subspace u = Subspace::FromDims({0, 1, 3});
  OpCounts ops;
  const ResultList a = SelectFilterSet(local, u, 8, &ops);
  EXPECT_GT(a.size(), 0u);
  EXPECT_LE(a.size(), 8u);
  EXPECT_EQ(ops.scan_steps, local.size());
  // Selection is a pure function of (list, subspace, budget).
  const ResultList b = SelectFilterSet(local, u, 8, nullptr);
  EXPECT_EQ(FullSignature(a), FullSignature(b));
  // The boxed protocol form carries the identical content.
  const auto boxed = BuildQueryFilter(local, u, 8, nullptr);
  ASSERT_NE(boxed, nullptr);
  EXPECT_EQ(FullSignature(*boxed), FullSignature(a));
}

TEST(SelectFilterSet, BudgetBeyondTheListSizeSelectsTheSameFilterAsN) {
  // Any budget >= n already chooses every point, so it must select the
  // n-budget filter — and return promptly even for SIZE_MAX.
  SkypeerNetwork network(SmallConfig(31));
  network.Preprocess();
  const ResultList& local = network.super_peer(2).store();
  const Subspace u = Subspace::FromDims({0, 2, 3});
  const size_t n = local.size();
  ASSERT_GT(n, 0u);
  OpCounts ops_n;
  OpCounts ops_max;
  const ResultList at_n = SelectFilterSet(local, u, n, &ops_n);
  const ResultList at_max = SelectFilterSet(
      local, u, std::numeric_limits<size_t>::max(), &ops_max);
  EXPECT_EQ(at_n.size(), n);
  EXPECT_EQ(FullSignature(at_max), FullSignature(at_n));
  EXPECT_EQ(FilterFingerprint(at_max), FilterFingerprint(at_n));
  EXPECT_EQ(ops_max, ops_n);
  EXPECT_EQ(FullSignature(SelectFilterSet(local, u, 4 * n, nullptr)),
            FullSignature(at_n));
}

TEST(SelectFilterSet, QuantizesEveryCoordinateUpOntoTheWireGrid) {
  // Filter points keep their source ids, so each can be matched back to
  // its row: every coordinate rounds *up* onto the 1/128 grid by less
  // than one grid step, and f is recomputed from the quantized row.
  SkypeerNetwork network(SmallConfig(33));
  network.Preprocess();
  const ResultList& local = network.super_peer(2).store();
  const Subspace u = Subspace::FromDims({1, 2, 4});
  const ResultList filter = SelectFilterSet(local, u, 12, nullptr);
  ASSERT_GT(filter.size(), 0u);
  for (size_t i = 0; i < filter.size(); ++i) {
    size_t src = local.size();
    for (size_t j = 0; j < local.size(); ++j) {
      if (local.points.id(j) == filter.points.id(i)) {
        src = j;
        break;
      }
    }
    ASSERT_LT(src, local.size()) << "filter id not found in the source list";
    double min_coord = std::numeric_limits<double>::infinity();
    for (int d = 0; d < network.dims(); ++d) {
      const double x = local.points[src][d];
      const double q = filter.points[i][d];
      EXPECT_GE(q, x);
      EXPECT_LT(q - x, 1.0 / kFilterGridDenominator);
      EXPECT_EQ(q * kFilterGridDenominator,
                std::floor(q * kFilterGridDenominator))
          << "coordinate off the wire grid";
      min_coord = std::min(min_coord, q);
    }
    EXPECT_EQ(filter.f[i], min_coord);
  }
}

TEST(SelectFilterSet, IncludesThePerDimensionMinima) {
  SkypeerNetwork network(SmallConfig(35));
  network.Preprocess();
  const ResultList& local = network.super_peer(4).store();
  const Subspace u = Subspace::FromDims({0, 3});
  const ResultList filter = SelectFilterSet(local, u, 8, nullptr);
  ASSERT_GT(filter.size(), 0u);
  for (int dim : u) {
    double min_coord = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < local.size(); ++i) {
      min_coord = std::min(min_coord, local.points[i][dim]);
    }
    // Quantization is monotone, so the quantized minimum is the minimum
    // quantized coordinate — the strongest single-axis pruner survives.
    const double expected = std::ceil(min_coord * kFilterGridDenominator) /
                            kFilterGridDenominator;
    bool found = false;
    for (size_t i = 0; i < filter.size(); ++i) {
      found = found || filter.points[i][dim] == expected;
    }
    EXPECT_TRUE(found) << "minimum of dim " << dim << " missing";
  }
}

TEST(FilterFingerprint, IsNonzeroStableAndDiscriminating) {
  SkypeerNetwork network(SmallConfig(37));
  network.Preprocess();
  const ResultList& local = network.super_peer(0).store();
  const Subspace u = Subspace::FromDims({0, 1, 2});
  const ResultList eight = SelectFilterSet(local, u, 8, nullptr);
  const ResultList four = SelectFilterSet(local, u, 4, nullptr);
  const uint64_t fp_eight = FilterFingerprint(eight);
  const uint64_t fp_four = FilterFingerprint(four);
  EXPECT_NE(fp_eight, 0u);  // 0 is reserved for "no filter".
  EXPECT_NE(fp_four, 0u);
  EXPECT_NE(fp_eight, fp_four);
  EXPECT_EQ(fp_eight, FilterFingerprint(SelectFilterSet(local, u, 8, nullptr)));
  EXPECT_NE(FilterFingerprint(ResultList(network.dims())), 0u);
}

// --- seeded scans -------------------------------------------------------

TEST(SeededScan, FilteredResultIsASubsetAndMergesToTheSameSkyline) {
  SkypeerNetwork network(SmallConfig(39));
  network.Preprocess();
  const Subspace u = Subspace::FromDims({1, 3});
  const ResultList& store_a = network.super_peer(0).store();
  const ResultList& store_b = network.super_peer(3).store();

  // The initiator's local subspace skyline — the broadcast's source.
  const ResultList local_a = SortedSkyline(store_a, u);
  const ResultList filter = SelectFilterSet(local_a, u, 8, nullptr);
  ASSERT_GT(filter.size(), 0u);

  const ResultList unfiltered = SortedSkyline(store_b, u);
  ThresholdScanOptions options;
  options.filter = &filter;
  const ResultList filtered = SortedSkyline(store_b, u, options);

  // Subset: seeds can only remove result rows, never add or alter them
  // (seeds are emit-flagged off, so none appears in the result).
  std::set<std::vector<double>> rows;
  for (auto& row : FullSignature(unfiltered)) {
    rows.insert(std::move(row));
  }
  for (const auto& row : FullSignature(filtered)) {
    EXPECT_EQ(rows.count(row), 1u) << "row not in the unfiltered result";
  }
  EXPECT_LE(filtered.size(), unfiltered.size());

  // Merge identity: A ∪ filtered-B and A ∪ unfiltered-B have the same
  // skyline — everything the filter pruned was merge-discarded anyway.
  PointSet merged_unfiltered(network.dims());
  PointSet merged_filtered(network.dims());
  for (size_t i = 0; i < local_a.size(); ++i) {
    merged_unfiltered.AppendFrom(local_a.points, i);
    merged_filtered.AppendFrom(local_a.points, i);
  }
  for (size_t i = 0; i < unfiltered.size(); ++i) {
    merged_unfiltered.AppendFrom(unfiltered.points, i);
  }
  for (size_t i = 0; i < filtered.size(); ++i) {
    merged_filtered.AppendFrom(filtered.points, i);
  }
  EXPECT_EQ(SortedIds(BnlSkyline(merged_filtered, u)),
            SortedIds(BnlSkyline(merged_unfiltered, u)));
}

}  // namespace
}  // namespace skypeer
