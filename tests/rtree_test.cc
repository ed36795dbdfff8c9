// Unit and property tests for the main-memory R-tree: structural
// invariants under insert/erase churn, and differential testing of every
// query against brute force, parameterized over dimensionality and size.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "skypeer/common/rng.h"
#include "skypeer/rtree/rtree.h"

namespace skypeer {
namespace {

// Reference implementation: flat list of (point, payload).
class BruteForce {
 public:
  explicit BruteForce(int dims) : dims_(dims) {}

  void Insert(const std::vector<double>& p, uint64_t payload) {
    points_.push_back(p);
    payloads_.push_back(payload);
  }

  bool Erase(const std::vector<double>& p, uint64_t payload) {
    for (size_t i = 0; i < points_.size(); ++i) {
      if (payloads_[i] == payload && points_[i] == p) {
        points_.erase(points_.begin() + i);
        payloads_.erase(payloads_.begin() + i);
        return true;
      }
    }
    return false;
  }

  bool AnyDominates(const std::vector<double>& q, bool strict) const {
    for (size_t i = 0; i < points_.size(); ++i) {
      if (Dominates(points_[i], q, strict)) {
        return true;
      }
    }
    return false;
  }

  std::vector<uint64_t> CollectDominated(const std::vector<double>& p,
                                         bool strict) const {
    std::vector<uint64_t> result;
    for (size_t i = 0; i < points_.size(); ++i) {
      if (Dominates(p, points_[i], strict)) {
        result.push_back(payloads_[i]);
      }
    }
    return result;
  }

  std::vector<uint64_t> EraseDominated(const std::vector<double>& p,
                                       bool strict) {
    std::vector<uint64_t> removed = CollectDominated(p, strict);
    for (uint64_t payload : removed) {
      for (size_t i = 0; i < payloads_.size(); ++i) {
        if (payloads_[i] == payload) {
          points_.erase(points_.begin() + i);
          payloads_.erase(payloads_.begin() + i);
          break;
        }
      }
    }
    return removed;
  }

  std::vector<uint64_t> Window(const std::vector<double>& lo,
                               const std::vector<double>& hi) const {
    std::vector<uint64_t> result;
    for (size_t i = 0; i < points_.size(); ++i) {
      bool inside = true;
      for (int d = 0; d < dims_; ++d) {
        if (points_[i][d] < lo[d] || points_[i][d] > hi[d]) {
          inside = false;
          break;
        }
      }
      if (inside) {
        result.push_back(payloads_[i]);
      }
    }
    return result;
  }

  size_t size() const { return points_.size(); }

 private:
  bool Dominates(const std::vector<double>& p, const std::vector<double>& q,
                 bool strict) const {
    bool strictly = false;
    for (int d = 0; d < dims_; ++d) {
      if (strict ? p[d] >= q[d] : p[d] > q[d]) {
        return false;
      }
      if (p[d] < q[d]) {
        strictly = true;
      }
    }
    return strict || strictly;
  }

  int dims_;
  std::vector<std::vector<double>> points_;
  std::vector<uint64_t> payloads_;
};

std::vector<double> RandomPoint(int dims, Rng* rng, int grid = 0) {
  std::vector<double> p(dims);
  for (int d = 0; d < dims; ++d) {
    p[d] = grid > 0 ? rng->UniformInt(0, grid - 1) / static_cast<double>(grid)
                    : rng->Uniform();
  }
  return p;
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// --- basic behaviour --------------------------------------------------------

TEST(RTree, EmptyTree) {
  RTree tree(3);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 1);
  const double q[] = {0.5, 0.5, 0.5};
  EXPECT_FALSE(tree.AnyDominates(q));
  EXPECT_TRUE(tree.EraseDominated(q).empty());
  tree.CheckInvariants();
}

TEST(RTree, SingleInsertAndQueries) {
  RTree tree(2);
  const double p[] = {0.2, 0.3};
  tree.Insert(p, 7);
  EXPECT_EQ(tree.size(), 1u);

  const double dominated[] = {0.5, 0.5};
  const double not_dominated[] = {0.1, 0.5};
  EXPECT_TRUE(tree.AnyDominates(dominated));
  EXPECT_FALSE(tree.AnyDominates(not_dominated));

  // A point does not dominate itself (no strict dimension).
  EXPECT_FALSE(tree.AnyDominates(p));
  // But strict=false removal of a *different* dominating point works:
  std::vector<uint64_t> payloads;
  tree.CollectDominated(not_dominated, false, &payloads);
  EXPECT_TRUE(payloads.empty());
  tree.CheckInvariants();
}

TEST(RTree, EraseExact) {
  RTree tree(2);
  const double a[] = {0.1, 0.2};
  const double b[] = {0.1, 0.2};  // Same coords, different payload.
  tree.Insert(a, 1);
  tree.Insert(b, 2);
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.Erase(a, 1));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_FALSE(tree.Erase(a, 1));  // Already gone.
  EXPECT_TRUE(tree.Erase(a, 2));
  EXPECT_TRUE(tree.empty());
  tree.CheckInvariants();
}

TEST(RTree, StrictVsNonStrictDominance) {
  RTree tree(2);
  const double p[] = {0.5, 0.5};
  tree.Insert(p, 1);
  const double tie[] = {0.5, 0.7};  // Tied on dim 0.
  EXPECT_TRUE(tree.AnyDominates(tie, /*strict=*/false));
  EXPECT_FALSE(tree.AnyDominates(tie, /*strict=*/true));
  const double worse[] = {0.6, 0.7};
  EXPECT_TRUE(tree.AnyDominates(worse, /*strict=*/true));
}

TEST(RTree, GrowsAndStaysBalanced) {
  RTree tree(2, /*max_entries=*/4);
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    auto p = RandomPoint(2, &rng);
    tree.Insert(p.data(), i);
  }
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_GE(tree.height(), 3);
  tree.CheckInvariants();
}

TEST(RTree, ClearEmptiesTree) {
  RTree tree(2);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    auto p = RandomPoint(2, &rng);
    tree.Insert(p.data(), i);
  }
  tree.Clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 1);
  tree.CheckInvariants();
}

TEST(RTree, MoveConstruction) {
  RTree tree(2);
  const double p[] = {0.1, 0.1};
  tree.Insert(p, 5);
  RTree moved(std::move(tree));
  EXPECT_EQ(moved.size(), 1u);
  const double q[] = {0.9, 0.9};
  EXPECT_TRUE(moved.AnyDominates(q));
}

// --- parameterized differential tests ---------------------------------------

class RTreeDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {
 protected:
  int dims() const { return std::get<0>(GetParam()); }
  int num_points() const { return std::get<1>(GetParam()); }
  int max_entries() const { return std::get<2>(GetParam()); }
  bool gridded() const { return std::get<3>(GetParam()); }
};

TEST_P(RTreeDifferentialTest, QueriesMatchBruteForce) {
  RTree tree(dims(), max_entries());
  BruteForce brute(dims());
  Rng rng(1000 + dims() * 17 + num_points());
  const int grid = gridded() ? 4 : 0;

  for (int i = 0; i < num_points(); ++i) {
    auto p = RandomPoint(dims(), &rng, grid);
    tree.Insert(p.data(), i);
    brute.Insert(p, i);
  }
  tree.CheckInvariants();

  for (int trial = 0; trial < 50; ++trial) {
    auto q = RandomPoint(dims(), &rng, grid);
    for (bool strict : {false, true}) {
      EXPECT_EQ(tree.AnyDominates(q.data(), strict),
                brute.AnyDominates(q, strict));
      std::vector<uint64_t> payloads;
      tree.CollectDominated(q.data(), strict, &payloads);
      EXPECT_EQ(Sorted(payloads), Sorted(brute.CollectDominated(q, strict)));
    }
    auto lo = RandomPoint(dims(), &rng, grid);
    auto hi = lo;
    for (int d = 0; d < dims(); ++d) {
      hi[d] = std::min(1.0, lo[d] + rng.Uniform() * 0.5);
    }
    std::vector<uint64_t> window;
    tree.WindowQuery(lo.data(), hi.data(), &window);
    EXPECT_EQ(Sorted(window), Sorted(brute.Window(lo, hi)));
  }
}

TEST_P(RTreeDifferentialTest, EraseDominatedMatchesBruteForce) {
  RTree tree(dims(), max_entries());
  BruteForce brute(dims());
  Rng rng(2000 + dims() * 31 + num_points());
  const int grid = gridded() ? 4 : 0;

  for (int i = 0; i < num_points(); ++i) {
    auto p = RandomPoint(dims(), &rng, grid);
    tree.Insert(p.data(), i);
    brute.Insert(p, i);
  }

  for (int round = 0; round < 20 && !tree.empty(); ++round) {
    auto q = RandomPoint(dims(), &rng, grid);
    const bool strict = round % 2 == 0;
    EXPECT_EQ(Sorted(tree.EraseDominated(q.data(), strict)),
              Sorted(brute.EraseDominated(q, strict)));
    EXPECT_EQ(tree.size(), brute.size());
    tree.CheckInvariants();
  }
}

TEST_P(RTreeDifferentialTest, MixedChurnKeepsInvariants) {
  RTree tree(dims(), max_entries());
  BruteForce brute(dims());
  Rng rng(3000 + dims());
  const int grid = gridded() ? 4 : 0;
  std::vector<std::pair<std::vector<double>, uint64_t>> live;

  uint64_t next = 0;
  for (int op = 0; op < 3 * num_points(); ++op) {
    const double action = rng.Uniform();
    if (action < 0.6 || live.empty()) {
      auto p = RandomPoint(dims(), &rng, grid);
      tree.Insert(p.data(), next);
      brute.Insert(p, next);
      live.push_back({p, next});
      ++next;
    } else if (action < 0.9) {
      const size_t victim = rng.UniformInt(0, live.size() - 1);
      EXPECT_TRUE(tree.Erase(live[victim].first.data(), live[victim].second));
      EXPECT_TRUE(brute.Erase(live[victim].first, live[victim].second));
      live.erase(live.begin() + victim);
    } else {
      auto q = RandomPoint(dims(), &rng, grid);
      auto removed = Sorted(tree.EraseDominated(q.data(), false));
      EXPECT_EQ(removed, Sorted(brute.EraseDominated(q, false)));
      for (uint64_t payload : removed) {
        live.erase(std::find_if(live.begin(), live.end(),
                                [payload](const auto& entry) {
                                  return entry.second == payload;
                                }));
      }
    }
    EXPECT_EQ(tree.size(), brute.size());
  }
  tree.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreeDifferentialTest,
    ::testing::Values(std::make_tuple(1, 64, 4, false),
                      std::make_tuple(2, 200, 4, false),
                      std::make_tuple(2, 200, 16, true),
                      std::make_tuple(3, 300, 8, false),
                      std::make_tuple(4, 150, 16, true),
                      std::make_tuple(5, 400, 16, false),
                      std::make_tuple(8, 120, 6, false)),
    [](const auto& info) {
      return std::string("d").append(std::to_string(std::get<0>(info.param))) +
             "_n" +
             std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_grid" : "_cont");
    });

}  // namespace
}  // namespace skypeer

namespace skypeer {
namespace {

// --- STR bulk loading ---------------------------------------------------

class RTreeBulkLoadTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int dims() const { return std::get<0>(GetParam()); }
  int num_points() const { return std::get<1>(GetParam()); }
};

TEST_P(RTreeBulkLoadTest, InvariantsAndQueryEquivalence) {
  Rng rng(500 + dims() * 7 + num_points());
  std::vector<double> flat(static_cast<size_t>(num_points()) * dims());
  std::vector<uint64_t> payloads(num_points());
  for (int i = 0; i < num_points(); ++i) {
    for (int d = 0; d < dims(); ++d) {
      flat[i * dims() + d] = rng.Uniform();
    }
    payloads[i] = static_cast<uint64_t>(i);
  }
  RTree bulk =
      RTree::BulkLoad(dims(), flat.data(), payloads.data(), payloads.size());
  EXPECT_EQ(bulk.CheckInvariants(), payloads.size());

  RTree incremental(dims());
  for (int i = 0; i < num_points(); ++i) {
    incremental.Insert(flat.data() + i * dims(), payloads[i]);
  }

  // Both trees must answer identically.
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> q(dims());
    for (int d = 0; d < dims(); ++d) {
      q[d] = rng.Uniform();
    }
    EXPECT_EQ(bulk.AnyDominates(q.data()), incremental.AnyDominates(q.data()));
    std::vector<uint64_t> a;
    std::vector<uint64_t> b;
    bulk.CollectDominated(q.data(), false, &a);
    incremental.CollectDominated(q.data(), false, &b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST_P(RTreeBulkLoadTest, SupportsMutationAfterLoad) {
  Rng rng(600 + dims());
  std::vector<double> flat(static_cast<size_t>(num_points()) * dims());
  std::vector<uint64_t> payloads(num_points());
  for (int i = 0; i < num_points(); ++i) {
    for (int d = 0; d < dims(); ++d) {
      flat[i * dims() + d] = rng.Uniform();
    }
    payloads[i] = static_cast<uint64_t>(i);
  }
  RTree tree =
      RTree::BulkLoad(dims(), flat.data(), payloads.data(), payloads.size());
  // Erase a third of the points, insert new ones, stay consistent.
  for (int i = 0; i < num_points(); i += 3) {
    EXPECT_TRUE(tree.Erase(flat.data() + i * dims(), payloads[i]));
  }
  std::vector<double> p(dims(), 0.5);
  for (int i = 0; i < 50; ++i) {
    p[0] = rng.Uniform();
    tree.Insert(p.data(), 100000 + i);
  }
  tree.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RTreeBulkLoadTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(1, 15, 64,
                                                              1000, 5000)),
                         [](const auto& info) {
                           return std::string("d").append(
                                      std::to_string(std::get<0>(info.param))) +
                                  "_n" + std::to_string(std::get<1>(info.param));
                         });

TEST(RTreeBulkLoad, EmptyLoad) {
  RTree tree = RTree::BulkLoad(3, nullptr, nullptr, 0);
  EXPECT_TRUE(tree.empty());
  tree.CheckInvariants();
}

TEST(RTreeBulkLoad, PackedTreesAreShallow) {
  Rng rng(9);
  constexpr int kN = 4096;
  std::vector<double> flat(kN * 2);
  std::vector<uint64_t> payloads(kN);
  for (int i = 0; i < kN; ++i) {
    flat[2 * i] = rng.Uniform();
    flat[2 * i + 1] = rng.Uniform();
    payloads[i] = i;
  }
  RTree bulk = RTree::BulkLoad(2, flat.data(), payloads.data(), kN, 16);
  RTree incremental(2, 16);
  for (int i = 0; i < kN; ++i) {
    incremental.Insert(flat.data() + 2 * i, payloads[i]);
  }
  // STR packs nodes full: 4096/16 = 256 leaves, /16 = 16, /16 = 1 -> 3
  // levels; incremental insertion cannot do better.
  EXPECT_EQ(bulk.height(), 3);
  EXPECT_LE(bulk.height(), incremental.height());
}

}  // namespace
}  // namespace skypeer
