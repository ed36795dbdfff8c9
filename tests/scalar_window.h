// Scalar reference of `DominanceWindow`'s counting rule, the oracle of
// the BNL and `SkylineAccumulator` tests.

#ifndef SKYPEER_TESTS_SCALAR_WINDOW_H_
#define SKYPEER_TESTS_SCALAR_WINDOW_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "skypeer/common/dominance.h"
#include "skypeer/common/mapping.h"
#include "skypeer/common/op_counts.h"
#include "skypeer/common/point_set.h"
#include "skypeer/common/subspace.h"

namespace skypeer {

/// A `std::vector` window in arrival order, tested one entry at a time
/// with the scalar `Dominates` (`ExtDominates` when `strict`). An offer
/// whose first dominator is entry `j` costs `j + 1` tests and changes
/// nothing; an offer that no entry dominates costs `2|W|` (`|W|` before
/// eviction), evicts the entries it dominates and is appended. Seeds
/// enter untested and uncharged, and never appear in `Ids()`/`F()`.
/// `threshold()` is the minimum `dist_U` of the accepted offers; a scan
/// checks `f` against it before offering.
class ScalarWindow {
 public:
  ScalarWindow(int dims, Subspace u, bool strict)
      : dims_(dims), u_(u), strict_(strict) {}

  void Seed(const double* p, PointId id, double f) {
    window_.push_back({std::vector<double>(p, p + dims_), id, f, true});
  }

  bool Offer(const double* p, PointId id, double f) {
    for (size_t j = 0; j < window_.size(); ++j) {
      if (Dom(window_[j].row.data(), p)) {
        ops_.dominance_tests += j + 1;
        return false;
      }
    }
    ops_.dominance_tests += 2 * window_.size();
    std::erase_if(window_,
                  [&](const Entry& e) { return Dom(p, e.row.data()); });
    window_.push_back({std::vector<double>(p, p + dims_), id, f, false});
    threshold_ = std::min(threshold_, DistU(p, u_));
    return true;
  }

  std::vector<PointId> Ids() const {
    std::vector<PointId> ids;
    for (const Entry& e : window_) {
      if (!e.seed) {
        ids.push_back(e.id);
      }
    }
    return ids;
  }

  std::vector<double> F() const {
    std::vector<double> f;
    for (const Entry& e : window_) {
      if (!e.seed) {
        f.push_back(e.f);
      }
    }
    return f;
  }

  /// Entries, seeds included.
  size_t size() const { return window_.size(); }
  double threshold() const { return threshold_; }
  const OpCounts& ops() const { return ops_; }

 private:
  struct Entry {
    std::vector<double> row;
    PointId id;
    double f;
    bool seed;
  };

  bool Dom(const double* a, const double* b) const {
    return strict_ ? ExtDominates(a, b, u_) : Dominates(a, b, u_);
  }

  int dims_;
  Subspace u_;
  bool strict_;
  double threshold_ = std::numeric_limits<double>::infinity();
  std::vector<Entry> window_;
  OpCounts ops_;
};

}  // namespace skypeer

#endif  // SKYPEER_TESTS_SCALAR_WINDOW_H_
