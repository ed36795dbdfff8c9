#include "skypeer/algo/dominance_window.h"

#include <algorithm>

#include "skypeer/common/macros.h"

namespace skypeer {

DominanceWindow::DominanceWindow(int dims, Subspace u, bool strict,
                                 bool keep_rows)
    : dims_(dims),
      u_(u),
      strict_(strict),
      keep_rows_(keep_rows),
      proj_(u.Count()) {
  SKYPEER_CHECK(!u.empty());
}

bool DominanceWindow::Offer(const double* p, PointId id, double f,
                            bool append_only, std::vector<PointId>* evicted) {
  double proj[kMaxDims];
  Project(p, proj);
  // A dominated p evicts nothing. Without seeds the window is mutually
  // non-dominated, so such a p dominates no entry (`first` would dominate
  // it too) and the eviction pass would find nothing anyway.
  const size_t size = ids_.size();
  const size_t first = FirstDominator(proj_, proj, strict_);
  if (first < size) {
    tests_ += first + 1;
    return false;
  }
  tests_ += 2 * size;
  if (append_only) {
    SKYPEER_DCHECK(!MarkDominated(proj));
  } else if (MarkDominated(proj)) {
    EraseMarked(evicted);
  }
  Append(p, proj, id, f, /*seed=*/false);
  return true;
}

void DominanceWindow::Seed(const double* p, PointId id, double f) {
  SKYPEER_CHECK(keep_rows_);
  double proj[kMaxDims];
  Project(p, proj);
  Append(p, proj, id, f, /*seed=*/true);
}

void DominanceWindow::Project(const double* p, double* proj) const {
  int k = 0;
  for (int dim : u_) {
    proj[k++] = p[dim];
  }
}

void DominanceWindow::Append(const double* p, const double* proj, PointId id,
                             double f, bool seed) {
  proj_.Append(proj);
  ids_.push_back(id);
  if (keep_rows_) {
    rows_.insert(rows_.end(), p, p + dims_);
    f_.push_back(f);
    seed_.push_back(seed);
  }
}

bool DominanceWindow::MarkDominated(const double* proj) {
  evict_.resize(proj_.num_blocks());
  DominatedMask(proj_, proj, strict_, evict_.data());
  return std::any_of(evict_.begin(), evict_.end(),
                     [](uint8_t mask) { return mask != 0; });
}

void DominanceWindow::EraseMarked(std::vector<PointId>* evicted) {
  proj_.Erase(evict_.data());
  const size_t dims = static_cast<size_t>(dims_);
  size_t kept = 0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if ((evict_[i / kDomBlockWidth] >> (i % kDomBlockWidth)) & 1) {
      if (evicted != nullptr) {
        evicted->push_back(ids_[i]);
      }
      continue;
    }
    if (kept != i) {
      ids_[kept] = ids_[i];
      if (keep_rows_) {
        f_[kept] = f_[i];
        seed_[kept] = seed_[i];
        std::copy_n(rows_.begin() + i * dims, dims,
                    rows_.begin() + kept * dims);
      }
    }
    ++kept;
  }
  ids_.resize(kept);
  if (keep_rows_) {
    f_.resize(kept);
    seed_.resize(kept);
    rows_.resize(kept * dims);
  }
}

ResultList DominanceWindow::TakeResult() {
  SKYPEER_CHECK(keep_rows_);
  ResultList result(dims_);
  result.points.Reserve(ids_.size());
  result.f.reserve(ids_.size());
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (!seed_[i]) {
      result.points.Append(rows_.data() + i * static_cast<size_t>(dims_),
                           ids_[i]);
      result.f.push_back(f_[i]);
    }
  }
  proj_.Clear();
  rows_.clear();
  ids_.clear();
  f_.clear();
  seed_.clear();
  return result;
}

}  // namespace skypeer
