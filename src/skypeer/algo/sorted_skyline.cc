#include "skypeer/algo/sorted_skyline.h"

#include <algorithm>
#include <cfloat>
#include <numeric>
#include <vector>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/mapping.h"

namespace skypeer {

namespace {

/// `SkylineAccumulator` compaction policy: evicted window slots are
/// dropped once the window holds at least `kCompactMinWindow` entries and
/// fewer than `kCompactLiveFraction` of them are alive.
constexpr size_t kCompactMinWindow = 64;
constexpr double kCompactLiveFraction = 0.5;

/// Front key of a u-projected point: the sum of its `k` coordinates, each
/// clamped to +-DBL_MAX so that a point holding both -inf and +inf sums
/// to an ordered value rather than NaN (partial sums may overflow to
/// +-inf, but no operand is ever infinite).
double FrontKey(const double* proj, int k) {
  double key = 0.0;
  for (int d = 0; d < k; ++d) {
    key += std::clamp(proj[d], -DBL_MAX, DBL_MAX);
  }
  return key;
}

}  // namespace

ResultList BuildSortedByF(const PointSet& input) {
  const int dims = input.dims();
  std::vector<double> f(input.size());
  BatchMinCoord(input.values().data(), input.size(), dims, f.data());
  std::vector<size_t> order(input.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&f](size_t a, size_t b) { return f[a] < f[b]; });
  ResultList result(dims);
  result.points.Reserve(input.size());
  result.f.reserve(input.size());
  for (size_t i : order) {
    result.points.AppendFrom(input, i);
    result.f.push_back(f[i]);
  }
  return result;
}

SkylineAccumulator::SkylineAccumulator(int dims, Subspace u,
                                       const ThresholdScanOptions& options)
    : dims_(dims),
      u_(u),
      strict_(options.ext),
      append_only_(options.ext && u == Subspace::FullSpace(dims)),
      threshold_(options.initial_threshold),
      window_points_(dims),
      window_proj_(u.Count()),
      front_proj_(u.Count()) {
  SKYPEER_CHECK(!u.empty());
}

void SkylineAccumulator::EvictDominatedLinear(const double* proj) {
  // One reverse-dominance bit mask per block, then evictions applied per
  // set bit. Killed lanes are +inf and come back flagged as "dominated";
  // `alive_flags_` filters them out.
  ops_.dominance_tests += window_points_.size();
  scratch_masks_.resize(window_proj_.num_blocks());
  DominatedMask(window_proj_, proj, strict_, scratch_masks_.data());
  for (size_t b = 0; b < scratch_masks_.size(); ++b) {
    unsigned mask = scratch_masks_[b];
    while (mask != 0) {
      const size_t lane = static_cast<size_t>(__builtin_ctz(mask));
      mask &= mask - 1;
      const size_t i = b * kDomBlockWidth + lane;
      if (!alive_flags_[i]) {
        continue;
      }
      alive_flags_[i] = 0;
      window_proj_.Kill(i);
      --alive_;
    }
  }
}

bool SkylineAccumulator::Offer(const double* p, PointId id, double f) {
  // Project onto the query subspace once.
  double proj[kMaxDims];
  {
    int j = 0;
    for (int dim : u_) {
      proj[j++] = p[dim];
    }
  }

  // Observation 5: beyond the threshold the point is dominated by the
  // skyline point that set the threshold. (Ties may survive; see header.)
  if (f > threshold_) {
    return false;
  }

  // Killed lanes are +inf and never dominate, so the batched test needs no
  // liveness filtering. Count the logical window size, not the kernel's
  // internal lane count, so scalar and SIMD dispatch report identical work
  // whether the front or the window found the dominator.
  ops_.dominance_tests += window_points_.size();
  if (AnyDominates(front_proj_, proj, strict_) ||
      (front_proj_.size() < alive_ &&
       AnyDominates(window_proj_, proj, strict_))) {
    return false;
  }
  if (append_only_) {
    // f order leaves the eviction pass empty (see the class comment):
    // charge its |W| tests without running it. Debug builds run it and
    // check that it evicts nothing.
#ifdef NDEBUG
    ops_.dominance_tests += window_points_.size();
#else
    const size_t alive = alive_;
    EvictDominatedLinear(proj);
    SKYPEER_DCHECK(alive_ == alive);
#endif
  } else {
    EvictDominatedLinear(proj);
    MaybeCompact();
    EvictFront(proj);
  }

  window_points_.Append(p, id);
  window_f_.push_back(f);
  alive_flags_.push_back(1);
  emit_flags_.push_back(1);
  window_proj_.Append(proj);
  ++alive_;
  AdmitToFront(proj);

  // A dominator has dist_U no larger than any point it dominates, so the
  // minimum only ever decreases; track it incrementally.
  threshold_ = std::min(threshold_, DistU(p, u_));
  return true;
}

void SkylineAccumulator::EvictFront(const double* proj) {
  if (front_proj_.empty()) {
    return;
  }
  uint8_t mask = 0;
  DominatedMask(front_proj_, proj, strict_, &mask);
  if (mask == 0) {
    return;
  }
  size_t kept = 0;
  for (size_t i = 0; i < front_proj_.size(); ++i) {
    if (!((mask >> i) & 1)) {
      front_key_[kept++] = front_key_[i];
    }
  }
  front_proj_.Erase(&mask);
  if (front_proj_.size() < alive_) {
    RefillFront();
  }
}

void SkylineAccumulator::RefillFront() {
  // Insertion into `best`/`front_key_`, kept ascending by key: the live
  // entries with the smallest keys, ties keeping the earlier entry.
  size_t best[kDomBlockWidth];
  size_t count = 0;
  double row[kMaxDims];
  for (size_t i = 0; i < alive_flags_.size(); ++i) {
    if (!alive_flags_[i]) {
      continue;
    }
    window_proj_.Row(i, row);
    const double key = FrontKey(row, u_.Count());
    if (count == kDomBlockWidth && !(key < front_key_[count - 1])) {
      continue;
    }
    size_t pos = count < kDomBlockWidth ? count++ : count - 1;
    for (; pos > 0 && key < front_key_[pos - 1]; --pos) {
      best[pos] = best[pos - 1];
      front_key_[pos] = front_key_[pos - 1];
    }
    best[pos] = i;
    front_key_[pos] = key;
  }
  front_proj_.Clear();
  for (size_t j = 0; j < count; ++j) {
    window_proj_.Row(best[j], row);
    front_proj_.Append(row);
  }
}

void SkylineAccumulator::AdmitToFront(const double* proj) {
  const double key = FrontKey(proj, u_.Count());
  const size_t n = front_proj_.size();
  if (n < kDomBlockWidth) {
    front_proj_.Append(proj);
    front_key_[n] = key;
    return;
  }
  size_t worst = 0;
  for (size_t i = 1; i < n; ++i) {
    if (front_key_[i] > front_key_[worst]) {
      worst = i;
    }
  }
  if (!(key < front_key_[worst])) {
    return;
  }
  const uint8_t drop = static_cast<uint8_t>(1u << worst);
  front_proj_.Erase(&drop);
  std::copy(front_key_ + worst + 1, front_key_ + n, front_key_ + worst);
  front_proj_.Append(proj);
  front_key_[n - 1] = key;
}

void SkylineAccumulator::MaybeCompact() {
  if (window_points_.size() < kCompactMinWindow ||
      !(static_cast<double>(alive_) <
        kCompactLiveFraction * static_cast<double>(window_points_.size()))) {
    return;
  }
  PointSet points(dims_);
  points.Reserve(alive_);
  std::vector<double> f;
  f.reserve(alive_);
  std::vector<char> emit;
  emit.reserve(alive_);
  scratch_masks_.assign(window_proj_.num_blocks(), 0);
  for (size_t i = 0; i < window_points_.size(); ++i) {
    if (!alive_flags_[i]) {
      scratch_masks_[i / kDomBlockWidth] |=
          static_cast<uint8_t>(1u << (i % kDomBlockWidth));
      continue;
    }
    points.AppendFrom(window_points_, i);
    f.push_back(window_f_[i]);
    emit.push_back(emit_flags_[i]);
  }
  window_proj_.Erase(scratch_masks_.data());
  window_points_ = std::move(points);
  window_f_ = std::move(f);
  emit_flags_ = std::move(emit);
  alive_flags_.assign(alive_, 1);
}

ResultList SkylineAccumulator::TakeResult() {
  ResultList result(dims_);
  result.points.Reserve(alive_);
  result.f.reserve(alive_);
  for (size_t i = 0; i < window_points_.size(); ++i) {
    if (alive_flags_[i] && emit_flags_[i]) {
      result.points.AppendFrom(window_points_, i);
      result.f.push_back(window_f_[i]);
    }
  }
  window_points_.Clear();
  window_f_.clear();
  alive_flags_.clear();
  emit_flags_.clear();
  window_proj_.Clear();
  front_proj_.Clear();
  alive_ = 0;
  return result;
}

void SkylineAccumulator::SeedWindow(const ResultList& seed) {
  SKYPEER_CHECK(window_points_.empty());
  append_only_ = false;
  const size_t n = seed.size();
  window_points_.Reserve(n);
  window_f_.reserve(n);
  window_proj_.Reserve(n);
  double proj[kMaxDims];
  for (size_t i = 0; i < n; ++i) {
    window_points_.AppendFrom(seed.points, i);
    window_f_.push_back(seed.f[i]);
    const double* p = seed.points[i];
    int j = 0;
    for (int dim : u_) {
      proj[j++] = p[dim];
    }
    window_proj_.Append(proj);
  }
  alive_flags_.assign(n, 1);
  emit_flags_.assign(n, 0);
  alive_ = n;
  RefillFront();
}

ResultList SortedSkyline(const StoreView& input, Subspace u,
                         const ThresholdScanOptions& options,
                         ThresholdScanStats* stats) {
  SKYPEER_DCHECK(input.list() == nullptr || input.list()->IsSorted());
  SkylineAccumulator accumulator(input.dims(), u, options);
  if (options.filter != nullptr && !options.filter->empty()) {
    accumulator.SeedWindow(*options.filter);
  }
  const size_t end = input.size();
  StoreCursor cursor(input);
  size_t scanned = 0;
  for (; scanned < end; ++scanned) {
    const double f = cursor.f(scanned);
    if (f > accumulator.threshold()) {
      break;
    }
    accumulator.Offer(cursor.row(scanned), cursor.id(scanned), f);
  }
  if (stats != nullptr) {
    stats->scanned = scanned;
    stats->final_threshold = accumulator.threshold();
    stats->ops = accumulator.ops();
    stats->ops.scan_steps += scanned;
    ChargeScanPages(input.layout(), end, scanned, &stats->ops);
  }
  return accumulator.TakeResult();
}

}  // namespace skypeer
