#include "skypeer/algo/scan_trace.h"

#include <algorithm>
#include <numeric>

#include "skypeer/algo/dominance_window.h"
#include "skypeer/common/macros.h"
#include "skypeer/common/mapping.h"

namespace skypeer {

void ScanTrace::Record(const StoreView& view, Subspace u, double threshold,
                       bool to_end) {
  SKYPEER_DCHECK(view.list() == nullptr || view.list()->IsSorted());
  dims_ = view.dims();
  threshold_ = to_end ? std::numeric_limits<double>::infinity() : threshold;
  size_ = view.size();
  charges_.clear();
  tail_tests_ = 0;
  entries_.clear();
  rows_.clear();
  // The trace keeps the rows; window ids are indices into `entries_`, so
  // the window reports evictions as entries.
  DominanceWindow window(dims_, u, /*strict=*/false, /*keep_rows=*/false);
  StoreCursor cursor(view);
  std::vector<PointId> evicted;
  double bound = std::numeric_limits<double>::infinity();
  size_t step = 0;
  for (; step < size_; ++step) {
    const double f = cursor.f(step);
    if (f > std::min(threshold_, bound)) {
      break;
    }
    const double* row = cursor.row(step);
    const uint64_t tests = window.dominance_tests();
    evicted.clear();
    const bool accepted = window.Offer(row, entries_.size(), f,
                                       /*append_only=*/false, &evicted);
    const uint64_t charge = window.dominance_tests() - tests;
    SKYPEER_DCHECK(charge <= std::numeric_limits<uint32_t>::max());
    charges_.push_back(static_cast<uint32_t>(charge));
    if (!accepted) {
      continue;
    }
    for (PointId entry : evicted) {
      entries_[entry].evicted = step;
    }
    bound = std::min(bound, DistU(row, u));
    entries_.push_back({step, kNever, bound, cursor.id(step), f});
    rows_.insert(rows_.end(), row, row + dims_);
  }
  if (to_end) {
    // Past the unconstrained stop every offer is dominated by the entry
    // that set `bound` (or by its evictor), so the window no longer
    // changes and only the charges add up.
    const uint64_t tests = window.dominance_tests();
    for (size_t tail = step; tail < size_; ++tail) {
      const bool accepted =
          window.Offer(cursor.row(tail), entries_.size(), /*f=*/0.0);
      SKYPEER_DCHECK(!accepted);
      (void)accepted;
    }
    tail_tests_ = window.dominance_tests() - tests;
  }
  reached_end_ = to_end || step == size_;
}

double ScanTrace::ThresholdBefore(size_t step, double threshold) const {
  const auto after = std::partition_point(
      entries_.begin(), entries_.end(),
      [step](const Entry& entry) { return entry.arrival < step; });
  return after == entries_.begin()
             ? threshold
             : std::min(threshold, std::prev(after)->bound);
}

ResultList ScanTrace::Cut(const StoreView& view, double threshold,
                          bool to_end, ThresholdScanStats* stats) const {
  SKYPEER_DCHECK(Covers(threshold, to_end));
  SKYPEER_DCHECK(view.size() == size_ && view.dims() == dims_);
  // The cut: the first recorded step whose f exceeds the threshold in
  // force before it. f only grows and the threshold only tightens, so the
  // steps below the cut are a prefix and a binary search finds it.
  size_t cut = size_;
  if (!to_end) {
    StoreCursor cursor(view);
    size_t lo = 0;
    size_t hi = charges_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (cursor.f(mid) > ThresholdBefore(mid, threshold)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    cut = lo;
  }

  // The result: the entries accepted before the cut and not evicted
  // before it, in arrival order.
  const auto first_after = std::partition_point(
      entries_.begin(), entries_.end(),
      [cut](const Entry& entry) { return entry.arrival < cut; });
  const size_t live = static_cast<size_t>(
      std::count_if(entries_.begin(), first_after,
                    [cut](const Entry& entry) { return entry.evicted >= cut; }));
  ResultList result(dims_);
  result.points.Reserve(live);
  result.f.reserve(live);
  const size_t dims = static_cast<size_t>(dims_);
  for (auto entry = entries_.begin(); entry != first_after; ++entry) {
    if (entry->evicted >= cut) {
      const size_t e = static_cast<size_t>(entry - entries_.begin());
      result.points.Append(rows_.data() + e * dims, entry->id);
      result.f.push_back(entry->f);
    }
  }

  const size_t charged = std::min(cut, charges_.size());
  stats->ops = OpCounts{};
  stats->ops.dominance_tests =
      std::accumulate(charges_.begin(),
                      charges_.begin() + static_cast<std::ptrdiff_t>(charged),
                      uint64_t{0}) +
      (to_end ? tail_tests_ : 0);
  stats->ops.scan_steps = cut;
  ChargeScanPages(view.layout(), size_, cut, &stats->ops);
  stats->scanned = cut;
  stats->final_threshold =
      to_end ? threshold : ThresholdBefore(cut, threshold);
  return result;
}

}  // namespace skypeer
