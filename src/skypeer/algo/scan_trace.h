#ifndef SKYPEER_ALGO_SCAN_TRACE_H_
#define SKYPEER_ALGO_SCAN_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/point_set.h"
#include "skypeer/common/subspace.h"
#include "skypeer/storage/store_view.h"

namespace skypeer {

/// \brief One recorded window evolution over an f-sorted store on one
/// subspace, from which every local scan of that store and subspace it
/// covers is cut without rescanning.
///
/// Algorithm 1 stops at the first `f(p)` above a threshold that only
/// tightens, so the scan from a threshold `t` is a prefix of the scan from
/// any `t' >= t`: both offer the same points to the same window until the
/// earlier stop. BNL over the f-sorted store runs that window past the
/// unconstrained stop, where every offer is rejected (Observation 5), so
/// it only adds dominance tests. The recorder runs that one loop and keeps
/// each step's dominance-test charge up to the unconstrained stop (past
/// it, BNL's total), and for each accepted entry its arrival step, the
/// step whose offer evicted it, its id, `f`, the running `min dist_U` and
/// its row. The cut reads the steps' `f` back from the store.
class ScanTrace {
 public:
  /// An empty trace, which covers no scan.
  ScanTrace() = default;

  /// Records the scan of `view` on `u` from `threshold` (Algorithm 1's
  /// loop under plain dominance), or with `to_end` BNL's: the same loop
  /// run to the store's end, threshold ignored. Replaces what the trace
  /// held, reusing its storage.
  void Record(const StoreView& view, Subspace u, double threshold,
              bool to_end);

  /// True if the trace holds the scan `Cut(view, threshold, to_end)`
  /// cuts: it reached the store's end, or it is a threshold scan recorded
  /// from a threshold no lower than `threshold`.
  bool Covers(double threshold, bool to_end) const {
    return reached_end_ || (!to_end && threshold <= threshold_);
  }

  /// The scan from `threshold` cut from the trace: the result and `stats`
  /// of `SortedSkyline(view, u, {.initial_threshold = threshold})`. With
  /// `to_end`, BNL's: `BnlSkylineView(view, u)`'s points and ops, each
  /// point with its `f`, `stats->scanned` the store size and
  /// `stats->final_threshold` the unchanged `threshold`. `view` is the
  /// recorded store. Pre: `Covers(threshold, to_end)`.
  ResultList Cut(const StoreView& view, double threshold, bool to_end,
                 ThresholdScanStats* stats) const;

 private:
  static constexpr size_t kNever = std::numeric_limits<size_t>::max();

  /// An accepted offer.
  struct Entry {
    size_t arrival;  // its step
    size_t evicted;  // the step whose offer evicted it, or kNever
    double bound;    // min dist_U over the entries up to this one
    PointId id;
    double f;
  };

  /// The threshold in force before step `step` of a scan from `threshold`:
  /// `threshold` tightened by every entry accepted before that step.
  double ThresholdBefore(size_t step, double threshold) const;

  int dims_ = 1;
  /// Threshold the recording started from (infinity for BNL); NaN, which
  /// no threshold is at or below, before the first recording.
  double threshold_ = std::numeric_limits<double>::quiet_NaN();
  /// Points in the recorded store.
  size_t size_ = 0;
  /// Whether the recording consumed every store point.
  bool reached_end_ = false;
  /// Dominance-test charge of each offer, up to the recording's stop or,
  /// for BNL, the unconstrained stop.
  std::vector<uint32_t> charges_;
  /// Dominance tests of BNL's offers past the unconstrained stop.
  uint64_t tail_tests_ = 0;
  /// The accepted offers in arrival order, and their full rows.
  std::vector<Entry> entries_;
  std::vector<double> rows_;
};

}  // namespace skypeer

#endif  // SKYPEER_ALGO_SCAN_TRACE_H_
