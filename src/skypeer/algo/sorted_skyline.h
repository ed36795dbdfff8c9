#ifndef SKYPEER_ALGO_SORTED_SKYLINE_H_
#define SKYPEER_ALGO_SORTED_SKYLINE_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "skypeer/algo/dominance_window.h"
#include "skypeer/algo/result_list.h"
#include "skypeer/common/op_counts.h"
#include "skypeer/common/point_set.h"
#include "skypeer/common/subspace.h"
#include "skypeer/storage/store_view.h"

namespace skypeer {

/// Options shared by the threshold-based scan algorithms (paper
/// Algorithms 1 and 2).
struct ThresholdScanOptions {
  /// Use ext-dominance (strict on every dimension) instead of dominance;
  /// the scan then computes the extended skyline of the input.
  bool ext = false;

  /// Threshold the scan starts from. SKYPEER propagates the initiator's
  /// threshold here (paper §5.2.3); infinity means unconstrained.
  double initial_threshold = std::numeric_limits<double>::infinity();

  /// `MergeSortedSkylines` only: skip points whose id was already offered
  /// by an earlier list position. Copies of the same point never dominate
  /// each other, so merging inputs that overlap (e.g. a reply that
  /// travelled both the spanning tree and a reroute detour in the
  /// reliable protocol) would otherwise duplicate skyline points. A copy
  /// carries its point's `f`, so only ids offered at the same `f` are
  /// compared. A no-op on disjoint inputs — fault-free runs are
  /// bit-identical with or without it.
  bool dedup_ids = false;
};

/// Counters reported by the scan algorithms.
struct ThresholdScanStats {
  /// Points consumed before the threshold terminated the scan.
  size_t scanned = 0;
  /// Threshold value when the scan stopped (min dist_U over the result).
  double final_threshold = std::numeric_limits<double>::infinity();
  /// Logical operations the scan performed (machine-independent; see
  /// `OpCounts`), identical across thread counts and kernels.
  OpCounts ops;
};

/// \brief Incrementally maintains a (extended) subspace skyline under
/// ascending-`f` insertion order. The shared core of Algorithms 1 and 2.
///
/// Offer points in non-decreasing `f(p)` order; the accumulator discards
/// dominated points, evicts points the newcomer dominates, and tracks the
/// pruning threshold `min dist_U` (Observation 5). Once
/// `f(p) > threshold()` no future point can survive and the caller may
/// stop scanning. The candidates live in a `DominanceWindow`, which also
/// counts the dominance tests.
///
/// Ext-dominance on the full space without `SeedWindow` entries (peer
/// extended skylines and super-peer store merges) runs *append-only*: an
/// accepted offer skips the eviction pass. If `p` ext-dominates `q` on
/// every dimension, then `f(p) = min_i p[i] < f(q)`, so no point offered
/// in `f` order ext-dominates an earlier one and the pass would evict
/// nothing. The pass is still charged its `|W|` dominance tests, so
/// results, thresholds and `ops()` are those of the evicting path; debug
/// builds run it anyway and check that it finds nothing. Store
/// maintenance's seeded window (`SeedWindow`) keeps the pass: its seeds,
/// the store's survivors, are not f-ordered against the resurrection
/// candidates offered after them.
class SkylineAccumulator {
 public:
  /// `u` is the query subspace over points of dimensionality `dims`.
  SkylineAccumulator(int dims, Subspace u, const ThresholdScanOptions& options);

  SkylineAccumulator(const SkylineAccumulator&) = delete;
  SkylineAccumulator& operator=(const SkylineAccumulator&) = delete;

  /// Considers point `p` (full-dimensional row) with the given id and
  /// `f`-value. Returns true if `p` entered the running skyline.
  /// Pre: `f` values are offered in non-decreasing order.
  bool Offer(const double* p, PointId id, double f);

  /// Current pruning threshold: points with `f > threshold()` can never
  /// enter the skyline (Observation 5); with `f == threshold()` ties are
  /// still possible, so callers scan while `f <= threshold()`.
  double threshold() const { return threshold_; }

  /// Number of window entries: the running skyline plus the seeds no
  /// offer has evicted. Every entry is live.
  size_t alive() const { return window_.size(); }

  /// Logical operations performed by all offers so far: the dominance
  /// tests of `DominanceWindow`'s counting rule (`j + 1` for an offer
  /// whose first dominator is entry `j`, `2|W|` for an accepted one; none
  /// for an offer beyond the threshold), independent of kernel dispatch.
  OpCounts ops() const {
    OpCounts ops;
    ops.dominance_tests = window_.dominance_tests();
    return ops;
  }

  /// Extracts the result, sorted ascending by `f` (insertion order with
  /// evicted points dropped and seed points excluded). The accumulator is
  /// left empty.
  ResultList TakeResult() { return window_.TakeResult(); }

  /// Pre-populates the window with already-known points that reject (and
  /// may be evicted by) later offers but never appear in `TakeResult()`.
  /// The caller is `SuperPeer::RemovePeer`'s incremental maintenance: it
  /// seeds the store's survivors and offers the resurrection candidates
  /// after them, so the seeds need not precede the offers in `f` order.
  /// Seeds need not be mutually non-dominated either — a dominated seed
  /// is an inert extra pruner — and no decision depends on a seed's `f`.
  /// Only valid on an empty accumulator; does not tighten `threshold()`
  /// (fold the seed's threshold into `options.initial_threshold` instead).
  /// A seeded accumulator always runs the eviction pass: seeds are not
  /// f-ordered against the offers, so an offer may evict one.
  /// With `skip` (one flag per row of `seed`) the flagged rows are left
  /// out, so a caller can seed a subset without copying it first.
  void SeedWindow(const ResultList& seed,
                  const std::vector<char>* skip = nullptr);

 private:
  Subspace u_;
  // Ext-dominance on the full space and no seeds: offers never evict
  // (see the class comment), so `Offer` skips the eviction pass.
  bool append_only_;
  double threshold_;
  DominanceWindow window_;
};

/// \brief Paper Algorithm 1: local subspace skyline computation over a
/// store sorted by `f(p)` — resident or paged (see `StoreView`).
///
/// Scans `input` in ascending `f` order and stops as soon as
/// `f(p) > threshold` (exactness note: the paper scans while
/// `f(p) < threshold`; we include ties to stay exact on inputs with equal
/// coordinates). Returns the (extended, if `options.ext`) skyline of the
/// input restricted to subspace `u`, sorted by `f`. When `stats` is
/// requested, `stats->ops` additionally charges the logical store pages
/// spanning the examined prefix (`ChargeScanPages`), identically for
/// paged and resident stores of the same page geometry.
ResultList SortedSkyline(const StoreView& input, Subspace u,
                         const ThresholdScanOptions& options = {},
                         ThresholdScanStats* stats = nullptr);
inline ResultList SortedSkyline(const ResultList& input, Subspace u,
                                const ThresholdScanOptions& options = {},
                                ThresholdScanStats* stats = nullptr) {
  return SortedSkyline(StoreView(&input), u, options, stats);
}

}  // namespace skypeer

#endif  // SKYPEER_ALGO_SORTED_SKYLINE_H_
