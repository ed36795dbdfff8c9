#ifndef SKYPEER_ALGO_SORTED_SKYLINE_H_
#define SKYPEER_ALGO_SORTED_SKYLINE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/common/dominance_batch.h"
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
  /// reliable protocol) would otherwise duplicate skyline points. A no-op
  /// on disjoint inputs — fault-free runs are bit-identical with or
  /// without it.
  bool dedup_ids = false;

  /// Threshold-scan algorithms only: broadcast filter set to seed the
  /// window with before scanning (`SkylineAccumulator::SeedWindow`).
  /// Filter points prune offers — and may themselves be evicted by
  /// dominating offers — but are never emitted in the result. Must
  /// outlive the scan. Null or empty means no filter. The filter does not
  /// tighten the threshold: a filter point is not necessarily a skyline
  /// point of the scanned input's home store, but every point it prunes
  /// is dominated by a point the query initiator already holds, so the
  /// final merged answer is unchanged (see filter_set.h).
  const ResultList* filter = nullptr;
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
/// stop scanning.
///
/// Besides the window, a one-block *front* holds copies of the (up to 8)
/// live window entries with the smallest coordinate sum on `u`, the
/// points most likely to dominate a newcomer (the SFS/SaLSa presorting
/// argument). Each offer tests the front before the window. Every front
/// entry is a live window entry, so the front rejects only what the
/// window would; it changes no decision and no charged count.
///
/// Ext-dominance on the full space without `SeedWindow` entries (peer
/// extended skylines and super-peer store merges) runs *append-only*: an
/// accepted offer skips the eviction pass. If `p` ext-dominates `q` on
/// every dimension, then `f(p) = min_i p[i] < f(q)`, so no point offered
/// in `f` order ext-dominates an earlier one and the pass would evict
/// nothing. The pass is still charged its `|W|` dominance tests, so
/// results, thresholds and `ops()` are those of the evicting path; debug
/// builds run it anyway and check that it finds no live entry.
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

  /// Number of points currently in the running skyline.
  size_t alive() const { return alive_; }

  /// Number of window slots (alive + not-yet-compacted evicted entries);
  /// bounded by the compaction policy of `MaybeCompact`.
  size_t window_size() const { return window_points_.size(); }

  /// Logical operations performed by all offers so far: dominance tests,
  /// counting the window entries examined per offer (not kernel-internal
  /// work), so they are independent of kernel dispatch.
  const OpCounts& ops() const { return ops_; }

  /// Extracts the result, sorted ascending by `f` (insertion order with
  /// evicted points dropped and seed points excluded). The accumulator is
  /// left empty.
  ResultList TakeResult();

  /// Pre-populates the window with already-known points that reject (and
  /// may be evicted by) later offers but never appear in `TakeResult()`.
  /// Seeds need not be mutually non-dominated and need not precede future
  /// offers in `f` order — a dominated seed is an inert extra pruner, and
  /// no decision depends on a seed's `f` value (broadcast filter sets are
  /// not f-ordered against the scanned store).
  /// Only valid on an empty accumulator; does not tighten `threshold()`
  /// (fold the seed's threshold into `options.initial_threshold` instead).
  /// A seeded accumulator always runs the eviction pass: seeds are not
  /// f-ordered against the offers, so an offer may evict one.
  void SeedWindow(const ResultList& seed);

 private:
  void EvictDominatedLinear(const double* proj);

  /// Drops the front entries `proj` dominates (the copies of the window
  /// entries `EvictDominatedLinear` just evicted, by the same
  /// comparisons) and refills the front if it lost one while more live
  /// entries exist.
  void EvictFront(const double* proj);

  /// Rebuilds the front from the live window entries with the smallest
  /// keys. O(window) per call.
  void RefillFront();

  /// Adds the new live entry `proj` to the front if there is room or its
  /// key beats the largest key there, which it then replaces.
  void AdmitToFront(const double* proj);

  /// Drops evicted window slots once fewer than half of the entries are
  /// alive (and the window holds at least 64), so the batched dominance
  /// tests and `window_proj_` stay proportional to the running skyline
  /// instead of every point ever offered. Uncharged: compaction is
  /// bookkeeping, not dominance work.
  void MaybeCompact();

  int dims_;
  Subspace u_;
  bool strict_;
  // Ext-dominance on the full space and no seeds: offers never evict
  // (see the class comment), so `Offer` skips the eviction pass.
  bool append_only_;
  double threshold_;

  // Candidate window: points appended in offer order; `alive_flags_[i]`
  // clears when candidate i is evicted by a later dominator, and
  // `emit_flags_[i]` is 0 for SeedWindow() entries, which participate in
  // dominance tests but are not part of the result.
  PointSet window_points_;
  std::vector<double> window_f_;
  std::vector<char> alive_flags_;
  std::vector<char> emit_flags_;
  // u-projected coords, blocked SoA; evicted slots are Kill()ed to +inf so
  // the batched "does any window point dominate q" kernel needs no
  // liveness mask.
  BlockedProjection window_proj_;
  size_t alive_ = 0;

  // Front block: u-projected copies of live window entries, at most
  // `kDomBlockWidth`, with their keys in `front_key_`. When it holds
  // every live entry (`front_proj_.size() == alive_`) a front miss
  // settles the offer without the window test.
  BlockedProjection front_proj_;
  double front_key_[kDomBlockWidth] = {};

  std::vector<uint8_t> scratch_masks_;  // per-block eviction bit masks
  OpCounts ops_;
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
