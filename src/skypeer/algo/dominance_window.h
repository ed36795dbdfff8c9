#ifndef SKYPEER_ALGO_DOMINANCE_WINDOW_H_
#define SKYPEER_ALGO_DOMINANCE_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/point_set.h"
#include "skypeer/common/subspace.h"

namespace skypeer {

/// \brief The candidate window of BNL and of Algorithms 1 and 2: the
/// offered points that entered and have not been evicted since, in
/// arrival order.
///
/// Each entry keeps its u-projection (a blocked-SoA `BlockedProjection`
/// for the batched kernels), its full row, its id, its `f` and whether it
/// is a seed. Every entry is live: an offer that dominates entries erases
/// them at once (`BlockedProjection::Erase`), so the window holds exactly
/// the running skyline plus the seeds no offer has evicted.
///
/// Counting rule (DESIGN.md, counting rule 1), over the `|W|` entries
/// present when `p` is offered: if entry `j` is the first that dominates
/// `p`, the offer costs `j + 1` dominance tests (the reject pass stops
/// there); if none does, it costs `2|W|` (the reject pass plus the
/// eviction pass). The counts depend on window order only, never on the
/// kernel dispatch.
///
/// A window built without `keep_rows` keeps only the u-projections and
/// ids: it decides and counts exactly the same, for a caller that keeps
/// its own copy of each accepted row (`ScanTrace`) and never takes a
/// result or seeds.
class DominanceWindow {
 public:
  /// Tests dominance on subspace `u` of `dims`-dimensional rows; `strict`
  /// selects ext-dominance (strictly smaller on every dimension of `u`).
  DominanceWindow(int dims, Subspace u, bool strict, bool keep_rows = true);

  DominanceWindow(const DominanceWindow&) = delete;
  DominanceWindow& operator=(const DominanceWindow&) = delete;

  /// Offers `p` (full row) with its id and `f`. Returns false, leaving the
  /// window unchanged, if an entry dominates `p`; otherwise erases the
  /// entries `p` dominates and appends `p`. With `append_only` the caller
  /// guarantees that `p` dominates no entry: the eviction pass is skipped
  /// but still charged, and debug builds run it and check that it finds
  /// nothing. When `evicted` is non-null, the ids of the entries an
  /// accepted `p` erases are appended to it, in window order.
  bool Offer(const double* p, PointId id, double f, bool append_only = false,
             std::vector<PointId>* evicted = nullptr);

  /// Appends `p` as a seed: an entry that rejects and may be evicted by
  /// later offers but is left out of `TakeResult()`. No test, no charge.
  void Seed(const double* p, PointId id, double f);

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Dominance tests charged by every offer so far.
  uint64_t dominance_tests() const { return tests_; }

  /// Moves the non-seed entries out in window order, with their `f`, and
  /// leaves the window empty.
  ResultList TakeResult();

 private:
  /// Gathers the `u` coordinates of the full row `p` into `proj`.
  void Project(const double* p, double* proj) const;

  void Append(const double* p, const double* proj, PointId id, double f,
              bool seed);

  /// Sets `evict_` to the entries `proj` dominates; true if there is one.
  bool MarkDominated(const double* proj);

  /// Erases the entries marked in `evict_`, keeping the rest in order;
  /// appends the erased ids to `evicted` when non-null.
  void EraseMarked(std::vector<PointId>* evicted);

  int dims_;
  Subspace u_;
  bool strict_;
  bool keep_rows_;
  // One element per entry, in window order. Parallel vectors rather than
  // one vector of records: the records' growth left more of the heap
  // fragmented after pre-processing (+2.8 MiB peak RSS on a d = 12,
  // 150,000-point network).
  BlockedProjection proj_;      // u-projections
  std::vector<PointId> ids_;
  // With `keep_rows_` only:
  std::vector<double> rows_;    // full rows, row-major
  std::vector<double> f_;
  std::vector<char> seed_;
  std::vector<uint8_t> evict_;  // per-block eviction masks
  uint64_t tests_ = 0;
};

}  // namespace skypeer

#endif  // SKYPEER_ALGO_DOMINANCE_WINDOW_H_
