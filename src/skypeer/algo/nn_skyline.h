#ifndef SKYPEER_ALGO_NN_SKYLINE_H_
#define SKYPEER_ALGO_NN_SKYLINE_H_

#include <cstddef>

#include "skypeer/common/point_set.h"
#include "skypeer/common/subspace.h"

namespace skypeer {

/// Counters reported by the NN-skyline computation.
struct NnSkylineStats {
  /// Nearest-neighbor searches issued (= regions processed).
  size_t nn_queries = 0;
  /// Peak size of the region to-do list.
  size_t max_todo = 0;
};

/// \brief Nearest-neighbor skyline (Kossmann, Ramsak & Rost, VLDB'02 —
/// the paper's reference [11]): progressively emits skyline points by
/// repeated nearest-neighbor search on an R-tree over the query-subspace
/// projection.
///
/// The point minimizing the coordinate sum within a "not yet dominated"
/// region is always a skyline point; emitting it splits the region into
/// |U| overlapping subregions (one per dimension, upper-bounded strictly
/// by the new point's coordinate), which are processed until exhausted.
/// Points tying an emitted point on every queried coordinate are also
/// skyline members and are gathered in a final equality pass, so the
/// result is exact even with duplicate attribute values.
///
/// NN-skyline is progressive (first results arrive immediately) but its
/// region list can grow combinatorially with |U| and the skyline size —
/// the classic trade-off this library's Algorithm 1 avoids.
PointSet NnSkyline(const PointSet& input, Subspace u,
                   NnSkylineStats* stats = nullptr);

}  // namespace skypeer

#endif  // SKYPEER_ALGO_NN_SKYLINE_H_
