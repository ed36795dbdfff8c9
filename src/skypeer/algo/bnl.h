#ifndef SKYPEER_ALGO_BNL_H_
#define SKYPEER_ALGO_BNL_H_

#include "skypeer/common/op_counts.h"
#include "skypeer/common/point_set.h"
#include "skypeer/common/subspace.h"
#include "skypeer/storage/store_view.h"

namespace skypeer {

/// \brief Block-Nested-Loops skyline (Börzsönyi et al., ICDE'01), the
/// classic baseline: every point is compared against a window of current
/// candidates.
///
/// Since the library is main-memory, the window is unbounded (a single
/// "block"). Returns the skyline of `input` on subspace `u`, in window
/// order (input order with evicted points dropped); with `ext` the
/// extended skyline (strict dominance) instead. The window is a
/// `DominanceWindow`, tested with the batched kernels. When `ops` is
/// non-null, `ops->dominance_tests` receives the window's counting rule
/// (`j + 1` tests for a point whose first dominator is window entry `j`,
/// `2|W|` for a point that enters; DESIGN.md, counting rule 1) and
/// `ops->scan_steps` the points consumed.
PointSet BnlSkyline(const PointSet& input, Subspace u, bool ext = false,
                    OpCounts* ops = nullptr);

/// \brief `BnlSkyline` over a store view (resident or paged).
///
/// The window holds row *copies* instead of indices into the input, so a
/// paged store streams through the cursor exactly once; comparison order,
/// result order and dominance-test counts are identical to `BnlSkyline`
/// over the materialized store. `ops` additionally charges the logical
/// pages of the full-store scan (`ChargeScanPages`) — identically for
/// both store modes.
PointSet BnlSkylineView(const StoreView& input, Subspace u, bool ext = false,
                        OpCounts* ops = nullptr);

}  // namespace skypeer

#endif  // SKYPEER_ALGO_BNL_H_
