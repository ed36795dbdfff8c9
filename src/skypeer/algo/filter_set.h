#ifndef SKYPEER_ALGO_FILTER_SET_H_
#define SKYPEER_ALGO_FILTER_SET_H_

#include <cstdint>
#include <memory>

#include "skypeer/algo/result_list.h"
#include "skypeer/common/op_counts.h"
#include "skypeer/common/subspace.h"

namespace skypeer {

/// \file
/// Sampled filter-point broadcast (Zhang & Zhang style): the query
/// initiator picks a small, size-bounded set of points from its own
/// f-sorted extended skyline and attaches it to the flooded query. Every
/// receiving super-peer seeds its scan window with the filter points
/// (emit-flagged off), so a large fraction of each remote store is
/// dominated away before a single candidate is shipped back. Because all
/// filter points are members of the initiator's local list — itself one of
/// the merge inputs — any point a filter prunes would have been removed at
/// the final merge anyway, and the merged answer stays bit-identical to
/// the no-filter oracle.
///
/// Filter points ship *quantized*: every coordinate is rounded up onto a
/// coarse 1/128 grid, so the wire cost is one byte per queried coordinate
/// instead of a full double (`WireModel::FilterBytes`) — the difference
/// between the broadcast paying for itself and drowning the reply
/// savings, since the flood re-transmits the filter on every backbone
/// edge. Rounding *up* is the safe direction: a coarse point q prunes p
/// only if q <= p in the subspace, and the original skyline member w
/// satisfies w <= q, so w dominates p too and the exactness argument
/// above goes through unchanged. The in-memory filter holds the decoded
/// wire form (quantized coordinates, f recomputed from them), so every
/// super-peer — including the simulation's staging wave — sees the
/// identical object a real deployment would.

/// Denominator of the filter quantization grid. A power of two, so
/// quantization (multiply, ceil, divide) is exact in binary floating
/// point and `Quantize(x) >= x` holds without a single rounding caveat;
/// 128 makes grid values for data in [0, 2) fit one byte on the wire.
inline constexpr double kFilterGridDenominator = 128.0;

/// Selects a deterministic filter set of at most `max_size` points from
/// `local` (an f-sorted list) for queries over subspace `u`.
///
/// Selection takes, in order: for each dimension of `u`, the point with
/// the minimum coordinate on that dimension (ties broken by smallest
/// index) — these are the strongest single-axis pruners; then evenly
/// spaced f-rank samples until `max_size` points are chosen. The chosen
/// points are emitted in `local`'s order with their coordinates quantized
/// up onto the wire grid (see `kFilterGridDenominator`) and f recomputed
/// from the quantized values — note the quantized f values need not be
/// ascending; seeded windows do not require f order. Selection depends
/// only on the list contents, the subspace, and `max_size` — it is stable
/// across runs, thread counts and kernels. Charges one pass of
/// `scan_steps` over `local` to `ops` when provided. Returns an empty
/// list when `max_size == 0` or `local` is empty, and every point of
/// `local` when `max_size >= local.size()`.
ResultList SelectFilterSet(const ResultList& local, Subspace u,
                           size_t max_size, OpCounts* ops);

/// Convenience wrapper for the protocol layer: returns `SelectFilterSet`
/// boxed in a `shared_ptr` suitable for attaching to query messages, or
/// `nullptr` when the selection is empty (no filter to broadcast).
std::shared_ptr<const ResultList> BuildQueryFilter(const ResultList& local,
                                                   Subspace u,
                                                   size_t max_size,
                                                   OpCounts* ops);

/// Order-sensitive 64-bit FNV-1a fingerprint of a filter set (size, ids,
/// f values and all coordinates). Never returns 0, so 0 can denote "no
/// filter" in the query memo's scan key. Two scans over the
/// same store and subspace are interchangeable only if their filter
/// fingerprints match.
uint64_t FilterFingerprint(const ResultList& filter);

}  // namespace skypeer

#endif  // SKYPEER_ALGO_FILTER_SET_H_
