#ifndef SKYPEER_STORAGE_PAGE_LAYOUT_H_
#define SKYPEER_STORAGE_PAGE_LAYOUT_H_

#include <cstddef>
#include <cstdint>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/macros.h"
#include "skypeer/common/op_counts.h"

namespace skypeer {

/// Default store page size in bytes (one classic DB page).
inline constexpr size_t kDefaultPageSize = 4096;
/// Bounds enforced on the `--page-size` flag.
inline constexpr size_t kMinPageSize = 4096;
inline constexpr size_t kMaxPageSize = 1 << 20;

/// \brief Geometry of the paged blocked-SoA store layout.
///
/// A page holds `blocks_per_page()` groups of `kDomBlockWidth` (8)
/// consecutive f-sorted points. Within a block the coordinates are
/// dim-major — exactly the lane layout `BlockedProjection` and the SIMD
/// dominance kernels consume — followed by an 8-wide `f` strip and an
/// 8-wide id strip:
///
///   block = [dim0 x8][dim1 x8]...[dim(d-1) x8][f x8][id x8]
///
/// so `bytes_per_block() = (dims + 2) * 8 * sizeof(double)`. Tail lanes
/// of the last block are padded with +inf coordinates/f (the same
/// convention `BlockedProjection` uses for padding lanes). Any page-tail
/// slack smaller than a block is zeroed.
///
/// The layout is a pure function of (page size, dims) and is shared by
/// paged *and* in-memory stores: logical `page_reads`/`page_bytes`
/// charges derive from it alone, which is what keeps every metric
/// bit-identical between the two modes.
struct PageLayout {
  size_t page_size = kDefaultPageSize;
  int dims = 1;

  PageLayout() = default;
  PageLayout(size_t page_size_in, int dims_in)
      : page_size(page_size_in), dims(dims_in) {
    SKYPEER_CHECK(dims >= 1);
    SKYPEER_CHECK(page_size >= bytes_per_block());
  }

  size_t bytes_per_block() const {
    return (static_cast<size_t>(dims) + 2) * kDomBlockWidth * sizeof(double);
  }
  size_t doubles_per_block() const {
    return (static_cast<size_t>(dims) + 2) * kDomBlockWidth;
  }
  size_t blocks_per_page() const { return page_size / bytes_per_block(); }
  size_t points_per_page() const { return blocks_per_page() * kDomBlockWidth; }

  /// Pages needed to hold `n` points.
  size_t PagesForPoints(size_t n) const {
    const size_t ppp = points_per_page();
    return (n + ppp - 1) / ppp;
  }
};

/// Positions whose `f` value a threshold scan over a store of `size`
/// points read: every consumed point plus, when the scan stopped on the
/// threshold before the end, the first rejected position. A pure
/// function of the scan outcome, so replays charge identically to the
/// direct scan they reproduce.
inline size_t ScanExamined(size_t size, size_t scanned) {
  return scanned + (scanned < size ? 1 : 0);
}

/// Charges the logical page reads of a threshold scan over a store of
/// `size` points that consumed `scanned` points: the pages spanning the
/// examined prefix, whole pages each. Charged identically for paged and
/// in-memory stores (see `PageLayout`).
inline void ChargeScanPages(const PageLayout& layout, size_t size,
                            size_t scanned, OpCounts* ops) {
  const size_t examined = ScanExamined(size, scanned);
  if (examined == 0) {
    return;
  }
  const uint64_t pages = layout.PagesForPoints(examined);
  ops->page_reads += pages;
  ops->page_bytes += pages * static_cast<uint64_t>(layout.page_size);
}

}  // namespace skypeer

#endif  // SKYPEER_STORAGE_PAGE_LAYOUT_H_
