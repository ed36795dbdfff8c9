#include "skypeer/algo/bnl.h"

#include "skypeer/algo/dominance_window.h"

namespace skypeer {

namespace {

/// The one BNL loop, over any source of rows (`row_at(i)`, valid until the
/// next call) and ids (`id_at(i)`), read once in order `0..n-1`. `ops`,
/// when non-null, receives the window's dominance tests and the points
/// consumed.
template <typename RowAt, typename IdAt>
PointSet BnlCore(size_t n, int dims, Subspace u, bool ext, RowAt row_at,
                 IdAt id_at, OpCounts* ops) {
  DominanceWindow window(dims, u, ext);
  for (size_t i = 0; i < n; ++i) {
    // BNL orders nothing by f, so the window keeps none.
    window.Offer(row_at(i), id_at(i), /*f=*/0.0);
  }
  if (ops != nullptr) {
    ops->dominance_tests += window.dominance_tests();
    ops->scan_steps += n;
  }
  return window.TakeResult().points;
}

}  // namespace

PointSet BnlSkyline(const PointSet& input, Subspace u, bool ext,
                    OpCounts* ops) {
  return BnlCore(
      input.size(), input.dims(), u, ext,
      [&input](size_t i) { return input[i]; },
      [&input](size_t i) { return input.id(i); }, ops);
}

PointSet BnlSkylineView(const StoreView& input, Subspace u, bool ext,
                        OpCounts* ops) {
  StoreCursor cursor(input);
  PointSet result = BnlCore(
      input.size(), input.dims(), u, ext,
      [&cursor](size_t i) { return cursor.row(i); },
      [&cursor](size_t i) { return cursor.id(i); }, ops);
  if (ops != nullptr) {
    ChargeScanPages(input.layout(), input.size(), input.size(), ops);
  }
  return result;
}

}  // namespace skypeer
