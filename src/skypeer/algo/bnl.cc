#include "skypeer/algo/bnl.h"

#include <algorithm>
#include <vector>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/macros.h"

namespace skypeer {

namespace {

/// The one BNL loop, over any source of rows (`row_at(i)`, valid until the
/// next call) and ids (`id_at(i)`), read once in order `0..n-1`. The
/// window holds the u-projected candidates, their full rows (a full-space
/// `BlockedProjection`) and their ids, all in window order. `ops`, when
/// non-null, receives the scalar loop's counts (see `BnlSkyline`).
template <typename RowAt, typename IdAt>
PointSet BnlCore(size_t n, int dims, Subspace u, bool ext, RowAt row_at,
                 IdAt id_at, OpCounts* ops) {
  SKYPEER_CHECK(!u.empty());
  uint64_t tests = 0;
  BlockedProjection window(u.Count());
  BlockedProjection rows(dims);
  std::vector<PointId> ids;
  std::vector<uint8_t> evict;
  double proj[kMaxDims];
  for (size_t i = 0; i < n; ++i) {
    const double* p = row_at(i);
    int j = 0;
    for (int dim : u) {
      proj[j++] = p[dim];
    }
    // The window is mutually non-dominated, so if entry `first` dominates
    // p, p dominates no earlier entry (`first` would dominate it too): the
    // scalar loop ran two tests per earlier entry, one on `first`, and
    // evicted nothing. Otherwise it ran two per entry.
    const size_t size = ids.size();
    const size_t first = FirstDominator(window, proj, ext);
    if (first < size) {
      tests += 2 * first + 1;
      continue;
    }
    tests += 2 * size;
    evict.resize(window.num_blocks());
    DominatedMask(window, proj, ext, evict.data());
    if (std::any_of(evict.begin(), evict.end(),
                    [](uint8_t m) { return m != 0; })) {
      window.Erase(evict.data());
      rows.Erase(evict.data());
      size_t kept = 0;
      for (size_t w = 0; w < size; ++w) {
        if (!((evict[w / kDomBlockWidth] >> (w % kDomBlockWidth)) & 1)) {
          ids[kept++] = ids[w];
        }
      }
      ids.resize(kept);
    }
    window.Append(proj);
    rows.Append(p);
    ids.push_back(id_at(i));
  }
  if (ops != nullptr) {
    ops->dominance_tests += tests;
    ops->scan_steps += n;
  }

  PointSet result(dims);
  result.Reserve(ids.size());
  double row[kMaxDims];
  for (size_t w = 0; w < ids.size(); ++w) {
    rows.Row(w, row);
    result.Append(row, ids[w]);
  }
  return result;
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
