#include "skypeer/algo/filter_set.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "skypeer/common/macros.h"
#include "skypeer/common/mapping.h"

namespace skypeer {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline void Mix(uint64_t value, uint64_t* hash) {
  for (int byte = 0; byte < 8; ++byte) {
    *hash ^= (value >> (byte * 8)) & 0xffULL;
    *hash *= kFnvPrime;
  }
}

/// Rounds a coordinate UP onto the 1/kFilterGridDenominator grid. The
/// grid denominator is a power of two, so multiplying, ceiling and
/// dividing are all exact in binary floating point — `Quantize(x) >= x`
/// holds exactly, which is what makes quantized filter points safe:
/// anything a coarse point q prunes satisfies w <= q <= p for the
/// original skyline member w, so w dominates it too and the final merge
/// would discard it anyway. Rounding up only ever costs pruning power,
/// never correctness.
inline double Quantize(double x) {
  return std::ceil(x * kFilterGridDenominator) / kFilterGridDenominator;
}

}  // namespace

ResultList SelectFilterSet(const ResultList& local, Subspace u,
                           size_t max_size, OpCounts* ops) {
  const int dims = local.points.dims();
  ResultList filter(dims);
  const size_t n = local.size();
  if (max_size == 0 || n == 0) {
    return filter;
  }
  SKYPEER_DCHECK(local.IsSorted());
  if (ops != nullptr) {
    // One selection pass over the local list (per-dimension minima).
    ops->scan_steps += n;
  }
  // A budget of n already chooses every point (the f-rank samples below
  // then cover each index), so larger budgets select the same filter;
  // clamping also keeps the sample loop O(n) and `j * n` from
  // overflowing.
  const size_t budget = std::min(max_size, n);
  std::vector<char> chosen(n, 0);
  size_t count = 0;
  // Per-dimension minima of the query subspace: the strongest single-axis
  // pruners (a point minimal on dim i dominates everything that is worse
  // on every queried dimension). Ties break to the smallest index so the
  // choice is deterministic.
  for (int dim : u) {
    if (count >= budget) {
      break;
    }
    size_t best = 0;
    for (size_t i = 1; i < n; ++i) {
      if (local.points[i][dim] < local.points[best][dim]) {
        best = i;
      }
    }
    if (!chosen[best]) {
      chosen[best] = 1;
      ++count;
    }
  }
  // Evenly spaced f-rank samples fill the remaining budget. The stride
  // depends only on (n, budget); collisions with already-chosen indices
  // simply yield a smaller filter, never a different one.
  for (size_t j = 0; j < budget && count < budget; ++j) {
    const size_t index = j * n / budget;
    if (!chosen[index]) {
      chosen[index] = 1;
      ++count;
    }
  }
  // Quantize every selected point up onto the coarse wire grid (what
  // receivers actually see: one byte per coordinate, see
  // `WireModel::FilterBytes`). f is recomputed from the quantized
  // coordinates so the in-memory filter is exactly the decoded wire form.
  filter.points.Reserve(count);
  filter.f.reserve(count);
  std::vector<double> quantized(static_cast<size_t>(dims));
  for (size_t i = 0; i < n; ++i) {
    if (chosen[i]) {
      const double* row = local.points[i];
      for (int d = 0; d < dims; ++d) {
        quantized[static_cast<size_t>(d)] = Quantize(row[d]);
      }
      filter.points.Append(quantized.data(), local.points.id(i));
      filter.f.push_back(MinCoord(quantized.data(), dims));
    }
  }
  return filter;
}

std::shared_ptr<const ResultList> BuildQueryFilter(const ResultList& local,
                                                   Subspace u,
                                                   size_t max_size,
                                                   OpCounts* ops) {
  ResultList filter = SelectFilterSet(local, u, max_size, ops);
  if (filter.empty()) {
    return nullptr;
  }
  return std::make_shared<const ResultList>(std::move(filter));
}

uint64_t FilterFingerprint(const ResultList& filter) {
  uint64_t hash = kFnvOffset;
  Mix(static_cast<uint64_t>(filter.size()), &hash);
  const int dims = filter.points.dims();
  Mix(static_cast<uint64_t>(dims), &hash);
  for (size_t i = 0; i < filter.size(); ++i) {
    Mix(filter.points.id(i), &hash);
    Mix(std::bit_cast<uint64_t>(filter.f[i]), &hash);
    const double* row = filter.points[i];
    for (int d = 0; d < dims; ++d) {
      Mix(std::bit_cast<uint64_t>(row[d]), &hash);
    }
  }
  if (hash == 0) {
    hash = 1;  // 0 is reserved for "no filter".
  }
  return hash;
}

}  // namespace skypeer
