#include "skypeer/algo/bnl.h"

#include <algorithm>
#include <vector>

#include "skypeer/common/dominance.h"
#include "skypeer/common/macros.h"

namespace skypeer {

PointSet BnlSkyline(const PointSet& input, Subspace u, bool ext,
                    OpCounts* ops) {
  SKYPEER_CHECK(!u.empty());
  const size_t n = input.size();
  uint64_t tests = 0;
  // Window of candidate indices into `input`.
  std::vector<size_t> window;
  for (size_t i = 0; i < n; ++i) {
    const double* p = input[i];
    bool dominated = false;
    size_t kept = 0;
    for (size_t w = 0; w < window.size(); ++w) {
      const double* q = input[window[w]];
      ++tests;
      if (ext ? ExtDominates(q, p, u) : Dominates(q, p, u)) {
        dominated = true;
        // Keep the remaining window untouched.
        for (; w < window.size(); ++w) {
          window[kept++] = window[w];
        }
        break;
      }
      ++tests;
      if (ext ? ExtDominates(p, q, u) : Dominates(p, q, u)) {
        continue;  // Evict q.
      }
      window[kept++] = window[w];
    }
    window.resize(kept);
    if (!dominated) {
      window.push_back(i);
    }
  }
  if (ops != nullptr) {
    ops->dominance_tests += tests;
    ops->scan_steps += n;
  }

  PointSet result(input.dims());
  result.Reserve(window.size());
  for (size_t i : window) {
    result.AppendFrom(input, i);
  }
  return result;
}

PointSet BnlSkylineView(const StoreView& input, Subspace u, bool ext,
                        OpCounts* ops) {
  SKYPEER_CHECK(!u.empty());
  const size_t n = input.size();
  const size_t dims = static_cast<size_t>(input.dims());
  uint64_t tests = 0;
  StoreCursor cursor(input);
  // Window of candidate row copies (row-major) with their ids — the same
  // candidates, in the same order, as `BnlSkyline`'s index window, but
  // independent of the input staying resident.
  std::vector<double> window_rows;
  std::vector<PointId> window_ids;
  for (size_t i = 0; i < n; ++i) {
    const double* p = cursor.row(i);
    const PointId id = cursor.id(i);
    bool dominated = false;
    size_t kept = 0;
    const size_t window_size = window_ids.size();
    for (size_t w = 0; w < window_size; ++w) {
      const double* q = window_rows.data() + w * dims;
      ++tests;
      if (ext ? ExtDominates(q, p, u) : Dominates(q, p, u)) {
        dominated = true;
        // Keep the remaining window untouched.
        for (; w < window_size; ++w) {
          if (kept != w) {
            std::copy_n(window_rows.data() + w * dims, dims,
                        window_rows.data() + kept * dims);
            window_ids[kept] = window_ids[w];
          }
          ++kept;
        }
        break;
      }
      ++tests;
      if (ext ? ExtDominates(p, q, u) : Dominates(p, q, u)) {
        continue;  // Evict q.
      }
      if (kept != w) {
        std::copy_n(window_rows.data() + w * dims, dims,
                    window_rows.data() + kept * dims);
        window_ids[kept] = window_ids[w];
      }
      ++kept;
    }
    window_rows.resize(kept * dims);
    window_ids.resize(kept);
    if (!dominated) {
      window_rows.insert(window_rows.end(), p, p + dims);
      window_ids.push_back(id);
    }
  }
  if (ops != nullptr) {
    ops->dominance_tests += tests;
    ops->scan_steps += n;
    ChargeScanPages(input.layout(), n, n, ops);
  }

  PointSet result(input.dims());
  result.Reserve(window_ids.size());
  for (size_t w = 0; w < window_ids.size(); ++w) {
    result.Append(window_rows.data() + w * dims, window_ids[w]);
  }
  return result;
}

}  // namespace skypeer
