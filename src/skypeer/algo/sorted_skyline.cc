#include "skypeer/algo/sorted_skyline.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/mapping.h"

namespace skypeer {

ResultList BuildSortedByF(const PointSet& input) {
  const int dims = input.dims();
  std::vector<double> f(input.size());
  BatchMinCoord(input.values().data(), input.size(), dims, f.data());
  std::vector<size_t> order(input.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&f](size_t a, size_t b) { return f[a] < f[b]; });
  ResultList result(dims);
  result.points.Reserve(input.size());
  result.f.reserve(input.size());
  for (size_t i : order) {
    result.points.AppendFrom(input, i);
    result.f.push_back(f[i]);
  }
  return result;
}

SkylineAccumulator::SkylineAccumulator(int dims, Subspace u,
                                       const ThresholdScanOptions& options)
    : u_(u),
      append_only_(options.ext && u == Subspace::FullSpace(dims)),
      threshold_(options.initial_threshold),
      window_(dims, u, options.ext) {}

bool SkylineAccumulator::Offer(const double* p, PointId id, double f) {
  // Observation 5: beyond the threshold the point is dominated by the
  // skyline point that set the threshold. (Ties may survive; see header.)
  if (f > threshold_ || !window_.Offer(p, id, f, append_only_)) {
    return false;
  }
  // A dominator has dist_U no larger than any point it dominates, so the
  // minimum only ever decreases; track it incrementally.
  threshold_ = std::min(threshold_, DistU(p, u_));
  return true;
}

void SkylineAccumulator::SeedWindow(const ResultList& seed,
                                    const std::vector<char>* skip) {
  SKYPEER_CHECK(window_.empty());
  SKYPEER_CHECK(skip == nullptr || skip->size() == seed.size());
  append_only_ = false;
  for (size_t i = 0; i < seed.size(); ++i) {
    if (skip == nullptr || !(*skip)[i]) {
      window_.Seed(seed.points[i], seed.points.id(i), seed.f[i]);
    }
  }
}

ResultList SortedSkyline(const StoreView& input, Subspace u,
                         const ThresholdScanOptions& options,
                         ThresholdScanStats* stats) {
  SKYPEER_DCHECK(input.list() == nullptr || input.list()->IsSorted());
  SkylineAccumulator accumulator(input.dims(), u, options);
  const size_t end = input.size();
  StoreCursor cursor(input);
  size_t scanned = 0;
  for (; scanned < end; ++scanned) {
    const double f = cursor.f(scanned);
    if (f > accumulator.threshold()) {
      break;
    }
    accumulator.Offer(cursor.row(scanned), cursor.id(scanned), f);
  }
  if (stats != nullptr) {
    stats->scanned = scanned;
    stats->final_threshold = accumulator.threshold();
    stats->ops = accumulator.ops();
    stats->ops.scan_steps += scanned;
    ChargeScanPages(input.layout(), end, scanned, &stats->ops);
  }
  return accumulator.TakeResult();
}

}  // namespace skypeer
