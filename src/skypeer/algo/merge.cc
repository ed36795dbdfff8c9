#include "skypeer/algo/merge.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "skypeer/common/macros.h"

namespace skypeer {

ResultList MergeSortedSkylines(int dims,
                               const std::vector<const ResultList*>& lists,
                               Subspace u, const ThresholdScanOptions& options,
                               ThresholdScanStats* stats) {
  SKYPEER_CHECK(dims > 0);
  for (const ResultList* list : lists) {
    SKYPEER_CHECK(list != nullptr);
    SKYPEER_DCHECK(list->IsSorted());
    SKYPEER_CHECK(list->points.dims() == dims);
  }
  if (lists.empty()) {
    // Nothing to merge: the skyline of an empty union is empty, at the
    // unchanged initial threshold.
    if (stats != nullptr) {
      stats->scanned = 0;
      stats->final_threshold = options.initial_threshold;
      stats->ops = OpCounts{};
    }
    return ResultList(dims);
  }

  SkylineAccumulator accumulator(dims, u, options);

  // Min-heap over list heads keyed by f; ties broken by list index for
  // determinism.
  struct Head {
    double f;
    size_t list;
    size_t pos;
  };
  auto greater = [](const Head& a, const Head& b) {
    if (a.f != b.f) {
      return a.f > b.f;
    }
    return a.list > b.list;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(greater)> heap(greater);
  for (size_t l = 0; l < lists.size(); ++l) {
    if (!lists[l]->empty()) {
      heap.push(Head{lists[l]->f[0], l, 0});
    }
  }

  // Ids offered at the current f value. Copies of one point carry the
  // same f, so a copy can only meet its original within one run of equal
  // f values; checking that run needs no hashing.
  std::vector<PointId> ids_at_f;
  double run_f = 0.0;
  size_t scanned = 0;
  uint64_t pulls = 0;
  while (!heap.empty()) {
    const Head head = heap.top();
    // "SKY_Us <- the list with the minimum first element" (Algorithm 2,
    // lines 5/13); stop once even the smallest head exceeds the threshold.
    if (head.f > accumulator.threshold()) {
      break;
    }
    heap.pop();
    ++pulls;
    const ResultList& list = *lists[head.list];
    // Copies of one point (overlapping inputs) never dominate each other;
    // offering both would duplicate the skyline entry.
    bool duplicate_id = false;
    if (options.dedup_ids) {
      const PointId id = list.points.id(head.pos);
      if (ids_at_f.empty() || head.f != run_f) {
        ids_at_f.clear();
        run_f = head.f;
      }
      duplicate_id =
          std::find(ids_at_f.begin(), ids_at_f.end(), id) != ids_at_f.end();
      if (!duplicate_id) {
        ids_at_f.push_back(id);
      }
    }
    if (!duplicate_id) {
      accumulator.Offer(list.points[head.pos], list.points.id(head.pos),
                        head.f);
      ++scanned;
    }
    if (head.pos + 1 < list.size()) {
      heap.push(Head{list.f[head.pos + 1], head.list, head.pos + 1});
    }
  }

  if (stats != nullptr) {
    stats->scanned = scanned;
    stats->final_threshold = accumulator.threshold();
    stats->ops = accumulator.ops();
    stats->ops.merge_pulls = pulls;
  }
  return accumulator.TakeResult();
}

ResultList MergeSortedSkylines(const std::vector<const ResultList*>& lists,
                               Subspace u, const ThresholdScanOptions& options,
                               ThresholdScanStats* stats) {
  // With no lists there is no dims source; callers whose list set can be
  // empty must use the explicit-dims overload.
  SKYPEER_CHECK(!lists.empty());
  SKYPEER_CHECK(lists[0] != nullptr);
  return MergeSortedSkylines(lists[0]->points.dims(), lists, u, options,
                             stats);
}

ResultList MergeSortedSkylines(int dims, const std::vector<ResultList>& lists,
                               Subspace u, const ThresholdScanOptions& options,
                               ThresholdScanStats* stats) {
  std::vector<const ResultList*> pointers;
  pointers.reserve(lists.size());
  for (const ResultList& list : lists) {
    pointers.push_back(&list);
  }
  return MergeSortedSkylines(dims, pointers, u, options, stats);
}

ResultList MergeSortedSkylines(const std::vector<ResultList>& lists,
                               Subspace u, const ThresholdScanOptions& options,
                               ThresholdScanStats* stats) {
  SKYPEER_CHECK(!lists.empty());
  return MergeSortedSkylines(lists[0].points.dims(), lists, u, options, stats);
}

}  // namespace skypeer
