#include "skypeer/algo/sorted_skyline.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/mapping.h"

namespace skypeer {

namespace {

/// `SkylineAccumulator` compaction policy: evicted window slots are
/// dropped once the window holds at least `kCompactMinWindow` entries and
/// fewer than `kCompactLiveFraction` of them are alive.
constexpr size_t kCompactMinWindow = 64;
constexpr double kCompactLiveFraction = 0.5;

/// Consume loop of the threshold scan: scans `input` in ascending order,
/// offering each point whose `f` is within the accumulator's running
/// threshold, and returns the number of points consumed. Scan-level
/// charges (scan steps, page charges and — under block skipping —
/// summary probes and skipped blocks) accumulate into `scan_ops`, kept
/// apart from the accumulator's window-evolution ops so traced scans
/// record replayable `cum_ops`. When `trace` is non-null, per-position
/// events are recorded as `ScanTrace` documents; eviction tags are scan
/// positions, so they index the trace directly.
///
/// With `block_skip` and a store summary attached, each 8-wide block is
/// probed before its points: a block whose min-vector is dominated by a
/// live window entry is consumed without per-point offers — wholesale
/// (without reading the store at all) when its `[f_min, f_max]` range
/// fits under the running threshold, else by a per-position `f` walk
/// that keeps the stopping point bit-identical to the plain scan. Page
/// charges then switch from the whole-prefix `ChargeScanPages` to
/// incremental per-page touches, so pages covered only by wholesale-
/// skipped blocks are never charged (nor pinned on a paged store).
size_t RunThresholdScanLoop(const StoreView& input, Subspace u,
                            bool block_skip, SkylineAccumulator* acc,
                            OpCounts* scan_ops, ScanTrace* trace) {
  const size_t end = input.size();
  const StoreSummary* summary = input.summary();
  const bool skip = block_skip && summary != nullptr;
  if (trace != nullptr) {
    trace->block_skip = skip;
  }
  StoreCursor cursor(input);
  std::vector<uint64_t> evicted;
  const auto consume = [&](size_t i, double f) {
    const double* p = cursor.row(i);
    const PointId id = cursor.id(i);
    if (trace == nullptr) {
      acc->Offer(p, id, f);
      return;
    }
    evicted.clear();
    const bool accepted = acc->OfferTagged(p, id, f, i, &evicted);
    trace->accepted.push_back(accepted ? 1 : 0);
    trace->dist_u.push_back(accepted ? DistU(p, u) : 0.0);
    trace->evicted_at.push_back(ScanTrace::kNeverEvicted);
    for (uint64_t victim : evicted) {
      trace->evicted_at[victim] = i;
    }
    trace->cum_ops.push_back(acc->ops());
  };

  if (!skip) {
    size_t scanned = 0;
    for (size_t i = 0; i < end; ++i) {
      const double f = cursor.f(i);
      if (f > acc->threshold()) {
        break;
      }
      consume(i, f);
      ++scanned;
    }
    scan_ops->scan_steps += scanned;
    ChargeScanPages(input.layout(), end, scanned, scan_ops);
    return scanned;
  }

  if (input.paged()) {
    // Physical-only read-ahead hint: upcoming pages whose summary fold
    // already satisfies both skip conditions will never be pinned by
    // this scan, so read-ahead jumps them. The filter consults the live
    // threshold and window, so a hint can be stale by the time the scan
    // arrives — that costs one synchronous pin, never correctness, and
    // logical charges do not see prefetches at all.
    cursor.set_prefetch_filter([acc, summary](size_t page) {
      return summary->page_f_max(page) <= acc->threshold() &&
             acc->WindowRejectsSummary(summary->page_min(page));
    });
  }

  const PageLayout& layout = input.layout();
  const size_t points_per_page = layout.points_per_page();
  size_t last_page = static_cast<size_t>(-1);
  // Incremental page charging: positions ascend and every 8-block sits
  // inside one page (pages hold whole blocks), so charging on page
  // change reproduces `ChargeScanPages` exactly when nothing skips
  // wholesale, and drops exactly the pages no position of which is
  // examined. Identical in both store modes — it reads the layout only.
  const auto touch = [&](size_t i) {
    const size_t page = i / points_per_page;
    if (page != last_page) {
      scan_ops->page_reads += 1;
      scan_ops->page_bytes += layout.page_size;
      last_page = page;
    }
  };
  // Positions consumed without an offer still get trace entries — the
  // exact entries the plain traced scan records for rejected points —
  // so traces are position-aligned regardless of skipping.
  const auto record_skipped = [&](size_t count) {
    if (trace == nullptr) {
      return;
    }
    for (size_t k = 0; k < count; ++k) {
      trace->accepted.push_back(0);
      trace->dist_u.push_back(0.0);
      trace->evicted_at.push_back(ScanTrace::kNeverEvicted);
      trace->cum_ops.push_back(acc->ops());
    }
  };

  size_t scanned = 0;
  size_t i = 0;
  while (i < end) {
    const size_t block = i / kDomBlockWidth;
    const size_t block_end = std::min(end, (block + 1) * kDomBlockWidth);
    // Cheapest test first: the block's own f minimum (its first point —
    // the store is f-sorted) already proves the stop condition without
    // touching the store or the window. Charges nothing, exactly like
    // the plain scan's terminating f-read.
    if (summary->block_f_min(block) > acc->threshold()) {
      break;
    }
    scan_ops->summary_tests += 1;
    const bool rejected = acc->WindowRejectsSummary(summary->block_min(block));
    if (trace != nullptr) {
      trace->block_rejected.push_back(rejected ? 1 : 0);
    }
    if (rejected) {
      scan_ops->blocks_skipped += 1;
      if (summary->block_f_max(block) <= acc->threshold()) {
        // Wholesale skip: every point of the block is within threshold
        // and dominated; consume the block without reading it. No scan
        // steps, no page touch — and rejected points have no side
        // effects on window or threshold, so nothing downstream can
        // tell the offers never ran.
        record_skipped(block_end - i);
        scanned += block_end - i;
        i = block_end;
        continue;
      }
      // The running threshold may cut inside this block: walk `f` only
      // (no dominance work — the probe already rejected every point) so
      // the stopping position, and with it `scanned`, stays
      // bit-identical to the plain scan.
      bool stopped = false;
      for (; i < block_end; ++i) {
        touch(i);
        if (cursor.f(i) > acc->threshold()) {
          stopped = true;
          break;
        }
        record_skipped(1);
        scan_ops->scan_steps += 1;
        ++scanned;
      }
      if (stopped) {
        break;
      }
      continue;
    }
    // Unrejected block: the plain per-point offer loop. Accepts may
    // tighten the threshold mid-block; later block probes see it.
    bool stopped = false;
    for (; i < block_end; ++i) {
      touch(i);
      const double f = cursor.f(i);
      if (f > acc->threshold()) {
        stopped = true;
        break;
      }
      consume(i, f);
      scan_ops->scan_steps += 1;
      ++scanned;
    }
    if (stopped) {
      break;
    }
  }
  return scanned;
}

}  // namespace

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
    : dims_(dims),
      u_(u),
      strict_(options.ext),
      use_rtree_(options.use_rtree),
      threshold_(options.initial_threshold),
      window_points_(dims),
      window_proj_(u.Count()) {
  SKYPEER_CHECK(!u.empty());
  if (use_rtree_) {
    rtree_ = std::make_unique<RTree>(u.Count());
  }
}

SkylineAccumulator::~SkylineAccumulator() = default;

void SkylineAccumulator::EvictDominatedLinear(
    const double* proj, std::vector<uint64_t>* evicted_tags) {
  // One reverse-dominance bit mask per block, then evictions applied in
  // ascending index order (blocks ascending, bits via ctz) so the
  // `evicted_tags` order matches the historical per-point loop. Killed
  // lanes are +inf and come back flagged as "dominated"; `alive_flags_`
  // filters them out.
  ops_.dominance_tests += window_points_.size();
  scratch_masks_.resize(window_proj_.num_blocks());
  DominatedMask(window_proj_, proj, strict_, scratch_masks_.data());
  for (size_t b = 0; b < scratch_masks_.size(); ++b) {
    unsigned mask = scratch_masks_[b];
    while (mask != 0) {
      const size_t lane = static_cast<size_t>(__builtin_ctz(mask));
      mask &= mask - 1;
      const size_t i = b * kDomBlockWidth + lane;
      if (!alive_flags_[i]) {
        continue;
      }
      alive_flags_[i] = 0;
      window_proj_.Kill(i);
      --alive_;
      if (evicted_tags != nullptr && window_tags_[i] != kNoTag) {
        evicted_tags->push_back(window_tags_[i]);
      }
    }
  }
}

bool SkylineAccumulator::OfferTagged(const double* p, PointId id, double f,
                                     uint64_t tag,
                                     std::vector<uint64_t>* evicted_tags) {
  // Project onto the query subspace once.
  double proj[kMaxDims];
  {
    int j = 0;
    for (int dim : u_) {
      proj[j++] = p[dim];
    }
  }

  // Observation 5: beyond the threshold the point is dominated by the
  // skyline point that set the threshold. (Ties may survive; see header.)
  if (f > threshold_) {
    return false;
  }

  if (use_rtree_) {
    if (rtree_->AnyDominates(proj, strict_, &ops_.rtree_node_visits)) {
      return false;
    }
    scratch_payloads_ =
        rtree_->EraseDominated(proj, strict_, &ops_.rtree_node_visits);
    for (uint64_t idx : scratch_payloads_) {
      alive_flags_[idx] = 0;
      window_proj_.Kill(idx);
      --alive_;
      if (evicted_tags != nullptr && window_tags_[idx] != kNoTag) {
        evicted_tags->push_back(window_tags_[idx]);
      }
    }
  } else {
    // Killed lanes are +inf and never dominate, so the batched test needs
    // no liveness filtering. Count the logical window size, not the
    // kernel's internal lane count, so scalar and SIMD dispatch report
    // identical work.
    ops_.dominance_tests += window_points_.size();
    if (AnyDominates(window_proj_, proj, strict_)) {
      return false;
    }
    EvictDominatedLinear(proj, evicted_tags);
  }
  MaybeCompact();

  const uint64_t index = window_points_.size();
  window_points_.Append(p, id);
  window_f_.push_back(f);
  alive_flags_.push_back(1);
  emit_flags_.push_back(1);
  window_tags_.push_back(tag);
  window_proj_.Append(proj);
  ++alive_;
  if (use_rtree_) {
    rtree_->Insert(proj, index, &ops_.rtree_node_visits);
  }

  // A dominator has dist_U no larger than any point it dominates, so the
  // minimum only ever decreases; track it incrementally.
  threshold_ = std::min(threshold_, DistU(p, u_));
  return true;
}

bool SkylineAccumulator::WindowRejectsSummary(const double* min_row) const {
  double proj[kMaxDims];
  {
    int j = 0;
    for (int dim : u_) {
      proj[j++] = min_row[dim];
    }
  }
  // `window_proj_` is maintained by both the R-tree and the linear offer
  // paths, so the probe is one batched kernel call either way; killed
  // lanes are +inf and never dominate. Deliberately uncharged here —
  // callers account `summary_tests` in scan-level ops (see header).
  return AnyDominatesSummary(window_proj_, proj, strict_);
}

void SkylineAccumulator::MaybeCompact() {
  if (window_points_.size() < kCompactMinWindow ||
      !(static_cast<double>(alive_) <
        kCompactLiveFraction * static_cast<double>(window_points_.size()))) {
    return;
  }
  const int k = u_.Count();
  PointSet points(dims_);
  points.Reserve(alive_);
  std::vector<double> f;
  f.reserve(alive_);
  std::vector<char> emit;
  emit.reserve(alive_);
  std::vector<uint64_t> tags;
  tags.reserve(alive_);
  // Gather alive projections into a row-major scratch (also the bulk-load
  // input when `use_rtree_`), then re-block.
  std::vector<double> proj_rows;
  proj_rows.reserve(alive_ * static_cast<size_t>(k));
  double row[kMaxDims];
  for (size_t i = 0; i < window_points_.size(); ++i) {
    if (!alive_flags_[i]) {
      continue;
    }
    points.AppendFrom(window_points_, i);
    f.push_back(window_f_[i]);
    emit.push_back(emit_flags_[i]);
    tags.push_back(window_tags_[i]);
    window_proj_.Row(i, row);
    proj_rows.insert(proj_rows.end(), row, row + k);
  }
  window_points_ = std::move(points);
  window_f_ = std::move(f);
  emit_flags_ = std::move(emit);
  window_tags_ = std::move(tags);
  window_proj_.Clear();
  window_proj_.Reserve(alive_);
  for (size_t i = 0; i < alive_; ++i) {
    window_proj_.Append(proj_rows.data() + i * static_cast<size_t>(k));
  }
  alive_flags_.assign(alive_, 1);
  if (use_rtree_) {
    // The payloads are window indices; renumber them 0..alive-1 to match
    // the compacted arrays.
    std::vector<uint64_t> payloads(alive_);
    std::iota(payloads.begin(), payloads.end(), uint64_t{0});
    *rtree_ = RTree::BulkLoad(k, proj_rows.data(), payloads.data(), alive_);
    ops_.sort_steps += SortCost(alive_);
  }
}

ResultList SkylineAccumulator::TakeResult() {
  ResultList result(dims_);
  result.points.Reserve(alive_);
  result.f.reserve(alive_);
  for (size_t i = 0; i < window_points_.size(); ++i) {
    if (alive_flags_[i] && emit_flags_[i]) {
      result.points.AppendFrom(window_points_, i);
      result.f.push_back(window_f_[i]);
    }
  }
  window_points_.Clear();
  window_f_.clear();
  alive_flags_.clear();
  emit_flags_.clear();
  window_tags_.clear();
  window_proj_.Clear();
  alive_ = 0;
  if (use_rtree_) {
    rtree_->Clear();
  }
  return result;
}

void SkylineAccumulator::SeedWindow(const ResultList& seed) {
  SKYPEER_CHECK(window_points_.empty());
  const int k = u_.Count();
  const size_t n = seed.size();
  window_points_.Reserve(n);
  window_f_.reserve(n);
  window_proj_.Reserve(n);
  // Row-major copy of the seed projections, kept as bulk-load input.
  std::vector<double> proj_rows;
  proj_rows.reserve(n * static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i) {
    window_points_.AppendFrom(seed.points, i);
    window_f_.push_back(seed.f[i]);
    const double* p = seed.points[i];
    for (int dim : u_) {
      proj_rows.push_back(p[dim]);
    }
    window_proj_.Append(proj_rows.data() + i * static_cast<size_t>(k));
  }
  alive_flags_.assign(n, 1);
  emit_flags_.assign(n, 0);
  window_tags_.assign(n, kNoTag);
  alive_ = n;
  if (use_rtree_ && n > 0) {
    // Seeds arrive all at once on an empty window: bulk loading beats n
    // incremental inserts.
    std::vector<uint64_t> payloads(n);
    std::iota(payloads.begin(), payloads.end(), uint64_t{0});
    *rtree_ = RTree::BulkLoad(k, proj_rows.data(), payloads.data(), n);
    ops_.sort_steps += SortCost(n);
  }
}

ResultList SortedSkyline(const StoreView& input, Subspace u,
                         const ThresholdScanOptions& options,
                         ThresholdScanStats* stats, ScanTrace* trace) {
  SKYPEER_DCHECK(input.list() == nullptr || input.list()->IsSorted());
  if (trace != nullptr) {
    *trace = ScanTrace{};
    trace->threshold_in = options.initial_threshold;
  }
  SkylineAccumulator accumulator(input.dims(), u, options);
  if (options.filter != nullptr && !options.filter->empty()) {
    // A trace bakes the filter into its recorded accept/evict decisions,
    // so replays need no filter knowledge — but it is only valid for
    // scans under the *same* filter (the cache keys on its fingerprint).
    accumulator.SeedWindow(*options.filter);
  }
  OpCounts scan_ops;
  const size_t scanned = RunThresholdScanLoop(
      input, u, options.block_skip, &accumulator, &scan_ops, trace);
  if (stats != nullptr) {
    stats->scanned = scanned;
    stats->final_threshold = accumulator.threshold();
    stats->ops = accumulator.ops();
    stats->ops += scan_ops;
  }
  return accumulator.TakeResult();
}

ResultList ReplayScanTrace(const StoreView& input, const ScanTrace& trace,
                           double threshold_in, ThresholdScanStats* stats) {
  SKYPEER_CHECK(threshold_in <= trace.threshold_in);
  // The running threshold under the tighter start is min(threshold_in,
  // running threshold of the recorded scan) at every position, so the
  // replayed scan stops within the recorded prefix: past its cut the
  // recorded scan's own threshold already rejected the next point.
  StoreCursor cursor(input);
  double threshold = threshold_in;
  size_t cut = 0;
  while (cut < trace.size() && cursor.f(cut) <= threshold) {
    if (trace.accepted[cut]) {
      threshold = std::min(threshold, trace.dist_u[cut]);
    }
    ++cut;
  }
  // Survivors: accepted before the cut and not evicted before it. An
  // eviction at position >= cut never happens in the replayed scan (its
  // evictor is past the stopping point), so the point stays alive.
  ResultList result(input.dims());
  for (size_t i = 0; i < cut; ++i) {
    if (trace.accepted[i] && trace.evicted_at[i] >= cut) {
      result.points.Append(cursor.row(i), cursor.id(i));
      result.f.push_back(cursor.f(i));
    }
  }
  if (stats != nullptr) {
    stats->scanned = cut;
    stats->final_threshold = threshold;
    // Ops of the *equivalent direct scan*, not of the (much cheaper)
    // replay: the window evolves identically on the shared prefix, so
    // the recorded cumulative counts at the cut are exact. Traces
    // recorded before cum_ops existed replay with zero window ops.
    stats->ops = OpCounts{};
    if (cut > 0 && trace.cum_ops.size() >= cut) {
      stats->ops = trace.cum_ops[cut - 1];
    }
    if (!trace.block_skip) {
      stats->ops.scan_steps += cut;
      ChargeScanPages(input.layout(), input.size(), cut, &stats->ops);
    } else {
      // Closed-form reconstruction of the skip scan's charges at the
      // replayed cut, exact because the summary probes are
      // threshold-independent on the shared prefix:
      //  - A probed block's first point is always consumed (its f *is*
      //    the block f-minimum the entry check passed), so a stop at a
      //    block start means that block was never probed. Hence exactly
      //    ceil(cut / 8) blocks are probed.
      //  - A rejected block fully inside the cut is a wholesale skip
      //    under any tighter threshold too: were its f-maximum above the
      //    running threshold, the per-position walk would have stopped
      //    inside it and the cut could not pass its end. Such blocks
      //    charge nothing further.
      //  - Every other probed block walks from its start to the cut (or
      //    its end), one scan step per consumed position, touching its
      //    page — blocks ascend, so first-touch per page reproduces the
      //    incremental charging of the direct scan, including the stop
      //    position's page (always the last probed block's own page).
      const PageLayout& layout = input.layout();
      const size_t blocks = (cut + kDomBlockWidth - 1) / kDomBlockWidth;
      stats->ops.summary_tests += blocks;
      size_t last_page = static_cast<size_t>(-1);
      for (size_t b = 0; b < blocks; ++b) {
        const size_t block_begin = b * kDomBlockWidth;
        const size_t block_end =
            std::min(block_begin + kDomBlockWidth, input.size());
        const bool rejected =
            b < trace.block_rejected.size() && trace.block_rejected[b] != 0;
        if (rejected) {
          stats->ops.blocks_skipped += 1;
          if (block_end <= cut) {
            continue;
          }
        }
        stats->ops.scan_steps += std::min(cut, block_end) - block_begin;
        const size_t page = block_begin / layout.points_per_page();
        if (page != last_page) {
          stats->ops.page_reads += 1;
          stats->ops.page_bytes += layout.page_size;
          last_page = page;
        }
      }
    }
  }
  return result;
}

}  // namespace skypeer
