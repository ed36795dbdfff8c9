#include "skypeer/engine/super_peer.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <utility>

#include "skypeer/algo/bnl.h"
#include "skypeer/algo/merge.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/macros.h"
#include "skypeer/common/mapping.h"

namespace skypeer {

void SuperPeer::ChargeOps(sim::Simulator* simulator, const OpCounts& ops) {
  query_ops_ += ops;
  simulator->ChargeCpu(cost_.Seconds(ops));
}

void SuperPeer::ChargeSerialization(sim::Simulator* simulator, size_t bytes) {
  OpCounts ops;
  ops.bytes_serialized = bytes;
  ChargeOps(simulator, ops);
}

void SuperPeer::AddPeerList(int peer_id, ResultList list) {
  SKYPEER_CHECK(list.points.dims() == dims_);
  SKYPEER_CHECK(!preprocessed_);
  const bool inserted =
      peer_lists_.emplace(peer_id, std::move(list)).second;
  SKYPEER_CHECK(inserted);  // Duplicate upload.
}

void SuperPeer::RebuildStore(ThresholdScanStats* stats) {
  ThresholdScanOptions options;
  options.ext = true;
  std::vector<const ResultList*> inputs;
  inputs.reserve(peer_lists_.size());
  for (const auto& [peer_id, list] : peer_lists_) {
    inputs.push_back(&list);
  }
  // Zero inputs (every peer departed) merge to the empty store.
  InstallStore(MergeSortedSkylines(dims_, inputs, Subspace::FullSpace(dims_),
                                   options, stats));
}

void SuperPeer::InstallStore(ResultList store) {
  if (current_pins_ > 0) {
    // The outgoing epoch is pinned by an in-flight query: retire it
    // intact — resident list and paged pages — instead of destroying
    // it. `View()` keeps serving it through `scan_epoch_` until the last
    // pin is released.
    EpochStore retiring;
    retiring.store = std::move(store_);
    retiring.paged = std::move(paged_store_);
    retiring.pins = current_pins_;
    current_pins_ = 0;
    retired_.emplace(store_epoch_, std::move(retiring));
    store_ = ResultList(dims_);
  }
  ++store_epoch_;
  if (buffer_ != nullptr) {
    // Spill through the buffer manager: fresh page ids (never recycled),
    // so any frame still holding a page of the previous store is
    // unreachable; the old pages themselves are dropped by Release()
    // inside Build-then-move — or travel with their retired epoch when
    // pinned.
    paged_store_ = PagedStore::Build(store, buffer_);
    store_ = ResultList(dims_);
  } else {
    store_ = std::move(store);
  }
  if (retired_.count(scan_epoch_) == 0) {
    scan_epoch_ = store_epoch_;
  }
}

uint64_t SuperPeer::PinStoreEpoch() {
  // One scan epoch at a time: the engine serializes queries per network,
  // so pins only ever stack on the same (current) epoch. A pin while an
  // older epoch is still retired-and-pinned would redirect its view.
  SKYPEER_CHECK(retired_.empty());
  ++current_pins_;
  scan_epoch_ = store_epoch_;
  return store_epoch_;
}

void SuperPeer::UnpinStoreEpoch(uint64_t epoch) {
  if (epoch == store_epoch_) {
    SKYPEER_CHECK(current_pins_ > 0);
    --current_pins_;
  } else {
    const auto it = retired_.find(epoch);
    SKYPEER_CHECK(it != retired_.end());
    SKYPEER_CHECK(it->second.pins > 0);
    if (--it->second.pins == 0) {
      // Last pin gone: the retired epoch dies here. In paged mode
      // ~PagedStore releases its pages; ids are never recycled, so no
      // frame can serve them again.
      retired_.erase(it);
    }
  }
  scan_epoch_ = store_epoch_;
}

void SuperPeer::FinalizePreprocessing(OpCounts* ops) {
  ThresholdScanStats stats;
  RebuildStore(&stats);
  preprocessed_ = true;
  if (!retain_peer_lists_) {
    peer_lists_.clear();
  }
  if (ops != nullptr) {
    *ops += stats.ops;
  }
}

void SuperPeer::SetStore(ResultList store) {
  SKYPEER_CHECK(store.points.dims() == dims_);
  SKYPEER_CHECK(store.IsSorted());
  InstallStore(std::move(store));
  peer_lists_.clear();
  preprocessed_ = true;
}

Status SuperPeer::JoinPeer(int peer_id, ResultList list,
                           OpCounts* maintenance_ops) {
  if (!preprocessed_) {
    return Status::FailedPrecondition("pre-processing has not run yet");
  }
  if (list.points.dims() != dims_) {
    return Status::InvalidArgument("dimensionality mismatch");
  }
  if (retain_peer_lists_) {
    if (peer_lists_.count(peer_id) > 0) {
      return Status::InvalidArgument("peer id already present");
    }
  }
  // Incremental merge (§5.3): ext-skyline merging is associative, so the
  // existing store and the newcomer's list suffice.
  ThresholdScanOptions options;
  options.ext = true;
  // A paged store must come back into memory for the merge — the
  // incremental join is a churn-path operation, not a scan. The
  // materialization is not part of the logical maintenance cost (it has
  // no resident-mode counterpart), so maintenance ops stay identical
  // paged vs in-memory.
  ResultList materialized(dims_);
  const ResultList* current = &store_;
  if (paged_store_.valid()) {
    materialized = paged_store_.Materialize();
    current = &materialized;
  }
  std::vector<const ResultList*> inputs = {current, &list};
  ThresholdScanStats stats;
  ResultList merged = MergeSortedSkylines(inputs, Subspace::FullSpace(dims_),
                                          options, &stats);
  InstallStore(std::move(merged));
  if (retain_peer_lists_) {
    peer_lists_.emplace(peer_id, std::move(list));
  }
  if (maintenance_ops != nullptr) {
    *maintenance_ops += stats.ops;
  }
  return Status::OK();
}

Status SuperPeer::RemovePeer(int peer_id, OpCounts* maintenance_ops) {
  if (!retain_peer_lists_) {
    return Status::FailedPrecondition(
        "peer removal requires set_retain_peer_lists(true)");
  }
  const auto it = peer_lists_.find(peer_id);
  if (it == peer_lists_.end()) {
    return Status::NotFound("unknown peer id");
  }
  const ResultList departed = std::move(it->second);
  peer_lists_.erase(it);
  if (!incremental_maintenance_) {
    // Legacy path, kept as the oracle: redo the full merge from the
    // remaining retained lists. RebuildStore routes the empty store (the
    // last peer departed) through InstallStore too, so the resident or
    // paged state always describes the store that is actually served.
    ThresholdScanStats stats;
    RebuildStore(&stats);
    if (maintenance_ops != nullptr) {
      *maintenance_ops += stats.ops;
    }
    return Status::OK();
  }
  OpCounts ops;
  ResultList next = RemoveIncremental(departed, &ops);
  if (verify_maintenance_) {
    // Checked oracle: the incremental result must be bit-identical to
    // the full rebuild's merge — same ids, coordinates and f, in the
    // same canonical order.
    ThresholdScanOptions options;
    options.ext = true;
    std::vector<const ResultList*> inputs;
    inputs.reserve(peer_lists_.size());
    for (const auto& [pid, list] : peer_lists_) {
      inputs.push_back(&list);
    }
    const ResultList oracle = MergeSortedSkylines(
        dims_, inputs, Subspace::FullSpace(dims_), options);
    SKYPEER_CHECK(oracle.size() == next.size());
    for (size_t i = 0; i < next.size(); ++i) {
      SKYPEER_CHECK(oracle.points.id(i) == next.points.id(i));
      SKYPEER_CHECK(oracle.f[i] == next.f[i]);
      for (int d = 0; d < dims_; ++d) {
        SKYPEER_CHECK(oracle.points[i][d] == next.points[i][d]);
      }
    }
  }
  // The empty store (last peer departed) flows through the same install
  // builder as every other store change: resident or paged state and
  // epoch all advance — nothing is left describing the previous store.
  InstallStore(std::move(next));
  if (maintenance_ops != nullptr) {
    *maintenance_ops += ops;
  }
  return Status::OK();
}

ResultList SuperPeer::RemoveIncremental(const ResultList& departed,
                                        OpCounts* ops) {
  // Canonical store order is the full merge's heap order: ascending f,
  // f-ties broken by the owning peer's rank in id order, then by
  // position inside the peer's (f-sorted) list. Removing a peer
  // preserves the survivors' relative ranks, so the old store minus the
  // departing points is already canonically ordered for the new peer
  // set — only the resurrection candidates need merging back in.
  //
  // The old store is read in place when resident; a paged one comes back
  // into memory once, as in `JoinPeer`. The survivors are never copied
  // out: a flag per store row marks the departing points, and the
  // candidate window is seeded straight from the store.
  ResultList materialized(dims_);
  const ResultList* old = &store_;
  if (paged_store_.valid()) {
    materialized = paged_store_.Materialize();
    old = &materialized;
  }
  const Subspace full = Subspace::FullSpace(dims_);

  // Each retained point's canonical (peer rank, list position), sorted
  // by id for lookup.
  struct Canonical {
    PointId id;
    uint32_t rank;
    uint32_t pos;
  };
  size_t retained = 0;
  for (const auto& [pid, list] : peer_lists_) {
    retained += list.size();
  }
  std::vector<Canonical> canonical;
  canonical.reserve(retained);
  std::vector<std::vector<char>> in_store;
  in_store.reserve(peer_lists_.size());
  uint32_t rank = 0;
  for (const auto& [pid, list] : peer_lists_) {
    for (size_t i = 0; i < list.size(); ++i) {
      canonical.push_back({list.points.id(i), rank, static_cast<uint32_t>(i)});
    }
    in_store.emplace_back(list.size(), 0);
    ++rank;
  }
  std::sort(canonical.begin(), canonical.end(),
            [](const Canonical& a, const Canonical& b) { return a.id < b.id; });
  const auto order = [&](PointId id) {
    const auto it = std::lower_bound(
        canonical.begin(), canonical.end(), id,
        [](const Canonical& c, PointId key) { return c.id < key; });
    SKYPEER_DCHECK(it != canonical.end() && it->id == id);
    return std::make_pair(it->rank, it->pos);
  };
  std::unordered_set<PointId> departing;
  departing.reserve(departed.size());
  for (size_t i = 0; i < departed.size(); ++i) {
    departing.insert(departed.points.id(i));
  }

  // Drop pass: the survivors. Every one of them stays in the final store
  // (a departure only shrinks the set of potential ext-dominators), and
  // the minimum of their dist values is the exact Observation-5 cutoff
  // for the candidate scan: a candidate with f above it sits strictly
  // above some survivor on every dimension, hence is ext-dominated. Each
  // survivor is also flagged in its peer's list, so the candidate walk
  // below skips it.
  std::vector<char> dropped(old->size(), 0);
  double seed_threshold = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < old->size(); ++i) {
    const PointId id = old->points.id(i);
    if (departing.count(id) > 0) {
      dropped[i] = 1;
      continue;
    }
    const auto [peer_rank, pos] = order(id);
    in_store[peer_rank][pos] = 1;
    seed_threshold = std::min(seed_threshold, DistU(old->points[i], full));
  }
  ops->scan_steps += old->size();

  // Resurrection candidates: surviving peers' retained points that were
  // not in the pre-removal store — both the ext-dominated (shadowed by a
  // departed point) and the merge's threshold-truncated tail. Visited in
  // canonical (f, rank, position) order via a heap over the per-peer
  // f-sorted lists, offered into an accumulator seeded with the
  // survivors (seeds prune but are never emitted), and cut off at the
  // exact threshold above.
  ThresholdScanOptions options;
  options.ext = true;
  options.initial_threshold = seed_threshold;
  SkylineAccumulator acc(dims_, full, options);
  acc.SeedWindow(*old, &dropped);

  struct Cursor {
    const ResultList* list = nullptr;
    const std::vector<char>* in_store = nullptr;
    size_t pos = 0;
    uint32_t rank = 0;
    // Moves past the list's store members to its next candidate.
    void SkipStored() {
      while (pos < list->size() && (*in_store)[pos]) {
        ++pos;
      }
    }
  };
  std::vector<Cursor> cursors;
  cursors.reserve(peer_lists_.size());
  rank = 0;
  for (const auto& [pid, list] : peer_lists_) {
    Cursor cursor{&list, &in_store[rank], 0, rank};
    ++rank;
    cursor.SkipStored();
    if (cursor.pos < list.size()) {
      cursors.push_back(cursor);
    }
  }
  const auto later = [](const Cursor& a, const Cursor& b) {
    const double fa = a.list->f[a.pos];
    const double fb = b.list->f[b.pos];
    if (fa != fb) {
      return fa > fb;
    }
    return a.rank > b.rank;
  };
  std::make_heap(cursors.begin(), cursors.end(), later);
  while (!cursors.empty()) {
    std::pop_heap(cursors.begin(), cursors.end(), later);
    Cursor cursor = cursors.back();
    cursors.pop_back();
    const double f = cursor.list->f[cursor.pos];
    if (f > acc.threshold()) {
      break;  // Observation 5: no later candidate can survive.
    }
    ops->merge_pulls += 1;
    acc.Offer((*cursor.list).points[cursor.pos],
              cursor.list->points.id(cursor.pos), f);
    ++cursor.pos;
    cursor.SkipStored();
    if (cursor.pos < cursor.list->size()) {
      cursors.push_back(cursor);
      std::push_heap(cursors.begin(), cursors.end(), later);
    }
  }
  const ResultList result = acc.TakeResult();
  *ops += acc.ops();

  // Splice pass: two-way merge of the survivors (the undropped rows of
  // the old store, a canonically ordered subsequence) and the resurrected
  // points (offered in canonical order, so emitted in it) on (f, rank,
  // position) — the exact order the full rebuild's heap would produce.
  ResultList merged(dims_);
  const size_t survivors =
      static_cast<size_t>(std::count(dropped.begin(), dropped.end(), 0));
  merged.points.Reserve(survivors + result.size());
  merged.f.reserve(survivors + result.size());
  size_t a = 0;
  size_t b = 0;
  const auto next_survivor = [&]() {
    while (a < old->size() && dropped[a]) {
      ++a;
    }
  };
  next_survivor();
  const auto take_survivor = [&]() {
    if (b >= result.size()) {
      return true;
    }
    if (a >= old->size()) {
      return false;
    }
    if (old->f[a] != result.f[b]) {
      return old->f[a] < result.f[b];
    }
    return order(old->points.id(a)) < order(result.points.id(b));
  };
  while (a < old->size() || b < result.size()) {
    ops->merge_pulls += 1;
    if (take_survivor()) {
      merged.points.AppendFrom(old->points, a);
      merged.f.push_back(old->f[a]);
      ++a;
      next_survivor();
    } else {
      merged.points.AppendFrom(result.points, b);
      merged.f.push_back(result.f[b]);
      ++b;
    }
  }
  return merged;
}

std::vector<int> SuperPeer::RetainedPeerIds() const {
  std::vector<int> ids;
  ids.reserve(peer_lists_.size());
  for (const auto& [peer_id, list] : peer_lists_) {
    ids.push_back(peer_id);
  }
  return ids;
}

const ResultList& SuperPeer::final_result() const {
  SKYPEER_CHECK(finished());
  return query_->final;
}

double SuperPeer::finish_time() const {
  SKYPEER_CHECK(finished());
  return query_->finish_time;
}

double SuperPeer::finish_cp() const {
  SKYPEER_CHECK(finished());
  return query_->finish_cp;
}

bool SuperPeer::partial() const {
  SKYPEER_CHECK(finished());
  return query_->partial;
}

std::vector<int> SuperPeer::coverage() const {
  SKYPEER_CHECK(finished());
  return std::vector<int>(query_->contributors.begin(),
                          query_->contributors.end());
}

void SuperPeer::ResetProtocolState() {
  query_.reset();
  outbound_.clear();
  seen_.clear();
  next_hop_seq_ = 1;
  deadline_timer_id_ = 0;
  rstats_ = ReliabilityStats{};
  query_ops_ = OpCounts{};
}

void SuperPeer::ClearScanTrace() { trace_.reset(); }

void SuperPeer::HandleMessage(sim::Simulator* simulator,
                              const sim::Message& message) {
  if (const auto* envelope =
          dynamic_cast<const ReliableEnvelope*>(message.body.get())) {
    HandleEnvelope(simulator, message, *envelope);
  } else if (const auto* ack =
                 dynamic_cast<const AckMessage*>(message.body.get())) {
    HandleAck(simulator, *ack);
  } else if (const auto* retransmit =
                 dynamic_cast<const RetransmitTimer*>(message.body.get())) {
    HandleRetransmit(simulator, *retransmit);
  } else if (const auto* deadline =
                 dynamic_cast<const DeadlineTimer*>(message.body.get())) {
    HandleDeadline(simulator, *deadline);
  } else if (const auto* start =
                 dynamic_cast<const StartQueryMessage*>(message.body.get())) {
    HandleStart(simulator, *start);
  } else if (const auto* query =
                 dynamic_cast<const QueryMessage*>(message.body.get())) {
    HandleQuery(simulator, message, *query);
  } else if (const auto* reply =
                 dynamic_cast<const ReplyMessage*>(message.body.get())) {
    HandleReply(simulator, message.src, *reply);
  } else if (const auto* pipeline =
                 dynamic_cast<const PipelineMessage*>(message.body.get())) {
    HandlePipeline(simulator, message.src, *pipeline);
  } else if (const auto* churn =
                 dynamic_cast<const ChurnTickMessage*>(message.body.get())) {
    // Scheduled churn maintenance lands on this node's clocks at the
    // event's simulated time. The ops are logical (the membership change
    // itself already ran outside the simulation), so the charge is
    // identical across store modes.
    ChargeOps(simulator, churn->ops);
  } else if (reliable_.enabled) {
    ++rstats_.stale_ignored;  // Unknown payloads are tolerated, not fatal.
  } else {
    SKYPEER_CHECK(false);  // Unknown message type.
  }
}

// --- hop sends and the reliable transport --------------------------------

void SuperPeer::SendHop(sim::Simulator* simulator, int dst,
                        size_t payload_bytes,
                        std::shared_ptr<const sim::MessageBody> payload,
                        Outbound hop) {
  if (!reliable_.enabled) {
    ChargeSerialization(simulator, payload_bytes);
    simulator->Send(id_, dst, payload_bytes, std::move(payload));
    return;
  }
  SKYPEER_CHECK(query_.has_value());
  auto envelope = std::make_shared<ReliableEnvelope>();
  envelope->query_id = query_->query_id;
  envelope->seq = next_hop_seq_++;
  envelope->payload = std::move(payload);

  hop.dst = dst;
  hop.bytes = payload_bytes + wire_.envelope_bytes;
  hop.envelope = envelope;
  hop.attempts = 0;
  ChargeSerialization(simulator, hop.bytes);
  simulator->Send(id_, dst, hop.bytes, envelope);

  auto timer = std::make_shared<RetransmitTimer>();
  timer->seq = envelope->seq;
  hop.timer_id = simulator->ScheduleTimer(
      id_, RetryTimeout(reliable_, 0, hop.bytes), std::move(timer));
  outbound_[envelope->seq] = std::move(hop);
}

void SuperPeer::HandleEnvelope(sim::Simulator* simulator,
                               const sim::Message& message,
                               const ReliableEnvelope& envelope) {
  if (!reliable_.enabled || message.src < 0) {
    ++rstats_.stale_ignored;
    return;
  }
  // Always acknowledge — the sender may be retransmitting because our
  // previous acknowledgement was lost, not because the payload was.
  auto ack = std::make_shared<AckMessage>();
  ack->query_id = envelope.query_id;
  ack->seq = envelope.seq;
  ChargeSerialization(simulator, wire_.ack_bytes);
  simulator->Send(id_, message.src, wire_.ack_bytes, std::move(ack));

  // Effectively-once: at-least-once delivery plus (src, query, seq)
  // suppression. A retransmitted hop never re-triggers scans, merges or
  // metric counting.
  if (!seen_.insert({message.src, envelope.query_id, envelope.seq}).second) {
    ++rstats_.duplicates_suppressed;
    return;
  }
  // Stale traffic from an earlier query is acknowledged (to quiesce the
  // sender) but its payload is discarded.
  if (query_.has_value() && envelope.query_id != query_->query_id) {
    ++rstats_.stale_ignored;
    return;
  }
  const sim::MessageBody* payload = envelope.payload.get();
  if (const auto* query = dynamic_cast<const QueryMessage*>(payload)) {
    sim::Message inner = message;
    inner.body = envelope.payload;
    HandleQuery(simulator, inner, *query);
  } else if (const auto* reply = dynamic_cast<const ReplyMessage*>(payload)) {
    if (reply->reroute_origin >= 0) {
      HandleReroutedReply(simulator, *reply);
    } else {
      HandleReply(simulator, message.src, *reply);
    }
  } else if (const auto* pipeline =
                 dynamic_cast<const PipelineMessage*>(payload)) {
    HandlePipeline(simulator, message.src, *pipeline);
  } else {
    ++rstats_.stale_ignored;
  }
}

void SuperPeer::HandleAck(sim::Simulator* simulator, const AckMessage& ack) {
  const auto it = outbound_.find(ack.seq);
  if (it == outbound_.end() ||
      it->second.envelope->query_id != ack.query_id) {
    return;  // Already resolved (or a stale stray) — nothing to do.
  }
  simulator->CancelTimer(it->second.timer_id);
  outbound_.erase(it);
}

void SuperPeer::HandleRetransmit(sim::Simulator* simulator,
                                 const RetransmitTimer& timer) {
  const auto it = outbound_.find(timer.seq);
  if (it == outbound_.end()) {
    return;  // Acknowledged after the timer was already in flight.
  }
  Outbound& hop = it->second;
  ++hop.attempts;
  if (hop.attempts > reliable_.max_retries) {
    ++rstats_.gave_up;
    Outbound failed = std::move(hop);
    outbound_.erase(it);
    switch (failed.kind) {
      case HopKind::kQuery:
        OnChildUnreachable(simulator, failed.dst);
        break;
      case HopKind::kReply:
        RerouteReply(simulator, std::move(failed));
        break;
      case HopKind::kPipeline:
        SkipPipelineHop(simulator, failed);
        break;
    }
    return;
  }
  ++rstats_.retransmits;
  ChargeSerialization(simulator, hop.bytes);
  simulator->Send(id_, hop.dst, hop.bytes, hop.envelope);
  auto next_timer = std::make_shared<RetransmitTimer>();
  next_timer->seq = timer.seq;
  hop.timer_id = simulator->ScheduleTimer(
      id_, RetryTimeout(reliable_, hop.attempts, hop.bytes),
      std::move(next_timer));
}

void SuperPeer::HandleDeadline(sim::Simulator* simulator,
                               const DeadlineTimer& timer) {
  if (!query_.has_value() || query_->query_id != timer.query_id ||
      query_->finished || !query_->is_initiator) {
    return;
  }
  QueryState* state = &*query_;
  state->deadline_fired = true;
  // Quiesce the transport: outstanding hops will never improve this
  // answer.
  for (auto& [seq, hop] : outbound_) {
    simulator->CancelTimer(hop.timer_id);
  }
  outbound_.clear();
  FinishInitiator(simulator, state);
}

void SuperPeer::OnChildUnreachable(sim::Simulator* simulator, int child) {
  if (!query_.has_value() || query_->finished) {
    return;
  }
  QueryState* state = &*query_;
  const auto it = state->child_done.find(child);
  if (it == state->child_done.end() || it->second) {
    return;
  }
  it->second = true;
  --state->pending;
  if (state->pending == 0) {
    Complete(simulator, state);
  }
}

void SuperPeer::RerouteReply(sim::Simulator* simulator, Outbound hop) {
  if (!query_.has_value() || hop.reply == nullptr) {
    return;
  }
  hop.tried.push_back(hop.dst);
  for (int neighbor : neighbors_) {
    if (std::find(hop.tried.begin(), hop.tried.end(), neighbor) !=
        hop.tried.end()) {
      continue;
    }
    auto rerouted = std::make_shared<ReplyMessage>(*hop.reply);
    if (rerouted->reroute_origin < 0) {
      rerouted->reroute_origin = id_;
    }
    ++rstats_.rerouted;
    SendReply(simulator, neighbor, std::move(rerouted),
              query_->subspace.Count(), std::move(hop.tried));
    return;
  }
  // Every backbone edge is exhausted: the data is stranded; the
  // initiator's deadline (or give-up accounting) surfaces the loss as a
  // partial result instead of a hang.
}

void SuperPeer::SkipPipelineHop(sim::Simulator* simulator,
                                const Outbound& hop) {
  if (!query_.has_value() || query_->finished || hop.pipeline == nullptr) {
    return;
  }
  const PipelineMessage& failed = *hop.pipeline;
  const std::vector<int>& route = *failed.route;
  const auto resume = [&](size_t position, int dst) {
    auto next = std::make_shared<PipelineMessage>(failed);
    next->position = position;
    const size_t bytes =
        wire_.query_bytes +
        wire_.ReplyBytes(next->subspace.Count(), 1,
                         next->accumulated->size()) +
        wire_.ContributorBytes(next->contributors.size());
    Outbound skip;
    skip.kind = HopKind::kPipeline;
    skip.pipeline = next;
    SendHop(simulator, dst, bytes, next, std::move(skip));
  };
  // Resume the walk at the earliest later route position this node can
  // legally hand the message to: right after a later occurrence of itself
  // (the tour's own continuation), or directly at a later occurrence of a
  // backbone neighbor — adjacency keeps the hop sendable, non-tree edges
  // route around crashed subtrees, and a revisited receiver passes the
  // walk through unchanged. Taking the *earliest* such position keeps the
  // skipped gap (and thus the coverage loss) minimal. Occurrences of the
  // node that just failed are avoided; other crashed nodes are discovered
  // by their own retry cycles.
  const int failed_dst = route[failed.position];
  for (size_t p = failed.position + 1; p < route.size(); ++p) {
    if (route[p] == id_) {
      if (p + 1 < route.size() && route[p + 1] != failed_dst) {
        resume(p + 1, route[p + 1]);
        return;
      }
      continue;
    }
    if (route[p] == failed_dst) {
      continue;
    }
    if (std::find(neighbors_.begin(), neighbors_.end(), route[p]) !=
        neighbors_.end()) {
      resume(p, route[p]);
      return;
    }
  }
  // No later route position is reachable from here (typically the final
  // return hop to an initiator that is not our backbone neighbor). The
  // walk itself is over, but the accumulated result is not lost: convert
  // it into a rerouted reply and send it home along the tour-predecessor
  // chain, whose hops all delivered at least once.
  QueryState* state = &*query_;
  if (state->is_initiator) {
    state->contributors.insert(failed.contributors.begin(),
                               failed.contributors.end());
    state->extras[id_].push_back(failed.accumulated);
    FinishInitiator(simulator, state);
    return;
  }
  auto stranded = std::make_shared<ReplyMessage>();
  stranded->query_id = failed.query_id;
  stranded->duplicate = false;
  stranded->lists.push_back(failed.accumulated);
  stranded->contributors = failed.contributors;
  stranded->reroute_origin = id_;
  ++rstats_.rerouted;
  SendReply(simulator, state->parent, std::move(stranded),
            state->subspace.Count());
}

void SuperPeer::HandleReroutedReply(sim::Simulator* simulator,
                                    const ReplyMessage& reply) {
  if (!query_.has_value() || reply.query_id != query_->query_id ||
      reply.reroute_origin == id_) {
    // Unknown query, or our own rerouted data echoed back through a
    // cycle: drop it (the cycle guard below handles repeats).
    ++rstats_.stale_ignored;
    return;
  }
  QueryState* state = &*query_;
  if (state->finished) {
    ++rstats_.stale_ignored;
    return;
  }
  const int origin = reply.reroute_origin;
  if (!state->reroutes_handled.insert(origin).second) {
    ++rstats_.duplicates_suppressed;  // Already folded or relayed.
    return;
  }
  if (!state->is_initiator &&
      (state->replied || state->variant == Variant::kPipeline)) {
    // Our answer already left (or, on the pipeline, we never answer
    // upstream at all): relay the stray towards the initiator. Pipeline
    // parents are the tour predecessors, so the chain terminates there.
    SendReply(simulator, state->parent, std::make_shared<ReplyMessage>(reply),
              state->subspace.Count());
    return;
  }
  // Fold the detoured subtree in as extra data — unless everything it
  // covers already arrived through the spanning tree.
  bool fresh = false;
  for (int contributor : reply.contributors) {
    if (state->contributors.count(contributor) == 0) {
      fresh = true;
      break;
    }
  }
  if (fresh) {
    auto& bucket = state->extras[origin];
    bucket.insert(bucket.end(), reply.lists.begin(), reply.lists.end());
    state->contributors.insert(reply.contributors.begin(),
                               reply.contributors.end());
  } else {
    ++rstats_.duplicates_suppressed;
  }
  if (state->is_initiator && state->variant == Variant::kPipeline &&
      !state->finished) {
    // The walk's token was converted into this reply when it stranded —
    // nothing further is in flight, so answer with what came home.
    FinishInitiator(simulator, state);
  }
}

void SuperPeer::SendReply(sim::Simulator* simulator, int dst,
                          std::shared_ptr<const ReplyMessage> reply,
                          int query_dims, std::vector<int> tried) {
  const size_t bytes =
      wire_.ReplyBytes(query_dims, reply->lists.size(), reply->TotalPoints()) +
      wire_.ContributorBytes(reply->contributors.size());
  Outbound hop;
  hop.kind = HopKind::kReply;
  hop.reply = reply;
  hop.tried = std::move(tried);
  SendHop(simulator, dst, bytes, std::move(reply), std::move(hop));
}

// --- local computation ---------------------------------------------------

SuperPeer::LocalScan SuperPeer::RunLocalScan(const Subspace& subspace,
                                              double threshold, bool bnl) {
  const StoreView view = View();
  if (!trace_.has_value() || trace_->epoch != scan_epoch_ ||
      trace_->mask != subspace.mask() ||
      !trace_->trace.Covers(threshold, bnl)) {
    if (!trace_.has_value()) {
      trace_.emplace();
    }
    trace_->epoch = scan_epoch_;
    trace_->mask = subspace.mask();
    trace_->trace.Record(view, subspace, threshold, bnl);
    ++scans_recorded_;
  }
  ThresholdScanStats stats;
  LocalScan scan;
  scan.local = std::make_shared<const ResultList>(
      trace_->trace.Cut(view, threshold, bnl, &stats));
  scan.threshold_out = stats.final_threshold;
  scan.scanned = stats.scanned;
  scan.ops = stats.ops;
  if (bnl) {
    // The baseline ships its skyline sorted by f.
    scan.ops.sort_steps += SortCost(scan.local->size());
  }
  return scan;
}

double SuperPeer::StageLocalScan(const Subspace& subspace, Variant variant,
                                 double threshold) {
  return RunLocalScan(subspace, threshold, variant == Variant::kNaive)
      .threshold_out;
}

void SuperPeer::ComputeLocal(sim::Simulator* simulator, QueryState* state) {
  const LocalScan scan = RunLocalScan(state->subspace, state->threshold,
                                      state->variant == Variant::kNaive);
  ChargeOps(simulator, scan.ops);
  state->local = scan.local;
  state->threshold = scan.threshold_out;
  state->scanned = scan.scanned;
}

std::shared_ptr<const ResultList> SuperPeer::Merge(
    sim::Simulator* simulator, MergeKind kind, const Subspace& subspace,
    double threshold_in, std::vector<std::shared_ptr<const ResultList>> inputs,
    double* threshold_out) {
  OpCounts ops;
  std::shared_ptr<const ResultList> output;
  double threshold = threshold_in;
  if (kind == MergeKind::kBnl) {
    // Central dominance-based merge of everything, the §3.2 baseline.
    // Overlapping inputs (reroute detours) keep only the first copy of
    // each point id — copies of a point never dominate each other, so
    // BNL alone would keep both. Sorted ids find repeats cheaply, and
    // most merges have none.
    PointSet all(dims_);
    for (const auto& list : inputs) {
      all.AppendAll(list->points);
    }
    std::vector<PointId> ids = all.Ids();
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      PointSet first_copies(dims_);
      std::unordered_set<PointId> seen_points;
      for (size_t i = 0; i < all.size(); ++i) {
        if (seen_points.insert(all.id(i)).second) {
          first_copies.AppendFrom(all, i);
        }
      }
      all = std::move(first_copies);
    }
    PointSet skyline = BnlSkyline(all, subspace, /*ext=*/false, &ops);
    ops.sort_steps += SortCost(skyline.size());
    output = std::make_shared<const ResultList>(BuildSortedByF(skyline));
  } else {
    std::vector<const ResultList*> lists;
    lists.reserve(inputs.size());
    for (const auto& list : inputs) {
      lists.push_back(list.get());
    }
    ThresholdScanOptions options;
    options.initial_threshold = threshold_in;
    options.dedup_ids = true;
    ThresholdScanStats stats;
    output = std::make_shared<const ResultList>(
        MergeSortedSkylines(dims_, lists, subspace, options, &stats));
    threshold = stats.final_threshold;
    ops = stats.ops;
  }
  ChargeOps(simulator, ops);
  if (threshold_out != nullptr) {
    *threshold_out = threshold;
  }
  return output;
}

SuperPeer::LastQueryStats SuperPeer::last_query_stats() const {
  LastQueryStats stats;
  stats.ops = query_ops_;
  if (!query_.has_value()) {
    return stats;
  }
  stats.participated = true;
  stats.scanned = query_->scanned;
  stats.local_result = query_->local != nullptr ? query_->local->size() : 0;
  stats.final_threshold = query_->threshold;
  return stats;
}

// --- flood / reply protocol ----------------------------------------------

void SuperPeer::ForwardQuery(sim::Simulator* simulator, QueryState* state) {
  auto query = std::make_shared<QueryMessage>();
  query->query_id = state->query_id;
  query->subspace = state->subspace;
  query->variant = state->variant;
  query->threshold = state->threshold;
  state->pending = 0;
  for (int neighbor : neighbors_) {
    if (neighbor == state->parent) {
      continue;
    }
    state->child_done[neighbor] = false;
    Outbound hop;
    hop.kind = HopKind::kQuery;
    SendHop(simulator, neighbor, wire_.query_bytes, query, std::move(hop));
    ++state->pending;
  }
}

void SuperPeer::HandleStart(sim::Simulator* simulator,
                            const StartQueryMessage& start) {
  SKYPEER_CHECK(!query_.has_value());  // One query at a time.
  query_.emplace();
  QueryState* state = &*query_;
  state->query_id = start.query_id;
  state->subspace = start.subspace;
  state->variant = start.variant;
  state->parent = -1;
  state->is_initiator = true;
  state->threshold = std::numeric_limits<double>::infinity();
  if (reliable_.enabled) {
    state->contributors.insert(id_);
    if (reliable_.query_deadline > 0.0) {
      auto deadline = std::make_shared<DeadlineTimer>();
      deadline->query_id = state->query_id;
      deadline_timer_id_ = simulator->ScheduleTimer(
          id_, reliable_.query_deadline, std::move(deadline));
    }
  }

  if (state->variant == Variant::kPipeline) {
    // The initiator seeds the accumulated result with its local skyline
    // and sends the query on its Euler-tour walk.
    ComputeLocal(simulator, state);
    if (start.route.size() <= 1) {
      state->final = *state->local;
      state->finished = true;
      state->finish_time = simulator->CurrentNodeClock();
      state->finish_cp = simulator->CurrentNodeCp();
      if (reliable_.enabled) {
        state->partial =
            static_cast<int>(state->contributors.size()) < num_super_peers_;
        if (deadline_timer_id_ != 0) {
          simulator->CancelTimer(deadline_timer_id_);
          deadline_timer_id_ = 0;
        }
      }
      return;
    }
    PipelineMessage seed;
    seed.query_id = state->query_id;
    seed.subspace = state->subspace;
    seed.route = std::make_shared<const std::vector<int>>(start.route);
    seed.position = 0;
    std::vector<int> contributors;
    if (reliable_.enabled) {
      contributors.push_back(id_);
    }
    ForwardPipeline(simulator, seed, state->threshold, state->local,
                    std::move(contributors));
    return;
  }

  if (state->variant == Variant::kNaive) {
    // No threshold to compute: flood first so other super-peers start
    // working as early as possible, then evaluate locally.
    ForwardQuery(simulator, state);
    ComputeLocal(simulator, state);
  } else {
    // §5.2.3: the initiator first runs the local computation to obtain
    // the initial threshold t, then forwards q(U, t).
    ComputeLocal(simulator, state);
    ForwardQuery(simulator, state);
  }
  if (state->pending == 0) {
    Complete(simulator, state);
  }
}

void SuperPeer::HandleQuery(sim::Simulator* simulator,
                            const sim::Message& message,
                            const QueryMessage& query) {
  if (query_.has_value() && query_->query_id == query.query_id) {
    // Flood duplicate: the sender still awaits one reply from us.
    auto reply = std::make_shared<ReplyMessage>();
    reply->query_id = query.query_id;
    reply->duplicate = true;
    SendReply(simulator, message.src, std::move(reply),
              query.subspace.Count());
    return;
  }
  if (reliable_.enabled) {
    if (query_.has_value()) {
      // A different query while one is active: tolerated (stale), the
      // legacy invariant of one query at a time still holds per run.
      ++rstats_.stale_ignored;
      return;
    }
  } else {
    SKYPEER_CHECK(!query_.has_value());
  }
  query_.emplace();
  QueryState* state = &*query_;
  state->query_id = query.query_id;
  state->subspace = query.subspace;
  state->variant = query.variant;
  state->threshold = query.threshold;
  state->parent = message.src;
  state->is_initiator = false;
  if (reliable_.enabled) {
    state->contributors.insert(id_);
  }

  if (UsesRefinedThreshold(state->variant)) {
    // RT*M: compute first; the refined (lower) threshold is attached to
    // the forwarded query (§5.2.3, Algorithm 3 lines 3-6).
    ComputeLocal(simulator, state);
    ForwardQuery(simulator, state);
  } else {
    // FT*M / naive: forward immediately, then compute.
    ForwardQuery(simulator, state);
    ComputeLocal(simulator, state);
  }
  if (state->pending == 0) {
    Complete(simulator, state);
  }
}

void SuperPeer::HandleReply(sim::Simulator* simulator, int src,
                            const ReplyMessage& reply) {
  // Stale and late replies exist only on the reliable transport; the
  // legacy one delivers exactly one reply per forwarded query.
  if (!query_.has_value() || reply.query_id != query_->query_id ||
      query_->finished) {
    SKYPEER_CHECK(reliable_.enabled);
    ++rstats_.stale_ignored;
    return;
  }
  QueryState* state = &*query_;
  const auto it = state->child_done.find(src);
  if (it == state->child_done.end() || it->second) {
    SKYPEER_CHECK(reliable_.enabled);
    if (it != state->child_done.end() && !reply.duplicate) {
      // The hop to this child was given up (its acks were lost but the
      // deliveries were not) and its real answer arrived late: recover
      // the data through the reroute path instead of corrupting
      // `pending`.
      auto recovered = std::make_shared<ReplyMessage>(reply);
      recovered->reroute_origin = src;
      HandleReroutedReply(simulator, *recovered);
    } else {
      ++rstats_.stale_ignored;  // Not a forwarded neighbor, or a repeat.
    }
    return;
  }
  it->second = true;
  --state->pending;
  if (!reply.duplicate) {
    state->collected_by_child[src] = reply.lists;
    // Empty on the legacy transport, whose replies carry no coverage.
    state->contributors.insert(reply.contributors.begin(),
                               reply.contributors.end());
  }
  if (state->pending == 0) {
    Complete(simulator, state);
  }
}

// --- pipeline variant ----------------------------------------------------

void SuperPeer::ForwardPipeline(sim::Simulator* simulator,
                                const PipelineMessage& previous,
                                double threshold,
                                std::shared_ptr<const ResultList> accumulated,
                                std::vector<int> contributors) {
  auto next = std::make_shared<PipelineMessage>();
  next->query_id = previous.query_id;
  next->subspace = previous.subspace;
  next->threshold = threshold;
  next->route = previous.route;
  next->position = previous.position + 1;
  next->accumulated = std::move(accumulated);
  next->contributors = std::move(contributors);
  const int dst = (*next->route)[next->position];
  const size_t bytes =
      wire_.query_bytes +
      wire_.ReplyBytes(next->subspace.Count(), 1, next->accumulated->size()) +
      wire_.ContributorBytes(next->contributors.size());
  Outbound hop;
  hop.kind = HopKind::kPipeline;
  hop.pipeline = next;
  SendHop(simulator, dst, bytes, std::move(next), std::move(hop));
}

void SuperPeer::HandlePipeline(sim::Simulator* simulator, int src,
                               const PipelineMessage& message) {
  if (reliable_.enabled) {
    if ((*message.route)[message.position] != id_) {
      ++rstats_.stale_ignored;  // Mis-addressed hop — tolerate.
      return;
    }
  } else {
    SKYPEER_CHECK((*message.route)[message.position] == id_);
  }

  if (message.position + 1 == message.route->size()) {
    // The walk has returned to the initiator: the accumulated list is the
    // global subspace skyline.
    if (reliable_.enabled) {
      if (!query_.has_value() || !query_->is_initiator ||
          query_->query_id != message.query_id || query_->finished) {
        ++rstats_.stale_ignored;
        return;
      }
    } else {
      SKYPEER_CHECK(query_.has_value());
      SKYPEER_CHECK(query_->is_initiator);
      SKYPEER_CHECK(query_->query_id == message.query_id);
    }
    QueryState* state = &*query_;
    state->final = *message.accumulated;
    if (reliable_.enabled) {
      state->contributors.insert(message.contributors.begin(),
                                 message.contributors.end());
      state->partial =
          static_cast<int>(state->contributors.size()) < num_super_peers_ ||
          state->deadline_fired;
      if (deadline_timer_id_ != 0) {
        simulator->CancelTimer(deadline_timer_id_);
        deadline_timer_id_ = 0;
      }
    }
    state->finished = true;
    state->finish_time = simulator->CurrentNodeClock();
    state->finish_cp = simulator->CurrentNodeCp();
    return;
  }

  if (query_.has_value() && query_->query_id == message.query_id) {
    // Revisit on the Euler tour: pass the query through unchanged.
    ForwardPipeline(simulator, message, message.threshold,
                    message.accumulated, message.contributors);
    return;
  }

  // First visit: compute the local skyline under the travelling threshold
  // and fold it into the accumulated result.
  if (reliable_.enabled) {
    if (query_.has_value()) {
      ++rstats_.stale_ignored;
      return;
    }
  } else {
    SKYPEER_CHECK(!query_.has_value());
  }
  query_.emplace();
  QueryState* state = &*query_;
  state->query_id = message.query_id;
  state->subspace = message.subspace;
  state->variant = Variant::kPipeline;
  state->threshold = message.threshold;
  // Reliable mode remembers the tour predecessor: the chain of first-visit
  // senders always leads back to the initiator over hops that worked at
  // least once, which is the escape route when the walk strands.
  state->parent = reliable_.enabled ? src : -1;
  state->is_initiator = false;
  ComputeLocal(simulator, state);

  double merge_threshold = message.threshold;
  std::shared_ptr<const ResultList> merged =
      Merge(simulator, MergeKind::kSorted, state->subspace, message.threshold,
            {message.accumulated, state->local}, &merge_threshold);
  const double threshold = std::min(state->threshold, merge_threshold);
  std::vector<int> contributors = message.contributors;
  if (reliable_.enabled) {
    contributors.push_back(id_);
  }
  ForwardPipeline(simulator, message, threshold, std::move(merged),
                  std::move(contributors));
}

// --- completion ----------------------------------------------------------

std::vector<std::shared_ptr<const ResultList>> SuperPeer::MergeInputs(
    const QueryState& state) {
  // Canonical input order — children by id, then detoured extras by origin
  // id, own list last — so every run merges the same lists in the same
  // order regardless of reply arrival order.
  std::vector<std::shared_ptr<const ResultList>> inputs;
  for (const auto& [child, lists] : state.collected_by_child) {
    inputs.insert(inputs.end(), lists.begin(), lists.end());
  }
  for (const auto& [origin, lists] : state.extras) {
    inputs.insert(inputs.end(), lists.begin(), lists.end());
  }
  inputs.push_back(state.local);
  return inputs;
}

void SuperPeer::FinishInitiator(sim::Simulator* simulator,
                                QueryState* state) {
  SKYPEER_CHECK(state->is_initiator);
  SKYPEER_CHECK(state->local != nullptr);
  state->final = *Merge(
      simulator,
      state->variant == Variant::kNaive ? MergeKind::kBnl : MergeKind::kSorted,
      state->subspace, state->threshold, MergeInputs(*state));
  state->finished = true;
  state->finish_time = simulator->CurrentNodeClock();
  state->finish_cp = simulator->CurrentNodeCp();
  if (reliable_.enabled) {
    state->partial =
        static_cast<int>(state->contributors.size()) < num_super_peers_ ||
        state->deadline_fired;
    if (deadline_timer_id_ != 0) {
      simulator->CancelTimer(deadline_timer_id_);
      deadline_timer_id_ = 0;
    }
  }
}

void SuperPeer::Complete(sim::Simulator* simulator, QueryState* state) {
  SKYPEER_CHECK(state->local != nullptr);
  if (state->finished) {
    return;  // The reliable transport's deadline already resolved it.
  }
  if (state->is_initiator) {
    FinishInitiator(simulator, state);
    return;
  }
  auto reply = std::make_shared<ReplyMessage>();
  reply->query_id = state->query_id;
  reply->duplicate = false;
  reply->lists = MergeInputs(*state);
  if (UsesProgressiveMerging(state->variant)) {
    // *TPM: merge everything received with the local result before
    // relaying (Algorithm 3 lines 15-16). *TFM and naive relay the
    // children's bundles unmerged, with the local list appended.
    reply->lists = {Merge(simulator, MergeKind::kSorted, state->subspace,
                          state->threshold, std::move(reply->lists))};
  }
  reply->contributors.assign(state->contributors.begin(),
                             state->contributors.end());
  state->replied = true;
  SendReply(simulator, state->parent, std::move(reply),
            state->subspace.Count());
}

}  // namespace skypeer
