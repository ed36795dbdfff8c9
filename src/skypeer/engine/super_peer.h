#ifndef SKYPEER_ENGINE_SUPER_PEER_H_
#define SKYPEER_ENGINE_SUPER_PEER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/algo/scan_trace.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/macros.h"
#include "skypeer/common/op_counts.h"
#include "skypeer/common/status.h"
#include "skypeer/common/subspace.h"
#include "skypeer/engine/cost_model.h"
#include "skypeer/engine/query.h"
#include "skypeer/engine/reliable.h"
#include "skypeer/sim/simulator.h"
#include "skypeer/storage/paged_store.h"
#include "skypeer/storage/store_view.h"

namespace skypeer {

/// \brief A super-peer node: stores the merged extended skyline of its
/// associated peers and executes the SKYPEER protocol (paper Algorithm 3)
/// for all variants plus the naive baseline.
///
/// Pre-processing (§5.3): peers upload their extended skylines via
/// `AddPeerList`; `FinalizePreprocessing` merges them (Algorithm 2 under
/// ext-dominance) into the query-time store, sorted by `f`.
///
/// Query time: on the first copy of a flooded query the super-peer adopts
/// the sender as its parent in the implicit spanning tree, forwards the
/// query to all other neighbors, computes its local subspace skyline
/// (Algorithm 1, threshold-constrained), waits for one reply per
/// forwarded neighbor (flood duplicates answer immediately with an empty
/// reply) and routes results towards the initiator — merged (progressive
/// merging) or bundled unmerged (fixed merging).
///
/// Every local computation counts its operations (`OpCounts`), and the
/// node's `CostModel` prices them into virtual CPU seconds charged to its
/// clock, so simulated times are deterministic.
class SuperPeer : public sim::Node {
 public:
  /// `id` must equal the node's simulator id; `dims` is the data
  /// dimensionality.
  SuperPeer(int id, int dims, const WireModel& wire)
      : id_(id), dims_(dims), wire_(wire), store_(dims) {}

  int id() const { return id_; }

  /// Neighboring super-peer simulator ids (the backbone edges).
  void SetNeighbors(std::vector<int> neighbors) {
    neighbors_ = std::move(neighbors);
  }
  const std::vector<int>& neighbors() const { return neighbors_; }

  // --- pre-processing -------------------------------------------------

  /// Keep the per-peer uploaded lists after merging. Required for
  /// `RemovePeer` (a departure can resurrect points another peer's list
  /// ext-dominated, so the merge must be redone from the retained
  /// inputs). Costs memory proportional to SEL_p; off by default.
  void set_retain_peer_lists(bool retain) { retain_peer_lists_ = retain; }

  /// Registers the extended skyline uploaded by peer `peer_id`.
  void AddPeerList(int peer_id, ResultList list);

  /// Merges all registered peer lists into the store (ext-dominance
  /// Algorithm 2). When `ops` is non-null the merge's operation counts
  /// are added to it.
  void FinalizePreprocessing(OpCounts* ops = nullptr);

  /// The merged extended skyline this super-peer serves queries from.
  /// Only valid in the default in-memory mode; a paged node keeps its
  /// store out of RAM (use `MaterializeStore` / `StoreSize` instead).
  const ResultList& store() const {
    SKYPEER_CHECK(!paged_store_.valid());
    return store_;
  }

  /// Routes this node's store through `buffer` (page-granular blocked-SoA
  /// layout, `page_size` bytes per page). Must be called before the store
  /// is built; every subsequent build/merge spills through the buffer
  /// manager and scans stream via pinned pages. Results, thresholds and
  /// all operation counts are bit-identical to the in-memory mode.
  void ConfigurePaging(BufferManager* buffer, size_t page_size) {
    SKYPEER_CHECK(buffer != nullptr);
    SKYPEER_CHECK(store_.empty() && !paged_store_.valid());
    buffer_ = buffer;
    page_size_ = page_size;
  }

  /// Page geometry used for logical page charging while the store stays
  /// in memory; must match the `--page-size` a paged run would use so
  /// the two modes bill identical `page_reads`/`page_bytes`. Must be
  /// called before the first store install: a scan's page charge then
  /// depends on its store epoch alone, which the scan trace relies on.
  void set_page_size(size_t page_size) {
    SKYPEER_CHECK(store_epoch_ == 0);
    page_size_ = page_size;
  }

  /// Number of rows in the store, valid in both store modes.
  size_t StoreSize() const {
    return paged_store_.valid() ? paged_store_.size() : store_.size();
  }

  /// Decodes the store into an in-memory `ResultList` (both modes) —
  /// snapshot persistence and replica cloning use this instead of
  /// `store()` so they work against paged nodes too.
  ResultList MaterializeStore() const {
    return paged_store_.valid() ? paged_store_.Materialize() : store_;
  }

  /// The store as a scan view: pinned pages when paged, the resident list
  /// otherwise. Page-charging geometry is identical in both modes. While
  /// a pinned epoch is older than the current store epoch the view serves
  /// the pinned (retired) epoch, so an in-flight query never observes a
  /// churn install.
  StoreView View() const {
    if (scan_epoch_ != store_epoch_) {
      const EpochStore& epoch = retired_.at(scan_epoch_);
      return epoch.paged.valid()
                 ? StoreView(&epoch.paged)
                 : StoreView(&epoch.store, page_size_);
    }
    return paged_store_.valid()
               ? StoreView(&paged_store_)
               : StoreView(&store_, page_size_);
  }

  // --- epoch-versioned stores -------------------------------------------

  /// Epoch of the current store: 0 before the first install, advanced by
  /// one on every `InstallStore` (initial merge, churn maintenance,
  /// snapshot restore).
  uint64_t store_epoch() const { return store_epoch_; }

  /// Pins the current store epoch for an in-flight query and returns it.
  /// Until the matching `UnpinStoreEpoch`, `View()` keeps serving this
  /// epoch even if churn installs newer ones (the pinned store — pages
  /// included, in paged mode — is retired intact, never torn).
  uint64_t PinStoreEpoch();

  /// Releases a pin taken by `PinStoreEpoch`. A retired epoch whose last
  /// pin is released is dropped (paged mode frees its pages; page ids are
  /// never recycled, so no stale frame can be read). `View()` reverts to
  /// the current epoch.
  void UnpinStoreEpoch(uint64_t epoch);

  /// Retired epochs still held alive by pins (0 in steady state).
  size_t RetiredEpochCount() const { return retired_.size(); }

  /// Replaces the store wholesale (snapshot restore). The list must be
  /// f-sorted. Clears the retained peer lists and marks the node
  /// preprocessed.
  void SetStore(ResultList store);

  // --- churn (the paper's §5.3 join protocol + its future-work
  // --- failure handling) -----------------------------------------------

  /// A new peer joins after pre-processing: its extended skyline is
  /// merged *incrementally* into the store (ext-skyline merging is
  /// associative, so no other peer list needs reprocessing — the cheap
  /// join the paper describes). Fails if the id is already present.
  /// When `maintenance_ops` is non-null the merge's logical operation
  /// counts are added to it (identical paged vs resident — maintenance
  /// never charges physical page or materialization work).
  Status JoinPeer(int peer_id, ResultList list,
                  OpCounts* maintenance_ops = nullptr);

  /// Peer departure / failure. Requires `set_retain_peer_lists(true)`
  /// before pre-processing. NotFound if the peer is unknown.
  ///
  /// Default (incremental) path: the departing peer's points are dropped
  /// from the f-sorted store — every survivor provably stays in the final
  /// ext-skyline, a departure only *resurrects* points — and only the
  /// resurrection candidates (surviving peers' retained list points not
  /// in the pre-removal store) are re-merged, seeded against the
  /// survivors under the exact Observation-5 threshold. The result —
  /// points and order — is bit-identical to a full rebuild from the
  /// retained lists (`set_verify_maintenance` checks it against that
  /// oracle). `maintenance_ops` as in `JoinPeer`.
  Status RemovePeer(int peer_id, OpCounts* maintenance_ops = nullptr);

  /// When false, `RemovePeer` falls back to the full rebuild from the
  /// retained lists (the legacy path, kept as the oracle). Default true.
  void set_incremental_maintenance(bool enable) {
    incremental_maintenance_ = enable;
  }

  /// When true, every incremental `RemovePeer` additionally runs the full
  /// rebuild and CHECKs the incremental result bit-identical to it (ids,
  /// coordinates, f-order). Testing aid; default false.
  void set_verify_maintenance(bool verify) { verify_maintenance_ = verify; }

  /// Ids of the peers currently contributing to the store (retained mode
  /// only).
  std::vector<int> RetainedPeerIds() const;

  // --- query protocol ---------------------------------------------------

  /// Enables the reliable per-hop transport (envelopes, ACKs,
  /// retransmission, rerouting, deadline) for this node's protocol
  /// traffic; all nodes of a network must agree on the setting.
  void SetReliableParams(const ReliableParams& params) { reliable_ = params; }
  const ReliableParams& reliable_params() const { return reliable_; }

  /// Backbone size the initiator measures coverage against (reliable
  /// mode).
  void set_num_super_peers(int n) { num_super_peers_ = n; }

  /// Clears *all* per-query protocol state: the in-flight query state,
  /// the reliable transport's in-flight envelopes, acknowledgement
  /// bookkeeping, duplicate-suppression sets and counters.
  /// `Simulator::Reset` discards pending events and timers; this is the
  /// matching node-side reset the simulator docs require — call both
  /// before running a query on the network. The scan trace (see
  /// `ClearScanTrace`) survives it.
  void ResetProtocolState();

  /// Drops the node's scan trace. The node records at most one local
  /// scan, with the store epoch and subspace it read (a `ScanTrace`), and
  /// cuts every later local scan of that epoch and subspace from it when
  /// the trace covers the scan's threshold; any other scan runs and
  /// replaces the trace. A cut repeats the scan's result and operation
  /// counts exactly, so dropping the trace never changes a result or a
  /// metric, only the host work spent rescanning.
  void ClearScanTrace();

  /// Scan traces the node holds, 0 or 1 (testing aid, like
  /// `RetiredEpochCount`).
  size_t ScanTraceCount() const { return trace_.has_value() ? 1 : 0; }

  /// Local scans the node ran and recorded instead of cutting them from
  /// the trace it held (testing aid).
  uint64_t ScansRecorded() const { return scans_recorded_; }

  /// Counters of the reliable transport since the last
  /// `ResetProtocolState`.
  struct ReliabilityStats {
    /// Envelopes retransmitted after an acknowledgement timeout.
    uint64_t retransmits = 0;
    /// Hops abandoned after `max_retries` retransmissions.
    uint64_t gave_up = 0;
    /// Envelope payloads suppressed as duplicates (retransmit overlap).
    uint64_t duplicates_suppressed = 0;
    /// Deliveries ignored as stale (wrong query id, late reply, post-
    /// completion traffic).
    uint64_t stale_ignored = 0;
    /// Replies rerouted around an unreachable parent.
    uint64_t rerouted = 0;
  };
  const ReliabilityStats& reliability_stats() const { return rstats_; }

  /// Pre-executes the local scan this node would run for a query on
  /// `subspace` under `variant` arriving with `threshold` on the
  /// executing (worker) thread: records it as the node's scan trace,
  /// unless the trace the node holds already covers it. When the real
  /// query message arrives, `ComputeLocal` cuts its scan from that trace
  /// and charges the cut's ops to the virtual clock; a scan the trace
  /// does not cover runs inline, so staging can never change results or
  /// metrics — it only moves host CPU work off the simulator thread.
  /// Returns the threshold the scan ended with — for FT*M the value the
  /// initiator floods. Safe to call concurrently on *different*
  /// SuperPeer instances (it touches only this node's store and trace).
  double StageLocalScan(const Subspace& subspace, Variant variant,
                        double threshold);

  void HandleMessage(sim::Simulator* simulator,
                     const sim::Message& message) override;

  /// True once this node (as initiator) produced the final answer.
  bool finished() const { return query_.has_value() && query_->finished; }

  /// The final global subspace skyline (initiator only, after finished).
  const ResultList& final_result() const;

  /// Virtual time at which the final answer was complete.
  double finish_time() const;

  /// The node's zero-delay clock `cp` (see `sim::Simulator`) when the
  /// final answer was complete: the critical path of the query's CPU
  /// work with network delays left out.
  double finish_cp() const;

  /// Reliable mode, initiator, after finished: true when the answer does
  /// not cover every super-peer (crashes / give-ups / deadline) — the
  /// result is the exact skyline of the covered stores only.
  bool partial() const;

  /// Reliable mode, initiator, after finished: ids of the super-peers
  /// whose local results the answer covers (this node included), sorted.
  std::vector<int> coverage() const;

  /// Per-node counters of the last executed query.
  struct LastQueryStats {
    /// True if this node processed the query (received at least one
    /// copy).
    bool participated = false;
    /// Store points the local scan consumed (all of them for naive).
    size_t scanned = 0;
    /// Size of the local subspace skyline shipped/merged.
    size_t local_result = 0;
    /// Threshold this node's local scan ended with (the value RT*M
    /// forwards); infinity until the node computed.
    double final_threshold = std::numeric_limits<double>::infinity();
    /// Operation counts this node accumulated for the query (scans,
    /// merges, serialization) since the last `ResetProtocolState`.
    OpCounts ops;
  };
  LastQueryStats last_query_stats() const;

  /// How counted local operations are converted into virtual CPU
  /// seconds (calibrated constants by default).
  void SetCostModel(const CostModel& model) { cost_ = model; }
  const CostModel& cost_model() const { return cost_; }

 private:
  /// In-flight state of the (single) active query at this node.
  struct QueryState {
    uint64_t query_id = 0;
    Subspace subspace;
    Variant variant = Variant::kFTPM;
    /// Threshold this node computed its local skyline under (after
    /// refinement, for RT*M).
    double threshold = 0.0;
    /// Neighbor the query arrived from (-1 at the initiator).
    int parent = -1;
    bool is_initiator = false;
    /// Replies still outstanding from forwarded neighbors.
    int pending = 0;
    /// Per forwarded neighbor: false while its reply is outstanding, true
    /// once it replied or (reliable transport) its hop was given up. Makes
    /// late replies after a spurious give-up detectable instead of
    /// corrupting `pending`.
    std::map<int, bool> child_done;
    /// Non-duplicate child replies keyed by child id — a canonical merge
    /// input order independent of arrival order, so every run merges the
    /// same lists in the same order whatever the links or faults.
    std::map<int, std::vector<std::shared_ptr<const ResultList>>>
        collected_by_child;
    /// This node's local subspace skyline.
    std::shared_ptr<const ResultList> local;
    bool finished = false;
    ResultList final{1};
    double finish_time = 0.0;
    double finish_cp = 0.0;
    /// Store points consumed by the local scan.
    size_t scanned = 0;

    // --- reliable transport ---------------------------------------------
    /// Rerouted replies folded in as extra data, keyed by origin id.
    std::map<int, std::vector<std::shared_ptr<const ResultList>>> extras;
    /// Super-peers whose local results this node's upward reply covers.
    std::set<int> contributors;
    /// Non-initiator: upward reply already sent (later rerouted arrivals
    /// are relayed to the parent instead of folded locally).
    bool replied = false;
    /// Reroute origins already folded or relayed — each detoured subtree
    /// is processed once per node, which also breaks relay cycles.
    std::set<int> reroutes_handled;
    /// Initiator: the per-query deadline fired before completion.
    bool deadline_fired = false;
    /// Initiator: coverage is short or the deadline fired.
    bool partial = false;
  };

  /// A local scan's outcome: its result, the threshold it ended with,
  /// the store points it consumed and the operation counts it is charged.
  struct LocalScan {
    std::shared_ptr<const ResultList> local;
    double threshold_out = 0.0;
    size_t scanned = 0;
    OpCounts ops;
  };

  /// The node's scan trace and what it was recorded on. A trace answers
  /// only its store epoch and subspace; the remaining inputs are fixed for
  /// an epoch: the store contents and, for the page charge, the page
  /// geometry (`set_page_size` precedes the first install;
  /// `ConfigurePaging` fixes a paged store's).
  struct RecordedScan {
    uint64_t epoch = 0;
    uint32_t mask = 0;
    ScanTrace trace;
  };

  /// The two merges of the protocol: the threshold merge of sorted lists
  /// (Algorithm 2) and the naive initiator's BNL. Both deduplicate by
  /// point id, uncharged: the reliable transport's detours can deliver the
  /// same point twice, and otherwise no id repeats.
  enum class MergeKind { kSorted, kBnl };

  /// One reliably sent envelope awaiting its acknowledgement.
  enum class HopKind { kQuery, kReply, kPipeline };
  struct Outbound {
    HopKind kind = HopKind::kQuery;
    int dst = -1;
    size_t bytes = 0;
    std::shared_ptr<const ReliableEnvelope> envelope;
    int attempts = 0;
    uint64_t timer_id = 0;
    /// Reply hops: the payload (for reroute resends) and the neighbors
    /// already given up on.
    std::shared_ptr<const ReplyMessage> reply;
    std::vector<int> tried;
    /// Pipeline hops: the payload (for Euler-tour skips on give-up).
    std::shared_ptr<const PipelineMessage> pipeline;
  };

  void HandleStart(sim::Simulator* simulator, const StartQueryMessage& start);
  void HandleQuery(sim::Simulator* simulator, const sim::Message& message,
                   const QueryMessage& query);
  void HandleReply(sim::Simulator* simulator, int src,
                   const ReplyMessage& reply);
  void HandlePipeline(sim::Simulator* simulator, int src,
                      const PipelineMessage& message);

  /// Sends one protocol hop to `dst`, charging its serialization. The
  /// reliable transport wraps `payload` in an envelope and arms the
  /// retransmission timer (`hop` describes the hop for retries); the
  /// legacy transport sends `payload` bare and ignores `hop`.
  /// `payload_bytes` excludes the envelope framing.
  void SendHop(sim::Simulator* simulator, int dst, size_t payload_bytes,
               std::shared_ptr<const sim::MessageBody> payload, Outbound hop);
  /// Sends a reply (bytes: the lists plus any contributor ids). `tried`
  /// lists the neighbors a rerouted reply already gave up on.
  void SendReply(sim::Simulator* simulator, int dst,
                 std::shared_ptr<const ReplyMessage> reply, int query_dims,
                 std::vector<int> tried = {});

  // --- reliable transport ----------------------------------------------

  void HandleEnvelope(sim::Simulator* simulator, const sim::Message& message,
                      const ReliableEnvelope& envelope);
  void HandleAck(sim::Simulator* simulator, const AckMessage& ack);
  void HandleRetransmit(sim::Simulator* simulator,
                        const RetransmitTimer& timer);
  void HandleDeadline(sim::Simulator* simulator, const DeadlineTimer& timer);

  /// A forwarded query's target exhausted its retries: count the child as
  /// done without a contribution (a crashed neighbor never replies).
  void OnChildUnreachable(sim::Simulator* simulator, int child);
  /// A reply's parent hop exhausted its retries: resend via another
  /// backbone edge (the flood is idempotent, alternate paths are safe).
  void RerouteReply(sim::Simulator* simulator, Outbound hop);
  /// A pipeline hop exhausted its retries: skip the crashed branch by
  /// jumping to the next occurrence of this node on the Euler tour.
  void SkipPipelineHop(sim::Simulator* simulator, const Outbound& hop);
  /// A reply that could not travel the spanning tree edge (reroute):
  /// fold it in as extra data or relay it onward.
  void HandleReroutedReply(sim::Simulator* simulator,
                           const ReplyMessage& reply);
  /// The lists a node merges (or relays unmerged) in canonical order —
  /// children by id, detoured extras by origin id, its own local result
  /// last — so no merge depends on the order replies arrive in.
  static std::vector<std::shared_ptr<const ResultList>> MergeInputs(
      const QueryState& state);
  /// Initiator resolution shared by the normal completion path and the
  /// deadline: merges whatever arrived and, on the reliable
  /// transport, sets the partial flag.
  void FinishInitiator(sim::Simulator* simulator, QueryState* state);
  /// `contributors` is the covered-super-peer list the forwarded message
  /// carries (reliable mode; empty and unused otherwise).
  void ForwardPipeline(sim::Simulator* simulator,
                       const PipelineMessage& previous, double threshold,
                       std::shared_ptr<const ResultList> accumulated,
                       std::vector<int> contributors);

  /// Computes the local subspace skyline under `state->threshold` and
  /// stores it in `state->local`, charging its ops. Updates
  /// `state->threshold` to the (possibly lower) final scan threshold.
  void ComputeLocal(sim::Simulator* simulator, QueryState* state);

  /// Merges `inputs` (in this order) into one list for the query subspace
  /// under `threshold_in`, charging the merge's ops. When `threshold_out`
  /// is non-null it receives the merge's final threshold.
  std::shared_ptr<const ResultList> Merge(
      sim::Simulator* simulator, MergeKind kind, const Subspace& subspace,
      double threshold_in,
      std::vector<std::shared_ptr<const ResultList>> inputs,
      double* threshold_out = nullptr);

  /// The simulator-free scan core shared by `ComputeLocal` and
  /// `StageLocalScan`: evaluates `subspace` against the store from
  /// `threshold`, with naive's BNL when `bnl` (the threshold is then
  /// ignored and returned unchanged) and Algorithm 1 otherwise. Cuts the
  /// scan from the node's trace when it covers the scan; otherwise runs
  /// only that scan, recording it as the new trace.
  LocalScan RunLocalScan(const Subspace& subspace, double threshold,
                         bool bnl);

  /// Accumulates `ops` into the per-query counters and charges
  /// `cost_.Seconds(ops)` to the virtual clock. Must run inside a
  /// simulator handler.
  void ChargeOps(sim::Simulator* simulator, const OpCounts& ops);

  /// Counts `bytes` as serialization work before a wire send and charges
  /// its CPU seconds, shifting the message's departure time like real
  /// marshalling would.
  void ChargeSerialization(sim::Simulator* simulator, size_t bytes);

  /// Floods the query to every neighbor except `state->parent`; sets
  /// `pending` and `child_done`.
  void ForwardQuery(sim::Simulator* simulator, QueryState* state);

  /// All children replied: route upstream (non-initiator) or produce the
  /// final answer (initiator).
  void Complete(sim::Simulator* simulator, QueryState* state);

  /// Rebuilds `store_` from `peer_lists_` (retained mode). Merge
  /// statistics are added to `stats` when non-null.
  void RebuildStore(ThresholdScanStats* stats = nullptr);

  /// The incremental `RemovePeer` core: given the departing peer's
  /// retained list (already erased from `peer_lists_`), computes the
  /// post-removal store in canonical (f, peer rank, list position) order
  /// — bit-identical to `RebuildStore`'s merge — touching only the
  /// survivors and the resurrection candidates. Logical op counts of the
  /// drop pass, candidate merge and final splice are added to `ops`.
  ResultList RemoveIncremental(const ResultList& departed, OpCounts* ops);

  /// Installs the new store list under the next store epoch: spilled
  /// through the buffer manager in paged mode (dropping the previous
  /// store's pages), kept resident otherwise. `store_` stays a
  /// dims-correct empty list while paged. If the outgoing epoch is
  /// pinned it is retired intact instead of destroyed; `View()` keeps
  /// serving it until the last pin is released.
  void InstallStore(ResultList store);

  /// A retired store epoch kept alive by in-flight query pins: the full
  /// resident-or-paged store state of a superseded `InstallStore`
  /// generation. Dropped when its last pin is released (`~PagedStore`
  /// then frees the pages).
  struct EpochStore {
    ResultList store{1};
    PagedStore paged;
    int pins = 0;
  };

  int id_;
  int dims_;
  WireModel wire_;
  ResultList store_;
  /// Beyond-RAM store (see ConfigurePaging); invalid in in-memory mode.
  PagedStore paged_store_;
  /// Epoch of the current store (see store_epoch()).
  uint64_t store_epoch_ = 0;
  /// Epoch `View()` serves: the current epoch in steady state, the
  /// pinned epoch between `PinStoreEpoch` and the last matching unpin.
  uint64_t scan_epoch_ = 0;
  /// Pins on the *current* epoch; moved into the `EpochStore` when an
  /// install retires it.
  int current_pins_ = 0;
  /// Retired epochs still pinned, keyed by epoch id.
  std::map<uint64_t, EpochStore> retired_;
  /// Incremental vs full-rebuild `RemovePeer` (see the setters).
  bool incremental_maintenance_ = true;
  bool verify_maintenance_ = false;
  BufferManager* buffer_ = nullptr;
  /// Page geometry used for logical page charging in *both* modes.
  size_t page_size_ = kDefaultPageSize;
  /// Uploaded peer lists awaiting the merge; emptied by
  /// FinalizePreprocessing unless retention is on.
  std::map<int, ResultList> peer_lists_;
  bool retain_peer_lists_ = false;
  bool preprocessed_ = false;
  std::vector<int> neighbors_;
  std::optional<QueryState> query_;
  /// The node's one scan trace (see `ClearScanTrace`), kept across
  /// queries.
  std::optional<RecordedScan> trace_;
  uint64_t scans_recorded_ = 0;
  // Reliable transport state (unused while `reliable_.enabled` is off).
  ReliableParams reliable_;
  int num_super_peers_ = 0;
  uint64_t next_hop_seq_ = 1;
  std::map<uint64_t, Outbound> outbound_;
  /// Envelope deliveries already processed: (src, query id, seq).
  std::set<std::tuple<int, uint64_t, uint64_t>> seen_;
  uint64_t deadline_timer_id_ = 0;
  ReliabilityStats rstats_;
  /// Converts local work into virtual CPU seconds (see SetCostModel).
  CostModel cost_;
  /// Operation counts accumulated since the last `ResetProtocolState`,
  /// i.e. over one query's simulation. A scan cut from the trace is
  /// charged the ops of the scan it repeats, so a query that rescans and
  /// a query that cuts count the same.
  OpCounts query_ops_;
};

}  // namespace skypeer

#endif  // SKYPEER_ENGINE_SUPER_PEER_H_
