#ifndef SKYPEER_ENGINE_NETWORK_BUILDER_H_
#define SKYPEER_ENGINE_NETWORK_BUILDER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/common/point_set.h"
#include "skypeer/common/status.h"
#include "skypeer/common/subspace.h"
#include "skypeer/data/generator.h"
#include "skypeer/engine/metrics.h"
#include "skypeer/engine/query.h"
#include "skypeer/engine/super_peer.h"
#include "skypeer/sim/churn_plan.h"
#include "skypeer/sim/simulator.h"
#include "skypeer/storage/buffer_manager.h"
#include "skypeer/storage/page_layout.h"
#include "skypeer/topology/overlay.h"

namespace skypeer {

class ThreadPool;

/// Configuration of a simulated SKYPEER deployment. Defaults are the
/// paper's (§6): 4000 peers, N_sp = 5% (1% from 20000 peers on), 250
/// 8-dimensional uniform points per peer, DEG_sp = 4, 4 KB/s links.
struct NetworkConfig {
  int num_peers = 4000;
  /// 0 selects the paper's N_sp rule; see DefaultNumSuperPeers.
  int num_super_peers = 0;
  int points_per_peer = 250;
  int dims = 8;
  double degree_sp = 4.0;
  /// Backbone shape: the paper's random graph or a HyperCuP cube.
  BackboneTopology topology = BackboneTopology::kWaxman;
  Distribution distribution = Distribution::kUniform;
  /// Link bandwidth in bytes/second and propagation latency in seconds.
  double bandwidth = 4096.0;
  double latency = 0.0;
  uint64_t seed = 1;
  /// Keep every raw peer partition concatenated for ground-truth
  /// verification (memory-heavy; tests only).
  bool retain_peer_data = false;
  /// How counted local operations are priced into virtual CPU seconds
  /// (`CostModel::Calibrated()` by default, or `Unit()`). Every simulated
  /// time is bit-reproducible across runs, hosts, thread counts and
  /// kernel dispatch.
  CostModel cost_model;
  /// Support peer churn (JoinPeer / RemovePeer) after pre-processing:
  /// super-peers retain the uploaded per-peer lists (memory ~ SEL_p of
  /// the dataset).
  bool dynamic_membership = false;
  /// Incremental membership maintenance (see `SuperPeer::RemovePeer`): a
  /// departure drops the peer's points from the f-sorted store and
  /// re-merges only the resurrection candidates. false restores the full
  /// rebuild from the retained lists (the legacy path, kept as the
  /// oracle). Store contents, order and every query metric are
  /// bit-identical either way.
  bool incremental_maintenance = true;
  /// Check every incremental removal against the full-rebuild oracle
  /// (CHECK-fails the process on any divergence). Testing aid; implies
  /// full-rebuild cost on every removal.
  bool verify_maintenance = false;
  /// Scheduled churn (requires `dynamic_membership`): size of a seeded
  /// plan of membership events — joins, removals and data replacements
  /// cycling — spread over the first `churn_events` query slots (see
  /// `sim::ChurnPlan::Seeded`). Each event's membership change applies
  /// atomically between queries while its maintenance cost is charged on
  /// the affected super-peer's clocks at a seeded instant *inside* the
  /// slot's query — so churn shapes simulated times deterministically and
  /// composes with any fault plan. 0 disables scheduled churn (direct JoinPeer/RemovePeer
  /// calls remain available).
  int churn_events = 0;
  /// Mean (seconds) of the exponential in-query instant at which a
  /// scheduled event's maintenance cost lands on the virtual clock.
  double churn_rate = 0.05;
  /// Seed of the churn plan's dedicated RNG stream; 0 derives it from
  /// `seed`. Identical seeds reproduce identical schedules.
  uint64_t churn_seed = 0;
  /// Store page size in bytes (power of two in [4 KiB, 1 MiB]). Fixes
  /// the blocked-SoA page geometry used for the *logical*
  /// `page_reads`/`page_bytes` charges in both store modes, and the
  /// physical page size when `buffer_pages` > 0.
  size_t page_size = kDefaultPageSize;
  /// Beyond-RAM super-peer stores: when > 0 (minimum 2), every
  /// super-peer spills its f-sorted store to disk pages in the paged
  /// blocked-SoA layout and scans stream through a shared pinning buffer
  /// manager of this many frames, with deterministic read-ahead on the
  /// network's pool. Results, thresholds and every metric (operation
  /// counts included) are bit-identical to the in-memory default (0);
  /// only physical pool statistics (hits/misses/evictions) differ.
  size_t buffer_pages = 0;
  /// Worker threads scoped to this network: staging waves and
  /// preprocessing of this instance run on a private pool of this size
  /// instead of the process-wide `ThreadPool::Global()`. 0 (default)
  /// keeps using the global pool; 1 forces this network sequential
  /// regardless of the global setting. Replica clones share the parent's
  /// pool.
  int threads = 0;
  WireModel wire;

  // --- fault injection + reliable query protocol ------------------------

  /// Run the query protocol over the reliable per-hop transport:
  /// envelopes with per-hop acknowledgements, timer-driven retransmission
  /// with exponential backoff, duplicate suppression, rerouting around
  /// unreachable neighbors and graceful partial results with a coverage
  /// report. Required whenever faults below can lose messages.
  bool reliable = false;
  /// Seed of the fault plan's dedicated RNG stream; 0 derives it from
  /// `seed`. Identical seeds reproduce identical fault patterns.
  uint64_t fault_seed = 0;
  /// Probability that any transmission is lost in flight. Requires
  /// `reliable`.
  double drop_prob = 0.0;
  /// Uniform extra delay in [0, delay_jitter) seconds added to every
  /// arrival (may reorder deliveries across links).
  double delay_jitter = 0.0;
  /// Reliable transport: base acknowledgement timeout (seconds) before a
  /// hop retransmits; backs off exponentially per attempt.
  double ack_timeout = 0.25;
  /// Reliable transport: retransmissions before a hop is abandoned and
  /// recovery (child write-off / reply reroute / pipeline skip) kicks in.
  int max_retries = 8;
  /// Reliable transport: initiator deadline (seconds of virtual time per
  /// run); when it fires the initiator answers with whatever subtree
  /// results arrived, flagged partial. 0 disables the deadline.
  double query_deadline = 0.0;
  /// Super-peers crashed from time 0 for every query (never deliver,
  /// never reply). Requires `reliable`.
  std::vector<int> crashed_sps;
};

/// Outcome of one distributed query: the exact global subspace skyline
/// plus the measured costs.
struct QueryResult {
  ResultList skyline{1};
  QueryMetrics metrics;
};

/// \brief A fully materialized SKYPEER network: topology, super-peer
/// nodes, generated data, and the event simulator — the library's main
/// entry point.
///
/// Lifecycle: construct, `Preprocess()` once (peers compute and upload
/// extended skylines; super-peers merge), then `ExecuteQuery` any number
/// of times. Each query is simulated once, on the configured links, and
/// every measurement of §6 comes from that one run: total time from the
/// initiator's virtual clock, computational time from its zero-delay
/// clock (the critical path of CPU work with network delays left out;
/// see `sim::Simulator`), and volume, messages and op counts from the
/// same events. Each super-peer keeps a trace of one local scan that also
/// serves later queries: a scan of the same store epoch and subspace that
/// the trace covers is cut from it, charged the operation counts of the
/// scan it repeats.
class SkypeerNetwork {
 public:
  /// Checks a configuration without building anything.
  static Status Validate(const NetworkConfig& config);

  /// Builds topology and nodes. `config` must validate.
  explicit SkypeerNetwork(const NetworkConfig& config);

  /// Out-of-line so `owned_pool_` can destroy the forward-declared
  /// `ThreadPool`.
  ~SkypeerNetwork();

  /// Runs the pre-processing phase (§5.3). Call exactly once.
  PreprocessStats Preprocess();

  /// Installs externally produced stores (snapshot restore; see
  /// engine/persistence.h), one f-sorted list per super-peer, and marks
  /// the network query-ready. Ground truth and the removal of restored
  /// peers remain unavailable; a `JoinPeer` draws peer and point ids past
  /// the build's peers and every adopted point. Returns `InvalidArgument`
  /// when a store has the wrong dimensionality, is not f-sorted, holds a
  /// NaN coordinate, carries an `f` that is not its point's minimum
  /// coordinate, or repeats a point id (within or across stores).
  Status AdoptStores(std::vector<ResultList> stores);

  bool preprocessed() const { return preprocessed_; }

  /// Executes a subspace skyline query from the given initiator
  /// super-peer under the chosen strategy. Requires `Preprocess()`.
  ///
  /// When the global thread pool (see common/thread_pool.h) has more than
  /// one thread and the variant's local scans are threshold-independent
  /// (naive, FT*M), the per-super-peer scans are staged concurrently,
  /// once per query, before the simulator runs the protocol. Results and
  /// simulated metrics are identical to the sequential execution — only
  /// host wall-clock time changes.
  QueryResult ExecuteQuery(Subspace subspace, int initiator_sp,
                           Variant variant);

  /// Builds a query-serving replica of this preprocessed network: same
  /// configuration and overlay, stores copied via `AdoptStores`. Used by
  /// parallel workload drivers to execute independent queries
  /// concurrently; churn and ground truth stay with the original.
  std::unique_ptr<SkypeerNetwork> CloneForQueries() const;

  /// True once a workload batch may be distributed over
  /// `CloneForQueries` replicas with bit-identical aggregates — i.e. the
  /// network is preprocessed and no churn plan is installed. A churn
  /// plan restricts it because events ride on query slots,
  /// so the workload must execute serially on this network for every
  /// query to see the membership state its slot prescribes.
  bool SupportsParallelWorkloads() const {
    return preprocessed_ && churn_plan_.empty();
  }

  /// The pool this network schedules parallel work on: the private pool
  /// when `config.threads > 0` (or the parent's, for replica clones),
  /// else `ThreadPool::Global()`. Never null.
  ThreadPool* pool() const;

  /// Centralized skyline over the union of all peer data; requires
  /// `retain_peer_data`. The oracle for exactness tests.
  PointSet GroundTruthSkyline(Subspace subspace) const;

  /// Installs (or replaces) the simulator's fault plan, overriding the
  /// one derived from the configuration — the hook tests and drivers use
  /// for time-windowed crashes, link outages and per-link loss. The
  /// plan's RNG is reseeded on every query run, so the same plan yields
  /// the same fault pattern on every execution.
  void SetFaultPlan(sim::FaultPlan plan);

  /// Clears all per-query protocol state — simulator events, timers and
  /// statistics plus every super-peer's query, reliable-transport and
  /// scan-trace state. Query execution resets everything but the traces
  /// before each run; call this when driving the simulator directly
  /// between executions.
  void ResetProtocolState();

  // --- churn (requires `dynamic_membership`) ----------------------------

  /// A new peer joins under `super_peer` with the given raw dataset
  /// (points are re-identified to stay globally unique). The peer's
  /// extended skyline is computed and merged incrementally into the
  /// super-peer's store. Returns the new peer's id via `out_peer_id`
  /// (optional). When `maintenance_ops` is non-null the super-peer
  /// merge's logical operation counts are added to it. Returns
  /// `InvalidArgument` on a dimensionality mismatch or a NaN coordinate.
  Status JoinPeer(int super_peer, PointSet data, int* out_peer_id = nullptr,
                  OpCounts* maintenance_ops = nullptr);

  /// Peer departure or failure: the owning super-peer drops the peer's
  /// contribution from its store — incrementally by default, or by full
  /// rebuild under `incremental_maintenance = false` (see
  /// `SuperPeer::RemovePeer`); retained ground-truth data is updated
  /// accordingly. `maintenance_ops` as in `JoinPeer`.
  Status RemovePeer(int peer_id, OpCounts* maintenance_ops = nullptr);

  /// Replaces a peer's dataset in place (departure + rejoin under the
  /// same super-peer): the update path for peers whose local data
  /// changed. The peer is re-identified. `maintenance_ops` as in
  /// `JoinPeer`.
  Status ReplacePeerData(int peer_id, PointSet data,
                         OpCounts* maintenance_ops = nullptr);

  // --- scheduled churn (requires `dynamic_membership`) ------------------

  /// Installs (or replaces) the churn schedule, overriding the one
  /// derived from the configuration, and restarts the slot counter: the
  /// next `ExecuteQuery` is slot 0. Every event's node must be a valid
  /// super-peer id. Workloads stop parallelizing while a non-empty plan
  /// is installed (see `SupportsParallelWorkloads`).
  void SetChurnPlan(sim::ChurnPlan plan);

  /// The installed churn schedule (empty when none).
  const sim::ChurnPlan& churn_plan() const { return churn_plan_; }

  /// Applies one churn event's membership change now: kJoin generates a
  /// fresh uniform dataset from the event seed and joins it at
  /// `event.node`; kRemove / kReplace pick a seeded victim among the
  /// node's current peers (a deterministic skip, counted in
  /// `churn_stats().skipped`, when it has none). Scheduled execution
  /// calls this between queries; tests replay plans through it to build
  /// reference networks. Logical maintenance ops are added to
  /// `maintenance_ops` when non-null.
  Status ApplyChurnEvent(const sim::ChurnEvent& event,
                         OpCounts* maintenance_ops = nullptr);

  /// Running totals over every churn event applied through
  /// `ApplyChurnEvent` (scheduled execution or direct replay).
  struct ChurnStats {
    uint64_t joins = 0;
    uint64_t removals = 0;
    uint64_t replacements = 0;
    /// Scheduled remove/replace events that found no peer to act on.
    uint64_t skipped = 0;
    /// Logical operation counts of all maintenance work (identical
    /// paged vs resident; incremental vs rebuild differ — that is the
    /// cost the maintenance mode trades).
    OpCounts maintenance_ops;
  };
  const ChurnStats& churn_stats() const { return churn_stats_; }

  const Overlay& overlay() const { return overlay_; }
  const NetworkConfig& config() const { return config_; }
  int num_super_peers() const { return overlay_.num_super_peers(); }
  int num_peers() const { return overlay_.num_peers(); }
  int dims() const { return config_.dims; }
  size_t total_points() const { return total_points_; }
  const SuperPeer& super_peer(int i) const { return *super_peers_[i]; }
  const PointSet& all_data() const { return all_data_; }

  /// The shared buffer manager backing paged stores; nullptr in the
  /// in-memory default. Its statistics are physical (hit/miss/eviction)
  /// and out-of-band — they never feed simulated metrics.
  const BufferManager* buffer_manager() const { return buffer_.get(); }

 private:
  /// The staging wave: pre-executes the local scans whose thresholds are
  /// known before the protocol runs, concurrently on the pool, as node
  /// scan traces (cut instead when a node's trace already covers them).
  /// Runs once per query, before the simulation; a no-op on one thread.
  void StageLocalScans(Subspace subspace, int initiator_sp, Variant variant);

  NetworkConfig config_;
  Overlay overlay_;
  sim::Simulator simulator_;
  /// Backs every super-peer's paged store (`buffer_pages` > 0 only).
  /// Declared before `super_peers_` so it is destroyed after them — the
  /// stores drop their pages on destruction.
  std::unique_ptr<BufferManager> buffer_;
  std::vector<std::unique_ptr<SuperPeer>> super_peers_;
  /// Private pool when `config_.threads > 0`; replica clones point
  /// `pool_` at the parent's pool instead of owning one.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  // nullptr resolves the global pool.
  PointSet all_data_;
  size_t total_points_ = 0;
  bool preprocessed_ = false;
  uint64_t next_query_id_ = 1;
  // Churn bookkeeping (dynamic_membership only).
  int next_peer_id_ = 0;
  PointId next_point_id_ = 0;
  /// peer id -> [first, last) range of its point ids.
  std::map<int, std::pair<PointId, PointId>> peer_point_ranges_;
  /// Scheduled churn (empty = none): the plan, the slot the next query
  /// occupies, and running totals.
  sim::ChurnPlan churn_plan_;
  int churn_slot_ = 0;
  ChurnStats churn_stats_;
};

}  // namespace skypeer

#endif  // SKYPEER_ENGINE_NETWORK_BUILDER_H_
