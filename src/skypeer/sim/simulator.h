#ifndef SKYPEER_SIM_SIMULATOR_H_
#define SKYPEER_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "skypeer/common/macros.h"
#include "skypeer/common/rng.h"
#include "skypeer/sim/fault_plan.h"
#include "skypeer/sim/message.h"

namespace skypeer::sim {

/// A participant in the simulation. Nodes are registered with the
/// simulator and receive messages through `HandleMessage`, inside which
/// they may charge CPU time and send further messages.
class Node {
 public:
  virtual ~Node() = default;

  /// Invoked when `message` is delivered to this node. `simulator` is the
  /// owning simulator; use it to reply, forward, or charge CPU cost.
  virtual void HandleMessage(class Simulator* simulator,
                             const Message& message) = 0;
};

/// Network parameters of a point-to-point connection.
struct LinkParams {
  /// Bytes per second; infinity disables transfer delay. The paper's
  /// evaluation assumes 4 KB/s per connection (§6).
  double bandwidth = 4096.0;
  /// Fixed propagation delay in seconds, added on top of transfer time.
  double latency = 0.0;
};

inline constexpr double kInfiniteBandwidth =
    std::numeric_limits<double>::infinity();

/// Why a budgeted `Run` returned.
enum class RunStatus {
  kCompleted,            ///< The event queue drained.
  kEventBudgetExceeded,  ///< `max_events` deliveries were processed.
};

/// Safety valve for `Run`: protocols with retransmission can in principle
/// storm; a budget turns a livelock into a reported status. Zero (the
/// default) means unlimited.
struct RunBudget {
  uint64_t max_events = 0;
};

/// \brief Deterministic discrete-event simulator of a message-passing
/// network with per-node serial CPUs and per-direction FIFO links.
///
/// Model:
///  * Each node has a virtual clock (`busy_until`). A delivered message
///    begins processing at `max(arrival, busy_until)`; `ChargeCpu` inside
///    the handler advances the clock, serializing all work on the node.
///  * Each node also keeps a zero-delay clock `cp`: the critical path of
///    CPU work with network delays left out. Every event carries a `cp`
///    — a sent message its sender's `cp` at send time, a timer the `cp`
///    its node had when scheduling it (a timer delay is a wait, not CPU
///    work), a posted message the current time. A handler starts its
///    node's `cp` at `max(node cp, event cp)`, and `ChargeCpu` advances
///    both clocks. So `cp <= clock` always, and on infinite zero-latency
///    links without timer delays the two are equal bit for bit.
///  * Each link direction is FIFO with finite bandwidth: a message sent at
///    (virtual) time t starts transmitting at `max(t, link_busy)`,
///    occupies the link for `bytes / bandwidth`, and arrives after an
///    additional `latency`.
///  * Events with equal timestamps are processed in send order (a
///    monotonic sequence number), making runs bit-for-bit reproducible.
///  * An optional `FaultPlan` injects message loss, delay jitter, link
///    outages and node crashes, all driven by the virtual clock and a
///    dedicated RNG stream reseeded from the plan on every `Reset` —
///    faulty runs are exactly as reproducible as fault-free ones.
///  * Nodes may schedule timers; timer events travel through the same
///    ordered queue as messages (and are suppressed while the target node
///    is crashed), so timer-driven protocols stay deterministic.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a node (not owned). Returns its id.
  int AddNode(Node* node);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Creates the bidirectional connection (a, b). Each direction is an
  /// independent FIFO channel with the given parameters.
  void Connect(int a, int b, const LinkParams& params = {});

  bool AreConnected(int a, int b) const;

  /// Installs a fault schedule; takes effect for subsequent sends and
  /// deliveries. The dedicated fault RNG is seeded from `plan.seed` now
  /// and reseeded on every `Reset`, so each run of the same event
  /// sequence sees the same fault pattern.
  void SetFaultPlan(FaultPlan plan);

  /// Removes the fault schedule; the simulator becomes fault-free again.
  void ClearFaultPlan();

  /// The installed plan, or nullptr.
  const FaultPlan* fault_plan() const {
    return fault_plan_.has_value() ? &*fault_plan_ : nullptr;
  }

  /// Sends a message from node `src` (the currently handling node) to the
  /// adjacent node `dst`. Departure time is `src`'s current virtual clock.
  void Send(int src, int dst, size_t bytes,
            std::shared_ptr<const MessageBody> body);

  /// Injects an external message delivered to `dst` at time
  /// `max(now, dst clock)`; used to start protocols. Carries no wire cost.
  void Post(int dst, std::shared_ptr<const MessageBody> body);

  /// Schedules `body` for delivery to `node` after `delay` seconds of
  /// virtual time (from `max(now, node clock)`). The timer travels
  /// through the ordered event queue like any message (src == dst ==
  /// `node`, zero wire cost) and is suppressed if the node is crashed at
  /// fire time. Returns a handle for `CancelTimer`.
  uint64_t ScheduleTimer(int node, double delay,
                         std::shared_ptr<const MessageBody> body);

  /// Cancels a scheduled timer; the event is discarded when it surfaces.
  /// Cancelling an already-fired or unknown timer is a no-op.
  void CancelTimer(uint64_t timer_id);

  /// Advances the virtual clock and the zero-delay clock `cp` of the
  /// currently handling node by `seconds` of CPU work. Must only be
  /// called from inside a handler.
  void ChargeCpu(double seconds);

  /// Processes events until the queue drains.
  void Run() { Run(RunBudget{}); }

  /// Processes events until the queue drains or the budget is exhausted.
  /// On a budget stop the remaining events stay queued; calling again
  /// resumes where the previous call stopped.
  RunStatus Run(const RunBudget& budget);

  /// Timestamp of the event currently being processed (or last processed).
  double now() const { return now_; }

  /// Virtual clock of a node (when it becomes idle).
  double NodeClock(int node) const {
    SKYPEER_CHECK(node >= 0 && node < num_nodes());
    return clock_[node];
  }

  /// Virtual clock of the node whose handler is currently running,
  /// including CPU charged so far in this handler. Must only be called
  /// from inside a handler.
  double CurrentNodeClock() const {
    SKYPEER_CHECK(handling_node_ >= 0);
    return clock_[handling_node_];
  }

  /// Zero-delay clock `cp` of a node (see the class comment).
  double NodeCp(int node) const {
    SKYPEER_CHECK(node >= 0 && node < num_nodes());
    return cp_[node];
  }

  /// `cp` of the node whose handler is currently running, including CPU
  /// charged so far in this handler. Must only be called from inside a
  /// handler.
  double CurrentNodeCp() const {
    SKYPEER_CHECK(handling_node_ >= 0);
    return cp_[handling_node_];
  }

  /// Sum of wire bytes over all `Send` calls since the last `Reset`.
  uint64_t total_bytes() const { return total_bytes_; }

  /// Number of `Send` calls since the last `Reset`.
  uint64_t num_messages() const { return num_messages_; }

  /// Messages lost in flight (drop probability or link outage) since the
  /// last `Reset`. Lost messages still count in `total_bytes` /
  /// `num_messages` — the sender did transmit them.
  uint64_t dropped_messages() const { return dropped_messages_; }

  /// Deliveries (messages and timers) discarded because the destination
  /// node was crashed at arrival time, since the last `Reset`.
  uint64_t suppressed_deliveries() const { return suppressed_deliveries_; }

  /// Clears pending events, statistics, node clocks (`cp` included) and
  /// link backlogs; topology, link parameters and the fault plan survive
  /// (the fault RNG is reseeded, so a re-run of the same event sequence
  /// sees the same faults). Nodes must
  /// reset their own protocol state separately (see
  /// `SuperPeer::ResetProtocolState`).
  void Reset();

 private:
  struct LinkState {
    LinkParams params;
    double busy_until = 0.0;  // Outgoing channel occupancy.
  };

  struct Event {
    double time;
    uint64_t seq;
    /// `cp` the event carries (see the class comment).
    double cp;
    /// Non-zero for timer events (see `ScheduleTimer`).
    uint64_t timer_id;
    Message message;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  LinkState* FindLink(int src, int dst);

  std::vector<Node*> nodes_;
  std::vector<double> clock_;
  std::vector<double> cp_;
  // Directed link states keyed by (src, dst).
  std::map<std::pair<int, int>, LinkState> links_;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  uint64_t next_seq_ = 0;
  double now_ = 0.0;
  int handling_node_ = -1;
  uint64_t total_bytes_ = 0;
  uint64_t num_messages_ = 0;
  // Fault injection (absent: zero overhead on the hot path).
  std::optional<FaultPlan> fault_plan_;
  std::optional<Rng> fault_rng_;
  uint64_t dropped_messages_ = 0;
  uint64_t suppressed_deliveries_ = 0;
  // Timers.
  uint64_t next_timer_id_ = 1;
  std::unordered_set<uint64_t> cancelled_timers_;
};

}  // namespace skypeer::sim

#endif  // SKYPEER_SIM_SIMULATOR_H_
