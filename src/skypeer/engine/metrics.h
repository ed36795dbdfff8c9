#ifndef SKYPEER_ENGINE_METRICS_H_
#define SKYPEER_ENGINE_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "skypeer/common/macros.h"
#include "skypeer/common/op_counts.h"

namespace skypeer {

/// Measurements of one distributed query execution; the quantities the
/// paper's evaluation plots (§6): computational time (network delays
/// ignored), total response time (4 KB/s links) and transferred volume.
struct QueryMetrics {
  /// The initiator's zero-delay clock when it finished (see
  /// `sim::Simulator`): the critical path of the query's CPU work with
  /// network delays (transfer, latency, timer waits) left out, read off
  /// the same run as every other field. Never exceeds `total_time_s`.
  double computational_time_s = 0.0;
  /// Completion time under the configured link parameters.
  double total_time_s = 0.0;
  /// Sum of wire bytes over all transmissions (each hop counted).
  uint64_t bytes_transferred = 0;
  /// Number of point-to-point messages.
  uint64_t messages = 0;
  /// Size of the final subspace skyline.
  size_t result_size = 0;
  /// Sum over super-peers of the store points their local scans consumed
  /// (Algorithm 1's `scanned`); the threshold's pruning power shows as
  /// this staying far below the total store size.
  size_t store_points_scanned = 0;
  /// Sum of the local result sizes before merging.
  size_t local_result_points = 0;
  /// Super-peers that processed the query (= all, on a connected
  /// backbone).
  int super_peers_participated = 0;
  /// Machine-independent operation counts summed over all super-peers
  /// (node-id order): dominance tests, scan steps, merge pulls, sorts,
  /// serialized bytes and page reads. Identical across runs, thread
  /// counts and kernel dispatch regardless of the cost-model mode.
  OpCounts ops;

  // --- reliability / fault-injection (reliable protocol only) ----------

  /// True when the answer is a *partial* result: the coverage report
  /// shows unreached super-peers (crashes, give-ups) or the query
  /// deadline fired before every subtree replied. A partial answer is
  /// still the exact skyline of the covered stores — degradation is
  /// reported, never silent.
  bool partial = false;
  /// Super-peers whose local results the answer covers (initiator
  /// included). Equals `super_peers_total` on a fault-free run.
  int super_peers_reached = 0;
  /// Backbone size the coverage is measured against; 0 when the reliable
  /// protocol is disabled.
  int super_peers_total = 0;
  /// Envelope retransmissions across all super-peers.
  uint64_t retransmits = 0;
  /// Hops abandoned after `max_retries` retransmissions.
  uint64_t hops_gave_up = 0;
  /// Messages the fault plan lost in flight.
  uint64_t messages_dropped = 0;
  /// The coverage report: sorted ids of the super-peers whose local
  /// results the answer covers (empty when the reliable protocol is
  /// disabled). `super_peers_reached` is its size.
  std::vector<int> covered;

  double volume_kb() const { return bytes_transferred / 1024.0; }

  /// Fraction of super-peers the answer covers, in [0, 1]. With the
  /// reliable protocol disabled `super_peers_total` stays 0 (no coverage
  /// report exists); that degenerate case is *defined* as full coverage
  /// 1.0 — legacy runs always complete — rather than dividing by zero.
  double coverage() const {
    return super_peers_total == 0
               ? 1.0
               : static_cast<double>(super_peers_reached) / super_peers_total;
  }
};

/// Statistics of the pre-processing phase (§5.3), reported in Fig. 3(a).
struct PreprocessStats {
  /// Total points across all peers (n).
  size_t total_points = 0;
  /// Sum of peer extended-skyline sizes — what peers transmit upward.
  size_t peer_ext_points = 0;
  /// Sum of merged super-peer store sizes — what super-peers retain.
  size_t super_peer_ext_points = 0;
  /// CPU seconds spent by peers computing local extended skylines:
  /// `cost_model.Seconds(peer_ops)`.
  double peer_cpu_s = 0.0;
  /// CPU seconds spent by super-peers merging:
  /// `cost_model.Seconds(super_peer_ops)`.
  double super_peer_cpu_s = 0.0;
  /// Op counts of the peer phase (local extended skylines), summed in
  /// peer order.
  OpCounts peer_ops;
  /// Op counts of the super-peer merge phase, summed in node-id order.
  OpCounts super_peer_ops;

  /// SEL_p: fraction of the dataset transmitted from peers to super-peers.
  double sel_p() const {
    return total_points == 0
               ? 0.0
               : static_cast<double>(peer_ext_points) / total_points;
  }
  /// SEL_sp: fraction of the dataset stored at super-peers after merging.
  double sel_sp() const {
    return total_points == 0
               ? 0.0
               : static_cast<double>(super_peer_ext_points) / total_points;
  }
  /// SEL_sp / SEL_p: survivors of the super-peer merge.
  double sel_ratio() const {
    return peer_ext_points == 0 ? 0.0
                                : static_cast<double>(super_peer_ext_points) /
                                      peer_ext_points;
  }
};

/// \brief A sampled metric: keeps every observation for mean, extrema and
/// percentile reporting (workloads are at most a few hundred queries, so
/// retention is cheap).
class MetricSeries {
 public:
  void Add(double value) { samples_.push_back(value); }

  size_t count() const { return samples_.size(); }

  double sum() const {
    double total = 0.0;
    for (double v : samples_) {
      total += v;
    }
    return total;
  }

  /// Empty series are defined, not UB: mean/min/max all report 0.0 (a
  /// workload of zero queries aggregates to zeros, never NaN).
  double mean() const { return samples_.empty() ? 0.0 : sum() / count(); }

  double min() const {
    return samples_.empty()
               ? 0.0
               : *std::min_element(samples_.begin(), samples_.end());
  }

  double max() const {
    return samples_.empty()
               ? 0.0
               : *std::max_element(samples_.begin(), samples_.end());
  }

  /// Percentile by the nearest-rank method; `p` in [0, 100] (CHECKed).
  /// `Percentile(50)` is the median, `Percentile(100)` the maximum, and
  /// `Percentile(0)` — where nearest-rank's ceil(p/100*n) would yield
  /// rank 0 — is defined as the minimum (the rank is clamped to 1). An
  /// empty series reports 0.0, matching mean/min/max.
  double Percentile(double p) const {
    SKYPEER_CHECK(p >= 0.0 && p <= 100.0);
    if (samples_.empty()) {
      return 0.0;
    }
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const size_t rank = static_cast<size_t>(
        std::max(1.0, std::ceil(p / 100.0 * sorted.size())));
    return sorted[rank - 1];
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Aggregation of `QueryMetrics` over a workload: per-metric series with
/// means (the paper reports averages) plus percentiles for tail analysis.
struct AggregateMetrics {
  size_t queries = 0;
  MetricSeries comp_s;
  MetricSeries total_s;
  MetricSeries kb;
  MetricSeries messages;
  MetricSeries result;
  MetricSeries scanned;
  /// Reliability series (all zero when the reliable protocol is off).
  MetricSeries retransmits;
  MetricSeries gave_up;
  MetricSeries coverage;
  size_t partial_queries = 0;
  /// Sum of per-query op counts over the workload.
  OpCounts total_ops;

  // --- out-of-band physical counters ------------------------------------
  // Snapshots of shared structures at workload end, NOT per-query sums:
  // in parallel workloads they depend on thread interleaving, so they are
  // observability only and never enter determinism comparisons.

  /// Buffer-manager counters (zero in the in-memory store mode).
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t buffer_evictions = 0;
  uint64_t buffer_prefetches = 0;

  void Add(const QueryMetrics& metrics) {
    ++queries;
    total_ops += metrics.ops;
    comp_s.Add(metrics.computational_time_s);
    total_s.Add(metrics.total_time_s);
    kb.Add(metrics.volume_kb());
    messages.Add(static_cast<double>(metrics.messages));
    result.Add(static_cast<double>(metrics.result_size));
    scanned.Add(static_cast<double>(metrics.store_points_scanned));
    retransmits.Add(static_cast<double>(metrics.retransmits));
    gave_up.Add(static_cast<double>(metrics.hops_gave_up));
    coverage.Add(metrics.coverage());
    if (metrics.partial) {
      ++partial_queries;
    }
  }

  double avg_comp_s() const { return comp_s.mean(); }
  double avg_total_s() const { return total_s.mean(); }
  double avg_kb() const { return kb.mean(); }
  double avg_messages() const { return messages.mean(); }
  double avg_result() const { return result.mean(); }
  double avg_retransmits() const { return retransmits.mean(); }
  double avg_gave_up() const { return gave_up.mean(); }
  double avg_coverage() const { return coverage.mean(); }
};

}  // namespace skypeer

#endif  // SKYPEER_ENGINE_METRICS_H_
