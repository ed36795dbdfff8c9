#ifndef SKYPEER_ENGINE_RELIABLE_H_
#define SKYPEER_ENGINE_RELIABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "skypeer/sim/message.h"

namespace skypeer {

/// \brief Parameters of the reliable per-hop transport (see DESIGN.md,
/// "Fault model and the reliable query protocol").
///
/// With `enabled`, every protocol message (query, reply, pipeline) is
/// wrapped in a `ReliableEnvelope` carrying a per-sender hop sequence
/// number; the receiver acknowledges every envelope (including
/// duplicates, whose payload it suppresses) and the sender retransmits
/// unacknowledged envelopes under exponential backoff until `max_retries`
/// is exhausted. At-least-once delivery plus receiver-side duplicate
/// suppression yields effectively-once payload processing.
struct ReliableParams {
  bool enabled = false;
  /// Base acknowledgement timeout in seconds; attempt k waits
  /// `RetryTimeout(k)` = expected round-trip transfer + ack_timeout·2^k.
  double ack_timeout = 0.25;
  /// Retransmissions before the sender gives a hop up (the original send
  /// plus `max_retries` retries). Give-ups trigger the failure paths:
  /// a forwarded query's target counts as unreachable, replies reroute
  /// via the remaining backbone edges, pipeline hops skip ahead on the
  /// Euler tour.
  int max_retries = 8;
  /// Virtual-time budget of one query at the initiator; when it expires
  /// the initiator completes with whatever has arrived and flags the
  /// result partial. 0 disables the deadline.
  double query_deadline = 0.0;
  /// Expected link bandwidth (bytes/s) used to size retransmission
  /// timeouts so large transfers on slow links are not declared lost
  /// while still in transit. Purely a timeout heuristic — correctness
  /// never depends on it.
  double bandwidth_hint = 4096.0;
};

/// Reliable wrapper around one protocol message. `seq` is unique per
/// sender (monotonic across its lifetime), so (src, query_id, seq)
/// identifies a hop delivery for duplicate suppression.
struct ReliableEnvelope : sim::MessageBody {
  uint64_t query_id = 0;
  uint64_t seq = 0;
  std::shared_ptr<const sim::MessageBody> payload;
};

/// Per-hop acknowledgement of one envelope.
struct AckMessage : sim::MessageBody {
  uint64_t query_id = 0;
  uint64_t seq = 0;
};

/// Self-timer arming one envelope's retransmission.
struct RetransmitTimer : sim::MessageBody {
  uint64_t seq = 0;
};

/// Self-timer bounding one query at the initiator.
struct DeadlineTimer : sim::MessageBody {
  uint64_t query_id = 0;
};

/// Timeout of retransmission attempt `attempt` (0 = the original send)
/// for an envelope of `bytes` wire bytes: twice the expected one-way
/// transfer (envelope out, ack back, queueing slack) plus the backed-off
/// base timeout.
double RetryTimeout(const ReliableParams& params, int attempt, size_t bytes);

}  // namespace skypeer

#endif  // SKYPEER_ENGINE_RELIABLE_H_
