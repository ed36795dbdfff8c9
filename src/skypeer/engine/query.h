#ifndef SKYPEER_ENGINE_QUERY_H_
#define SKYPEER_ENGINE_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "skypeer/algo/result_list.h"
#include "skypeer/common/op_counts.h"
#include "skypeer/common/subspace.h"
#include "skypeer/sim/message.h"

namespace skypeer {

/// The query-processing strategies of the paper (Table 2) plus the naive
/// baseline of §3.2. The two optimization axes are threshold propagation
/// (Fixed: the initiator's threshold is flooded unchanged; Refined: each
/// super-peer tightens it before forwarding) and merging (Fixed: all local
/// results are shipped to the initiator unmerged; Progressive: every
/// super-peer merges what it relays).
enum class Variant {
  kNaive,  ///< No threshold, BNL locally, central BNL merge at P_init.
  kFTFM,   ///< Fixed Threshold, Fixed Merging.
  kFTPM,   ///< Fixed Threshold, Progressive Merging.
  kRTFM,   ///< Refined Threshold, Fixed Merging.
  kRTPM,   ///< Refined Threshold, Progressive Merging.
  /// Extension comparator (not in the paper's Table 2): the query walks
  /// an Euler tour of the backbone spanning tree, each super-peer merging
  /// its local result into one accumulated list (the pipelined style of
  /// Wu et al., EDBT'06, cited in §2). Minimal per-hop state, fully
  /// serial execution.
  kPipeline,
};

const char* VariantName(Variant variant);

/// The paper's five strategies (Table 2 + naive), in presentation order.
/// The pipeline extension is excluded so figure reproductions match the
/// paper; compare against it via `Variant::kPipeline` explicitly.
inline constexpr Variant kAllVariants[] = {Variant::kNaive, Variant::kFTFM,
                                           Variant::kFTPM, Variant::kRTFM,
                                           Variant::kRTPM};

/// True for RTFM / RTPM (paper: "RT*M").
bool UsesRefinedThreshold(Variant variant);
/// True for FTPM / RTPM (paper: "*TPM").
bool UsesProgressiveMerging(Variant variant);
/// True when every super-peer's local scan for `variant` runs under a
/// threshold that is known before the flood reaches it — infinity for
/// naive, the initiator's value for FT*M — so the scans can be staged
/// concurrently before the simulation replays the protocol. RT*M and the
/// pipeline refine the threshold along the routing path, which makes
/// their scans inherently sequential.
bool SupportsParallelLocalScan(Variant variant);

/// \brief Byte-size model of serialized protocol traffic.
///
/// In memory, points always keep their full `d` coordinates; on the wire a
/// result entry ships only the `k` queried coordinates, its `f(p)` value
/// (needed by receivers to merge in sorted order) and its id. The volume
/// measurements of Figs. 3(c,d), 4(a,c,e,f) derive from this model.
struct WireModel {
  size_t coord_bytes = 8;         ///< One coordinate or `f` value.
  size_t id_bytes = 8;            ///< Point identifier.
  size_t query_bytes = 64;        ///< Query message (mask, threshold, ids).
  size_t reply_header_bytes = 32; ///< Fixed reply overhead.
  size_t list_header_bytes = 16;  ///< Per-list framing inside a reply.
  /// Reliable-transport framing (query id, sequence number) wrapped
  /// around every payload when the reliable protocol is enabled.
  size_t envelope_bytes = 16;
  /// One per-hop acknowledgement (query id, sequence number, headers).
  size_t ack_bytes = 24;

  /// Wire size of one result point for query dimensionality `k`.
  size_t PointBytes(int k) const {
    return (static_cast<size_t>(k) + 1) * coord_bytes + id_bytes;
  }

  /// Wire size of a reply bundling `lists` lists with `points` points in
  /// total, for query dimensionality `k`.
  size_t ReplyBytes(int k, size_t lists, size_t points) const {
    return reply_header_bytes + lists * list_header_bytes +
           points * PointBytes(k);
  }

  /// Wire size of a contributor id vector attached to reliable-mode
  /// replies for the coverage report.
  size_t ContributorBytes(size_t contributors) const {
    return contributors * id_bytes;
  }
};

/// Injected by the engine at the initiator super-peer to start a query.
struct StartQueryMessage : sim::MessageBody {
  uint64_t query_id = 0;
  Subspace subspace;
  Variant variant = Variant::kFTPM;
  /// Pipeline variant only: the Euler-tour walk (adjacent node ids,
  /// starting and ending at the initiator) the query travels.
  std::vector<int> route;
};

/// The travelling query + accumulated result of the pipeline variant.
struct PipelineMessage : sim::MessageBody {
  uint64_t query_id = 0;
  Subspace subspace;
  double threshold = 0.0;
  /// Shared with StartQueryMessage::route.
  std::shared_ptr<const std::vector<int>> route;
  /// Index of the receiving node within `route`.
  size_t position = 0;
  /// Skyline of everything merged so far along the walk.
  std::shared_ptr<const ResultList> accumulated;
  /// Reliable mode: super-peers whose local results `accumulated`
  /// includes (coverage report; hops skipped around crashes are absent).
  std::vector<int> contributors;
};

/// The flooded query `q(U, t)` of Algorithm 3.
struct QueryMessage : sim::MessageBody {
  uint64_t query_id = 0;
  Subspace subspace;
  Variant variant = Variant::kFTPM;
  /// Pruning threshold attached to the query; infinity for naive.
  double threshold = 0.0;
};

/// Scheduled-churn maintenance tick (see `sim::ChurnPlan`): fires as a
/// node timer at the churn event's simulated in-query time, at the
/// affected super-peer, carrying the logical operation counts of the
/// membership maintenance that event performed. The handler charges them
/// to the node's clocks and per-query ops, so churn costs shape simulated
/// times deterministically. The tick's delay itself is a wait, not CPU
/// work: it does not advance the zero-delay clock. Deliveries to a
/// crashed node are suppressed by the simulator like any other timer,
/// which is how churn composes with crash windows.
struct ChurnTickMessage : sim::MessageBody {
  OpCounts ops;
};

/// A reply travelling back towards the initiator. Fixed merging bundles
/// the sender's own and all relayed lists unmerged; progressive merging
/// always carries exactly one merged list. Lists are shared immutably so
/// relaying does not copy point data in the simulator's memory (the wire
/// cost is still charged per hop).
struct ReplyMessage : sim::MessageBody {
  uint64_t query_id = 0;
  /// True when the sender had already processed this query through
  /// another neighbor (flood duplicate); carries no lists.
  bool duplicate = false;
  std::vector<std::shared_ptr<const ResultList>> lists;
  /// Reliable mode: super-peers whose local results `lists` covers (the
  /// sender's own subtree); the coverage report is the union of these at
  /// the initiator. Empty for flood duplicates.
  std::vector<int> contributors;
  /// Reliable mode: >= 0 when this reply could not reach its spanning
  /// tree parent and was rerouted via another backbone edge; holds the id
  /// of the node whose parent was unreachable. Receivers fold such
  /// replies in as extra data (or relay them further towards the
  /// initiator) instead of consuming a child-reply slot.
  int reroute_origin = -1;

  size_t TotalPoints() const {
    size_t total = 0;
    for (const auto& list : lists) {
      total += list->size();
    }
    return total;
  }
};

}  // namespace skypeer

#endif  // SKYPEER_ENGINE_QUERY_H_
