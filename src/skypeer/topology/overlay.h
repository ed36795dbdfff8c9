#ifndef SKYPEER_TOPOLOGY_OVERLAY_H_
#define SKYPEER_TOPOLOGY_OVERLAY_H_

#include <vector>

#include "skypeer/common/rng.h"
#include "skypeer/common/status.h"
#include "skypeer/topology/graph.h"

namespace skypeer {

/// Shape of the super-peer backbone.
enum class BackboneTopology {
  /// GT-ITM style connected random graph (the paper's setting).
  kWaxman,
  /// HyperCuP-style partial hypercube (Edutella's backbone, paper §2);
  /// `degree_sp` is ignored — the degree is ~log2(N_sp).
  kHypercube,
};

const char* BackboneTopologyName(BackboneTopology topology);

/// Parameters of the two-tier super-peer overlay (paper §3.1).
struct OverlayConfig {
  int num_peers = 4000;
  /// Number of super-peers; 0 selects the paper's rule — 5% of the peers,
  /// dropping to 1% once num_peers >= 20000.
  int num_super_peers = 0;
  /// Average super-peer connectivity DEG_sp (paper varies 4..7).
  double degree_sp = 4.0;
  BackboneTopology topology = BackboneTopology::kWaxman;
  uint64_t seed = 1;
};

/// Applies the paper's super-peer sizing rule (§6): N_sp = 5% · N_p, or
/// 1% · N_p when N_p >= 20000 (at least one).
int DefaultNumSuperPeers(int num_peers);

/// The backbone size `config` builds: `num_super_peers`, or the paper's
/// rule when it is 0.
int ResolvedNumSuperPeers(const OverlayConfig& config);

/// \brief The materialized two-tier topology: a random-graph super-peer
/// backbone plus an even assignment of peers to super-peers.
struct Overlay {
  Graph backbone{0};
  /// peer id -> super-peer id.
  std::vector<int> peer_super_peer;
  /// super-peer id -> ids of its associated peers.
  std::vector<std::vector<int>> super_peer_peers;

  int num_peers() const { return static_cast<int>(peer_super_peer.size()); }
  int num_super_peers() const { return backbone.num_nodes(); }
};

/// Validates an `OverlayConfig` without building anything.
Status ValidateOverlayConfig(const OverlayConfig& config);

/// Builds the overlay: Waxman backbone of `num_super_peers` nodes with
/// average degree `degree_sp`, peers dealt round-robin so every super-peer
/// serves an (almost) equal share. Config must validate.
Overlay BuildOverlay(const OverlayConfig& config);

}  // namespace skypeer

#endif  // SKYPEER_TOPOLOGY_OVERLAY_H_
