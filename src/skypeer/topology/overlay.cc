#include "skypeer/topology/overlay.h"

#include <algorithm>

#include "skypeer/common/macros.h"

namespace skypeer {

const char* BackboneTopologyName(BackboneTopology topology) {
  switch (topology) {
    case BackboneTopology::kWaxman:
      return "waxman";
    case BackboneTopology::kHypercube:
      return "hypercube";
  }
  return "unknown";
}

int DefaultNumSuperPeers(int num_peers) {
  const double fraction = num_peers >= 20000 ? 0.01 : 0.05;
  return std::max(1, static_cast<int>(num_peers * fraction));
}

int ResolvedNumSuperPeers(const OverlayConfig& config) {
  return config.num_super_peers > 0 ? config.num_super_peers
                                    : DefaultNumSuperPeers(config.num_peers);
}

Status ValidateOverlayConfig(const OverlayConfig& config) {
  if (config.num_peers < 1) {
    return Status::InvalidArgument("num_peers must be >= 1");
  }
  if (config.num_super_peers < 0) {
    return Status::InvalidArgument("num_super_peers must be >= 0");
  }
  if (ResolvedNumSuperPeers(config) > config.num_peers) {
    return Status::InvalidArgument("more super-peers than peers");
  }
  if (config.degree_sp < 0.0) {
    return Status::InvalidArgument("degree_sp must be >= 0");
  }
  return Status::OK();
}

Overlay BuildOverlay(const OverlayConfig& config) {
  SKYPEER_CHECK(ValidateOverlayConfig(config).ok());
  const int num_super_peers = ResolvedNumSuperPeers(config);
  Rng rng(config.seed);
  Overlay overlay;
  switch (config.topology) {
    case BackboneTopology::kWaxman:
      overlay.backbone =
          GenerateWaxmanGraph(num_super_peers, config.degree_sp, &rng);
      break;
    case BackboneTopology::kHypercube:
      overlay.backbone = GenerateHypercubeGraph(num_super_peers);
      break;
  }
  overlay.peer_super_peer.resize(config.num_peers);
  overlay.super_peer_peers.resize(num_super_peers);
  for (int peer = 0; peer < config.num_peers; ++peer) {
    const int super_peer = peer % num_super_peers;
    overlay.peer_super_peer[peer] = super_peer;
    overlay.super_peer_peers[super_peer].push_back(peer);
  }
  return overlay;
}

}  // namespace skypeer
