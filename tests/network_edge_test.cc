// Edge-case tests of the SkypeerNetwork facade that the main engine and
// churn suites do not cover: snapshot-restored networks vs churn,
// degenerate shapes, and cross-feature interactions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "skypeer/common/rng.h"
#include "skypeer/data/generator.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/persistence.h"

namespace skypeer {
namespace {

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

NetworkConfig BaseConfig(uint64_t seed) {
  NetworkConfig config;
  config.num_peers = 30;
  config.num_super_peers = 6;
  config.points_per_peer = 25;
  config.dims = 4;
  config.seed = seed;
  return config;
}

TEST(NetworkEdge, RestoredNetworkRefusesChurn) {
  const std::string path =
      std::string(::testing::TempDir()) + "/edge_stores.bin";
  NetworkConfig config = BaseConfig(1);
  config.dynamic_membership = true;
  SkypeerNetwork original(config);
  original.Preprocess();
  ASSERT_TRUE(SaveStores(original, path).ok());

  SkypeerNetwork restored(config);
  ASSERT_TRUE(LoadStores(&restored, path).ok());
  // Queries work...
  QueryResult result =
      restored.ExecuteQuery(Subspace::FromDims({0, 1}), 0, Variant::kFTPM);
  EXPECT_GT(result.skyline.size(), 0u);
  // ... but removal fails cleanly: the snapshot carries no per-peer
  // lists (network-level ranges are also absent).
  EXPECT_FALSE(restored.RemovePeer(0).ok());
  std::remove(path.c_str());
}

TEST(NetworkEdge, ChurnAndPipelineTogether) {
  NetworkConfig config = BaseConfig(2);
  config.dynamic_membership = true;
  config.retain_peer_data = true;
  SkypeerNetwork network(config);
  network.Preprocess();
  const Subspace u = Subspace::FromDims({1, 3});

  // Query, churn, and re-query under the pipeline variant.
  network.ExecuteQuery(u, 0, Variant::kRTPM);
  Rng rng(9);
  ASSERT_TRUE(network.JoinPeer(2, GenerateUniform(4, 15, &rng)).ok());
  QueryResult result = network.ExecuteQuery(u, 1, Variant::kPipeline);
  EXPECT_EQ(SortedIds(result.skyline.points),
            SortedIds(network.GroundTruthSkyline(u)));
}

TEST(NetworkEdge, SinglePointUniverse) {
  NetworkConfig config = BaseConfig(3);
  config.num_peers = 1;
  config.num_super_peers = 1;
  config.points_per_peer = 1;
  config.retain_peer_data = true;
  SkypeerNetwork network(config);
  network.Preprocess();
  for (Variant variant : kAllVariants) {
    QueryResult result =
        network.ExecuteQuery(Subspace::FullSpace(4), 0, variant);
    ASSERT_EQ(result.skyline.size(), 1u) << VariantName(variant);
    EXPECT_EQ(result.skyline.points.id(0), 0u);
  }
}

TEST(NetworkEdge, OneDimensionalData) {
  NetworkConfig config = BaseConfig(4);
  config.dims = 1;
  config.retain_peer_data = true;
  SkypeerNetwork network(config);
  network.Preprocess();
  const Subspace u = Subspace::FullSpace(1);
  const auto truth = SortedIds(network.GroundTruthSkyline(u));
  EXPECT_GE(truth.size(), 1u);
  for (Variant variant : kAllVariants) {
    EXPECT_EQ(SortedIds(network.ExecuteQuery(u, 0, variant).skyline.points),
              truth);
  }
}

TEST(NetworkEdge, MaxDimensionalityData) {
  NetworkConfig config = BaseConfig(5);
  config.dims = 32;  // kMaxDims.
  config.num_peers = 8;
  config.num_super_peers = 2;
  config.points_per_peer = 10;
  config.retain_peer_data = true;
  SkypeerNetwork network(config);
  network.Preprocess();
  const Subspace u = Subspace::FromDims({0, 15, 31});
  const auto truth = SortedIds(network.GroundTruthSkyline(u));
  EXPECT_EQ(SortedIds(
                network.ExecuteQuery(u, 0, Variant::kRTPM).skyline.points),
            truth);
}

TEST(NetworkEdge, HighLatencyLinksOnlyShiftTotalTime) {
  NetworkConfig fast = BaseConfig(6);
  NetworkConfig slow = BaseConfig(6);
  slow.latency = 0.5;
  SkypeerNetwork fast_network(fast);
  fast_network.Preprocess();
  SkypeerNetwork slow_network(slow);
  slow_network.Preprocess();
  const Subspace u = Subspace::FromDims({0, 2});
  const auto fast_result = fast_network.ExecuteQuery(u, 0, Variant::kFTPM);
  const auto slow_result = slow_network.ExecuteQuery(u, 0, Variant::kFTPM);
  EXPECT_EQ(SortedIds(fast_result.skyline.points),
            SortedIds(slow_result.skyline.points));
  EXPECT_EQ(fast_result.metrics.bytes_transferred,
            slow_result.metrics.bytes_transferred);
  EXPECT_GT(slow_result.metrics.total_time_s,
            fast_result.metrics.total_time_s + 1.0);
}

TEST(NetworkEdge, BandwidthScalesTransferTime) {
  // Doubling bandwidth roughly halves transfer-dominated total time
  // (zero CPU, zero latency).
  NetworkConfig narrow = BaseConfig(7);
  narrow.bandwidth = 2048.0;
  NetworkConfig wide = BaseConfig(7);
  wide.bandwidth = 4096.0;
  SkypeerNetwork narrow_network(narrow);
  narrow_network.Preprocess();
  SkypeerNetwork wide_network(wide);
  wide_network.Preprocess();
  const Subspace u = Subspace::FromDims({1, 2});
  const double narrow_t =
      narrow_network.ExecuteQuery(u, 0, Variant::kFTFM).metrics.total_time_s;
  const double wide_t =
      wide_network.ExecuteQuery(u, 0, Variant::kFTFM).metrics.total_time_s;
  EXPECT_NEAR(narrow_t / wide_t, 2.0, 0.2);
}

}  // namespace
}  // namespace skypeer
