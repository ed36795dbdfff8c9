// Tests of the pipelined query variant (Euler-tour walk, Wu et al. style)
// and of Graph::EulerTourWalk.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "skypeer/common/rng.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/topology/graph.h"

namespace skypeer {
namespace {

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

// --- Euler tour walk -------------------------------------------------------

void CheckWalk(const Graph& graph, int root) {
  const std::vector<int> walk = graph.EulerTourWalk(root);
  ASSERT_FALSE(walk.empty());
  EXPECT_EQ(walk.front(), root);
  EXPECT_EQ(walk.back(), root);
  std::set<int> visited(walk.begin(), walk.end());
  // Every node reachable from root appears.
  const std::vector<int> dist = graph.HopDistances(root);
  for (int node = 0; node < graph.num_nodes(); ++node) {
    EXPECT_EQ(visited.count(node) == 1, dist[node] >= 0) << "node " << node;
  }
  // Consecutive entries are adjacent.
  for (size_t i = 1; i < walk.size(); ++i) {
    EXPECT_TRUE(graph.HasEdge(walk[i - 1], walk[i]))
        << walk[i - 1] << " -> " << walk[i];
  }
  // Length of a spanning-tree Euler tour: 2 * (visited - 1) + 1.
  EXPECT_EQ(walk.size(), 2 * (visited.size() - 1) + 1);
}

TEST(EulerTour, SingleNode) {
  Graph g(1);
  EXPECT_EQ(g.EulerTourWalk(0), (std::vector<int>{0}));
}

TEST(EulerTour, Path) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.EulerTourWalk(0), (std::vector<int>{0, 1, 2, 1, 0}));
  CheckWalk(g, 1);
}

TEST(EulerTour, Star) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  CheckWalk(g, 0);
  CheckWalk(g, 2);
}

TEST(EulerTour, RandomGraphs) {
  for (int n : {5, 40, 200}) {
    Rng rng(n);
    Graph g = GenerateWaxmanGraph(n, 4.0, &rng);
    CheckWalk(g, 0);
    CheckWalk(g, n / 2);
  }
}

TEST(EulerTour, DeepPathNoStackOverflow) {
  constexpr int kN = 200000;
  Graph g(kN);
  for (int i = 1; i < kN; ++i) {
    g.AddEdge(i - 1, i);
  }
  const std::vector<int> walk = g.EulerTourWalk(0);
  EXPECT_EQ(walk.size(), 2u * (kN - 1) + 1);
}

// --- pipelined variant -------------------------------------------------------

NetworkConfig SmallConfig(uint64_t seed) {
  NetworkConfig config;
  config.num_peers = 60;
  config.num_super_peers = 12;
  config.points_per_peer = 40;
  config.dims = 5;
  config.degree_sp = 3.0;
  config.seed = seed;
  config.retain_peer_data = true;
  return config;
}

TEST(Pipeline, ExactOnAllSubspaces) {
  NetworkConfig config = SmallConfig(1);
  config.dims = 4;
  SkypeerNetwork network(config);
  network.Preprocess();
  for (Subspace u : AllSubspaces(4)) {
    QueryResult result = network.ExecuteQuery(u, 0, Variant::kPipeline);
    EXPECT_EQ(SortedIds(result.skyline.points),
              SortedIds(network.GroundTruthSkyline(u)))
        << u.ToString();
    EXPECT_TRUE(result.skyline.IsSorted());
  }
}

TEST(Pipeline, ExactAcrossDistributionsAndInitiators) {
  for (Distribution distribution :
       {Distribution::kUniform, Distribution::kClustered,
        Distribution::kAnticorrelated}) {
    NetworkConfig config = SmallConfig(2 + static_cast<int>(distribution));
    config.distribution = distribution;
    SkypeerNetwork network(config);
    network.Preprocess();
    const auto tasks = GenerateWorkload(5, 3, 5, network.num_super_peers(), 9);
    for (const QueryTask& task : tasks) {
      QueryResult result = network.ExecuteQuery(task.subspace,
                                                task.initiator_sp,
                                                Variant::kPipeline);
      EXPECT_EQ(SortedIds(result.skyline.points),
                SortedIds(network.GroundTruthSkyline(task.subspace)))
          << DistributionName(distribution);
    }
  }
}

TEST(Pipeline, MessageCountEqualsWalkLength) {
  NetworkConfig config = SmallConfig(7);
  SkypeerNetwork network(config);
  network.Preprocess();
  const std::vector<int> walk = network.overlay().backbone.EulerTourWalk(4);
  QueryResult result = network.ExecuteQuery(Subspace::FromDims({0, 1}), 4,
                                            Variant::kPipeline);
  // One message per walk edge.
  EXPECT_EQ(result.metrics.messages, walk.size() - 1);
  EXPECT_EQ(result.metrics.super_peers_participated,
            network.num_super_peers());
}

TEST(Pipeline, SingleSuperPeer) {
  NetworkConfig config = SmallConfig(8);
  config.num_super_peers = 1;
  SkypeerNetwork network(config);
  network.Preprocess();
  QueryResult result =
      network.ExecuteQuery(Subspace::FromDims({2}), 0, Variant::kPipeline);
  EXPECT_EQ(SortedIds(result.skyline.points),
            SortedIds(network.GroundTruthSkyline(Subspace::FromDims({2}))));
  EXPECT_EQ(result.metrics.messages, 0u);
}

TEST(Pipeline, SerialLatencyExceedsTreeVariant) {
  // The walk is serial (~2 N_sp transfers end to end) while FTPM floods a
  // tree; on a non-trivial backbone with zero CPU the pipeline's total
  // time must be larger.
  NetworkConfig config = SmallConfig(9);
  SkypeerNetwork network(config);
  network.Preprocess();
  const Subspace u = Subspace::FromDims({0, 3});
  const auto pipe = network.ExecuteQuery(u, 2, Variant::kPipeline);
  const auto ftpm = network.ExecuteQuery(u, 2, Variant::kFTPM);
  EXPECT_GT(pipe.metrics.total_time_s, ftpm.metrics.total_time_s);
  // Both are exact, so result sizes agree.
  EXPECT_EQ(pipe.metrics.result_size, ftpm.metrics.result_size);
}

TEST(Pipeline, ThresholdTravelsAndPrunes) {
  NetworkConfig config = SmallConfig(10);
  SkypeerNetwork network(config);
  const PreprocessStats pre = network.Preprocess();
  QueryResult result = network.ExecuteQuery(Subspace::FromDims({1, 4}), 0,
                                            Variant::kPipeline);
  // The travelling threshold prunes later stores: strictly fewer points
  // scanned than the naive full-store sweep.
  EXPECT_LT(result.metrics.store_points_scanned, pre.super_peer_ext_points);
}

}  // namespace
}  // namespace skypeer
