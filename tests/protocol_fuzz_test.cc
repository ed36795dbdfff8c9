// Randomized end-to-end protocol fuzzing: random small networks, random
// churn interleaved with random queries under every variant, always
// cross-checked against the centralized oracle. One seed per test case;
// any failure reproduces deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/common/rng.h"
#include "skypeer/data/generator.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"

namespace skypeer {
namespace {

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

class ProtocolFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolFuzzTest, RandomNetworkRandomChurnStaysExact) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  NetworkConfig config;
  config.num_peers = static_cast<int>(rng.UniformInt(4, 60));
  config.num_super_peers =
      static_cast<int>(rng.UniformInt(1, std::min(10, config.num_peers)));
  config.points_per_peer = static_cast<int>(rng.UniformInt(0, 60));
  config.dims = static_cast<int>(rng.UniformInt(2, 7));
  config.degree_sp = rng.Uniform(0.0, 6.0);
  config.topology = rng.Uniform() < 0.3 ? BackboneTopology::kHypercube
                                        : BackboneTopology::kWaxman;
  config.distribution = static_cast<Distribution>(rng.UniformInt(0, 3));
  config.dynamic_membership = true;
  config.retain_peer_data = true;
  config.seed = rng.Fork();

  SkypeerNetwork network(config);
  network.Preprocess();

  std::vector<int> removable;
  for (int peer = 0; peer < config.num_peers; ++peer) {
    removable.push_back(peer);
  }

  for (int step = 0; step < 8; ++step) {
    // Random churn action.
    const double action = rng.Uniform();
    if (action < 0.3) {
      const int sp =
          static_cast<int>(rng.UniformInt(0, network.num_super_peers() - 1));
      const size_t n = static_cast<size_t>(rng.UniformInt(0, 40));
      int peer_id = -1;
      Rng data_rng(rng.Fork());
      ASSERT_TRUE(network
                      .JoinPeer(sp, GenerateUniform(config.dims, n, &data_rng),
                                &peer_id)
                      .ok());
      removable.push_back(peer_id);
    } else if (action < 0.5 && !removable.empty()) {
      const size_t victim = rng.UniformInt(0, removable.size() - 1);
      ASSERT_TRUE(network.RemovePeer(removable[victim]).ok());
      removable.erase(removable.begin() + victim);
    }

    // Random query under a random variant (pipeline included).
    std::vector<int> dims_pool(config.dims);
    for (int d = 0; d < config.dims; ++d) {
      dims_pool[d] = d;
    }
    std::shuffle(dims_pool.begin(), dims_pool.end(), rng.engine());
    const int k = static_cast<int>(rng.UniformInt(1, config.dims));
    const Subspace u = Subspace::FromDims(
        std::vector<int>(dims_pool.begin(), dims_pool.begin() + k));
    const int initiator =
        static_cast<int>(rng.UniformInt(0, network.num_super_peers() - 1));
    const Variant variant = static_cast<Variant>(rng.UniformInt(0, 5));

    const QueryResult result = network.ExecuteQuery(u, initiator, variant);
    EXPECT_EQ(SortedIds(result.skyline.points),
              SortedIds(network.GroundTruthSkyline(u)))
        << "seed=" << seed << " step=" << step << " u=" << u.ToString()
        << " variant=" << VariantName(variant) << " init=" << initiator;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

/// Fuzzing of the reliable protocol under message loss and delay jitter:
/// retransmissions create duplicated deliveries, jitter reorders them
/// across links, and reroute detours produce stale/echoed envelopes —
/// the answer must stay bit-identical to the centralized oracle with
/// full coverage, query after query on the same network.
class ReliableFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReliableFuzzTest, LossAndReorderingNeverCorruptTheAnswer) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  NetworkConfig config;
  config.num_peers = static_cast<int>(rng.UniformInt(8, 50));
  config.num_super_peers =
      static_cast<int>(rng.UniformInt(2, std::min(9, config.num_peers)));
  config.points_per_peer = static_cast<int>(rng.UniformInt(1, 40));
  config.dims = static_cast<int>(rng.UniformInt(2, 6));
  config.degree_sp = rng.Uniform(1.0, 5.0);
  config.retain_peer_data = true;
  config.seed = rng.Fork();
  config.reliable = true;
  config.fault_seed = rng.Fork();
  config.drop_prob = rng.Uniform(0.0, 0.35);
  config.delay_jitter = rng.Uniform(0.0, 0.2);

  SkypeerNetwork network(config);
  network.Preprocess();

  for (int step = 0; step < 6; ++step) {
    std::vector<int> dims_pool(config.dims);
    for (int d = 0; d < config.dims; ++d) {
      dims_pool[d] = d;
    }
    std::shuffle(dims_pool.begin(), dims_pool.end(), rng.engine());
    const int k = static_cast<int>(rng.UniformInt(1, config.dims));
    const Subspace u = Subspace::FromDims(
        std::vector<int>(dims_pool.begin(), dims_pool.begin() + k));
    const int initiator =
        static_cast<int>(rng.UniformInt(0, network.num_super_peers() - 1));
    const Variant variant = static_cast<Variant>(rng.UniformInt(0, 5));

    const QueryResult result = network.ExecuteQuery(u, initiator, variant);
    EXPECT_EQ(SortedIds(result.skyline.points),
              SortedIds(network.GroundTruthSkyline(u)))
        << "seed=" << seed << " step=" << step << " u=" << u.ToString()
        << " variant=" << VariantName(variant) << " init=" << initiator
        << " drop=" << config.drop_prob << " jitter=" << config.delay_jitter;
    EXPECT_FALSE(result.metrics.partial);
    EXPECT_EQ(result.metrics.super_peers_reached, network.num_super_peers());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReliableFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{17}));

/// Crash fuzzing: a random super-peer is down for good. Whatever subset
/// the protocol reports as covered, the answer must be the *exact*
/// skyline of exactly those stores — degraded, never wrong — and the
/// crashed node must not appear in the report.
class CrashFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashFuzzTest, PartialAnswersAreExactOverTheReportedCoverage) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  NetworkConfig config;
  config.num_peers = static_cast<int>(rng.UniformInt(12, 50));
  config.num_super_peers = static_cast<int>(rng.UniformInt(3, 9));
  config.points_per_peer = static_cast<int>(rng.UniformInt(1, 40));
  config.dims = static_cast<int>(rng.UniformInt(2, 6));
  config.degree_sp = rng.Uniform(1.0, 5.0);
  config.seed = rng.Fork();
  config.reliable = true;
  config.max_retries = 2;
  const int crashed =
      static_cast<int>(rng.UniformInt(0, config.num_super_peers - 1));
  config.crashed_sps = {crashed};

  SkypeerNetwork network(config);
  network.Preprocess();

  for (int step = 0; step < 4; ++step) {
    std::vector<int> dims_pool(config.dims);
    for (int d = 0; d < config.dims; ++d) {
      dims_pool[d] = d;
    }
    std::shuffle(dims_pool.begin(), dims_pool.end(), rng.engine());
    const int k = static_cast<int>(rng.UniformInt(1, config.dims));
    const Subspace u = Subspace::FromDims(
        std::vector<int>(dims_pool.begin(), dims_pool.begin() + k));
    int initiator =
        static_cast<int>(rng.UniformInt(0, network.num_super_peers() - 1));
    if (initiator == crashed) {
      initiator = (initiator + 1) % network.num_super_peers();
    }
    const Variant variant = static_cast<Variant>(rng.UniformInt(0, 5));

    const QueryResult result = network.ExecuteQuery(u, initiator, variant);
    EXPECT_TRUE(result.metrics.partial)
        << "seed=" << seed << " step=" << step;
    EXPECT_EQ(std::count(result.metrics.covered.begin(),
                         result.metrics.covered.end(), crashed),
              0);
    // Exactness over the reported coverage: re-derive the skyline from
    // the covered stores alone.
    PointSet covered_union(network.dims());
    for (int sp : result.metrics.covered) {
      const PointSet& store = network.super_peer(sp).store().points;
      for (size_t i = 0; i < store.size(); ++i) {
        covered_union.Append(store[i], store.id(i));
      }
    }
    EXPECT_EQ(SortedIds(result.skyline.points),
              SortedIds(BnlSkyline(covered_union, u)))
        << "seed=" << seed << " step=" << step << " u=" << u.ToString()
        << " variant=" << VariantName(variant) << " init=" << initiator;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

}  // namespace
}  // namespace skypeer
