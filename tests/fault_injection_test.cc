// End-to-end tests of deterministic fault injection and the reliable
// query protocol: the two anchor invariants (losses/delays plus retries
// reproduce the fault-free answer bit for bit; permanent crashes yield
// the exact skyline of the reachable stores, flagged partial with an
// accurate coverage report), deadline semantics, reroute recovery,
// determinism per fault seed and protocol-state hygiene across
// back-to-back executions.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/common/subspace.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/sim/fault_plan.h"

namespace skypeer {
namespace {

constexpr Variant kVariantsWithPipeline[] = {
    Variant::kNaive, Variant::kFTFM, Variant::kFTPM,
    Variant::kRTFM,  Variant::kRTPM, Variant::kPipeline};

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

NetworkConfig BaseConfig() {
  NetworkConfig config;
  config.num_peers = 120;
  config.num_super_peers = 8;
  config.points_per_peer = 30;
  config.dims = 5;
  config.seed = 11;
  config.retain_peer_data = true;
  config.reliable = true;
  return config;
}

/// The oracle for partial results: the exact subspace skyline over the
/// union of the listed super-peers' stores (stores are extended
/// skylines, so this equals the skyline of the covered raw data).
std::vector<PointId> ReachableSkylineIds(const SkypeerNetwork& network,
                                         const std::vector<int>& reachable,
                                         Subspace u) {
  PointSet all(network.dims());
  for (int sp : reachable) {
    const PointSet& store = network.super_peer(sp).store().points;
    for (size_t i = 0; i < store.size(); ++i) {
      all.Append(store[i], store.id(i));
    }
  }
  return SortedIds(BnlSkyline(all, u));
}

// --- anchor invariant 1: losses and delays are invisible ----------------

TEST(FaultInjection, LossAndJitterWithRetriesMatchFaultFreeBitForBit) {
  const Subspace u = Subspace::FromDims({0, 2, 4});

  NetworkConfig clean = BaseConfig();
  SkypeerNetwork reference(clean);
  reference.Preprocess();

  NetworkConfig lossy = BaseConfig();
  lossy.drop_prob = 0.2;
  lossy.delay_jitter = 0.05;
  lossy.fault_seed = 99;
  SkypeerNetwork faulted(lossy);
  faulted.Preprocess();

  for (Variant variant : kVariantsWithPipeline) {
    QueryResult want = reference.ExecuteQuery(u, /*initiator_sp=*/0, variant);
    QueryResult got = faulted.ExecuteQuery(u, /*initiator_sp=*/0, variant);
    EXPECT_EQ(SortedIds(got.skyline.points), SortedIds(want.skyline.points))
        << "variant " << static_cast<int>(variant);
    EXPECT_FALSE(got.metrics.partial);
    EXPECT_EQ(got.metrics.super_peers_reached, got.metrics.super_peers_total);
    EXPECT_GT(got.metrics.retransmits, 0u);
    EXPECT_GT(got.metrics.messages_dropped, 0u);
    EXPECT_LE(got.metrics.computational_time_s, got.metrics.total_time_s);
    // The answer also matches the centralized oracle.
    EXPECT_EQ(SortedIds(got.skyline.points),
              SortedIds(faulted.GroundTruthSkyline(u)));
  }
}

// --- anchor invariant 2: crashes degrade to the reachable subset --------

TEST(FaultInjection, CrashedSuperPeerYieldsExactReachableSkyline) {
  const Subspace u = Subspace::FromDims({1, 2, 3});
  const int crashed = 2;

  NetworkConfig config = BaseConfig();
  config.crashed_sps = {crashed};
  config.max_retries = 2;
  SkypeerNetwork network(config);
  network.Preprocess();

  std::vector<int> reachable;
  for (int sp = 0; sp < network.num_super_peers(); ++sp) {
    if (sp != crashed) {
      reachable.push_back(sp);
    }
  }
  const std::vector<PointId> expected =
      ReachableSkylineIds(network, reachable, u);

  for (Variant variant : kVariantsWithPipeline) {
    QueryResult result = network.ExecuteQuery(u, /*initiator_sp=*/0, variant);
    EXPECT_EQ(SortedIds(result.skyline.points), expected)
        << "variant " << static_cast<int>(variant);
    EXPECT_TRUE(result.metrics.partial);
    EXPECT_EQ(result.metrics.super_peers_reached,
              network.num_super_peers() - 1);
    EXPECT_EQ(std::find(result.metrics.covered.begin(),
                        result.metrics.covered.end(), crashed),
              result.metrics.covered.end());
    EXPECT_GT(result.metrics.hops_gave_up, 0u);
    EXPECT_LE(result.metrics.computational_time_s,
              result.metrics.total_time_s);
  }
}

// --- computational time -------------------------------------------------

TEST(FaultInjection, ComputationalTimeNeverExceedsTotalTime) {
  // Computational time is the critical path of the answering run's CPU
  // work with network delays left out, so it can never exceed that run's
  // total time — whatever drops, jitter, retransmit timeouts and a
  // crashed super-peer do to the run. Swept over a workload of mixed
  // subspaces, initiators and all six variants.
  NetworkConfig config = BaseConfig();
  config.num_peers = 200;
  config.num_super_peers = 20;
  config.drop_prob = 0.2;
  config.delay_jitter = 0.05;
  config.fault_seed = 5;
  config.crashed_sps = {7};
  config.max_retries = 3;
  SkypeerNetwork network(config);
  network.Preprocess();
  const std::vector<QueryTask> tasks =
      GenerateWorkload(config.dims, /*k=*/3, /*num_queries=*/20,
                       network.num_super_peers(), /*seed=*/8);
  for (const QueryTask& task : tasks) {
    for (Variant variant : kVariantsWithPipeline) {
      const QueryResult result =
          network.ExecuteQuery(task.subspace, task.initiator_sp, variant);
      EXPECT_LE(result.metrics.computational_time_s,
                result.metrics.total_time_s)
          << VariantName(variant) << " u=" << task.subspace.ToString()
          << " initiator=" << task.initiator_sp;
    }
  }
}

TEST(FaultInjection, CrashedInitiatorFailsGracefully) {
  NetworkConfig config = BaseConfig();
  config.crashed_sps = {3};
  config.max_retries = 1;
  SkypeerNetwork network(config);
  network.Preprocess();

  const Subspace u = Subspace::FromDims({0, 1});
  QueryResult result = network.ExecuteQuery(u, /*initiator_sp=*/3,
                                            Variant::kFTPM);
  EXPECT_EQ(result.skyline.size(), 0u);
  EXPECT_TRUE(result.metrics.partial);
  EXPECT_EQ(result.metrics.super_peers_reached, 0);
}

// --- deadline: graceful truncation, never a hang ------------------------

TEST(FaultInjection, DeadlineYieldsInitiatorLocalPartialResult) {
  NetworkConfig config = BaseConfig();
  // Every round trip costs at least 0.4 s of latency; a 50 ms deadline
  // fires before any reply can arrive, so the initiator answers with its
  // own store only.
  config.latency = 0.2;
  config.query_deadline = 0.05;
  SkypeerNetwork network(config);
  network.Preprocess();

  const Subspace u = Subspace::FromDims({0, 3});
  const int initiator = 1;
  QueryResult result = network.ExecuteQuery(u, initiator, Variant::kFTPM);
  EXPECT_TRUE(result.metrics.partial);
  EXPECT_EQ(result.metrics.super_peers_reached, 1);
  EXPECT_EQ(result.metrics.covered, std::vector<int>{initiator});
  EXPECT_EQ(SortedIds(result.skyline.points),
            ReachableSkylineIds(network, {initiator}, u));
}

// --- reroute recovery around a dead backbone edge -----------------------

TEST(FaultInjection, LinkOutageIsRoutedAroundWithFullCoverage) {
  NetworkConfig config = BaseConfig();
  config.max_retries = 2;
  SkypeerNetwork network(config);
  network.Preprocess();

  const int initiator = 0;
  const int neighbor =
      network.overlay().backbone.Neighbors(initiator).front();
  // The backbone keeps the rest of the graph connected without this edge
  // (degree ~4 on 8 nodes); the flood reaches `neighbor` through another
  // path while the initiator's direct hop gives up.
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.TakeLinkDown(initiator, neighbor, 0.0,
                    std::numeric_limits<double>::infinity());
  network.SetFaultPlan(plan);

  const Subspace u = Subspace::FromDims({0, 1, 4});
  const auto truth = SortedIds(network.GroundTruthSkyline(u));
  for (Variant variant : kAllVariants) {
    QueryResult result = network.ExecuteQuery(u, initiator, variant);
    EXPECT_EQ(SortedIds(result.skyline.points), truth)
        << "variant " << static_cast<int>(variant);
    EXPECT_FALSE(result.metrics.partial);
    EXPECT_EQ(result.metrics.super_peers_reached,
              network.num_super_peers());
    EXPECT_GT(result.metrics.hops_gave_up, 0u);
  }
}

// --- determinism --------------------------------------------------------

TEST(FaultInjection, SameFaultSeedReproducesRunExactly) {
  NetworkConfig config = BaseConfig();
  config.drop_prob = 0.25;
  config.delay_jitter = 0.1;
  config.fault_seed = 1234;

  const Subspace u = Subspace::FromDims({0, 1, 2});
  SkypeerNetwork a(config);
  a.Preprocess();
  SkypeerNetwork b(config);
  b.Preprocess();

  for (Variant variant : kVariantsWithPipeline) {
    QueryResult ra = a.ExecuteQuery(u, /*initiator_sp=*/2, variant);
    QueryResult rb = b.ExecuteQuery(u, /*initiator_sp=*/2, variant);
    EXPECT_EQ(SortedIds(ra.skyline.points), SortedIds(rb.skyline.points));
    EXPECT_EQ(ra.metrics.total_time_s, rb.metrics.total_time_s);
    EXPECT_EQ(ra.metrics.bytes_transferred, rb.metrics.bytes_transferred);
    EXPECT_EQ(ra.metrics.messages, rb.metrics.messages);
    EXPECT_EQ(ra.metrics.retransmits, rb.metrics.retransmits);
    EXPECT_EQ(ra.metrics.messages_dropped, rb.metrics.messages_dropped);
  }
}

// --- protocol-state hygiene across executions ---------------------------

TEST(FaultInjection, BackToBackFaultedQueriesStayCleanAndIdentical) {
  NetworkConfig config = BaseConfig();
  config.drop_prob = 0.2;
  config.fault_seed = 77;
  SkypeerNetwork network(config);
  network.Preprocess();

  const Subspace u = Subspace::FromDims({1, 3, 4});
  const auto truth = SortedIds(network.GroundTruthSkyline(u));
  for (Variant variant : kVariantsWithPipeline) {
    // The fault RNG is reseeded per run, so re-executing the same query
    // replays the same fault pattern: the runs must agree on everything —
    // any leftover transport state (sequence numbers, dedup sets, timers)
    // from the first execution would perturb the second.
    QueryResult first = network.ExecuteQuery(u, /*initiator_sp=*/4, variant);
    QueryResult second = network.ExecuteQuery(u, /*initiator_sp=*/4, variant);
    EXPECT_EQ(SortedIds(first.skyline.points), truth)
        << "variant " << static_cast<int>(variant);
    EXPECT_EQ(SortedIds(second.skyline.points), truth);
    EXPECT_EQ(first.metrics.total_time_s, second.metrics.total_time_s);
    EXPECT_EQ(first.metrics.bytes_transferred,
              second.metrics.bytes_transferred);
    EXPECT_EQ(first.metrics.retransmits, second.metrics.retransmits);
  }
}

TEST(FaultInjection, CrashThenCleanQueryRecoversFullCoverage) {
  // A crash-degraded execution must not poison the next one: install a
  // crash plan, run, clear it, run again — the second answer is complete.
  NetworkConfig config = BaseConfig();
  config.max_retries = 1;
  SkypeerNetwork network(config);
  network.Preprocess();

  const Subspace u = Subspace::FromDims({2, 4});
  sim::FaultPlan crash;
  crash.seed = 3;
  crash.CrashNode(5);
  network.SetFaultPlan(crash);
  QueryResult degraded = network.ExecuteQuery(u, 0, Variant::kRTPM);
  EXPECT_TRUE(degraded.metrics.partial);

  network.SetFaultPlan(sim::FaultPlan{});  // Fault-free again.
  QueryResult clean = network.ExecuteQuery(u, 0, Variant::kRTPM);
  EXPECT_FALSE(clean.metrics.partial);
  EXPECT_EQ(SortedIds(clean.skyline.points),
            SortedIds(network.GroundTruthSkyline(u)));
}

// --- configuration validation -------------------------------------------

TEST(FaultInjection, ValidationRejectsFaultsWithoutReliableTransport) {
  NetworkConfig config = BaseConfig();
  config.reliable = false;
  config.drop_prob = 0.1;
  EXPECT_FALSE(SkypeerNetwork::Validate(config).ok());

  config.drop_prob = 0.0;
  config.crashed_sps = {1};
  EXPECT_FALSE(SkypeerNetwork::Validate(config).ok());

  config.crashed_sps.clear();
  EXPECT_TRUE(SkypeerNetwork::Validate(config).ok());

  config.reliable = true;
  config.drop_prob = 1.0;  // Certain loss can never finish.
  EXPECT_FALSE(SkypeerNetwork::Validate(config).ok());
}

TEST(FaultInjection, ValidationRejectsCrashIdsOutsideTheBackbone) {
  NetworkConfig config = BaseConfig();
  config.reliable = true;
  config.crashed_sps = {-1};
  EXPECT_EQ(SkypeerNetwork::Validate(config).code(),
            StatusCode::kInvalidArgument);

  // An explicit super-peer count bounds the ids.
  config.num_peers = 40;
  config.num_super_peers = 4;
  config.crashed_sps = {3};
  EXPECT_TRUE(SkypeerNetwork::Validate(config).ok());
  config.crashed_sps = {4};
  EXPECT_EQ(SkypeerNetwork::Validate(config).code(),
            StatusCode::kInvalidArgument);
  config.crashed_sps = {0, 99};
  EXPECT_EQ(SkypeerNetwork::Validate(config).code(),
            StatusCode::kInvalidArgument);

  // 0 super-peers resolves through the paper's N_sp rule: 5% of 40 peers
  // is 2 super-peers.
  config.num_super_peers = 0;
  config.crashed_sps = {1};
  EXPECT_TRUE(SkypeerNetwork::Validate(config).ok());
  config.crashed_sps = {2};
  EXPECT_EQ(SkypeerNetwork::Validate(config).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace skypeer
