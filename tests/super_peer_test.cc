// Direct unit tests of the SuperPeer node: pre-processing status paths,
// churn semantics at the node level, and protocol statistics — below the
// SkypeerNetwork facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "skypeer/algo/bnl.h"
#include "skypeer/algo/extended_skyline.h"
#include "skypeer/common/rng.h"
#include "skypeer/data/generator.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/super_peer.h"

namespace skypeer {
namespace {

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

ResultList MakeExt(int dims, size_t n, uint64_t seed, PointId first_id) {
  Rng rng(seed);
  return ExtendedSkyline(GenerateUniform(dims, n, &rng, first_id));
}

TEST(SuperPeerUnit, EmptyStoreBeforePreprocessing) {
  SuperPeer sp(0, 4, WireModel{});
  EXPECT_TRUE(sp.store().empty());
  sp.FinalizePreprocessing();
  EXPECT_TRUE(sp.store().empty());
}

TEST(SuperPeerUnit, MergeEqualsExtSkylineOfUnion) {
  SuperPeer sp(0, 4, WireModel{});
  Rng rng(1);
  PointSet all(4);
  for (int peer = 0; peer < 4; ++peer) {
    PointSet data = GenerateUniform(4, 60, &rng, peer * 100);
    all.AppendAll(data);
    sp.AddPeerList(peer, ExtendedSkyline(data));
  }
  sp.FinalizePreprocessing();
  EXPECT_EQ(SortedIds(sp.store().points),
            SortedIds(BnlSkyline(all, Subspace::FullSpace(4), /*ext=*/true)));
  EXPECT_TRUE(sp.store().IsSorted());
}

TEST(SuperPeerUnit, JoinBeforeFinalizeFails) {
  SuperPeer sp(0, 4, WireModel{});
  Status status = sp.JoinPeer(1, MakeExt(4, 10, 2, 0));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SuperPeerUnit, JoinDimensionMismatchFails) {
  SuperPeer sp(0, 4, WireModel{});
  sp.FinalizePreprocessing();
  Status status = sp.JoinPeer(1, MakeExt(3, 10, 3, 0));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SuperPeerUnit, JoinDuplicateIdFailsWhenRetained) {
  SuperPeer sp(0, 4, WireModel{});
  sp.set_retain_peer_lists(true);
  sp.AddPeerList(5, MakeExt(4, 20, 4, 0));
  sp.FinalizePreprocessing();
  EXPECT_TRUE(sp.JoinPeer(6, MakeExt(4, 20, 5, 100)).ok());
  EXPECT_EQ(sp.JoinPeer(6, MakeExt(4, 20, 6, 200)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sp.RetainedPeerIds(), (std::vector<int>{5, 6}));
}

TEST(SuperPeerUnit, JoinMergesIncrementally) {
  SuperPeer sp(0, 4, WireModel{});
  Rng rng(7);
  PointSet first = GenerateUniform(4, 80, &rng, 0);
  sp.AddPeerList(0, ExtendedSkyline(first));
  sp.FinalizePreprocessing();

  PointSet second = GenerateUniform(4, 80, &rng, 1000);
  ASSERT_TRUE(sp.JoinPeer(1, ExtendedSkyline(second)).ok());

  PointSet all(4);
  all.AppendAll(first);
  all.AppendAll(second);
  EXPECT_EQ(SortedIds(sp.store().points),
            SortedIds(BnlSkyline(all, Subspace::FullSpace(4), /*ext=*/true)));
}

TEST(SuperPeerUnit, RemoveWithoutRetentionFails) {
  SuperPeer sp(0, 4, WireModel{});
  sp.AddPeerList(0, MakeExt(4, 10, 8, 0));
  sp.FinalizePreprocessing();
  EXPECT_EQ(sp.RemovePeer(0).code(), StatusCode::kFailedPrecondition);
}

TEST(SuperPeerUnit, RemoveUnknownFails) {
  SuperPeer sp(0, 4, WireModel{});
  sp.set_retain_peer_lists(true);
  sp.AddPeerList(0, MakeExt(4, 10, 9, 0));
  sp.FinalizePreprocessing();
  EXPECT_EQ(sp.RemovePeer(3).code(), StatusCode::kNotFound);
}

TEST(SuperPeerUnit, RemoveRebuildsStore) {
  SuperPeer sp(0, 4, WireModel{});
  sp.set_retain_peer_lists(true);
  Rng rng(10);
  PointSet keep = GenerateUniform(4, 60, &rng, 0);
  sp.AddPeerList(0, ExtendedSkyline(keep));
  // A dominating peer whose departure must resurrect `keep`'s points.
  {
    const double origin[4] = {0, 0, 0, 0};
    PointSet dominator(4);
    dominator.Reserve(1);
    dominator.Append(origin, 9999);
    sp.AddPeerList(1, ExtendedSkyline(dominator));
  }
  sp.FinalizePreprocessing();
  ASSERT_EQ(sp.store().size(), 1u);  // The origin ext-dominates everything.

  ASSERT_TRUE(sp.RemovePeer(1).ok());
  EXPECT_EQ(SortedIds(sp.store().points),
            SortedIds(BnlSkyline(keep, Subspace::FullSpace(4), /*ext=*/true)));
}

TEST(SuperPeerUnit, IncrementalRemoveKeepsCanonicalOrderUnderTies) {
  // Coordinates on a 3-value grid make f ties between the survivors and
  // the resurrected points common, so the splice's tie-break on (peer
  // rank, list position) decides the store order. The checked oracle
  // CHECKs every incremental result bit-identical to a full rebuild.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SuperPeer sp(0, 3, WireModel{});
    sp.set_retain_peer_lists(true);
    sp.set_verify_maintenance(true);
    Rng rng(seed);
    std::vector<int> peers;
    for (int peer = 0; peer < 6; ++peer) {
      PointSet data(3);
      for (int i = 0; i < 12; ++i) {
        double row[3];
        for (double& coord : row) {
          coord = static_cast<double>(rng.UniformInt(0, 2));
        }
        data.Append(row, static_cast<PointId>(peer * 100 + i));
      }
      sp.AddPeerList(peer, ExtendedSkyline(data));
      peers.push_back(peer);
    }
    sp.FinalizePreprocessing();
    while (!peers.empty()) {
      const size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(peers.size()) - 1));
      ASSERT_TRUE(sp.RemovePeer(peers[pick]).ok());
      peers.erase(peers.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    EXPECT_TRUE(sp.store().empty());
  }
}

TEST(SuperPeerUnit, LastQueryStatsBeforeAnyQuery) {
  SuperPeer sp(0, 4, WireModel{});
  const SuperPeer::LastQueryStats stats = sp.last_query_stats();
  EXPECT_FALSE(stats.participated);
  EXPECT_EQ(stats.scanned, 0u);
  EXPECT_EQ(stats.local_result, 0u);
}

TEST(SuperPeerUnit, ScanTraceCoversTighterThresholdsAndEndReachingScans) {
  // A node holds one scan trace. A scan of the trace's store epoch and
  // subspace is cut from it when the trace covers the scan: a threshold
  // scan from no more than the recording's threshold, or any scan, BNL
  // included, once the trace reached the store's end. Any other scan
  // runs and replaces the trace.
  SuperPeer sp(0, 4, WireModel{});
  sp.AddPeerList(0, MakeExt(4, 200, 3, 0));
  sp.FinalizePreprocessing();
  const Subspace u = Subspace::FromDims({0, 1});
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(sp.ScanTraceCount(), 0u);

  const double tightened = sp.StageLocalScan(u, Variant::kFTPM, inf);
  ASSERT_LT(tightened, inf);
  EXPECT_EQ(sp.ScanTraceCount(), 1u);
  EXPECT_EQ(sp.ScansRecorded(), 1u);

  // Every thresholded variant runs the same scan, and tighter thresholds
  // stop on a prefix of it: all are cut.
  EXPECT_EQ(sp.StageLocalScan(u, Variant::kRTFM, inf), tightened);
  EXPECT_EQ(sp.StageLocalScan(u, Variant::kFTPM, tightened), tightened);
  const double tighter = tightened / 2;
  EXPECT_EQ(sp.StageLocalScan(u, Variant::kRTPM, tighter), tighter);
  EXPECT_EQ(sp.ScansRecorded(), 1u);

  // The threshold scan stopped before the store's end, so naive's BNL
  // runs and replaces the trace. It reached the end, so it covers every
  // later scan of the subspace.
  EXPECT_EQ(sp.StageLocalScan(u, Variant::kNaive, inf), inf);
  EXPECT_EQ(sp.ScansRecorded(), 2u);
  EXPECT_EQ(sp.StageLocalScan(u, Variant::kFTFM, inf), tightened);
  EXPECT_EQ(sp.StageLocalScan(u, Variant::kRTPM, tighter), tighter);
  EXPECT_EQ(sp.StageLocalScan(u, Variant::kNaive, inf), inf);
  EXPECT_EQ(sp.ScansRecorded(), 2u);

  // Another subspace replaces the trace.
  const Subspace other = Subspace::FromDims({0, 2});
  sp.StageLocalScan(other, Variant::kFTPM, inf);
  EXPECT_EQ(sp.ScansRecorded(), 3u);

  // Back on `u`, a scan from the tighter threshold records only its own
  // scan; a looser one is not covered and replaces it.
  EXPECT_EQ(sp.StageLocalScan(u, Variant::kRTPM, tightened), tightened);
  EXPECT_EQ(sp.ScansRecorded(), 4u);
  EXPECT_EQ(sp.StageLocalScan(u, Variant::kRTPM, tighter), tighter);
  EXPECT_EQ(sp.ScansRecorded(), 4u);
  EXPECT_EQ(sp.StageLocalScan(u, Variant::kFTFM, inf), tightened);
  EXPECT_EQ(sp.ScansRecorded(), 5u);
  EXPECT_EQ(sp.ScanTraceCount(), 1u);
}

// --- reply arrival order ----------------------------------------------------

/// Forwards every delivery to the wrapped node and records the sender of
/// each reply, in arrival order.
class ReplySpy : public sim::Node {
 public:
  explicit ReplySpy(SuperPeer* node) : node_(node) {}

  void HandleMessage(sim::Simulator* simulator,
                     const sim::Message& message) override {
    if (dynamic_cast<const ReplyMessage*>(message.body.get()) != nullptr) {
      reply_sources_.push_back(message.src);
    }
    node_->HandleMessage(simulator, message);
  }

  const std::vector<int>& reply_sources() const { return reply_sources_; }

 private:
  SuperPeer* node_;
  std::vector<int> reply_sources_;
};

/// An f-sorted store of `rows` (full 4-dimensional points), ids from
/// `first_id` on.
ResultList StoreOf(const std::vector<std::vector<double>>& rows,
                   PointId first_id) {
  PointSet points(4);
  points.Reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    points.Append(rows[i].data(), first_id + i);
  }
  return BuildSortedByF(points);
}

struct StarRun {
  ResultList answer{4};
  OpCounts ops;
  std::vector<int> reply_sources;
};

/// One legacy-transport query from the hub of a three-node star whose
/// two leaves reply in an order the link bandwidth decides. Leaf 1 scans
/// 3,000 points but ships one; leaf 2 scans 40 points and ships all of
/// them. Its point (0.1, 0.9, ...) ties leaf 1's point on f = 0.1.
StarRun RunStar(Variant variant, double bandwidth) {
  std::vector<std::vector<double>> hub_rows;
  for (int i = 0; i < 5; ++i) {
    hub_rows.push_back({0.7 + 0.01 * i, 0.75 - 0.01 * i, 0.8, 0.8});
  }
  std::vector<std::vector<double>> big_rows;
  for (int i = 0; i < 3000; ++i) {
    // (0.5, 0.5) dominates every other row on {0, 1}, and no row
    // ext-dominates another.
    big_rows.push_back({0.5 + 1e-5 * i, 0.5 + 1e-5 * i, 0.1 + 1e-4 * i,
                        0.95 - 1e-4 * i});
  }
  std::vector<std::vector<double>> diagonal_rows;
  for (int i = 0; i < 40; ++i) {
    const double t = 0.1 + 0.01 * i;  // Skips t = 0.5.
    diagonal_rows.push_back({t, 1.0 - t, 0.9, 0.9});
  }
  const WireModel wire;
  SuperPeer hub(0, 4, wire);
  SuperPeer big(1, 4, wire);
  SuperPeer diagonal(2, 4, wire);
  hub.SetStore(StoreOf(hub_rows, 0));
  big.SetStore(StoreOf(big_rows, 100));
  diagonal.SetStore(StoreOf(diagonal_rows, 10'000));
  hub.SetNeighbors({1, 2});
  big.SetNeighbors({0});
  diagonal.SetNeighbors({0});

  ReplySpy spy(&hub);
  sim::Simulator simulator;
  simulator.AddNode(&spy);
  simulator.AddNode(&big);
  simulator.AddNode(&diagonal);
  simulator.Connect(0, 1, sim::LinkParams{bandwidth, 0.0});
  simulator.Connect(0, 2, sim::LinkParams{bandwidth, 0.0});
  auto start = std::make_shared<StartQueryMessage>();
  start->query_id = 1;
  start->subspace = Subspace::FromDims({0, 1});
  start->variant = variant;
  simulator.Post(0, start);
  simulator.Run();

  StarRun run;
  EXPECT_TRUE(hub.finished());
  run.answer = hub.final_result();
  for (const SuperPeer* node : {&hub, &big, &diagonal}) {
    run.ops += node->last_query_stats().ops;
  }
  run.reply_sources = spy.reply_sources();
  return run;
}

TEST(ReplyOrder, AnswerAndOpsIgnoreArrivalOrder) {
  // At 4 KB/s the small reply arrives first; on infinitely fast links the
  // cheap scan's reply does. The merges take their inputs by child id, so
  // both runs merge the same lists in the same order.
  for (Variant variant : {Variant::kNaive, Variant::kFTFM}) {
    SCOPED_TRACE(VariantName(variant));
    const StarRun slow = RunStar(variant, 4096.0);
    const StarRun fast = RunStar(variant, sim::kInfiniteBandwidth);
    ASSERT_EQ(slow.reply_sources, (std::vector<int>{1, 2}));
    ASSERT_EQ(fast.reply_sources, (std::vector<int>{2, 1}));
    ASSERT_EQ(slow.answer.size(), 41u);
    EXPECT_EQ(slow.answer.points.Ids(), fast.answer.points.Ids());
    EXPECT_EQ(slow.answer.f, fast.answer.f);
    EXPECT_EQ(slow.ops, fast.ops);
  }
}

// --- protocol statistics through the network facade -----------------------

TEST(ProtocolStats, AllSuperPeersParticipate) {
  NetworkConfig config;
  config.num_peers = 50;
  config.num_super_peers = 10;
  config.points_per_peer = 40;
  config.dims = 5;
  config.seed = 20;
  SkypeerNetwork network(config);
  network.Preprocess();
  for (Variant variant : kAllVariants) {
    QueryResult result =
        network.ExecuteQuery(Subspace::FromDims({0, 1}), 2, variant);
    EXPECT_EQ(result.metrics.super_peers_participated, 10)
        << VariantName(variant);
    EXPECT_GT(result.metrics.local_result_points, 0u);
    EXPECT_GE(result.metrics.local_result_points, result.metrics.result_size);
  }
}

TEST(ProtocolStats, NaiveScansEntireStores) {
  NetworkConfig config;
  config.num_peers = 50;
  config.num_super_peers = 10;
  config.points_per_peer = 40;
  config.dims = 5;
  config.seed = 21;
  SkypeerNetwork network(config);
  const PreprocessStats pre = network.Preprocess();
  QueryResult naive =
      network.ExecuteQuery(Subspace::FromDims({0, 3}), 0, Variant::kNaive);
  EXPECT_EQ(naive.metrics.store_points_scanned, pre.super_peer_ext_points);
}

TEST(ProtocolStats, ThresholdPrunesScans) {
  NetworkConfig config;
  config.num_peers = 200;
  config.num_super_peers = 20;
  config.points_per_peer = 100;
  config.dims = 5;
  config.seed = 22;
  SkypeerNetwork network(config);
  const PreprocessStats pre = network.Preprocess();
  for (Variant variant :
       {Variant::kFTFM, Variant::kFTPM, Variant::kRTFM, Variant::kRTPM}) {
    QueryResult result =
        network.ExecuteQuery(Subspace::FromDims({1, 2}), 3, variant);
    EXPECT_LT(result.metrics.store_points_scanned, pre.super_peer_ext_points)
        << VariantName(variant);
  }
  // Refinement can only tighten: RTFM never scans more than FTFM.
  QueryResult ftfm =
      network.ExecuteQuery(Subspace::FromDims({1, 2}), 3, Variant::kFTFM);
  QueryResult rtfm =
      network.ExecuteQuery(Subspace::FromDims({1, 2}), 3, Variant::kRTFM);
  EXPECT_LE(rtfm.metrics.store_points_scanned,
            ftfm.metrics.store_points_scanned);
}

TEST(ProtocolStats, ReplacePeerDataUpdatesAnswers) {
  NetworkConfig config;
  config.num_peers = 30;
  config.num_super_peers = 6;
  config.points_per_peer = 20;
  config.dims = 4;
  config.seed = 23;
  config.dynamic_membership = true;
  config.retain_peer_data = true;
  SkypeerNetwork network(config);
  network.Preprocess();
  const Subspace u = Subspace::FullSpace(4);

  // Replace peer 4's data with a single dominating point.
  ASSERT_TRUE(
      network.ReplacePeerData(4, PointSet(4, {{0, 0, 0, 0}})).ok());
  QueryResult result = network.ExecuteQuery(u, 1, Variant::kFTPM);
  ASSERT_EQ(result.skyline.size(), 1u);
  EXPECT_EQ(SortedIds(result.skyline.points),
            SortedIds(network.GroundTruthSkyline(u)));
  EXPECT_EQ(network.total_points(), 29u * 20u + 1u);

  // The old peer id is gone; the replacement got a fresh one.
  EXPECT_EQ(network.ReplacePeerData(4, PointSet(4, {{1, 1, 1, 1}})).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace skypeer
