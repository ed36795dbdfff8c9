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
  PointSet dominator(4, {{0, 0, 0, 0}});
  {
    PointSet with_id(4);
    with_id.Append(dominator[0], 9999);
    sp.AddPeerList(1, ExtendedSkyline(with_id));
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

TEST(SuperPeerUnit, ScanRecallNeedsAnIdenticalFilter) {
  // Memo scan entries outlive their query, so one can meet a later scan
  // with the same subspace and threshold but another broadcast filter.
  // That scan must run afresh; one whose filter is equal, even in another
  // list, recalls the entry.
  SuperPeer sp(0, 4, WireModel{});
  sp.AddPeerList(0, MakeExt(4, 200, 3, 0));
  sp.FinalizePreprocessing();
  const Subspace u = Subspace::FromDims({0, 1});
  const double inf = std::numeric_limits<double>::infinity();
  const auto filter_at = [](double coord) {
    ResultList filter(4);
    const std::vector<double> row(4, coord);
    filter.points.Append(row.data(), 1'000'000);
    filter.f.push_back(coord);
    return std::make_shared<const ResultList>(std::move(filter));
  };

  sp.StageLocalScan(u, Variant::kFTPM, inf);
  const std::shared_ptr<const ResultList> unfiltered = sp.StagedLocal();
  ASSERT_FALSE(unfiltered->empty());
  // The origin dominates every generated point; 2.0 dominates none.
  sp.StageLocalScan(u, Variant::kFTPM, inf, filter_at(0.0));
  EXPECT_TRUE(sp.StagedLocal()->empty());
  sp.StageLocalScan(u, Variant::kFTPM, inf, filter_at(2.0));
  const std::shared_ptr<const ResultList> inert = sp.StagedLocal();
  EXPECT_EQ(inert->points.Ids(), unfiltered->points.Ids());
  EXPECT_NE(inert, unfiltered);
  EXPECT_EQ(sp.ScanMemoCount(), 3u);

  sp.StageLocalScan(u, Variant::kFTPM, inf, filter_at(2.0));
  EXPECT_EQ(sp.StagedLocal(), inert);
  EXPECT_EQ(sp.ScanMemoCount(), 3u);
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
