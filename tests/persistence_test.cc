// Tests of store snapshots: save a preprocessed network, restore into a
// fresh one, and verify identical query answers; plus error paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/persistence.h"

namespace skypeer {
namespace {

std::vector<PointId> SortedIds(const PointSet& points) {
  std::vector<PointId> ids = points.Ids();
  std::sort(ids.begin(), ids.end());
  return ids;
}

NetworkConfig Config(uint64_t seed) {
  NetworkConfig config;
  config.num_peers = 50;
  config.num_super_peers = 10;
  config.points_per_peer = 40;
  config.dims = 5;
  config.seed = seed;
  return config;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Persistence, RoundTripPreservesAnswers) {
  const std::string path = TempPath("stores_roundtrip.bin");
  NetworkConfig config = Config(1);

  SkypeerNetwork original(config);
  original.Preprocess();
  ASSERT_TRUE(SaveStores(original, path).ok());

  SkypeerNetwork restored(config);
  ASSERT_FALSE(restored.preprocessed());
  ASSERT_TRUE(LoadStores(&restored, path).ok());
  EXPECT_TRUE(restored.preprocessed());

  // Stores are byte-identical in content.
  for (int sp = 0; sp < original.num_super_peers(); ++sp) {
    EXPECT_EQ(SortedIds(restored.super_peer(sp).store().points),
              SortedIds(original.super_peer(sp).store().points));
  }

  const auto tasks = GenerateWorkload(5, 3, 6, original.num_super_peers(), 7);
  for (const QueryTask& task : tasks) {
    for (Variant variant : {Variant::kFTPM, Variant::kNaive}) {
      const auto a = SortedIds(
          original.ExecuteQuery(task.subspace, task.initiator_sp, variant)
              .skyline.points);
      const auto b = SortedIds(
          restored.ExecuteQuery(task.subspace, task.initiator_sp, variant)
              .skyline.points);
      EXPECT_EQ(a, b);
    }
  }
  std::remove(path.c_str());
}

TEST(Persistence, SaveRequiresPreprocessedNetwork) {
  SkypeerNetwork network(Config(2));
  EXPECT_EQ(SaveStores(network, TempPath("never_written.bin")).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Persistence, LoadMissingFileFails) {
  SkypeerNetwork network(Config(3));
  EXPECT_EQ(LoadStores(&network, TempPath("does_not_exist.bin")).code(),
            StatusCode::kNotFound);
}

TEST(Persistence, LoadRejectsShapeMismatch) {
  const std::string path = TempPath("stores_shape.bin");
  NetworkConfig config = Config(4);
  SkypeerNetwork original(config);
  original.Preprocess();
  ASSERT_TRUE(SaveStores(original, path).ok());

  NetworkConfig other_dims = Config(4);
  other_dims.dims = 6;
  SkypeerNetwork wrong_dims(other_dims);
  EXPECT_EQ(LoadStores(&wrong_dims, path).code(),
            StatusCode::kInvalidArgument);

  NetworkConfig other_sp = Config(4);
  other_sp.num_super_peers = 5;
  SkypeerNetwork wrong_sp(other_sp);
  EXPECT_EQ(LoadStores(&wrong_sp, path).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Persistence, LoadRejectsCorruptedFile) {
  const std::string path = TempPath("stores_corrupt.bin");
  NetworkConfig config = Config(5);
  SkypeerNetwork original(config);
  original.Preprocess();
  ASSERT_TRUE(SaveStores(original, path).ok());

  // Truncate the file.
  {
    std::FILE* file = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(file, nullptr);
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fclose(file);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  }
  SkypeerNetwork restored(config);
  EXPECT_FALSE(LoadStores(&restored, path).ok());
  std::remove(path.c_str());
}

// Overwrites the first store's u64 length field of the snapshot at `path`
// (right after the 16-byte header) with `length`.
void PatchFirstStoreLength(const std::string& path, uint64_t length) {
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fseek(file, 16, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&length, sizeof(length), 1, file), 1u);
  std::fclose(file);
}

TEST(Persistence, LoadRejectsHugeLengthWithoutAllocating) {
  const std::string path = TempPath("stores_huge_length.bin");
  NetworkConfig config = Config(8);
  SkypeerNetwork original(config);
  original.Preprocess();
  ASSERT_TRUE(SaveStores(original, path).ok());
  // A valid header followed by a corrupt 2^62-byte length must fail with
  // a status, not abort in the allocator.
  PatchFirstStoreLength(path, uint64_t{1} << 62);
  SkypeerNetwork restored(config);
  const Status status = LoadStores(&restored, path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(restored.preprocessed());
  std::remove(path.c_str());
}

TEST(Persistence, LoadRejectsLengthOneBytePastEof) {
  const std::string path = TempPath("stores_past_eof.bin");
  NetworkConfig config = Config(9);
  SkypeerNetwork original(config);
  original.Preprocess();
  ASSERT_TRUE(SaveStores(original, path).ok());
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  const uint64_t size = static_cast<uint64_t>(std::ftell(file));
  std::fclose(file);
  // Header (16 bytes) and the length field itself (8) precede the payload.
  PatchFirstStoreLength(path, size - 24 + 1);
  SkypeerNetwork restored(config);
  EXPECT_EQ(LoadStores(&restored, path).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(restored.preprocessed());
  std::remove(path.c_str());
}

TEST(Persistence, LoadIntoPreprocessedNetworkFails) {
  const std::string path = TempPath("stores_twice.bin");
  NetworkConfig config = Config(6);
  SkypeerNetwork original(config);
  original.Preprocess();
  ASSERT_TRUE(SaveStores(original, path).ok());
  // `original` is already preprocessed; AdoptStores must refuse.
  EXPECT_EQ(LoadStores(&original, path).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(Persistence, AdoptStoresValidatesInput) {
  SkypeerNetwork network(Config(7));
  std::vector<ResultList> too_few;
  too_few.emplace_back(5);
  EXPECT_EQ(network.AdoptStores(std::move(too_few)).code(),
            StatusCode::kInvalidArgument);

  std::vector<ResultList> wrong_dims;
  for (int i = 0; i < 10; ++i) {
    wrong_dims.emplace_back(4);
  }
  EXPECT_EQ(network.AdoptStores(std::move(wrong_dims)).code(),
            StatusCode::kInvalidArgument);

  std::vector<ResultList> unsorted;
  for (int i = 0; i < 10; ++i) {
    unsorted.emplace_back(5);
  }
  PointSet bad(5, {{0.9, 0.9, 0.9, 0.9, 0.9}, {0.1, 0.1, 0.1, 0.1, 0.1}});
  unsorted[0].points.AppendAll(bad);
  unsorted[0].f = {0.9, 0.1};  // Not sorted.
  EXPECT_EQ(network.AdoptStores(std::move(unsorted)).code(),
            StatusCode::kInvalidArgument);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<ResultList> with_nan;
  for (int i = 0; i < 10; ++i) {
    with_nan.emplace_back(5);
  }
  with_nan[3].points.AppendAll(
      PointSet(5, {{0.1, 0.2, 0.3, 0.4, 0.5}, {0.2, nan, 0.3, 0.4, 0.5}}));
  with_nan[3].f = {0.1, 0.2};  // Sorted, and min over the non-NaN coords.
  EXPECT_EQ(network.AdoptStores(std::move(with_nan)).code(),
            StatusCode::kInvalidArgument);

  std::vector<ResultList> wrong_f;
  for (int i = 0; i < 10; ++i) {
    wrong_f.emplace_back(5);
  }
  wrong_f[6].points.AppendAll(
      PointSet(5, {{0.1, 0.2, 0.3, 0.4, 0.5}, {0.3, 0.4, 0.5, 0.6, 0.7}}));
  wrong_f[6].f = {0.1, 0.35};  // Sorted, but the second f is not 0.3.
  EXPECT_EQ(network.AdoptStores(std::move(wrong_f)).code(),
            StatusCode::kInvalidArgument);

  // Merges deduplicate by point id, so an id may appear once overall.
  std::vector<ResultList> repeated_within;
  for (int i = 0; i < 10; ++i) {
    repeated_within.emplace_back(5);
  }
  const double row_a[5] = {0.1, 0.2, 0.3, 0.4, 0.5};
  const double row_b[5] = {0.3, 0.4, 0.5, 0.6, 0.7};
  repeated_within[2].points.Append(row_a, 7);
  repeated_within[2].points.Append(row_b, 7);
  repeated_within[2].f = {0.1, 0.3};
  EXPECT_EQ(network.AdoptStores(std::move(repeated_within)).code(),
            StatusCode::kInvalidArgument);

  std::vector<ResultList> repeated_across;
  for (int i = 0; i < 10; ++i) {
    repeated_across.emplace_back(5);
  }
  repeated_across[1].points.Append(row_a, 7);
  repeated_across[1].f = {0.1};
  repeated_across[8].points.Append(row_b, 7);
  repeated_across[8].f = {0.3};
  EXPECT_EQ(network.AdoptStores(std::move(repeated_across)).code(),
            StatusCode::kInvalidArgument);

  // A rejected adoption leaves the network unpreprocessed.
  EXPECT_FALSE(network.preprocessed());
}

TEST(Persistence, JoinAfterRestoreDrawsFreshIds) {
  // A restored network knows only the adopted stores, yet a peer joining
  // it must get the peer and point ids the never-saved network would
  // give it. Reused point ids would collide with restored skyline points
  // and be deduplicated away by the merges.
  for (bool reliable : {false, true}) {
    SCOPED_TRACE(reliable ? "reliable" : "legacy");
    const std::string path = TempPath("stores_join_after_restore.bin");
    NetworkConfig config;
    config.num_peers = 40;
    config.num_super_peers = 4;
    config.points_per_peer = 25;
    config.dims = 4;
    config.seed = 5;
    config.dynamic_membership = true;
    config.reliable = reliable;

    SkypeerNetwork original(config);
    original.Preprocess();
    ASSERT_TRUE(SaveStores(original, path).ok());
    SkypeerNetwork restored(config);
    ASSERT_TRUE(LoadStores(&restored, path).ok());
    std::remove(path.c_str());
    const Subspace u = Subspace::FromDims({0, 1});
    const size_t base =
        original.ExecuteQuery(u, 0, Variant::kFTPM).skyline.size();

    // Mutually incomparable on {0, 1}, and below every stored point on
    // dimension 0 but above all of them on the others (the data lies in
    // the unit cube): each joined point is in the skyline, and none
    // dominates a stored point.
    double min_x0 = 1.0;
    for (int sp = 0; sp < original.num_super_peers(); ++sp) {
      const ResultList& store = original.super_peer(sp).store();
      for (size_t i = 0; i < store.size(); ++i) {
        min_x0 = std::min(min_x0, store.points[i][0]);
      }
    }
    ASSERT_GT(min_x0, 0.0);
    PointSet joined(4);
    joined.Reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      const double row[4] = {min_x0 * i / 1000, 3.0 - 1e-3 * i, 2.0, 2.0};
      joined.Append(row, static_cast<PointId>(i));
    }
    const int peer0_sp = original.overlay().peer_super_peer[0];
    int original_peer = -1;
    int restored_peer = -1;
    ASSERT_TRUE(original.JoinPeer(1, joined, &original_peer).ok());
    ASSERT_TRUE(restored.JoinPeer(1, joined, &restored_peer).ok());
    EXPECT_EQ(original_peer, config.num_peers);
    EXPECT_EQ(restored_peer, config.num_peers);
    EXPECT_EQ(restored.overlay().peer_super_peer[0], peer0_sp);

    const QueryResult a = original.ExecuteQuery(u, 0, Variant::kFTPM);
    const QueryResult b = restored.ExecuteQuery(u, 0, Variant::kFTPM);
    EXPECT_EQ(a.skyline.size(), base + 1000);
    EXPECT_EQ(b.skyline.size(), base + 1000);
    EXPECT_EQ(SortedIds(b.skyline.points), SortedIds(a.skyline.points));
  }
}

}  // namespace
}  // namespace skypeer
