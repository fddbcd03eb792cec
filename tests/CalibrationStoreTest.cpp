//===- tests/CalibrationStoreTest.cpp - store shape and footprint -------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The columnar store holds every calibration value once: one embedding
// row, one label and one score per expert per entry, plus derived
// per-shard state. These tests pin that shape: the footprint stays within
// 1.05x of the raw payload after finalize, after a snapshot load and after
// a bounded refresh, and the config-derived policy builds cluster indexes
// only when the configured selection can route to them.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "ml/HostModel.h"
#include "tests/StoreTestHelpers.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace prom;
using prom::testing::makeEntries;

namespace {

constexpr size_t NumEntries = 10000;
constexpr size_t Dim = 16;
constexpr int NumLabels = 6;
constexpr size_t NumExperts = 4; // The default committee's size.

/// Raw payload of one entry: the embedding, one score per expert, and the
/// label.
constexpr double RawBytesPerEntry =
    Dim * sizeof(double) + NumExperts * sizeof(double) + sizeof(int);

double bytesPerEntry(size_t Bytes, size_t Entries) {
  return static_cast<double>(Bytes) / static_cast<double>(Entries);
}

/// \p N host-output samples: a random 6-way probability vector and a
/// 16-d Gaussian embedding each, labels cycling over the classes.
data::Dataset hostSamples(size_t N, support::Rng &R) {
  data::Dataset Out;
  Out.reserve(N);
  std::vector<double> Probs(NumLabels), Embed(Dim);
  for (size_t I = 0; I < N; ++I) {
    double Sum = 0.0;
    for (double &P : Probs) {
      P = R.uniform(0.05, 1.0);
      Sum += P;
    }
    for (double &P : Probs)
      P /= Sum;
    for (double &X : Embed)
      X = R.gaussian(0.0, 1.0);
    Out.add(ml::HostOutputClassifier::pack(
        Probs.data(), Embed.data(), NumLabels, static_cast<int>(Dim),
        static_cast<int>(I % NumLabels)));
  }
  return Out;
}

} // namespace

TEST(CalibrationStoreTest, FinalizedStoreStaysNearRawPayload) {
  support::Rng R(2026);
  CalibrationStore Store;
  for (CalibrationEntry &E :
       makeEntries(NumEntries, Dim, NumLabels, NumExperts, R))
    Store.add(std::move(E));
  Store.setIndexPolicy(ClusterIndexPolicy::fromConfig(PromConfig()));
  Store.finalize();
  ASSERT_EQ(Store.size(), NumEntries);
  EXPECT_EQ(Store.stagedEntries(), 0u);
  EXPECT_LE(bytesPerEntry(Store.memoryBytes(), NumEntries),
            1.05 * RawBytesPerEntry);
}

TEST(CalibrationStoreTest, DetectorStaysNearRawPayloadAcrossLoadAndRefresh) {
  support::Rng R(7);
  ml::HostOutputClassifier Model(NumLabels, static_cast<int>(Dim));
  PromConfig Cfg;
  Cfg.MaxCalibEntries = NumEntries;
  PromClassifier Prom(Model, Cfg);
  ASSERT_EQ(Prom.numExperts(), NumExperts);
  Prom.calibrate(hostSamples(NumEntries, R));
  ASSERT_EQ(Prom.calibrationSize(), NumEntries);
  EXPECT_LE(bytesPerEntry(Prom.memoryBytes(), NumEntries),
            1.05 * RawBytesPerEntry);

  std::string Path = ::testing::TempDir() + "/store_shape.promsnap";
  ASSERT_TRUE(Prom.saveSnapshot(Path));
  PromClassifier Loaded(Model);
  ASSERT_TRUE(Loaded.loadSnapshot(Path));
  std::remove(Path.c_str());
  ASSERT_EQ(Loaded.calibrationSize(), NumEntries);
  EXPECT_LE(bytesPerEntry(Loaded.memoryBytes(), NumEntries),
            1.05 * RawBytesPerEntry)
      << "after a snapshot load";

  // A bounded refresh: 128 rows in, the 128 oldest out.
  EXPECT_EQ(Prom.refreshCalibration(hostSamples(128, R)), NumEntries);
  EXPECT_LE(bytesPerEntry(Prom.memoryBytes(), NumEntries),
            1.05 * RawBytesPerEntry)
      << "after a bounded refresh";
}

TEST(CalibrationStoreTest, ClusterIndexFollowsTheConfiguredSelection) {
  support::Rng R(11);
  std::vector<CalibrationEntry> Entries =
      makeEntries(NumEntries, Dim, NumLabels, NumExperts, R);
  auto Finalized = [&](const PromConfig &Cfg) {
    CalibrationStore Store;
    for (const CalibrationEntry &E : Entries)
      Store.add(E);
    Store.setIndexPolicy(ClusterIndexPolicy::fromConfig(Cfg));
    Store.finalize();
    return Store;
  };

  // The default 50% selection can never route to the pruned scan, so no
  // index is built.
  EXPECT_EQ(Finalized(PromConfig()).indexedShards(), 0u);

  PromConfig Narrow;
  Narrow.SelectFraction = 0.2;
  CalibrationStore Indexed = Finalized(Narrow);
  EXPECT_GT(Indexed.indexedShards(), 0u);
  EXPECT_EQ(Indexed.unindexedEntries(), 0u);

  PromConfig Off = Narrow;
  Off.ClusterIndex = false;
  EXPECT_EQ(Finalized(Off).indexedShards(), 0u);
}
