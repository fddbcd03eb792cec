//===- tests/CalibrationStoreTest.cpp - store shape and footprint -------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The columnar store holds every calibration value once: one embedding
// row, one label and one score per expert per entry, plus one derived
// cluster index. These tests pin that shape: the footprint stays within
// 1.05x of the raw payload after finalize, after a snapshot load and after
// a bounded refresh, and the config-derived policy builds cluster indexes
// only when the configured selection can route to them. A calibration row
// with a NaN feature stays out of the distance scale and leaves the pruned
// selection and the nearest-rows query equal to the exact ones, for
// ordinary queries and a NaN query, and the nearest-rows query keeps a
// stale-tail bound's tie with a lower id.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "ml/HostModel.h"
#include "tests/StoreTestHelpers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

using namespace prom;
using prom::testing::bits;
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
  EXPECT_FALSE(Finalized(PromConfig()).indexed());

  PromConfig Narrow;
  Narrow.SelectFraction = 0.2;
  CalibrationStore Indexed = Finalized(Narrow);
  EXPECT_TRUE(Indexed.indexed());
  EXPECT_EQ(Indexed.unindexedEntries(), 0u);
}

TEST(CalibrationStoreTest, MedianNNDistLeavesNonFiniteRowsOut) {
  // 100 entries, so the median samples the whole set: with the NaN row
  // left out, it must equal the median of the set without that row.
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  for (size_t Pos : {0u, 7u}) {
    SCOPED_TRACE("NaN row " + std::to_string(Pos));
    support::Rng R(31);
    std::vector<CalibrationEntry> Entries =
        makeEntries(100, Dim, NumLabels, NumExperts, R);
    Entries[Pos].Embed[3] = NaN;
    CalibrationStore WithNaN = prom::testing::referenceStore(Entries);
    Entries.erase(Entries.begin() + static_cast<long>(Pos));
    CalibrationStore Without = prom::testing::referenceStore(Entries);
    EXPECT_TRUE(std::isfinite(WithNaN.medianNNDist()));
    EXPECT_EQ(bits(WithNaN.medianNNDist()), bits(Without.medianNNDist()));
  }

  // No row with a finite neighbour: the scale falls back to 1.
  support::Rng R(32);
  std::vector<CalibrationEntry> Entries =
      makeEntries(10, Dim, NumLabels, NumExperts, R);
  for (CalibrationEntry &E : Entries)
    E.Embed[0] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(prom::testing::referenceStore(Entries).medianNNDist(), 1.0);
}

TEST(CalibrationStoreTest, PrunedSelectionMatchesExactWithANaNRow) {
  support::Rng R(37);
  std::vector<CalibrationEntry> Entries =
      makeEntries(3000, Dim, NumLabels, NumExperts, R);
  Entries[1234].Embed[0] = std::numeric_limits<double>::quiet_NaN();
  PromConfig Cfg;
  Cfg.SelectFraction = 0.1;
  ClusterIndexPolicy Policy = ClusterIndexPolicy::fromConfig(Cfg);
  Policy.MinEntries = 1024; // The 3000-entry store gets an index.
  CalibrationStore Pruned, Exact;
  for (const CalibrationEntry &E : Entries) {
    Pruned.add(E);
    Exact.add(E);
  }
  Pruned.setIndexPolicy(Policy);
  Pruned.finalize();
  Exact.finalize();
  ASSERT_TRUE(Pruned.indexed());
  ASSERT_FALSE(Exact.indexed());

  std::vector<std::vector<double>> Queries;
  for (size_t Q = 0; Q < 6; ++Q) {
    std::vector<double> Query(Dim);
    for (double &X : Query)
      X = R.gaussian(0.0, 2.0);
    Queries.push_back(Query);
  }
  Queries.push_back(Entries[1234].Embed); // The NaN row: a NaN query.
  std::vector<double> TestScores(NumExperts * NumLabels);
  for (size_t QI = 0; QI < Queries.size(); ++QI) {
    SCOPED_TRACE("query " + std::to_string(QI));
    const std::vector<double> &Query = Queries[QI];
    AssessmentScratch SP, SE;
    Pruned.selectForAssessment(Query.data(), Cfg, SP);
    Exact.selectForAssessment(Query.data(), Cfg, SE);
    EXPECT_NE(SP.Pruned.ListsTotal, 0u) << "the pruned scan must serve";
    EXPECT_EQ(SE.Pruned.ListsTotal, 0u);
    EXPECT_EQ(SP.Cut, SE.Cut);
    for (size_t I = 0; I < Entries.size(); ++I) {
      ASSERT_EQ(SP.selected(I), SE.selected(I)) << "entry " << I;
      if (SE.selected(I)) {
        EXPECT_EQ(bits(SP.Dists[I]), bits(SE.Dists[I])) << "entry " << I;
      }
    }
    for (double &T : TestScores)
      T = R.uniform(0.0, 1.0);
    std::vector<double> PP(TestScores.size()), PE(TestScores.size());
    Pruned.pValuesAllExperts(SP, TestScores.data(), NumLabels, Cfg, nullptr,
                             PP.data());
    Exact.pValuesAllExperts(SE, TestScores.data(), NumLabels, Cfg, nullptr,
                            PE.data());
    for (size_t C = 0; C < PP.size(); ++C)
      EXPECT_EQ(bits(PP[C]), bits(PE[C])) << "cell " << C;

    for (size_t K : {size_t(1), size_t(4), size_t(300), Entries.size()}) {
      prom::testing::expectNearestRowsMatchExactScan(Pruned, Query.data(), K);
      prom::testing::expectNearestRowsMatchExactScan(Exact, Query.data(), K);
    }
  }
}

TEST(CalibrationStoreTest, NearestRowsKeepsTailKeysThatTieTheBound) {
  // ClusterIndexTest.FilterKeepsKeysThatTieTheBound with its near group in
  // the stale tail, which the walk scans before any list. Around a query
  // at the origin, the tail's 2K + 8 rows (x_r, 0), x_r = 5 + r/8, arrive
  // in the rank order K..2K-1, 0..K-1, then the rest, so the tail's scan
  // leaves the bound at rank K - 1. Indexed row 0 at (0, x_{K-1}) ties it
  // exactly with a lower id, so it is the K-th neighbour; the other
  // indexed rows lie further up the y axis than any tail row.
  auto X = [](size_t Rank) { return 5.0 + static_cast<double>(Rank) / 8.0; };
  auto Entry = [](double A, double B) {
    CalibrationEntry E;
    E.Embed = {A, B};
    E.Scores = {0.5};
    return E;
  };
  for (size_t K : {size_t(1), size_t(3), size_t(8)}) {
    SCOPED_TRACE("K " + std::to_string(K));
    CalibrationStore Store;
    Store.add(Entry(0.0, X(K - 1)));
    for (size_t I = 1; I < 64; ++I)
      Store.add(Entry(0.0, 9.0 + static_cast<double>(I) / 4.0));
    ClusterIndexPolicy Policy;
    Policy.Enabled = true;
    Policy.MinEntries = 1;
    Policy.NumCentroids = 2;
    Policy.MaxStaleFraction = 0.5;
    Store.setIndexPolicy(Policy);
    Store.finalize();
    std::vector<CalibrationEntry> Tail;
    for (size_t I = 0; I < 2 * K + 8; ++I)
      Tail.push_back(Entry(X(I < K ? K + I : I < 2 * K ? I - K : I), 0.0));
    Store.appendEntries(std::move(Tail));
    Store.refinalize();
    ASSERT_TRUE(Store.indexed());
    ASSERT_EQ(Store.unindexedEntries(), 2 * K + 8);

    std::vector<double> Query(2, 0.0);
    AssessmentScratch S;
    Store.nearestRows(Query.data(), K, S);
    ASSERT_EQ(S.Candidates.size(), K);
    EXPECT_EQ(S.Candidates[K - 1].second, 0u);
    prom::testing::expectNearestRowsMatchExactScan(Store, Query.data(), K);
  }
}
