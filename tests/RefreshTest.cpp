//===- tests/RefreshTest.cpp - online calibration refresh ---------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The online-refresh contract: after appendEntries() + refinalize() —
// with or without oldest-first eviction — a CalibrationStore behaves
// bit-identically to a brand-new store finalized on the surviving union
// of entries, for every shard count, under both weighted partial and
// unweighted full selections. At the detector level,
// refreshCalibration(Incremental=true) must produce verdicts bit-equal
// to the full-rebuild reference path. CMake registers this suite at
// PROM_THREADS=1 and PROM_THREADS=4, so the contract is enforced across
// thread counts as well. Every detector writer (calibrate, refresh,
// reshard) publishes one calibration generation with one atomic swap, so
// a batch assessed concurrently with any of them reads exactly one
// generation; the concurrency cases run in the TSan leg as well.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "data/Split.h"
#include "ml/Knn.h"
#include "ml/Linear.h"
#include "tests/StoreTestHelpers.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

using namespace prom;
using prom::testing::bits;
using prom::testing::expectSameRegressionVerdict;
using prom::testing::expectSameVerdict;
using prom::testing::gaussianBlobs;
using prom::testing::linearRegression;

using prom::testing::expectBothRegimesMatch;
using prom::testing::makeEntries;
using prom::testing::referenceStore;

TEST(RefreshTest, AppendOnlyRefreshMatchesFromScratch) {
  // Three staggered refreshes — a single entry, a batch that introduces a
  // brand-new label (bucket growth on every shard), and a multi-block
  // batch — each compared against a from-scratch finalize of the union.
  for (size_t K : {size_t(1), size_t(8)}) {
    SCOPED_TRACE("K=" + std::to_string(K));
    support::Rng R(1234);
    std::vector<CalibrationEntry> All = makeEntries(1500, 7, 3, 2, R);

    CalibrationStore Live;
    for (const CalibrationEntry &E : All)
      Live.add(E);
    Live.finalize(K);

    size_t Step = 0;
    for (size_t BatchSize : {size_t(1), size_t(200), size_t(300)}) {
      std::vector<CalibrationEntry> Fresh =
          makeEntries(BatchSize, 7, Step == 1 ? 4 : 3, 2, R);
      All.insert(All.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalize();
      CalibrationStore Ref = referenceStore(All, K);
      expectBothRegimesMatch(Live, Ref, 77 + Step,
                             ("refresh " + std::to_string(Step)).c_str());
      ++Step;
    }
  }
}

TEST(RefreshTest, BoundedStoreEvictsOldestAndMatchesFromScratch) {
  for (size_t K : {size_t(1), size_t(8)}) {
    SCOPED_TRACE("K=" + std::to_string(K));
    support::Rng R(555);
    std::vector<CalibrationEntry> All = makeEntries(1500, 5, 3, 2, R);

    CalibrationStore Live;
    for (const CalibrationEntry &E : All)
      Live.add(E);
    Live.finalize(K);
    Live.setMaxEntries(1600);

    std::vector<CalibrationEntry> Fresh = makeEntries(400, 5, 3, 2, R);
    All.insert(All.end(), Fresh.begin(), Fresh.end());
    Live.appendEntries(std::move(Fresh));
    Live.refinalize();
    EXPECT_EQ(Live.size(), 1600u);

    // Oldest-first: the survivors are the union minus its 300-entry prefix.
    std::vector<CalibrationEntry> Survivors(All.begin() + 300, All.end());
    CalibrationStore Ref = referenceStore(Survivors, K);
    expectBothRegimesMatch(Live, Ref, 91, "evicted");

    // A second bounded refresh on the already-evicted store.
    Fresh = makeEntries(256, 5, 3, 2, R);
    Survivors.insert(Survivors.end(), Fresh.begin(), Fresh.end());
    Live.appendEntries(std::move(Fresh));
    Live.refinalize();
    Survivors.erase(Survivors.begin(), Survivors.begin() + 256);
    CalibrationStore Ref2 = referenceStore(Survivors, K);
    expectBothRegimesMatch(Live, Ref2, 92, "evicted-again");
  }
}

TEST(RefreshTest, SmallStoreRefreshRecomputesDistanceScale) {
  // Below the 256-entry median-NN sample window, an append changes the
  // window — the refreshed distance scale must match a fresh finalize.
  support::Rng R(31);
  std::vector<CalibrationEntry> All = makeEntries(100, 4, 2, 2, R);
  CalibrationStore Live;
  for (const CalibrationEntry &E : All)
    Live.add(E);
  Live.finalize(1);

  std::vector<CalibrationEntry> Fresh = makeEntries(80, 4, 2, 2, R);
  All.insert(All.end(), Fresh.begin(), Fresh.end());
  Live.appendEntries(std::move(Fresh));
  Live.refinalize();

  CalibrationStore Ref = referenceStore(All, 1);
  expectBothRegimesMatch(Live, Ref, 13, "small-store");
}

TEST(RefreshTest, RefreshLargerThanBoundFallsBackToRebuild) {
  // The staged batch alone exceeds the bound: eviction swallows the whole
  // indexed prefix and refinalize() must take the full-rebuild fallback —
  // still landing bit-identical to the from-scratch reference.
  support::Rng R(417);
  std::vector<CalibrationEntry> All = makeEntries(150, 4, 3, 2, R);
  CalibrationStore Live;
  for (const CalibrationEntry &E : All)
    Live.add(E);
  Live.finalize(4);
  Live.setMaxEntries(100);

  std::vector<CalibrationEntry> Fresh = makeEntries(200, 4, 3, 2, R);
  All.insert(All.end(), Fresh.begin(), Fresh.end());
  Live.appendEntries(std::move(Fresh));
  Live.refinalize();
  EXPECT_EQ(Live.size(), 100u);

  std::vector<CalibrationEntry> Survivors(All.begin() + 250, All.end());
  CalibrationStore Ref = referenceStore(Survivors, 4);
  expectBothRegimesMatch(Live, Ref, 29, "degenerate-eviction");
}

TEST(RefreshTest, ManySmallRefreshesStayExactAcrossRebalances) {
  // Ten block-sized refreshes against an 8-shard store: the last shard
  // absorbs new blocks and periodically rebalances; every intermediate
  // state must match a from-scratch build (layout independence).
  support::Rng R(808);
  std::vector<CalibrationEntry> All = makeEntries(2560, 6, 3, 2, R);
  CalibrationStore Live;
  for (const CalibrationEntry &E : All)
    Live.add(E);
  Live.finalize(8);
  ASSERT_GE(Live.numShards(), 2u);

  for (int Round = 0; Round < 10; ++Round) {
    std::vector<CalibrationEntry> Fresh = makeEntries(256, 6, 3, 2, R);
    All.insert(All.end(), Fresh.begin(), Fresh.end());
    Live.appendEntries(std::move(Fresh));
    Live.refinalize();
    if (Round % 3 == 2) { // Full compare every few rounds (cost).
      CalibrationStore Ref = referenceStore(All, 8);
      expectBothRegimesMatch(Live, Ref, 300 + Round,
                             ("round " + std::to_string(Round)).c_str());
    }
  }
  // The partition must have rebalanced rather than degenerating into one
  // ever-growing tail shard.
  EXPECT_GE(Live.numShards(), 4u);
}

TEST(RefreshTest, DetectorRefreshMatchesFullRebuildReference) {
  support::Rng R(63);
  data::Dataset Full = gaussianBlobs(3, 400, 4.0, 0.8, R);
  auto Split = data::calibrationPartition(Full, R, 0.6);
  data::Dataset Train = std::move(Split.first);
  data::Dataset Calib = std::move(Split.second);
  ml::LogisticRegression Model;
  Model.fit(Train, R);

  PromConfig Cfg;
  Cfg.NumShards = 4;
  Cfg.MaxCalibEntries = Calib.size() + 40; // The second refresh evicts.
  PromClassifier Incremental(Model, Cfg);
  PromClassifier Reference(Model, Cfg);
  Incremental.calibrate(Calib);
  Reference.calibrate(Calib);

  data::Dataset Probes = gaussianBlobs(3, 60, 4.0, 0.8, R);
  std::vector<Verdict> Before = Incremental.assessBatch(Probes);

  // Two refresh rounds: append-only, then one that trips the bound.
  for (int Round = 0; Round < 2; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    data::Dataset Relabeled = gaussianBlobs(3, 30, 4.0, 0.8, R);
    size_t SizeInc = Incremental.refreshCalibration(Relabeled,
                                                    /*Incremental=*/true);
    size_t SizeRef = Reference.refreshCalibration(Relabeled,
                                                  /*Incremental=*/false);
    EXPECT_EQ(SizeInc, SizeRef);
    EXPECT_LE(SizeInc, Cfg.MaxCalibEntries);

    std::vector<Verdict> VInc = Incremental.assessBatch(Probes);
    std::vector<Verdict> VRef = Reference.assessBatch(Probes);
    ASSERT_EQ(VInc.size(), VRef.size());
    for (size_t I = 0; I < VInc.size(); ++I)
      expectSameVerdict(VInc[I], VRef[I], I);
    // The refreshed store must also agree with the per-sample serial
    // oracle (flat select + per-expert p-value scans).
    for (size_t I = 0; I < Probes.size(); I += 11)
      expectSameVerdict(Incremental.assessSerial(Probes[I]), VInc[I], I);
  }

  // Sanity: the refresh actually changed the calibration evidence.
  EXPECT_EQ(Incremental.calibrationSize(), Calib.size() + 40);
  std::vector<Verdict> After = Incremental.assessBatch(Probes);
  bool AnyChanged = false;
  for (size_t I = 0; I < Probes.size() && !AnyChanged; ++I)
    for (size_t E = 0; E < After[I].Experts.size() && !AnyChanged; ++E)
      AnyChanged = After[I].Experts[E].Credibility !=
                   Before[I].Experts[E].Credibility;
  EXPECT_TRUE(AnyChanged);
}

TEST(RefreshTest, ClusterIndexSurvivesRefreshLifecycle) {
  // The per-shard cluster indexes are derived state riding along the
  // refresh lifecycle: small appends leave a stale (exactly scanned)
  // tail, a large enough tail triggers a per-shard rebuild, and
  // eviction / rebalance / reshard invalidate the indexes wholesale.
  // After every mutation the pruned store must still match a from-scratch
  // exact-scan reference bit for bit.
  for (size_t K : {size_t(1), size_t(4)}) {
    SCOPED_TRACE("K=" + std::to_string(K));
    support::Rng R(4321);
    std::vector<CalibrationEntry> All = makeEntries(2000, 6, 3, 2, R);

    CalibrationStore Live;
    for (const CalibrationEntry &E : All)
      Live.add(E);
    ClusterIndexPolicy Policy;
    Policy.Enabled = true;
    Policy.MinEntries = 64;
    Policy.MaxStaleFraction = 0.25;
    Policy.MaxSelectFraction = 1.0; // Keep the 50% default-config
                                    // selection on the pruned path.
    Live.setIndexPolicy(Policy);
    Live.finalize(K);
    ASSERT_GT(Live.indexedShards(), 0u);
    EXPECT_EQ(Live.unindexedEntries(), 0u);

    // Small append: the tail stays under the staleness bound, so the
    // last shard's index is kept and the new rows are scanned exactly.
    std::vector<CalibrationEntry> Fresh = makeEntries(64, 6, 3, 2, R);
    All.insert(All.end(), Fresh.begin(), Fresh.end());
    Live.appendEntries(std::move(Fresh));
    Live.refinalize();
    EXPECT_GT(Live.unindexedEntries(), 0u);
    expectBothRegimesMatch(Live, referenceStore(All, K), 301, "stale-tail");

    // Pile on appends until the tail crosses MaxStaleFraction (or the
    // partition rebalances): the affected index must rebuild — covered
    // rows catch back up with the shard.
    for (int Step = 0; Step < 6; ++Step) {
      Fresh = makeEntries(256, 6, 3, 2, R);
      All.insert(All.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalize();
    }
    EXPECT_LE(static_cast<double>(Live.unindexedEntries()),
              Policy.MaxStaleFraction * static_cast<double>(Live.size()));
    expectBothRegimesMatch(Live, referenceStore(All, K), 302,
                           "rebuilt-after-staleness");

    // Eviction re-blocks every entry: indexes rebuild wholesale and the
    // store still matches the reference on the survivors.
    Live.setMaxEntries(2048);
    Fresh = makeEntries(400, 6, 3, 2, R);
    All.insert(All.end(), Fresh.begin(), Fresh.end());
    Live.appendEntries(std::move(Fresh));
    Live.refinalize();
    All.erase(All.begin(),
              All.begin() + static_cast<long>(All.size() - 2048));
    ASSERT_EQ(Live.size(), 2048u);
    EXPECT_GT(Live.indexedShards(), 0u);
    expectBothRegimesMatch(Live, referenceStore(All, K), 303, "evicted");

    // Reshard moves every boundary; indexes follow the new partition.
    Live.reshard(K == 1 ? 4 : 1);
    EXPECT_GT(Live.indexedShards(), 0u);
    expectBothRegimesMatch(Live, referenceStore(All, K == 1 ? 4 : 1), 304,
                           "resharded");

    // Disabling the policy drops every index and falls back to the exact
    // scan; re-enabling restores pruned serving. Bit-identical both ways.
    ClusterIndexPolicy Off;
    Live.setIndexPolicy(Off);
    EXPECT_EQ(Live.indexedShards(), 0u);
    EXPECT_EQ(Live.unindexedEntries(), Live.size());
    expectBothRegimesMatch(Live, referenceStore(All, K == 1 ? 4 : 1), 305,
                           "policy-off");
    Live.setIndexPolicy(Policy);
    EXPECT_GT(Live.indexedShards(), 0u);
    EXPECT_EQ(Live.unindexedEntries(), 0u);
    expectBothRegimesMatch(Live, referenceStore(All, K == 1 ? 4 : 1), 306,
                           "policy-back-on");
  }
}

TEST(RefreshTest, EmptyRefreshIsANoop) {
  support::Rng R(7);
  data::Dataset Full = gaussianBlobs(2, 120, 4.0, 0.8, R);
  auto Split = data::calibrationPartition(Full, R, 0.5);
  ml::LogisticRegression Model;
  Model.fit(Split.first, R);
  PromClassifier Prom(Model);
  Prom.calibrate(Split.second);

  data::Dataset Probes = gaussianBlobs(2, 20, 4.0, 0.8, R);
  std::vector<Verdict> Before = Prom.assessBatch(Probes);
  EXPECT_EQ(Prom.refreshCalibration(data::Dataset()), Split.second.size());
  std::vector<Verdict> After = Prom.assessBatch(Probes);
  for (size_t I = 0; I < Probes.size(); ++I)
    expectSameVerdict(Before[I], After[I], I);
}

TEST(RefreshTest, ConcurrentCalibrateNeverSplitsABatch) {
  // A writer alternates calibrate() between two sets whose fitted
  // temperatures differ; every concurrently assessed batch must equal the
  // reference verdicts of exactly one of them, bit for bit — never one
  // set's store scored with the other set's temperature.
  support::Rng R(2024);
  data::Dataset Full = gaussianBlobs(3, 200, 4.0, 0.8, R);
  auto Split = data::calibrationPartition(Full, R, 0.5);
  ml::LogisticRegression Model;
  Model.fit(Split.first, R);
  data::Dataset CalibA = Split.second;
  data::Dataset CalibB = CalibA; // Random labels: a much softer fit.
  for (size_t I = 0; I < CalibB.size(); ++I)
    CalibB[I].Label = R.intIn(0, 2);
  data::Dataset Probes = gaussianBlobs(3, 20, 4.0, 0.8, R);

  PromConfig Cfg;
  Cfg.NumShards = 2;
  PromClassifier Prom(Model, Cfg);
  Prom.calibrate(CalibB);
  double TempB = Prom.temperature();
  std::vector<Verdict> RefB = Prom.assessBatch(Probes);
  Prom.calibrate(CalibA);
  double TempA = Prom.temperature();
  std::vector<Verdict> RefA = Prom.assessBatch(Probes);
  ASSERT_NE(TempA, TempB) << "the two sets must fit different temperatures";

  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    for (int Round = 0; !Done.load(); ++Round)
      Prom.calibrate(Round % 2 == 0 ? CalibB : CalibA);
  });
  for (size_t Batch = 0; Batch < 40; ++Batch) {
    std::vector<Verdict> Got = Prom.assessBatch(Probes);
    // The softened probabilities identify the temperature the batch read;
    // everything else must then match that generation's reference.
    bool IsB = prom::testing::bits(Got[0].Probabilities[0]) ==
               prom::testing::bits(RefB[0].Probabilities[0]);
    const std::vector<Verdict> &Ref = IsB ? RefB : RefA;
    SCOPED_TRACE("batch " + std::to_string(Batch));
    EXPECT_EQ(Got.size(), Ref.size());
    for (size_t I = 0; I < Got.size() && I < Ref.size(); ++I)
      expectSameVerdict(Got[I], Ref[I], I);
    if (HasFailure())
      break; // One mixed batch is enough.
  }
  Done = true;
  Writer.join();
}

TEST(RefreshTest, ConcurrentRegressorReshardLeavesVerdictsUnchanged) {
  // reshard() publishes a re-partitioned copy of the live generation, so
  // batches assessed while a writer alternates between 1 and 8 shards all
  // equal the reference bit for bit.
  support::Rng R(77);
  data::Dataset Train = linearRegression(300, 0.1, R);
  data::Dataset Calib = linearRegression(1200, 0.1, R);
  ml::KnnRegressor Model;
  Model.fit(Train, R);
  PromConfig Cfg;
  Cfg.FixedClusters = 4;
  Cfg.NumShards = 1;
  PromRegressor Prom(Model, Cfg);
  support::Rng CalR(5);
  Prom.calibrate(Calib, CalR);
  data::Dataset Probes = linearRegression(60, 0.1, R);
  std::vector<RegressionVerdict> Ref = Prom.assessBatch(Probes);
  Prom.reshard(8);
  ASSERT_GE(Prom.numShards(), 2u) << "the store must span several shards";

  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    for (int Round = 0; !Done.load(); ++Round)
      Prom.reshard(Round % 2 == 0 ? 1 : 8);
  });
  for (size_t Batch = 0; Batch < 100; ++Batch) {
    std::vector<RegressionVerdict> Got = Prom.assessBatch(Probes);
    SCOPED_TRACE("batch " + std::to_string(Batch));
    EXPECT_EQ(Got.size(), Ref.size());
    for (size_t I = 0; I < Got.size() && I < Ref.size(); ++I)
      expectSameRegressionVerdict(Got[I], Ref[I], I);
    if (HasFailure())
      break;
  }
  Done = true;
  Writer.join();
}
