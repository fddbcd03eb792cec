//===- tests/ShardedStoreTest.cpp - shard-count invariance --------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The sharded CalibrationStore must be a pure work-partitioning
// transformation: for any shard count, verdicts are bit-identical to the
// unsharded (K=1) path and to the serial oracle of tests/SerialOracle.h —
// exact floating-point equality on every expert score. Covers the
// block-partial merge under weighted partial and unweighted full
// selections, the regressor, reshard(), and the selection's order at a
// tie between rooted distances.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "data/Split.h"
#include "ml/Linear.h"
#include "ml/Mlp.h"
#include "support/Kernels.h"
#include "support/ThreadPool.h"
#include "tests/SerialOracle.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <cassert>
#include <cmath>
#include <limits>

using namespace prom;
using prom::testing::expectSameRegressionVerdict;
using prom::testing::expectSameVerdict;
using prom::testing::gaussianBlobs;
using prom::testing::linearRegression;
using prom::testing::oracleAssess;

namespace {

void expectSameVerdicts(const std::vector<Verdict> &A,
                        const std::vector<Verdict> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    expectSameVerdict(A[I], B[I], I);
}

/// A calibration set spanning several accumulation blocks (> 2048 entries
/// would be 8 blocks; this gives at least 8) so K=8 builds real shards.
struct BigBlobFixture {
  support::Rng R{321};
  data::Dataset Train, Calib, Test;
  ml::LogisticRegression Model;

  BigBlobFixture() {
    data::Dataset Full = gaussianBlobs(3, 900, 4.0, 0.9, R);
    auto Split = data::calibrationPartition(Full, R, 0.8,
                                            /*MaxCalibration=*/4000);
    Train = std::move(Split.first);
    Calib = std::move(Split.second);
    assert(Calib.size() > 8 * 256 && "fixture must span > 8 accum blocks");
    Model.fit(Train, R);
    Test = gaussianBlobs(3, 40, 4.0, 0.9, R);
    // Mix in novel far-out points so drift flags actually fire.
    for (int I = 0; I < 40; ++I) {
      data::Sample Novel;
      Novel.Features = {R.gaussian(0.0, 0.6), R.gaussian(0.0, 0.6)};
      Novel.Label = 0;
      Test.add(std::move(Novel));
    }
  }
};

BigBlobFixture &fixture() {
  static BigBlobFixture F;
  return F;
}

} // namespace

TEST(ShardedStoreTest, WeightedPathShardCountInvariant) {
  BigBlobFixture &F = fixture();
  // > 8 accumulation blocks, so K=8 builds genuinely multi-block shards.
  ASSERT_GT(F.Calib.size(), 8u * 256u);

  PromConfig C1;
  C1.NumShards = 1;
  PromClassifier P1(F.Model, C1);
  P1.calibrate(F.Calib);
  ASSERT_EQ(P1.numShards(), 1u);

  PromConfig C8 = C1;
  C8.NumShards = 8;
  PromClassifier P8(F.Model, C8);
  P8.calibrate(F.Calib);
  ASSERT_GE(P8.numShards(), 2u);

  std::vector<Verdict> V1 = P1.assessBatch(F.Test);
  std::vector<Verdict> V8 = P8.assessBatch(F.Test);
  expectSameVerdicts(V1, V8);

  // Both must also match the per-sample serial oracle.
  for (size_t I = 0; I < F.Test.size(); I += 7)
    expectSameVerdict(oracleAssess(P8, F.Test[I]), V8[I], I);
}

TEST(ShardedStoreTest, UnweightedFullSelectionShardCountInvariant) {
  BigBlobFixture &F = fixture();

  // Unweighted counting over the full selection: the configuration of the
  // naive-CP baselines.
  PromConfig Base;
  Base.WeightMode = CalibrationWeightMode::None;
  Base.SelectAllBelow = 1u << 20;

  PromConfig C1 = Base;
  C1.NumShards = 1;
  PromConfig C8 = Base;
  C8.NumShards = 8;
  PromClassifier P1(F.Model, C1), P8(F.Model, C8);
  P1.calibrate(F.Calib);
  P8.calibrate(F.Calib);
  ASSERT_GE(P8.numShards(), 2u);

  expectSameVerdicts(P1.assessBatch(F.Test), P8.assessBatch(F.Test));
  for (size_t I = 0; I < F.Test.size(); I += 9)
    expectSameVerdict(oracleAssess(P8, F.Test[I]), P8.assess(F.Test[I]), I);
}

TEST(ShardedStoreTest, ReshardLeavesVerdictsUnchanged) {
  BigBlobFixture &F = fixture();

  PromClassifier Prom(F.Model);
  Prom.calibrate(F.Calib);
  std::vector<Verdict> Before = Prom.assessBatch(F.Test);

  for (size_t K : {8u, 3u, 1u, 16u}) {
    Prom.reshard(K);
    SCOPED_TRACE("K=" + std::to_string(K));
    expectSameVerdicts(Before, Prom.assessBatch(F.Test));
  }
}

TEST(ShardedStoreTest, AutoShardCountUsesPoolLanes) {
  BigBlobFixture &F = fixture();

  PromConfig Auto;
  Auto.NumShards = 0; // One shard per ThreadPool lane.
  PromClassifier Prom(F.Model, Auto);
  Prom.calibrate(F.Calib);
  size_t Lanes = support::ThreadPool::global().numThreads();
  EXPECT_LE(Prom.numShards(), std::max<size_t>(Lanes, 1));
  EXPECT_GE(Prom.numShards(), 1u);

  PromConfig One;
  One.NumShards = 1;
  PromClassifier Ref(F.Model, One);
  Ref.calibrate(F.Calib);
  // NumShards differs between the configs, but it is the only difference
  // and must not affect a single bit of the verdicts.
  expectSameVerdicts(Ref.assessBatch(F.Test), Prom.assessBatch(F.Test));
}

TEST(ShardedStoreTest, FeatureMatrixScanMatchesPerRowVectorScan) {
  // Property check of the flat-storage refactor: the squared distances the
  // FeatureMatrix-backed store streams out of its contiguous block must
  // be bit-identical to scanning the original per-row entry vectors (the
  // pre-refactor vector<vector<double>> path) with the same kernel — so
  // moving the storage cannot change a single verdict. The selection cut
  // over those distances must match the serial oracle's selected set, and
  // the p-values its weights give must match the oracle's, including when
  // several entries share the cut distance and only the id tie-break
  // decides.
  using prom::testing::bits;
  auto Check = [](const char *Tag, const std::vector<CalibrationEntry> &Entries,
                  const std::vector<std::vector<double>> &Queries,
                  bool TiesAtCut) {
    CalibrationStore Scores;
    for (const CalibrationEntry &E : Entries)
      Scores.add(E);
    Scores.finalize();
    size_t Dim = Entries.front().Embed.size();
    for (double Fraction : {0.5, 0.1})
      for (CalibrationWeightMode Mode : {CalibrationWeightMode::WeightedCount,
                                         CalibrationWeightMode::None}) {
        SCOPED_TRACE(std::string(Tag) + " fraction " +
                     std::to_string(Fraction) + " mode " +
                     std::to_string(static_cast<int>(Mode)));
        PromConfig Cfg;
        Cfg.SelectFraction = Fraction;
        Cfg.WeightMode = Mode;
        AssessmentScratch S;
        for (const std::vector<double> &Query : Queries) {
          Scores.selectForAssessment(Query.data(), Cfg, S);
          ASSERT_EQ(S.Dists.size(), Entries.size());
          size_t Selected = 0;
          bool UnselectedAtCut = false;
          for (size_t I = 0; I < Entries.size(); ++I) {
            double PerRow = support::kernels::l2Sq(Entries[I].Embed.data(),
                                                   Query.data(), Dim);
            ASSERT_EQ(bits(S.Dists[I]), bits(PerRow)) << "entry " << I;
            Selected += S.selected(I) ? 1 : 0;
            UnselectedAtCut |=
                !S.selected(I) && bits(S.Dists[I]) == S.Cut.first;
          }
          prom::testing::OracleSelection Sel =
              prom::testing::oracleSelect(Scores, Query.data(), Cfg);
          ASSERT_EQ(Sel.Indices.size(), S.Keep);
          ASSERT_EQ(Selected, S.Keep);
          for (size_t Pos = 0; Pos < Sel.Indices.size(); ++Pos)
            EXPECT_TRUE(S.selected(Sel.Indices[Pos]));
          // The fold weights the selection inline, so its weights show in
          // the p-values.
          const std::vector<double> TestScores = {0.3, 0.5, 0.7};
          std::vector<double> P(TestScores.size());
          Scores.pValuesAllExperts(S, TestScores.data(), TestScores.size(),
                                   Cfg, /*DiscreteFlags=*/nullptr, P.data());
          std::vector<double> OracleP = prom::testing::oraclePValues(
              Scores, Sel, 0, TestScores, Cfg, /*DiscreteScores=*/false);
          for (size_t L = 0; L < P.size(); ++L)
            EXPECT_EQ(bits(P[L]), bits(OracleP[L])) << "label " << L;
          // The tie fixtures must keep their ties at the cut, or they
          // would silently stop testing the tie-break.
          if (TiesAtCut) {
            EXPECT_TRUE(UnselectedAtCut);
          }
        }
      }
  };

  support::Rng R(99);
  std::vector<CalibrationEntry> Gaussian, Grid, Equal;
  std::vector<std::vector<double>> GaussianQueries, GridQueries;
  size_t Dim = 7; // Odd width: every row exercises the kernel tail.
  for (size_t I = 0; I < 700; ++I) {
    CalibrationEntry E;
    for (size_t D = 0; D < Dim; ++D)
      E.Embed.push_back(R.gaussian(0.0, 2.0));
    E.Label = static_cast<int>(I % 3);
    E.Scores = {R.uniform(0.0, 1.0)};
    Gaussian.push_back(E);
    // Every {0,1,2}^2 grid point holds about 78 entries.
    E.Embed = {static_cast<double>(I % 3), static_cast<double>(I / 3 % 3)};
    Grid.push_back(E);
    // One embedding for all: every key ties on its distance.
    E.Embed = {0.5, -1.0, 2.0};
    Equal.push_back(E);
  }
  for (int Q = 0; Q < 5; ++Q) {
    std::vector<double> Query;
    for (size_t D = 0; D < Dim; ++D)
      Query.push_back(R.gaussian(0.0, 2.0));
    GaussianQueries.push_back(Query);
  }
  for (int X = 0; X < 3; ++X)
    for (int Y = 0; Y < 3; ++Y)
      GridQueries.push_back({static_cast<double>(X), static_cast<double>(Y)});

  Check("gaussian", Gaussian, GaussianQueries, /*TiesAtCut=*/false);
  Check("grid", Grid, GridQueries, /*TiesAtCut=*/true);
  Check("equal", Equal, {{0.5, -1.0, 2.0}, {1.0, 1.0, 1.0}},
        /*TiesAtCut=*/true);
}

TEST(ShardedStoreTest, SelectionOrdersBySquaredDistanceBits) {
  // Two squared distances one ulp apart can round to the same root: from
  // the origin, ids 1 and 2 sit at squared distances 0x3ff7d70a3d70a3d8
  // and 0x3ff7d70a3d70a3d7 with equal roots. The selection ranks the
  // squared distance, so a Keep of 2 takes ids {0, 2}; ranking the root
  // with an id tie-break would take {0, 1}. Their scores differ, so taking
  // the wrong one moves the p-value as well.
  using prom::testing::bits;
  const double Up =
      std::nextafter(0.7, std::numeric_limits<double>::infinity());
  std::vector<CalibrationEntry> Entries = {{{0.0, 0.1}, 0, {0.5}},
                                           {{1.0, Up}, 0, {0.9}},
                                           {{1.0, 0.7}, 0, {0.1}},
                                           {{5.0, 5.0}, 0, {0.3}}};
  CalibrationStore Store;
  for (const CalibrationEntry &E : Entries)
    Store.add(E);
  Store.finalize();
  const double Query[2] = {0.0, 0.0};
  double D1 = support::kernels::l2Sq(Entries[1].Embed.data(), Query, 2);
  double D2 = support::kernels::l2Sq(Entries[2].Embed.data(), Query, 2);
  ASSERT_EQ(bits(D1), 0x3ff7d70a3d70a3d8ull);
  ASSERT_EQ(bits(D2), 0x3ff7d70a3d70a3d7ull);
  ASSERT_EQ(bits(std::sqrt(D1)), bits(std::sqrt(D2)));

  PromConfig Cfg;
  Cfg.SelectAllBelow = 0;
  Cfg.SelectFraction = 0.5;
  AssessmentScratch S;
  Store.selectForAssessment(Query, Cfg, S);
  ASSERT_EQ(S.Keep, 2u);
  prom::testing::OracleSelection Sel =
      prom::testing::oracleSelect(Store, Query, Cfg);
  EXPECT_EQ(Sel.Indices, (std::vector<size_t>{0, 2}));
  for (size_t I = 0; I < Entries.size(); ++I)
    EXPECT_EQ(S.selected(I), I == 0 || I == 2) << "entry " << I;

  const std::vector<double> TestScores = {0.4};
  double Engine = 0.0;
  Store.pValuesAllExperts(S, TestScores.data(), 1, Cfg,
                          /*DiscreteFlags=*/nullptr, &Engine);
  std::vector<double> Oracle = prom::testing::oraclePValues(
      Store, Sel, 0, TestScores, Cfg, /*DiscreteScores=*/false);
  EXPECT_EQ(bits(Engine), bits(Oracle[0]));
}

TEST(ShardedStoreTest, RegressorShardCountInvariant) {
  support::Rng R(77);
  data::Dataset Train = linearRegression(400, 0.1, R);
  data::Dataset Calib = linearRegression(1200, 0.1, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);

  PromConfig C1;
  C1.FixedClusters = 4;
  C1.NumShards = 1;
  PromConfig C8 = C1;
  C8.NumShards = 8;

  // Identical RNG streams so clustering matches between the two.
  support::Rng R1(5), R8(5);
  PromRegressor P1(Model, C1), P8(Model, C8);
  P1.calibrate(Calib, R1);
  P8.calibrate(Calib, R8);
  ASSERT_GE(P8.numShards(), 2u);

  data::Dataset Test("reg-mixed", 0);
  for (int I = 0; I < 90; ++I) {
    data::Sample S;
    double Lo = I % 3 == 0 ? 5.0 : -2.0, Hi = I % 3 == 0 ? 9.0 : 2.0;
    S.Features = {R.uniform(Lo, Hi), R.uniform(Lo, Hi)};
    S.Target = 2.0 * S.Features[0] - S.Features[1];
    Test.add(std::move(S));
  }

  std::vector<RegressionVerdict> V1 = P1.assessBatch(Test);
  std::vector<RegressionVerdict> V8 = P8.assessBatch(Test);
  ASSERT_EQ(V1.size(), V8.size());
  for (size_t I = 0; I < V1.size(); ++I)
    expectSameRegressionVerdict(V1[I], V8[I], I);
}
