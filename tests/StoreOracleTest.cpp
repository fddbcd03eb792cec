//===- tests/StoreOracleTest.cpp - the store against the serial oracle --------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The CalibrationStore's selection and canonical block fold must land the
// verdicts of the serial oracle of tests/SerialOracle.h — exact
// floating-point equality on every expert score. Covers a store of many
// accumulation blocks under weighted partial and unweighted full
// selections, the regressor, the flat-storage scan, and the selection's
// order at a tie between rooted distances.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "data/Split.h"
#include "ml/Linear.h"
#include "ml/Mlp.h"
#include "support/Kernels.h"
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

/// A calibration set spanning more than 8 accumulation blocks, so the fold
/// adds many block partials.
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

TEST(StoreOracleTest, WeightedPathMatchesOracleAcrossBlocks) {
  BigBlobFixture &F = fixture();
  ASSERT_GT(F.Calib.size(), 8u * 256u);

  PromClassifier Prom(F.Model);
  Prom.calibrate(F.Calib);
  std::vector<Verdict> V = Prom.assessBatch(F.Test);
  for (size_t I = 0; I < F.Test.size(); I += 7)
    expectSameVerdict(oracleAssess(Prom, F.Test[I]), V[I], I);
}

TEST(StoreOracleTest, UnweightedFullSelectionMatchesOracleAcrossBlocks) {
  BigBlobFixture &F = fixture();

  // Unweighted counting over the full selection: the configuration of the
  // naive-CP baselines.
  PromConfig Cfg;
  Cfg.WeightMode = CalibrationWeightMode::None;
  Cfg.SelectAllBelow = 1u << 20;
  PromClassifier Prom(F.Model, Cfg);
  Prom.calibrate(F.Calib);

  for (size_t I = 0; I < F.Test.size(); I += 9)
    expectSameVerdict(oracleAssess(Prom, F.Test[I]), Prom.assess(F.Test[I]),
                      I);
}

TEST(StoreOracleTest, FeatureMatrixScanMatchesPerRowVectorScan) {
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

TEST(StoreOracleTest, SelectionOrdersBySquaredDistanceBits) {
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

TEST(StoreOracleTest, RegressorMatchesOracle) {
  support::Rng R(77);
  data::Dataset Train = linearRegression(400, 0.1, R);
  data::Dataset Calib = linearRegression(1200, 0.1, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);

  PromConfig Cfg;
  Cfg.FixedClusters = 4;
  support::Rng CalR(5);
  PromRegressor Prom(Model, Cfg);
  Prom.calibrate(Calib, CalR);

  data::Dataset Test("reg-mixed", 0);
  for (int I = 0; I < 90; ++I) {
    data::Sample S;
    double Lo = I % 3 == 0 ? 5.0 : -2.0, Hi = I % 3 == 0 ? 9.0 : 2.0;
    S.Features = {R.uniform(Lo, Hi), R.uniform(Lo, Hi)};
    S.Target = 2.0 * S.Features[0] - S.Features[1];
    Test.add(std::move(S));
  }

  std::vector<RegressionVerdict> V = Prom.assessBatch(Test);
  ASSERT_EQ(V.size(), Test.size());
  for (size_t I = 0; I < V.size(); ++I)
    expectSameRegressionVerdict(oracleAssess(Prom, Test[I]), V[I], I);
}
