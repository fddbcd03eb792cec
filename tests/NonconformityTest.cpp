//===- tests/NonconformityTest.cpp - scorer and calibration tests -------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CalibrationStore.h"
#include "core/DriftMetrics.h"
#include "core/Nonconformity.h"
#include "support/Rng.h"
#include "tests/StoreTestHelpers.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace prom;
using prom::testing::enginePValues;

//===----------------------------------------------------------------------===//
// Classification scorers
//===----------------------------------------------------------------------===//

TEST(LacTest, KnownValues) {
  LacScorer S;
  EXPECT_DOUBLE_EQ(S.score({0.7, 0.2, 0.1}, 0), 0.3);
  EXPECT_DOUBLE_EQ(S.score({0.7, 0.2, 0.1}, 2), 0.9);
}

TEST(LacTest, HigherForLessLikelyLabels) {
  LacScorer S;
  std::vector<double> P = {0.5, 0.3, 0.2};
  EXPECT_LT(S.score(P, 0), S.score(P, 1));
  EXPECT_LT(S.score(P, 1), S.score(P, 2));
}

TEST(TopKTest, OneHotGivesHardRank) {
  TopKScorer S;
  // On (near) one-hot distributions the soft rank equals the hard rank.
  EXPECT_NEAR(S.score({1.0, 0.0, 0.0}, 0), 1.0, 1e-9);
  EXPECT_NEAR(S.score({0.0, 1.0, 0.0}, 0), 2.0, 1.0);
}

TEST(TopKTest, FlatDistributionRaisesArgmaxRank) {
  TopKScorer S;
  double Sharp = S.score({0.98, 0.01, 0.01}, 0);
  double Flat = S.score({0.34, 0.33, 0.33}, 0);
  EXPECT_LT(Sharp, 1.1);
  EXPECT_GT(Flat, 2.5); // ~3 for a uniform 3-class distribution.
}

TEST(TopKTest, MonotoneInLabelProbability) {
  TopKScorer S;
  std::vector<double> P = {0.5, 0.3, 0.2};
  EXPECT_LT(S.score(P, 0), S.score(P, 1));
  EXPECT_LT(S.score(P, 1), S.score(P, 2));
}

TEST(ApsTest, HalfInclusionOfLabelMass) {
  ApsScorer S;
  // Top label: mass above = 0, plus half its own mass.
  EXPECT_NEAR(S.score({0.8, 0.15, 0.05}, 0), 0.4, 1e-9);
  // Second label: 0.8 above plus half of 0.15.
  EXPECT_NEAR(S.score({0.8, 0.15, 0.05}, 1), 0.875, 1e-9);
  // Third label: 0.95 above plus half of 0.05.
  EXPECT_NEAR(S.score({0.8, 0.15, 0.05}, 2), 0.975, 1e-9);
}

TEST(ApsTest, ConfidentModelDoesNotSaturate) {
  ApsScorer S;
  // The u=0.5 variant keeps calibration scores away from the degenerate
  // all-ties-at-1.0 regime for confident models.
  EXPECT_NEAR(S.score({1.0, 0.0, 0.0}, 0), 0.5, 1e-9);
}

TEST(RapsTest, PenaltyAboveApsForUncertainLabels) {
  ApsScorer Aps;
  RapsScorer Raps;
  std::vector<double> Flat = {0.34, 0.33, 0.33};
  EXPECT_GT(Raps.score(Flat, 0), Aps.score(Flat, 0));
  // Sharp argmax: soft rank ~1 < kReg, no penalty.
  std::vector<double> Sharp = {0.98, 0.01, 0.01};
  EXPECT_NEAR(Raps.score(Sharp, 0), Aps.score(Sharp, 0), 1e-6);
}

TEST(ApsRapsTest, ScoreAllMatchesPerLabelScoreOnTieHeavyVectors) {
  // The rank-from-one-sort scoreAll() must reproduce labelRank()'s
  // deterministic index tie-break bit for bit — stress it with repeated
  // probabilities and random vectors of several widths.
  ApsScorer Aps;
  RapsScorer Raps;
  support::Rng R(4242);
  std::vector<std::vector<double>> Cases = {
      {0.25, 0.25, 0.25, 0.25},
      {0.4, 0.2, 0.2, 0.2},
      {0.2, 0.2, 0.4, 0.2},
      {0.5, 0.5},
      {1.0},
  };
  for (int Trial = 0; Trial < 20; ++Trial) {
    size_t C = 2 + static_cast<size_t>(Trial % 7);
    std::vector<double> P(C);
    double Sum = 0.0;
    for (double &V : P) {
      // Quantized draws make exact ties likely.
      V = std::floor(R.uniform(0.0, 5.0)) + 0.5;
      Sum += V;
    }
    for (double &V : P)
      V /= Sum;
    Cases.push_back(P);
  }
  for (const std::vector<double> &P : Cases) {
    std::vector<double> AllAps(P.size()), AllRaps(P.size());
    Aps.scoreAll(P, AllAps.data());
    Raps.scoreAll(P, AllRaps.data());
    for (size_t L = 0; L < P.size(); ++L) {
      EXPECT_DOUBLE_EQ(AllAps[L], Aps.score(P, static_cast<int>(L)));
      EXPECT_DOUBLE_EQ(AllRaps[L], Raps.score(P, static_cast<int>(L)));
    }
  }
}

TEST(DefaultScorersTest, FourExpertsWithExpectedNames) {
  auto Scorers = defaultClassificationScorers();
  ASSERT_EQ(Scorers.size(), 4u);
  EXPECT_EQ(Scorers[0]->name(), "LAC");
  EXPECT_EQ(Scorers[1]->name(), "TopK");
  EXPECT_EQ(Scorers[2]->name(), "APS");
  EXPECT_EQ(Scorers[3]->name(), "RAPS");
}

//===----------------------------------------------------------------------===//
// Regression scorers
//===----------------------------------------------------------------------===//

TEST(RegressionScorersTest, ResidualFamilies) {
  RegressionScoreInput In;
  In.Prediction = 3.0;
  In.ApproxTarget = 1.0;
  In.KnnTargetSpread = 2.0;
  In.KnnMeanDistance = 7.0;
  In.ResidualIqr = 4.0;

  EXPECT_DOUBLE_EQ(AbsoluteResidualScorer().score(In), 2.0);
  EXPECT_NEAR(KnnNormalizedResidualScorer().score(In), 1.0, 1e-5);
  EXPECT_NEAR(IqrScaledResidualScorer().score(In), 0.5, 1e-5);
  EXPECT_DOUBLE_EQ(FeatureDistanceScorer().score(In), 7.0);
}

TEST(RegressionScorersTest, ZeroScaleIsSafe) {
  RegressionScoreInput In;
  In.Prediction = 1.0;
  In.ApproxTarget = 0.0;
  In.KnnTargetSpread = 0.0;
  In.ResidualIqr = 0.0;
  EXPECT_TRUE(std::isfinite(KnnNormalizedResidualScorer().score(In)));
  EXPECT_TRUE(std::isfinite(IqrScaledResidualScorer().score(In)));
}

TEST(RegressionScorersTest, DefaultCommittee) {
  auto Scorers = defaultRegressionScorers();
  ASSERT_EQ(Scorers.size(), 4u);
  EXPECT_EQ(Scorers[3]->name(), "FeatDist");
}

//===----------------------------------------------------------------------===//
// Calibration selection and p-values
//===----------------------------------------------------------------------===//

namespace {

/// Calibration set with entries at x = 0..N-1 (1-D), label = Labels[i],
/// single expert score = Scores[i].
CalibrationStore makeCalib(const std::vector<int> &Labels,
                            const std::vector<double> &Scores) {
  CalibrationStore Calib;
  for (size_t I = 0; I < Labels.size(); ++I) {
    CalibrationEntry E;
    E.Embed = {static_cast<double>(I)};
    E.Label = Labels[I];
    E.Scores = {Scores[I]};
    Calib.add(std::move(E));
  }
  Calib.finalize();
  return Calib;
}

/// The engine's selection for the 1-D test embedding \p X.
AssessmentScratch engineSelect(const CalibrationStore &Calib, double X,
                               const PromConfig &Cfg) {
  AssessmentScratch S;
  Calib.selectForAssessment(&X, Cfg, S);
  return S;
}

/// Ids of the entries \p S selected, ascending.
std::vector<size_t> selectedIds(const AssessmentScratch &S) {
  std::vector<size_t> Ids;
  for (size_t I = 0; I < S.Dists.size(); ++I)
    if (S.selected(I))
      Ids.push_back(I);
  return Ids;
}

/// The scores 0, 1, ..., N-1: each entry's score is its id.
std::vector<double> idScores(size_t N) {
  std::vector<double> Scores(N);
  for (size_t I = 0; I < N; ++I)
    Scores[I] = static_cast<double>(I);
  return Scores;
}

/// Each entry's share of the selected Eq. (1) weight for the 1-D test
/// embedding \p X, as the engine's p-value fold applies it, on a
/// one-label store scored by idScores(). Unsmoothed, p(t) is the selected
/// weight at scores >= t over the total, so p(J) - p(J + 1) is entry J's
/// share (0 when it is not selected).
std::vector<double> engineWeightShares(const CalibrationStore &Calib,
                                       double X, PromConfig Cfg) {
  Cfg.SmoothedPValues = false;
  std::vector<double> Share(Calib.size());
  double AtLeast = enginePValues(Calib, X, {0.0}, Cfg)[0];
  for (size_t J = 0; J < Share.size(); ++J) {
    double Above =
        enginePValues(Calib, X, {static_cast<double>(J + 1)}, Cfg)[0];
    Share[J] = AtLeast - Above;
    AtLeast = Above;
  }
  return Share;
}

} // namespace

TEST(CalibrationTest, SelectAllBelowThreshold) {
  CalibrationStore Calib = makeCalib({0, 0, 0, 0}, {1, 2, 3, 4});
  PromConfig Cfg;
  Cfg.SelectAllBelow = 200;
  AssessmentScratch S = engineSelect(Calib, 0.0, Cfg);
  EXPECT_EQ(selectedIds(S).size(), 4u); // Fewer than 200: keep all.
}

TEST(CalibrationTest, SelectsNearestFraction) {
  std::vector<int> Labels(300, 0);
  CalibrationStore Calib = makeCalib(Labels, idScores(300));
  PromConfig Cfg;
  Cfg.SelectFraction = 0.5;
  Cfg.SelectAllBelow = 200;
  AssessmentScratch S = engineSelect(Calib, 0.0, Cfg);
  std::vector<size_t> Ids = selectedIds(S);
  EXPECT_EQ(Ids.size(), 150u);
  // The nearest entries are those with the smallest ids (x = index).
  for (size_t Idx : Ids)
    EXPECT_LT(Idx, 150u);
  // The closest entry is selected and carries the largest weight.
  ASSERT_TRUE(S.selected(0));
  std::vector<double> Share = engineWeightShares(Calib, 0.0, Cfg);
  for (size_t Idx : Ids)
    EXPECT_GE(Share[0], Share[Idx]) << "entry " << Idx;
}

TEST(CalibrationTest, WeightsDecayWithDistance) {
  std::vector<int> Labels(300, 0);
  CalibrationStore Calib = makeCalib(Labels, idScores(300));
  PromConfig Cfg;
  Cfg.AutoTau = false;
  Cfg.Tau = 50.0;
  std::vector<size_t> Ids = selectedIds(engineSelect(Calib, 0.0, Cfg));
  ASSERT_GE(Ids.size(), 2u);
  // x = index, so the smallest selected id is the closest entry and the
  // largest the farthest.
  std::vector<double> Share = engineWeightShares(Calib, 0.0, Cfg);
  EXPECT_GT(Share[Ids.front()], Share[Ids.back()]);
  // Eq. (2) sees the weights only up to a common scale, and the closest
  // entry's is the unit: at Tau 50 the next one keeps ~1 of it.
  EXPECT_NEAR(Share[Ids[1]] / Share[Ids.front()], 1.0, 0.05);
}

TEST(CalibrationTest, NoneModeGivesUnitWeights) {
  CalibrationStore Calib = makeCalib({0, 0, 0}, idScores(3));
  PromConfig Cfg;
  Cfg.WeightMode = CalibrationWeightMode::None;
  std::vector<size_t> Ids = selectedIds(engineSelect(Calib, 0.0, Cfg));
  std::vector<double> Share = engineWeightShares(Calib, 0.0, Cfg);
  for (size_t Idx : Ids)
    EXPECT_DOUBLE_EQ(Share[Idx], 1.0 / static_cast<double>(Ids.size()));
}

TEST(CalibrationTest, PValueCountsGreaterEqual) {
  // Scores 1..5 for label 0; test score 3 -> 3 of 5 calibration scores are
  // >= 3; smoothed p = (3+1)/(5+1).
  CalibrationStore Calib = makeCalib({0, 0, 0, 0, 0}, {1, 2, 3, 4, 5});
  PromConfig Cfg;
  Cfg.WeightMode = CalibrationWeightMode::None;
  std::vector<double> P = enginePValues(Calib, 2.0, {3.0}, Cfg);
  EXPECT_NEAR(P[0], 4.0 / 6.0, 1e-12);
}

TEST(CalibrationTest, PValueUnsmoothed) {
  CalibrationStore Calib = makeCalib({0, 0, 0, 0, 0}, {1, 2, 3, 4, 5});
  PromConfig Cfg;
  Cfg.WeightMode = CalibrationWeightMode::None;
  Cfg.SmoothedPValues = false;
  std::vector<double> P = enginePValues(Calib, 2.0, {3.0}, Cfg);
  EXPECT_NEAR(P[0], 3.0 / 5.0, 1e-12);
}

TEST(CalibrationTest, ClassConditionalCounting) {
  // Two labels with very different score scales.
  CalibrationStore Calib =
      makeCalib({0, 0, 1, 1}, {0.1, 0.2, 10.0, 20.0});
  PromConfig Cfg;
  Cfg.WeightMode = CalibrationWeightMode::None;
  std::vector<double> P = enginePValues(Calib, 0.0, {0.15, 15.0}, Cfg);
  EXPECT_NEAR(P[0], (1.0 + 1.0) / 3.0, 1e-12); // One of two >= 0.15.
  EXPECT_NEAR(P[1], (1.0 + 1.0) / 3.0, 1e-12); // One of two >= 15.
}

TEST(CalibrationTest, MissingLabelGetsZeroPValue) {
  CalibrationStore Calib = makeCalib({0, 0}, {1.0, 2.0});
  PromConfig Cfg;
  std::vector<double> P = enginePValues(Calib, 0.0, {1.0, 1.0}, Cfg);
  EXPECT_DOUBLE_EQ(P[1], 0.0); // No label-1 calibration evidence.
}

TEST(CalibrationTest, AllZeroWeightLabelGetsZeroPValue) {
  // Label 0 sits within 0.04 of the test point and label 1 near distance
  // 10. At Tau 1e-3 every label-1 weight has an Eq. (1) exponent near
  // 10^4 and rounds to +0, so label 1 has selected entries but no weight:
  // its smoothed p must be 0, not 0/0.
  CalibrationStore Calib;
  const double Xs[] = {0.0, 0.01, 0.02, 0.04, 10.0, 10.01, 10.02, 10.04};
  for (size_t I = 0; I < 8; ++I) {
    CalibrationEntry E;
    E.Embed = {Xs[I]};
    E.Label = I < 4 ? 0 : 1;
    E.Scores = {0.5};
    Calib.add(std::move(E));
  }
  Calib.finalize();
  PromConfig Cfg;
  Cfg.AutoTau = false;
  Cfg.Tau = 1e-3;
  Cfg.SelectAllBelow = 1000;
  ASSERT_TRUE(Cfg.SmoothedPValues);
  std::vector<double> P = enginePValues(Calib, 0.0, {0.1, 0.1}, Cfg);
  EXPECT_EQ(P[0], 1.0);
  EXPECT_EQ(P[1], 0.0);
}

TEST(CalibrationTest, ScoreScalingShrinksDistantEvidence) {
  // With score scaling, a distant test point sees all calibration scores
  // shrunk, so a moderate test score tops them -> low p-value. Near test
  // points keep weights ~1 and the same score stays conforming.
  std::vector<int> Labels(50, 0);
  std::vector<double> Scores(50, 1.0);
  CalibrationStore Calib = makeCalib(Labels, Scores);
  PromConfig Cfg;
  Cfg.WeightMode = CalibrationWeightMode::ScoreScaling;
  Cfg.AutoTau = false;
  Cfg.Tau = 200.0;

  std::vector<double> PNear = enginePValues(Calib, 0.0, {0.7}, Cfg);
  std::vector<double> PFar = enginePValues(Calib, 500.0, {0.7}, Cfg);
  EXPECT_GT(PNear[0], 0.9);
  EXPECT_LT(PFar[0], 0.1);
}

TEST(CalibrationTest, DiscreteFallbackPreservesTies) {
  // Discrete scores (all equal): ScoreScaling would flip every tie, the
  // discrete fallback keeps them.
  std::vector<int> Labels(50, 0);
  std::vector<double> Scores(50, 1.0);
  CalibrationStore Calib = makeCalib(Labels, Scores);
  PromConfig Cfg;
  Cfg.WeightMode = CalibrationWeightMode::ScoreScaling;
  std::vector<double> P =
      enginePValues(Calib, 25.0, {1.0}, Cfg, /*DiscreteScores=*/true);
  EXPECT_GT(P[0], 0.9);
}

TEST(CalibrationTest, FinalizeComputesDistanceScale) {
  CalibrationStore Calib = makeCalib({0, 0, 0}, {1, 2, 3});
  EXPECT_NEAR(Calib.medianNNDist(), 1.0, 1e-9); // Unit-spaced 1-D points.
}

//===----------------------------------------------------------------------===//
// Confidence function (Sec. 5.3) — also Figure 13(c)'s closed form.
//===----------------------------------------------------------------------===//

TEST(ConfidenceTest, PeaksAtSingleton) {
  EXPECT_DOUBLE_EQ(confidenceFromSetSize(1, 3.0), 1.0);
  EXPECT_LT(confidenceFromSetSize(0, 3.0), 1.0);
  EXPECT_LT(confidenceFromSetSize(2, 3.0), 1.0);
}

TEST(ConfidenceTest, SymmetricAroundOne) {
  EXPECT_DOUBLE_EQ(confidenceFromSetSize(0, 2.0),
                   confidenceFromSetSize(2, 2.0));
}

TEST(ConfidenceTest, MonotoneDecreasingAwayFromOne) {
  for (size_t Size = 1; Size < 6; ++Size)
    EXPECT_GT(confidenceFromSetSize(Size, 3.0),
              confidenceFromSetSize(Size + 1, 3.0));
}

TEST(ConfidenceTest, LargerScaleIsMoreTolerant) {
  EXPECT_LT(confidenceFromSetSize(4, 1.0), confidenceFromSetSize(4, 4.0));
}

TEST(ConfidenceTest, KnownGaussianValue) {
  // exp(-(3-1)^2 / (2*3^2)) = exp(-4/18).
  EXPECT_NEAR(confidenceFromSetSize(3, 3.0), std::exp(-4.0 / 18.0), 1e-12);
}

//===----------------------------------------------------------------------===//
// DetectionCounts
//===----------------------------------------------------------------------===//

TEST(DetectionCountsTest, RecordRoutesToQuadrants) {
  DetectionCounts C;
  C.record(true, true);   // TP
  C.record(true, false);  // FN
  C.record(false, true);  // FP
  C.record(false, false); // TN
  EXPECT_EQ(C.TruePositive, 1u);
  EXPECT_EQ(C.FalseNegative, 1u);
  EXPECT_EQ(C.FalsePositive, 1u);
  EXPECT_EQ(C.TrueNegative, 1u);
  EXPECT_DOUBLE_EQ(C.accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(C.precision(), 0.5);
  EXPECT_DOUBLE_EQ(C.recall(), 0.5);
  EXPECT_DOUBLE_EQ(C.f1(), 0.5);
  EXPECT_DOUBLE_EQ(C.falsePositiveRate(), 0.5);
  EXPECT_DOUBLE_EQ(C.falseNegativeRate(), 0.5);
}

TEST(DetectionCountsTest, PerfectDetector) {
  DetectionCounts C;
  for (int I = 0; I < 10; ++I) {
    C.record(true, true);
    C.record(false, false);
  }
  EXPECT_DOUBLE_EQ(C.f1(), 1.0);
  EXPECT_DOUBLE_EQ(C.falsePositiveRate(), 0.0);
}

TEST(DetectionCountsTest, DegenerateDenominators) {
  DetectionCounts C;
  C.record(false, false);
  EXPECT_DOUBLE_EQ(C.precision(), 1.0); // No rejections.
  EXPECT_DOUBLE_EQ(C.recall(), 1.0);    // No mispredictions.
  EXPECT_DOUBLE_EQ(C.falseNegativeRate(), 0.0);
}

TEST(DetectionCountsTest, MergeAccumulates) {
  DetectionCounts A, B;
  A.record(true, true);
  B.record(false, true);
  A.merge(B);
  EXPECT_EQ(A.TruePositive, 1u);
  EXPECT_EQ(A.FalsePositive, 1u);
  EXPECT_EQ(A.total(), 2u);
}
