//===- tests/DetectorTest.cpp - PromClassifier/PromRegressor tests ------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "data/Split.h"
#include "ml/Knn.h"
#include "ml/Linear.h"
#include "ml/Mlp.h"
#include "support/Matrix.h"
#include "support/Rng.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

using namespace prom;
using prom::testing::gaussianBlobs;
using prom::testing::linearRegression;

namespace {

/// Trains a moderately-regularized logistic model (soft probabilities,
/// like the paper's imperfect underlying models) and calibrates PROM.
struct Fixture {
  support::Rng R{1234};
  data::Dataset Train, Calib;
  ml::LogisticRegression Model;

  explicit Fixture(double Sigma = 0.8) {
    ml::LinearConfig Cfg;
    Cfg.Epochs = 30;
    Cfg.WeightDecay = 3e-2;
    Model = ml::LogisticRegression(Cfg);
    data::Dataset Full = gaussianBlobs(3, 250, 4.0, Sigma, R);
    auto Split = data::calibrationPartition(Full, R, 0.2);
    Train = std::move(Split.first);
    Calib = std::move(Split.second);
    Model.fit(Train, R);
  }
};

} // namespace

TEST(PromClassifierTest, AssessBeforeCalibrateAsserts) {
  Fixture F;
  PromClassifier Prom(F.Model);
  EXPECT_FALSE(Prom.isCalibrated());
}

TEST(PromClassifierTest, VerdictShapes) {
  Fixture F;
  PromClassifier Prom(F.Model);
  Prom.calibrate(F.Calib);
  Verdict V = Prom.assess(F.Train[0]);
  EXPECT_EQ(V.Experts.size(), 4u);
  EXPECT_EQ(V.Probabilities.size(), 3u);
  EXPECT_GE(V.Predicted, 0);
  for (const ExpertOpinion &E : V.Experts) {
    EXPECT_GE(E.Credibility, 0.0);
    EXPECT_LE(E.Credibility, 1.0);
    EXPECT_GE(E.Confidence, 0.0);
    EXPECT_LE(E.Confidence, 1.0);
  }
}

TEST(PromClassifierTest, PredictionMatchesUnderlyingModel) {
  Fixture F;
  PromClassifier Prom(F.Model);
  Prom.calibrate(F.Calib);
  for (int I = 0; I < 50; ++I) {
    const data::Sample &S = F.Train[static_cast<size_t>(I)];
    EXPECT_EQ(Prom.assess(S).Predicted, F.Model.predict(S));
  }
}

TEST(PromClassifierTest, LowFalsePositiveRateInDistribution) {
  Fixture F(/*Sigma=*/0.7);
  PromClassifier Prom(F.Model);
  Prom.calibrate(F.Calib);
  size_t FlaggedCorrect = 0, Correct = 0;
  data::Dataset Test = gaussianBlobs(3, 80, 4.0, 0.7, F.R);
  for (const data::Sample &S : Test.samples()) {
    Verdict V = Prom.assess(S);
    if (V.Predicted != S.Label)
      continue;
    ++Correct;
    if (V.Drifted)
      ++FlaggedCorrect;
  }
  ASSERT_GT(Correct, 100u);
  // Paper reports an average false-positive rate below ~14%; allow a
  // generous per-model margin.
  EXPECT_LT(static_cast<double>(FlaggedCorrect) /
                static_cast<double>(Correct),
            0.25);
}

TEST(PromClassifierTest, FlagsNovelPatternMoreThanInDistribution) {
  Fixture F;
  PromClassifier Prom(F.Model);
  Prom.calibrate(F.Calib);

  size_t FlaggedIn = 0, FlaggedNovel = 0;
  const size_t N = 200;
  for (size_t I = 0; I < N; ++I) {
    data::Sample In = gaussianBlobs(3, 1, 4.0, 0.8, F.R)[0];
    if (Prom.assess(In).Drifted)
      ++FlaggedIn;
    // Novel pattern: the empty centre of the class circle.
    data::Sample Novel;
    Novel.Features = {F.R.gaussian(0.0, 0.7), F.R.gaussian(0.0, 0.7)};
    Novel.Label = 0;
    if (Prom.assess(Novel).Drifted)
      ++FlaggedNovel;
  }
  EXPECT_GT(FlaggedNovel, FlaggedIn * 2);
}

TEST(PromClassifierTest, ConfigurableVoteThreshold) {
  Fixture F;
  PromConfig Strict;
  Strict.MinVotesToFlag = 4; // Unanimity.
  PromConfig Loose;
  Loose.MinVotesToFlag = 1; // Any expert.
  PromClassifier PStrict(F.Model, Strict), PLoose(F.Model, Loose);
  PStrict.calibrate(F.Calib);
  PLoose.calibrate(F.Calib);

  size_t StrictFlags = 0, LooseFlags = 0;
  for (int I = 0; I < 100; ++I) {
    data::Sample Novel;
    Novel.Features = {F.R.gaussian(0.0, 1.0), F.R.gaussian(0.0, 1.0)};
    Novel.Label = 0;
    if (PStrict.assess(Novel).Drifted)
      ++StrictFlags;
    if (PLoose.assess(Novel).Drifted)
      ++LooseFlags;
  }
  EXPECT_LE(StrictFlags, LooseFlags);
}

TEST(PromClassifierTest, RecalibrationReflectsNewData) {
  Fixture F;
  PromClassifier Prom(F.Model);
  Prom.calibrate(F.Calib);
  // Recalibrate with a tiny subset: p-values get coarser but stay valid.
  data::Dataset Small = F.Calib.subset({0, 1, 2, 3, 4, 5, 6, 7});
  Prom.calibrate(Small);
  Verdict V = Prom.assess(F.Train[0]);
  EXPECT_EQ(V.Experts.size(), 4u);
}

TEST(PromClassifierTest, CustomCommitteeSize) {
  Fixture F;
  std::vector<std::unique_ptr<ClassificationScorer>> One;
  One.push_back(std::make_unique<LacScorer>());
  PromClassifier Prom(F.Model, std::move(One), PromConfig());
  Prom.calibrate(F.Calib);
  EXPECT_EQ(Prom.numExperts(), 1u);
  EXPECT_EQ(Prom.assess(F.Train[0]).Experts.size(), 1u);
}

//===----------------------------------------------------------------------===//
// CP validity property (parameterized over epsilon): the epsilon-level
// prediction region must cover the true label with probability ~1-epsilon
// on exchangeable data. This is the paper's Eq. (3) guarantee.
//===----------------------------------------------------------------------===//

class CoverageProperty : public ::testing::TestWithParam<double> {};

TEST_P(CoverageProperty, MarginalCoverageNearTarget) {
  double Epsilon = GetParam();
  Fixture F;
  PromConfig Cfg;
  Cfg.Epsilon = Epsilon;
  PromClassifier Prom(F.Model, Cfg);
  Prom.calibrate(F.Calib);

  data::Dataset Test = gaussianBlobs(3, 150, 4.0, 0.8, F.R);
  double Covered = 0.0, Total = 0.0;
  for (const data::Sample &S : Test.samples()) {
    // LAC expert (continuous scores): the canonical coverage check.
    std::vector<double> P = Prom.pValues(S, 0);
    Covered += P[static_cast<size_t>(S.Label)] > Epsilon ? 1.0 : 0.0;
    Total += 1.0;
  }
  double Coverage = Covered / Total;
  EXPECT_NEAR(Coverage, 1.0 - Epsilon, 0.08)
      << "epsilon=" << Epsilon;
}

INSTANTIATE_TEST_SUITE_P(EpsilonSweep, CoverageProperty,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3),
                         [](const ::testing::TestParamInfo<double> &Info) {
                           return "eps" +
                                  std::to_string(
                                      static_cast<int>(Info.param * 100));
                         });

//===----------------------------------------------------------------------===//
// P-value distribution property: on exchangeable data the smoothed LAC
// p-value of the true label should be roughly uniform.
//===----------------------------------------------------------------------===//

TEST(PValueProperty, RoughlyUniformUnderExchangeability) {
  Fixture F;
  PromClassifier Prom(F.Model);
  Prom.calibrate(F.Calib);

  data::Dataset Test = gaussianBlobs(3, 200, 4.0, 0.8, F.R);
  std::vector<double> PVals;
  for (const data::Sample &S : Test.samples())
    PVals.push_back(Prom.pValues(S, 0)[static_cast<size_t>(S.Label)]);

  // Quartile occupancy within generous bounds.
  size_t Buckets[4] = {0, 0, 0, 0};
  for (double P : PVals)
    ++Buckets[std::min<size_t>(3, static_cast<size_t>(P * 4.0))];
  for (size_t B : Buckets) {
    double Frac = static_cast<double>(B) / PVals.size();
    EXPECT_GT(Frac, 0.10);
    EXPECT_LT(Frac, 0.45);
  }
}

namespace {

/// The hard top-k rank of the label: a tie-heavy discrete expert, so the
/// ScoreScaling mode must fall back to weighted counting for it.
class HardTopKScorer : public ClassificationScorer {
public:
  double score(const std::vector<double> &Probs, int Label) const override {
    double P = Probs[static_cast<size_t>(Label)];
    double Rank = 1.0;
    for (size_t C = 0; C < Probs.size(); ++C)
      if (Probs[C] > P || (Probs[C] == P && C < static_cast<size_t>(Label)))
        Rank += 1.0;
    return Rank;
  }
  bool isDiscrete() const override { return true; }
  std::string name() const override { return "HardTopK"; }
};

/// The detector's temperature softening, rebuilt from the public API.
std::vector<double> softened(std::vector<double> Probs, double T) {
  if (T == 1.0)
    return Probs;
  for (double &P : Probs)
    P = std::log(std::max(P, 1e-12)) / T;
  support::softmaxInPlace(Probs);
  return Probs;
}

} // namespace

TEST(PValueProperty, EnginePValuesMatchSerialReferenceBitForBit) {
  // pValues(S, E) runs the batch engine; every p-value bit must equal the
  // serial reference (sorted select() + one linear pValues() scan per
  // expert) on a store rebuilt from the same calibration outputs.
  support::Rng R(4242);
  data::Dataset Full = gaussianBlobs(3, 300, 4.0, 0.9, R);
  auto Split = data::calibrationPartition(Full, R, 0.5);
  ml::LogisticRegression Model;
  Model.fit(Split.first, R);
  const data::Dataset &Calib = Split.second;
  ASSERT_GT(Calib.size(), PromConfig().SelectAllBelow)
      << "the default config must select a proper subset";
  data::Dataset Probes = gaussianBlobs(3, 10, 4.0, 0.9, R);
  for (int I = 0; I < 10; ++I) {
    data::Sample Novel;
    Novel.Features = {R.gaussian(0.0, 0.7), R.gaussian(0.0, 0.7)};
    Novel.Label = 0;
    Probes.add(std::move(Novel));
  }

  PromConfig Weighted; // WeightedCount over the nearest 50%.
  PromConfig Scaled;
  Scaled.WeightMode = CalibrationWeightMode::ScoreScaling;
  PromConfig Unweighted;
  Unweighted.WeightMode = CalibrationWeightMode::None;
  Unweighted.SelectAllBelow = 1u << 20; // Full selection.
  const char *Names[] = {"weighted-count", "score-scaling", "none-full"};
  const PromConfig Configs[] = {Weighted, Scaled, Unweighted};

  for (size_t CI = 0; CI < 3; ++CI) {
    SCOPED_TRACE(Names[CI]);
    const PromConfig &Cfg = Configs[CI];
    std::vector<std::unique_ptr<ClassificationScorer>> Committee =
        defaultClassificationScorers();
    Committee.push_back(std::make_unique<HardTopKScorer>());
    PromClassifier Prom(Model, std::move(Committee), Cfg);
    Prom.calibrate(Calib);

    support::Matrix RawProbs, Embeds;
    Model.predictWithEmbedBatch(Calib, RawProbs, Embeds);
    CalibrationStore Ref;
    for (size_t I = 0; I < Calib.size(); ++I) {
      CalibrationEntry Entry;
      Entry.Embed = Embeds.row(I);
      Entry.Label = Calib[I].Label;
      std::vector<double> P = softened(RawProbs.row(I), Prom.temperature());
      for (size_t E = 0; E < Prom.numExperts(); ++E)
        Entry.Scores.push_back(Prom.scorer(E).score(P, Calib[I].Label));
      Ref.add(std::move(Entry));
    }
    Ref.finalize();

    for (size_t I = 0; I < Probes.size(); ++I) {
      SCOPED_TRACE("probe " + std::to_string(I));
      const data::Sample &S = Probes[I];
      std::vector<double> P =
          softened(Model.predictProba(S), Prom.temperature());
      CalibrationSelection Sel = Ref.select(Model.embed(S), Cfg);
      std::vector<double> TestScores(P.size());
      for (size_t E = 0; E < Prom.numExperts(); ++E) {
        for (size_t C = 0; C < P.size(); ++C)
          TestScores[C] = Prom.scorer(E).score(P, static_cast<int>(C));
        std::vector<double> Expected = Ref.pValues(
            Sel, E, TestScores, Cfg, Prom.scorer(E).isDiscrete());
        std::vector<double> Got = Prom.pValues(S, E);
        ASSERT_EQ(Got.size(), Expected.size());
        for (size_t C = 0; C < Got.size(); ++C)
          EXPECT_EQ(prom::testing::bits(Got[C]),
                    prom::testing::bits(Expected[C]))
              << "expert " << E << " label " << C;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// PromRegressor
//===----------------------------------------------------------------------===//

TEST(PromRegressorTest, VerdictShapesAndClusters) {
  support::Rng R(7);
  data::Dataset Train = linearRegression(400, 0.1, R);
  data::Dataset Calib = linearRegression(150, 0.1, R);
  ml::KnnRegressor Model(5);
  Model.fit(Train, R);

  PromConfig Cfg;
  Cfg.FixedClusters = 4;
  PromRegressor Prom(Model, Cfg);
  Prom.calibrate(Calib, R);
  EXPECT_EQ(Prom.numClusters(), 4u);

  RegressionVerdict V = Prom.assess(Train[0]);
  EXPECT_EQ(V.Experts.size(), 4u);
  EXPECT_GE(V.Cluster, 0);
  EXPECT_LT(V.Cluster, 4);
}

TEST(PromRegressorTest, GapStatisticPicksClusterCount) {
  support::Rng R(8);
  data::Dataset Train = linearRegression(300, 0.1, R);
  data::Dataset Calib = linearRegression(120, 0.1, R);
  ml::KnnRegressor Model(5);
  Model.fit(Train, R);
  PromConfig Cfg; // FixedClusters = 0 -> gap statistic.
  Cfg.MaxClusters = 8;
  PromRegressor Prom(Model, Cfg);
  Prom.calibrate(Calib, R);
  EXPECT_GE(Prom.numClusters(), 1u);
  EXPECT_LE(Prom.numClusters(), 8u);
}

TEST(PromRegressorTest, FlagsShiftedInputs) {
  support::Rng R(9);
  data::Dataset Train = linearRegression(400, 0.1, R);
  data::Dataset Calib = linearRegression(150, 0.1, R);
  // A parametric model: it extrapolates into the shifted region while the
  // k-NN ground-truth approximation stays anchored to the calibration
  // manifold, so the residual experts see the drift. (A k-NN *model* would
  // be circular with the k-NN approximation — only the feature-distance
  // expert can see drift there.)
  ml::MlpRegressor Model;
  Model.fit(Train, R);
  PromRegressor Prom(Model);
  Prom.calibrate(Calib, R);

  size_t FlaggedIn = 0, FlaggedShifted = 0;
  const size_t N = 150;
  for (size_t I = 0; I < N; ++I) {
    data::Sample In;
    double X0 = R.uniform(-2.0, 2.0), X1 = R.uniform(-2.0, 2.0);
    In.Features = {X0, X1};
    In.Target = 2.0 * X0 - X1;
    if (Prom.assess(In).Drifted)
      ++FlaggedIn;

    // Deployment shift: inputs from a region (and target relation) the
    // model never saw.
    data::Sample Out;
    X0 = R.uniform(6.0, 10.0);
    X1 = R.uniform(6.0, 10.0);
    Out.Features = {X0, X1};
    Out.Target = -3.0 * X0 + X1;
    if (Prom.assess(Out).Drifted)
      ++FlaggedShifted;
  }
  EXPECT_LT(FlaggedIn, N / 4);
  EXPECT_GT(FlaggedShifted, N / 2);
}

TEST(PromRegressorTest, PredictionMatchesModel) {
  support::Rng R(10);
  data::Dataset Train = linearRegression(200, 0.1, R);
  data::Dataset Calib = linearRegression(80, 0.1, R);
  ml::KnnRegressor Model(3);
  Model.fit(Train, R);
  PromRegressor Prom(Model);
  Prom.calibrate(Calib, R);
  for (int I = 0; I < 20; ++I) {
    const data::Sample &S = Train[static_cast<size_t>(I)];
    EXPECT_DOUBLE_EQ(Prom.assess(S).Predicted, Model.predict(S));
  }
}

//===----------------------------------------------------------------------===//
// PromDriftDetector adapter
//===----------------------------------------------------------------------===//

TEST(PromDriftDetectorTest, MatchesPromClassifierDecision) {
  Fixture F;
  // AutoTune off so the adapter and the bare PromClassifier share the
  // exact same configuration.
  PromDriftDetector Det(PromConfig(), /*AutoTune=*/false);
  Det.fit(F.Model, F.Calib, F.R);
  PromClassifier Prom(F.Model);
  Prom.calibrate(F.Calib);
  for (int I = 0; I < 30; ++I) {
    const data::Sample &S = F.Train[static_cast<size_t>(I)];
    EXPECT_EQ(Det.isDrifting(S), Prom.assess(S).Drifted);
  }
}
