//===- tests/WorkflowTest.cpp - assessment / search / IL / baseline tests -----===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "core/Assessment.h"
#include "core/GridSearch.h"
#include "core/IncrementalLearner.h"
#include "data/Split.h"
#include "ml/Knn.h"
#include "ml/Linear.h"
#include "ml/Mlp.h"
#include "support/Rng.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

using namespace prom;
using prom::testing::gaussianBlobs;
using prom::testing::linearRegression;

namespace {

ml::LogisticRegression softLogReg() {
  ml::LinearConfig Cfg;
  Cfg.Epochs = 30;
  Cfg.WeightDecay = 3e-2;
  return ml::LogisticRegression(Cfg);
}

} // namespace

//===----------------------------------------------------------------------===//
// Initialization assessment (Sec. 5.2)
//===----------------------------------------------------------------------===//

TEST(AssessmentTest, HealthySetupPasses) {
  support::Rng R(21);
  data::Dataset Full = gaussianBlobs(3, 250, 4.0, 0.8, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.2);
  ml::LogisticRegression Model = softLogReg();
  Model.fit(Train, R);

  AssessmentResult Res = assessInitialization(Model, Calib, PromConfig(), R);
  EXPECT_TRUE(Res.Ok);
  EXPECT_EQ(Res.FoldCoverages.size(), 3u);
  EXPECT_NEAR(Res.MeanCoverage, 0.9, 0.1);
}

namespace {

/// Degenerate underlying model: identical probabilities for every input.
/// Conformal p-values then tie at 1 for every label, coverage saturates at
/// 1.0 and the Eq. (3) deviation exceeds the alert threshold. (Note the CP
/// validity guarantee holds even for *weak* models as long as scores vary;
/// only degenerate outputs break the coverage diagnostic, which is exactly
/// what "poorly trained or designed underlying model" means here.)
class ConstantClassifier : public ml::Classifier {
public:
  void fit(const data::Dataset &Train, support::Rng &) override {
    Classes = Train.numClasses();
  }
  std::vector<double> predictProba(const data::Sample &) const override {
    std::vector<double> P(static_cast<size_t>(Classes),
                          0.3 / (Classes - 1));
    P[0] = 0.7;
    return P;
  }
  int numClasses() const override { return Classes; }
  std::string name() const override { return "Constant"; }

private:
  int Classes = 2;
};

} // namespace

TEST(AssessmentTest, DegenerateModelAlerts) {
  support::Rng R(22);
  data::Dataset Full = gaussianBlobs(4, 100, 4.0, 0.5, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.3);
  ConstantClassifier Model;
  Model.fit(Train, R);

  PromConfig Cfg;
  Cfg.Epsilon = 0.2; // Coverage pins at 1.0 -> deviation 0.2 > 0.1.
  AssessmentResult Res = assessInitialization(Model, Calib, Cfg, R);
  EXPECT_FALSE(Res.Ok);
  EXPECT_GT(Res.MeanCoverage, 0.95);
}

TEST(AssessmentTest, CustomRepeatCount) {
  support::Rng R(23);
  data::Dataset Full = gaussianBlobs(2, 150, 4.0, 0.6, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.3);
  ml::LogisticRegression Model = softLogReg();
  Model.fit(Train, R);
  AssessmentResult Res =
      assessInitialization(Model, Calib, PromConfig(), R, /*Repeats=*/5);
  EXPECT_EQ(Res.FoldCoverages.size(), 5u);
}

//===----------------------------------------------------------------------===//
// Grid search (Sec. 5.2)
//===----------------------------------------------------------------------===//

TEST(GridSearchTest, EvaluatesWholeGridAndReturnsMember) {
  support::Rng R(24);
  data::Dataset Full = gaussianBlobs(3, 150, 4.0, 1.1, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.3);
  ml::LogisticRegression Model = softLogReg();
  Model.fit(Train, R);

  GridSearchSpace Space;
  Space.Epsilons = {0.05, 0.2};
  Space.ConfThresholds = {0.95};
  Space.Taus = {100.0, 500.0};
  GridSearchResult Res =
      gridSearch(Model, Calib, Space, PromConfig(), R, /*Repeats=*/1);
  EXPECT_EQ(Res.NumEvaluated, 4u);
  EXPECT_GE(Res.BestF1, 0.0);
  // The sweep varies the credibility threshold (the set epsilon is fixed).
  bool CredOk = Res.Best.credThreshold() == 0.05 ||
                Res.Best.credThreshold() == 0.2;
  EXPECT_TRUE(CredOk);
}

//===----------------------------------------------------------------------===//
// Mispredicates
//===----------------------------------------------------------------------===//

TEST(MispredicateTest, LabelMismatch) {
  data::Sample S;
  S.Label = 2;
  MispredicateFn Fn = labelMispredicate();
  EXPECT_FALSE(Fn(S, 2));
  EXPECT_TRUE(Fn(S, 0));
}

TEST(MispredicateTest, PerfToOracleThreshold) {
  data::Sample S;
  S.OptionCosts = {1.0, 1.1, 2.0}; // perf: 1.0, 0.909, 0.5.
  MispredicateFn Fn = perfToOracleMispredicate(0.2);
  EXPECT_FALSE(Fn(S, 0));
  EXPECT_FALSE(Fn(S, 1)); // 0.909 >= 0.8.
  EXPECT_TRUE(Fn(S, 2));  // 0.5 < 0.8.
}

TEST(MispredicateTest, RegressionRelativeError) {
  EXPECT_FALSE(regressionMispredicted(1.1, 1.0));  // 10% off.
  EXPECT_TRUE(regressionMispredicted(1.5, 1.0));   // 50% off.
  EXPECT_TRUE(regressionMispredicted(0.5, 1e-12)); // Near-zero target.
}

//===----------------------------------------------------------------------===//
// Incremental learning (Sec. 5.4)
//===----------------------------------------------------------------------===//

TEST(IncrementalLearningTest, RecoversAccuracyUnderDrift) {
  support::Rng R(25);
  // Train on classes arranged one way; deployment rotates the layout so a
  // region of the input space flips label — honest concept drift.
  data::Dataset Full = gaussianBlobs(3, 260, 4.0, 0.7, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.15);
  ml::LogisticRegression Model = softLogReg();
  Model.fit(Train, R);

  // Deployment set: one class moved to a new region.
  data::Dataset Test("drifted", 3);
  for (int I = 0; I < 300; ++I) {
    data::Sample S;
    if (I % 3 == 0) {
      S.Features = {8.0 + R.gaussian(0.0, 0.7), 6.0 + R.gaussian(0.0, 0.7)};
      S.Label = 0;
    } else {
      S = gaussianBlobs(3, 1, 4.0, 0.7, R)[I % 3 == 1 ? 1u : 2u];
    }
    Test.add(std::move(S));
  }

  IncrementalConfig IlCfg;
  IlCfg.RelabelBudget = 0.05;
  IncrementalOutcome Out =
      runIncrementalLearning(Model, Train, Calib, Test, PromConfig(), IlCfg,
                             labelMispredicate(), R);

  EXPECT_GT(Out.NumFlagged, 0u);
  EXPECT_LE(Out.NumRelabeled,
            static_cast<size_t>(0.05 * Test.size() + 1.5));
  EXPECT_GT(Out.UpdatedAccuracy, Out.NativeAccuracy);
}

TEST(IncrementalLearningTest, DetectionCountsConsistent) {
  support::Rng R(26);
  data::Dataset Full = gaussianBlobs(3, 200, 4.0, 0.8, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.15);
  ml::LogisticRegression Model = softLogReg();
  Model.fit(Train, R);
  data::Dataset Test = gaussianBlobs(3, 60, 4.0, 0.8, R);

  IncrementalOutcome Out =
      runIncrementalLearning(Model, Train, Calib, Test, PromConfig(),
                             IncrementalConfig(), labelMispredicate(), R);
  EXPECT_EQ(Out.Detection.total(), Test.size());
  EXPECT_EQ(Out.NumFlagged, Out.Detection.TruePositive +
                                Out.Detection.FalsePositive);
}

TEST(IncrementalLearningTest, NoFlagsMeansNoUpdate) {
  support::Rng R(27);
  data::Dataset Full = gaussianBlobs(2, 250, 6.0, 0.4, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.15);
  ml::LogisticRegression Model = softLogReg();
  Model.fit(Train, R);
  // An easy in-distribution test set: flags should be rare; if none
  // appear, the model must be left untouched (NumRelabeled = 0).
  data::Dataset Test = gaussianBlobs(2, 40, 6.0, 0.4, R);
  IncrementalOutcome Out =
      runIncrementalLearning(Model, Train, Calib, Test, PromConfig(),
                             IncrementalConfig(), labelMispredicate(), R);
  if (Out.NumFlagged == 0) {
    EXPECT_EQ(Out.NumRelabeled, 0u);
  }
  EXPECT_NEAR(Out.UpdatedAccuracy, Out.NativeAccuracy, 0.1);
}

TEST(IncrementalLearningTest, RegressionFlavourReducesError) {
  support::Rng R(28);
  data::Dataset Train = linearRegression(400, 0.05, R);
  data::Dataset Calib = linearRegression(150, 0.05, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);

  // Deployment: a new input region with a different target relation.
  data::Dataset Test("reg-drift", 0);
  for (int I = 0; I < 200; ++I) {
    data::Sample S;
    double X0 = R.uniform(5.0, 8.0), X1 = R.uniform(5.0, 8.0);
    S.Features = {X0, X1};
    S.Target = 0.5 * X0 + X1;
    Test.add(std::move(S));
  }

  IncrementalConfig IlCfg;
  IlCfg.RelabelBudget = 0.05;
  IlCfg.OversampleFactor = 6;
  RegressionIncrementalOutcome Out = runIncrementalLearningRegression(
      Model, Train, Calib, Test, PromConfig(), IlCfg, R);
  EXPECT_GT(Out.NumFlagged, 0u);
  EXPECT_LT(Out.UpdatedError, Out.NativeError);
}

//===----------------------------------------------------------------------===//
// Baselines (Figure 10 comparators)
//===----------------------------------------------------------------------===//

namespace {

struct BaselineCase {
  const char *Name;
  std::function<std::unique_ptr<DriftDetector>()> Make;
};

class BaselineTest : public ::testing::TestWithParam<BaselineCase> {};

} // namespace

TEST_P(BaselineTest, FitsAndDecides) {
  support::Rng R(31);
  data::Dataset Full = gaussianBlobs(3, 220, 4.0, 0.9, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.25);
  ml::LogisticRegression Model = softLogReg();
  Model.fit(Train, R);

  auto Det = GetParam().Make();
  Det->fit(Model, Calib, R);

  // It must reject something on hard novel inputs and accept most
  // in-distribution ones.
  size_t FlaggedIn = 0, FlaggedNovel = 0;
  const size_t N = 120;
  for (size_t I = 0; I < N; ++I) {
    data::Sample In = gaussianBlobs(3, 1, 4.0, 0.9, R)[0];
    if (Det->isDrifting(In))
      ++FlaggedIn;
    data::Sample Novel;
    Novel.Features = {R.gaussian(0.0, 0.8), R.gaussian(0.0, 0.8)};
    Novel.Label = 0;
    if (Det->isDrifting(Novel))
      ++FlaggedNovel;
  }
  EXPECT_LT(FlaggedIn, N / 2) << GetParam().Name;
  EXPECT_GT(FlaggedNovel, FlaggedIn) << GetParam().Name;
}

INSTANTIATE_TEST_SUITE_P(
    Detectors, BaselineTest,
    ::testing::Values(
        BaselineCase{"NaiveCP",
                     [] {
                       return std::make_unique<
                           baselines::NaiveCpDetector>();
                     }},
        BaselineCase{"RISE",
                     [] { return std::make_unique<baselines::RiseDetector>(); }},
        BaselineCase{"TESSERACT",
                     [] {
                       return std::make_unique<
                           baselines::TesseractDetector>();
                     }},
        BaselineCase{"PROM",
                     [] { return std::make_unique<PromDriftDetector>(); }}),
    [](const ::testing::TestParamInfo<BaselineCase> &Info) {
      return Info.param.Name;
    });
