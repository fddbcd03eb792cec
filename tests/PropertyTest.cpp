//===- tests/PropertyTest.cpp - cross-configuration property sweeps -----------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Parameterized property tests sweeping PROM's configuration axes: the CP
// validity guarantee and the detector's basic sanity must hold under every
// weight mode, selection fraction, committee size and scorer — not just
// the defaults. Also covers the C ABI and the temperature-scaling
// behaviour.
//
//===----------------------------------------------------------------------===//

#include "core/CApi.h"
#include "core/Detector.h"
#include "data/Split.h"
#include "ml/HostModel.h"
#include "ml/Linear.h"
#include "support/Rng.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

using namespace prom;
using prom::testing::gaussianBlobs;

namespace {

struct SharedFixture {
  support::Rng R{555};
  data::Dataset Train, Calib, Test;
  ml::LogisticRegression Model;

  SharedFixture() {
    ml::LinearConfig Cfg;
    Cfg.Epochs = 30;
    Cfg.WeightDecay = 3e-2;
    Model = ml::LogisticRegression(Cfg);
    data::Dataset Full = gaussianBlobs(4, 220, 4.0, 0.9, R);
    auto Split = data::calibrationPartition(Full, R, 0.25);
    Train = std::move(Split.first);
    Calib = std::move(Split.second);
    Model.fit(Train, R);
    Test = gaussianBlobs(4, 80, 4.0, 0.9, R);
  }
};

SharedFixture &fixture() {
  static SharedFixture S;
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Validity across (weight mode x selection fraction): the true-label
// epsilon-region coverage must stay near 1 - epsilon for every mode.
//===----------------------------------------------------------------------===//

using ModeFraction = std::tuple<CalibrationWeightMode, double>;

class WeightModeCoverage : public ::testing::TestWithParam<ModeFraction> {};

TEST_P(WeightModeCoverage, CoverageHolds) {
  SharedFixture &S = fixture();
  PromConfig Cfg;
  Cfg.WeightMode = std::get<0>(GetParam());
  Cfg.SelectFraction = std::get<1>(GetParam());
  Cfg.SelectAllBelow = 10; // Force the adaptive selection path.
  PromClassifier Prom(S.Model, Cfg);
  Prom.calibrate(S.Calib);

  double Covered = 0.0, Total = 0.0;
  for (const data::Sample &Smp : S.Test.samples()) {
    std::vector<double> P = Prom.pValues(Smp)[0]; // LAC expert.
    Covered += P[static_cast<size_t>(Smp.Label)] > Cfg.Epsilon ? 1 : 0;
    Total += 1.0;
  }
  // Weighted/selected variants are approximations of exchangeability, so
  // the tolerance is looser than the exact split-CP bound.
  EXPECT_GT(Covered / Total, 1.0 - Cfg.Epsilon - 0.12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeightModeCoverage,
    ::testing::Combine(
        ::testing::Values(CalibrationWeightMode::WeightedCount,
                          CalibrationWeightMode::ScoreScaling,
                          CalibrationWeightMode::None),
        ::testing::Values(0.25, 0.5, 1.0)),
    [](const ::testing::TestParamInfo<ModeFraction> &Info) {
      const char *Mode =
          std::get<0>(Info.param) == CalibrationWeightMode::WeightedCount
              ? "WeightedCount"
          : std::get<0>(Info.param) == CalibrationWeightMode::ScoreScaling
              ? "ScoreScaling"
              : "None";
      return std::string(Mode) + "_frac" +
             std::to_string(
                 static_cast<int>(std::get<1>(Info.param) * 100));
    });

//===----------------------------------------------------------------------===//
// Per-expert p-value sanity across all four scorers.
//===----------------------------------------------------------------------===//

class PerExpertProperty : public ::testing::TestWithParam<int> {};

TEST_P(PerExpertProperty, PValuesAreProbabilities) {
  SharedFixture &S = fixture();
  PromClassifier Prom(S.Model);
  Prom.calibrate(S.Calib);
  size_t Expert = static_cast<size_t>(GetParam());
  for (int I = 0; I < 60; ++I) {
    std::vector<double> P =
        Prom.pValues(S.Test[static_cast<size_t>(I)])[Expert];
    ASSERT_EQ(P.size(), 4u);
    for (double V : P) {
      EXPECT_GE(V, 0.0);
      EXPECT_LE(V, 1.0);
    }
  }
}

TEST_P(PerExpertProperty, TrueLabelPValueNotDegenerate) {
  // The true label's p-value must not collapse to ~0 for in-distribution
  // samples under any scorer (the failure mode of the literal Eq. 1).
  SharedFixture &S = fixture();
  PromClassifier Prom(S.Model);
  Prom.calibrate(S.Calib);
  size_t Expert = static_cast<size_t>(GetParam());
  double Sum = 0.0;
  for (int I = 0; I < 100; ++I) {
    const data::Sample &Smp = S.Test[static_cast<size_t>(I)];
    Sum += Prom.pValues(Smp)[Expert][static_cast<size_t>(Smp.Label)];
  }
  EXPECT_GT(Sum / 100.0, 0.2);
}

namespace {
std::string expertName(const ::testing::TestParamInfo<int> &Info) {
  static const char *const Names[] = {"LAC", "TopK", "APS", "RAPS"};
  return Names[Info.param];
}
} // namespace

INSTANTIATE_TEST_SUITE_P(Experts, PerExpertProperty,
                         ::testing::Values(0, 1, 2, 3), expertName);

//===----------------------------------------------------------------------===//
// Committee monotonicity: the flag count is monotone in the vote
// threshold, and every committee decision is consistent with its experts.
//===----------------------------------------------------------------------===//

TEST(CommitteeProperty, FlagsMonotoneInVoteThreshold) {
  SharedFixture &S = fixture();
  size_t Prev = static_cast<size_t>(-1);
  for (size_t Votes = 1; Votes <= 4; ++Votes) {
    PromConfig Cfg;
    Cfg.MinVotesToFlag = Votes;
    Cfg.CredThreshold = 0.3; // Loose enough to produce flags.
    Cfg.ConfThreshold = 1.01;
    PromClassifier Prom(S.Model, Cfg);
    Prom.calibrate(S.Calib);
    size_t Flags = 0;
    for (const data::Sample &Smp : S.Test.samples())
      Flags += Prom.assess(Smp).Drifted ? 1 : 0;
    if (Prev != static_cast<size_t>(-1)) {
      EXPECT_LE(Flags, Prev) << "votes=" << Votes;
    }
    Prev = Flags;
  }
}

TEST(CommitteeProperty, VerdictMatchesExpertVotes) {
  SharedFixture &S = fixture();
  PromConfig Cfg;
  Cfg.MinVotesToFlag = 2;
  PromClassifier Prom(S.Model, Cfg);
  Prom.calibrate(S.Calib);
  for (int I = 0; I < 80; ++I) {
    Verdict V = Prom.assess(S.Test[static_cast<size_t>(I)]);
    size_t Votes = 0;
    for (const ExpertOpinion &E : V.Experts)
      Votes += E.FlagDrift ? 1 : 0;
    EXPECT_EQ(Votes, V.VotesToFlag);
    EXPECT_EQ(V.Drifted, Votes >= 2);
  }
}

TEST(CommitteeProperty, CredThresholdMonotone) {
  // Raising the credibility threshold can only add flags.
  SharedFixture &S = fixture();
  size_t Prev = 0;
  for (double Cred : {0.05, 0.2, 0.5, 0.9}) {
    PromConfig Cfg;
    Cfg.CredThreshold = Cred;
    Cfg.ConfThreshold = 1.01;
    Cfg.MinVotesToFlag = 1;
    PromClassifier Prom(S.Model, Cfg);
    Prom.calibrate(S.Calib);
    size_t Flags = 0;
    for (const data::Sample &Smp : S.Test.samples())
      Flags += Prom.assess(Smp).Drifted ? 1 : 0;
    EXPECT_GE(Flags, Prev) << "cred=" << Cred;
    Prev = Flags;
  }
}

//===----------------------------------------------------------------------===//
// Temperature scaling.
//===----------------------------------------------------------------------===//

TEST(TemperatureProperty, FittedTemperatureIsPositive) {
  SharedFixture &S = fixture();
  PromClassifier Prom(S.Model);
  Prom.calibrate(S.Calib);
  EXPECT_GT(Prom.temperature(), 0.0);
}

TEST(TemperatureProperty, ArgmaxInvariant) {
  SharedFixture &S = fixture();
  PromClassifier Prom(S.Model);
  Prom.calibrate(S.Calib);
  for (int I = 0; I < 100; ++I) {
    const data::Sample &Smp = S.Test[static_cast<size_t>(I)];
    EXPECT_EQ(Prom.assess(Smp).Predicted, S.Model.predict(Smp));
  }
}

//===----------------------------------------------------------------------===//
// C ABI (core/CApi.h): the Sec. 8 non-C++ integration surface.
//===----------------------------------------------------------------------===//

namespace {

/// Drives the C API with the fixture's model outputs.
prom_detector *makeCDetector(SharedFixture &S) {
  prom_detector *D = prom_create(/*num_classes=*/4, /*feature_dim=*/2,
                                 /*epsilon=*/0.1);
  if (!D)
    return nullptr;
  for (const data::Sample &Smp : S.Calib.samples()) {
    std::vector<double> P = S.Model.predictProba(Smp);
    if (prom_add_calibration(D, P.data(), Smp.Features.data(),
                             Smp.Label) != 0) {
      prom_destroy(D);
      return nullptr;
    }
  }
  if (prom_finalize(D) != 0) {
    prom_destroy(D);
    return nullptr;
  }
  return D;
}

} // namespace

TEST(CApiTest, CreateRejectsInvalidArguments) {
  EXPECT_EQ(prom_create(1, 2, 0.1), nullptr);  // < 2 classes.
  EXPECT_EQ(prom_create(3, 0, 0.1), nullptr);  // No features.
  // A non-zero out-of-range epsilon is an error, not a silent fallback
  // to the default (a -5.0 here used to produce a detector running at
  // epsilon 0.1 while the host believed its own setting was live).
  EXPECT_EQ(prom_create(3, 2, -5.0), nullptr);
  EXPECT_EQ(prom_create(3, 2, 1.0), nullptr);
  EXPECT_EQ(prom_create(3, 2, 17.0), nullptr);
  prom_detector *D = prom_create(3, 2, 0.0); // 0 = "use the default".
  ASSERT_NE(D, nullptr);
  prom_destroy(D);
}

TEST(CApiTest, DoubleFinalizeIsNoop) {
  // Repeat prom_finalize() calls are a defined no-op success: the
  // calibrated state stays live and verdicts are unchanged bit for bit
  // (a second finalize used to rescore the already-finalized store).
  SharedFixture &S = fixture();
  prom_detector *D = makeCDetector(S);
  ASSERT_NE(D, nullptr);

  const data::Sample &Smp = S.Test[0];
  std::vector<double> P = S.Model.predictProba(Smp);
  double CredBefore = -1.0, ConfBefore = -1.0;
  int Before = prom_should_reject(D, P.data(), Smp.Features.data(),
                                  &CredBefore, &ConfBefore);
  ASSERT_GE(Before, 0);

  EXPECT_EQ(prom_finalize(D), 0); // Second finalize: no-op success.
  EXPECT_EQ(prom_finalize(D), 0); // And a third.

  double CredAfter = -1.0, ConfAfter = -1.0;
  int After = prom_should_reject(D, P.data(), Smp.Features.data(),
                                 &CredAfter, &ConfAfter);
  EXPECT_EQ(Before, After);
  EXPECT_EQ(CredBefore, CredAfter); // Bit-equal.
  EXPECT_EQ(ConfBefore, ConfAfter);
  prom_destroy(D);
}

TEST(CApiTest, LifecycleOrderingEnforced) {
  prom_detector *D = prom_create(3, 2, 0.1);
  ASSERT_NE(D, nullptr);
  double Probs[3] = {0.8, 0.1, 0.1};
  double Feats[2] = {0.0, 0.0};
  // Query before finalize fails.
  EXPECT_EQ(prom_should_reject(D, Probs, Feats, nullptr, nullptr), -1);
  // Finalize with too few samples fails.
  EXPECT_EQ(prom_finalize(D), -1);
  // Bad label fails.
  EXPECT_EQ(prom_add_calibration(D, Probs, Feats, 7), -1);
  prom_destroy(D);
  prom_destroy(nullptr); // NULL-safe.
}

TEST(CApiTest, AcceptsInDistributionInputs) {
  SharedFixture &S = fixture();
  prom_detector *D = makeCDetector(S);
  ASSERT_NE(D, nullptr);

  size_t Rejected = 0;
  const size_t N = 120;
  for (size_t I = 0; I < N; ++I) {
    const data::Sample &Smp = S.Test[I];
    std::vector<double> P = S.Model.predictProba(Smp);
    double Cred = -1.0, Conf = -1.0;
    int Verdict = prom_should_reject(D, P.data(), Smp.Features.data(),
                                     &Cred, &Conf);
    ASSERT_GE(Verdict, 0);
    EXPECT_GE(Cred, 0.0);
    EXPECT_LE(Cred, 1.0);
    EXPECT_GE(Conf, 0.0);
    EXPECT_LE(Conf, 1.0);
    Rejected += Verdict;
  }
  EXPECT_LT(Rejected, N / 3);
  prom_destroy(D);
}

TEST(CApiTest, PredictedLabelIsArgmax) {
  prom_detector *D = prom_create(3, 2, 0.1);
  ASSERT_NE(D, nullptr);
  double Probs[3] = {0.1, 0.7, 0.2};
  EXPECT_EQ(prom_predicted_label(D, Probs), 1);
  prom_destroy(D);
}

TEST(CApiTest, VerdictsBitIdenticalToPromClassifier) {
  // The C ABI rides the full C++ detector stack over the host-output
  // adapter, so a C verdict must be bit-equal — decision, credibility,
  // confidence — to a PromClassifier built over the same packed model
  // outputs. This is the round-trip contract that makes the C boundary
  // a transport, not a reimplementation.
  SharedFixture &S = fixture();
  prom_detector *D = makeCDetector(S);
  ASSERT_NE(D, nullptr);

  ml::HostOutputClassifier Host(/*NumClasses=*/4, /*FeatureDim=*/2);
  PromConfig Cfg;
  Cfg.Epsilon = 0.1; // makeCDetector's epsilon.
  PromClassifier Ref(Host, Cfg);
  data::Dataset Packed;
  for (const data::Sample &Smp : S.Calib.samples()) {
    std::vector<double> P = S.Model.predictProba(Smp);
    Packed.add(ml::HostOutputClassifier::pack(P.data(), Smp.Features.data(),
                                              4, 2, Smp.Label));
  }
  Ref.calibrate(Packed);

  const size_t N = std::min<size_t>(64, S.Test.size());
  std::vector<double> Probs, Feats;
  for (size_t I = 0; I < N; ++I) {
    const data::Sample &Smp = S.Test[I];
    std::vector<double> P = S.Model.predictProba(Smp);
    Probs.insert(Probs.end(), P.begin(), P.end());
    Feats.insert(Feats.end(), Smp.Features.begin(), Smp.Features.end());

    double Cred = -1.0, Conf = -1.0;
    int Flag = prom_should_reject(D, P.data(), Smp.Features.data(), &Cred,
                                  &Conf);
    ASSERT_GE(Flag, 0);
    Verdict V = Ref.assess(ml::HostOutputClassifier::pack(
        P.data(), Smp.Features.data(), 4, 2));
    EXPECT_EQ(Flag == 1, V.Drifted) << "sample " << I;
    EXPECT_EQ(Cred, V.meanCredibility()) << "sample " << I; // Bit-equal.
    EXPECT_EQ(Conf, V.meanConfidence()) << "sample " << I;
  }

  // The batched C entry point is element-wise bit-identical too.
  std::vector<int> Reject(N, -1);
  std::vector<double> Cred(N, -1.0), Conf(N, -1.0);
  ASSERT_EQ(prom_assess_batch(D, N, Probs.data(), Feats.data(),
                              Reject.data(), Cred.data(), Conf.data()),
            0);
  for (size_t I = 0; I < N; ++I) {
    const data::Sample &Smp = S.Test[I];
    std::vector<double> P = S.Model.predictProba(Smp);
    double C1 = -1.0, C2 = -1.0;
    int Flag = prom_should_reject(D, P.data(), Smp.Features.data(), &C1,
                                  &C2);
    EXPECT_EQ(Reject[I], Flag) << "sample " << I;
    EXPECT_EQ(Cred[I], C1) << "sample " << I;
    EXPECT_EQ(Conf[I], C2) << "sample " << I;
  }
  prom_destroy(D);
}

TEST(CApiTest, MatchesCppCommitteeOnDecisions) {
  // The C path and PromClassifier (modulo temperature scaling, which the
  // host-side C API leaves to the host) must agree on clear-cut inputs.
  SharedFixture &S = fixture();
  prom_detector *D = makeCDetector(S);
  ASSERT_NE(D, nullptr);

  // A wildly out-of-distribution probe with an uncertain prediction.
  double Probs[4] = {0.3, 0.28, 0.22, 0.2};
  double Feats[2] = {40.0, 40.0};
  double Cred = -1.0;
  int Verdict = prom_should_reject(D, Probs, Feats, &Cred, nullptr);
  EXPECT_EQ(Verdict, 1);
  EXPECT_LT(Cred, 0.5); // Committee mean; APS-family experts sit higher.
  prom_destroy(D);
}
