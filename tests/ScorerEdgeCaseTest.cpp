//===- tests/ScorerEdgeCaseTest.cpp - nonconformity edge cases ----------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Edge-case behaviour of the LAC/TopK/APS/RAPS committee on degenerate
// probability vectors — uniform, one-hot, and tie-heavy distributions —
// plus the isDiscrete() weighted-counting fallback those tie-heavy scores
// force inside CalibrationStore::pValues. scoreAll() must agree with
// score() bit-for-bit on every edge case, since the batched engine uses
// the fused form.
//
//===----------------------------------------------------------------------===//

#include "core/CalibrationStore.h"
#include "core/Nonconformity.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

using namespace prom;

namespace {

std::vector<std::vector<double>> edgeCaseVectors() {
  return {
      {0.25, 0.25, 0.25, 0.25},          // Uniform.
      {1.0, 0.0, 0.0, 0.0},              // One-hot.
      {0.0, 0.0, 1.0, 0.0},              // One-hot, off-front.
      {0.5, 0.5, 0.0, 0.0},              // Two-way tie.
      {0.4, 0.4, 0.1, 0.1},              // Tie-heavy pairs.
      {1.0 / 3, 1.0 / 3, 1.0 / 3, 0.0},  // Three-way tie.
      {0.97, 0.01, 0.01, 0.01},          // Near one-hot with tied tail.
  };
}

} // namespace

//===----------------------------------------------------------------------===//
// Per-scorer edge cases
//===----------------------------------------------------------------------===//

TEST(ScorerEdgeCaseTest, UniformVector) {
  std::vector<double> Uniform = {0.25, 0.25, 0.25, 0.25};
  LacScorer Lac;
  TopKScorer TopK;
  ApsScorer Aps;
  RapsScorer Raps;
  for (int C = 0; C < 4; ++C) {
    // LAC: every label equally strange.
    EXPECT_DOUBLE_EQ(Lac.score(Uniform, C), 0.75);
    // TopK soft rank: p_j / p_label = 1 for all -> rank = numClasses.
    EXPECT_DOUBLE_EQ(TopK.score(Uniform, C), 4.0);
    // RAPS adds a positive penalty on top of APS for ranks above kReg.
    EXPECT_GT(Raps.score(Uniform, C), Aps.score(Uniform, C));
  }
  // APS with index tie-breaking: label c ranks c+1, mass above is c * 0.25.
  for (int C = 0; C < 4; ++C)
    EXPECT_NEAR(Aps.score(Uniform, C), C * 0.25 + 0.125, 1e-12);
}

TEST(ScorerEdgeCaseTest, OneHotVector) {
  std::vector<double> OneHot = {0.0, 1.0, 0.0};
  LacScorer Lac;
  TopKScorer TopK;
  ApsScorer Aps;
  EXPECT_DOUBLE_EQ(Lac.score(OneHot, 1), 0.0);
  EXPECT_DOUBLE_EQ(Lac.score(OneHot, 0), 1.0);
  // The hit label has hard rank 1. A zero-probability label also scores
  // ~1 — its own p/p ratio is 0 under the 1e-12 clamp, so only the winner
  // contributes — a known blind spot of the soft rank on degenerate
  // vectors; LAC and APS carry the signal for zero-mass labels.
  EXPECT_NEAR(TopK.score(OneHot, 1), 1.0, 1e-9);
  EXPECT_NEAR(TopK.score(OneHot, 0), 1.0, 1e-9);
  // APS half-inclusion keeps the winner at 0.5 instead of a degenerate 1.
  EXPECT_NEAR(Aps.score(OneHot, 1), 0.5, 1e-12);
  // A zero-probability label sits below the full mass.
  EXPECT_NEAR(Aps.score(OneHot, 0), 1.0, 1e-12);
}

TEST(ScorerEdgeCaseTest, TieHeavyVectorIsDeterministic) {
  // Exact ties must resolve by index, not by accident of evaluation order.
  std::vector<double> Tied = {0.5, 0.5, 0.0, 0.0};
  ApsScorer Aps;
  // Label 0 wins the tie (lower index): rank 1. Label 1 ranks 2.
  EXPECT_NEAR(Aps.score(Tied, 0), 0.25, 1e-12);
  EXPECT_NEAR(Aps.score(Tied, 1), 0.5 + 0.25, 1e-12);
  TopKScorer TopK;
  // Soft rank is index-free for exact ties: both tied labels score 2 + 0.
  EXPECT_DOUBLE_EQ(TopK.score(Tied, 0), TopK.score(Tied, 1));
}

TEST(ScorerEdgeCaseTest, ScoreAllMatchesScoreOnEdgeCases) {
  auto Scorers = defaultClassificationScorers();
  for (const auto &Probs : edgeCaseVectors()) {
    for (const auto &Scorer : Scorers) {
      std::vector<double> All(Probs.size());
      Scorer->scoreAll(Probs, All.data());
      for (size_t C = 0; C < Probs.size(); ++C)
        EXPECT_EQ(All[C], Scorer->score(Probs, static_cast<int>(C)))
            << Scorer->name() << " label " << C;
    }
  }
}

TEST(ScorerEdgeCaseTest, ScoresAreFiniteOnEveryEdgeCase) {
  auto Scorers = defaultClassificationScorers();
  for (const auto &Probs : edgeCaseVectors())
    for (const auto &Scorer : Scorers)
      for (size_t C = 0; C < Probs.size(); ++C)
        EXPECT_TRUE(
            std::isfinite(Scorer->score(Probs, static_cast<int>(C))))
            << Scorer->name();
}

//===----------------------------------------------------------------------===//
// The isDiscrete() weighted-counting fallback
//===----------------------------------------------------------------------===//

namespace {

/// A deliberately tie-heavy discrete scorer: the hard rank of the label.
/// Every confident prediction scores exactly 1, so the paper's literal
/// score-scaling adjustment (w * a_i >= a_test) flips every tie as soon as
/// any weight drops below 1 — the situation isDiscrete() exists for.
class HardRankScorer : public ClassificationScorer {
public:
  double score(const std::vector<double> &Probs, int Label) const override {
    double P = Probs[static_cast<size_t>(Label)];
    double Rank = 1.0;
    for (size_t C = 0; C < Probs.size(); ++C)
      if (Probs[C] > P ||
          (Probs[C] == P && C < static_cast<size_t>(Label)))
        Rank += 1.0;
    return Rank;
  }
  bool isDiscrete() const override { return true; }
  std::string name() const override { return "HardRank"; }
};

/// 1-D calibration set at x = 0..N-1, one expert, all scores \p Score.
CalibrationStore tiedCalib(size_t N, double Score) {
  CalibrationStore Calib;
  for (size_t I = 0; I < N; ++I) {
    CalibrationEntry E;
    E.Embed = {static_cast<double>(I)};
    E.Label = 0;
    E.Scores = {Score};
    Calib.add(std::move(E));
  }
  Calib.finalize();
  return Calib;
}

} // namespace

TEST(DiscreteFallbackTest, ScoreScalingCollapsesTiedPValuesWithoutFallback) {
  // Literal score scaling: any weight < 1 shrinks every tied calibration
  // score below the test score, so the p-value collapses toward 0 even
  // though the sample conforms perfectly.
  CalibrationStore Calib = tiedCalib(100, 1.0);
  PromConfig Cfg;
  Cfg.WeightMode = CalibrationWeightMode::ScoreScaling;
  Cfg.AutoTau = false;
  Cfg.Tau = 10.0;
  CalibrationSelection Sel = Calib.select({50.0}, Cfg);

  std::vector<double> NoFallback =
      Calib.pValues(Sel, 0, {1.0}, Cfg, /*DiscreteScores=*/false);
  std::vector<double> WithFallback =
      Calib.pValues(Sel, 0, {1.0}, Cfg, /*DiscreteScores=*/true);
  EXPECT_LT(NoFallback[0], 0.1);  // Ties flipped: spurious novelty.
  EXPECT_GT(WithFallback[0], 0.9); // Weighted counting keeps the ties.
}

TEST(DiscreteFallbackTest, FallbackOnlyAffectsScoreScaling) {
  CalibrationStore Calib = tiedCalib(50, 2.0);
  PromConfig Cfg;
  Cfg.WeightMode = CalibrationWeightMode::WeightedCount;
  CalibrationSelection Sel = Calib.select({10.0}, Cfg);
  std::vector<double> A = Calib.pValues(Sel, 0, {2.0}, Cfg, false);
  std::vector<double> B = Calib.pValues(Sel, 0, {2.0}, Cfg, true);
  EXPECT_EQ(A[0], B[0]); // WeightedCount is already tie-safe.
}

TEST(DiscreteFallbackTest, HardRankCommitteeSurvivesConfidentModel) {
  // End-to-end through the committee: a discrete expert on a model whose
  // outputs are one-hot-ish must not flag in-distribution inputs purely
  // because of tie flips.
  support::Rng R(61);
  CalibrationStore Calib;
  HardRankScorer Scorer;
  for (size_t I = 0; I < 120; ++I) {
    // Confident correct predictions: rank of the true label is 1.
    std::vector<double> Probs = {0.9, 0.05, 0.05};
    CalibrationEntry E;
    E.Embed = {R.gaussian(0.0, 1.0)};
    E.Label = 0;
    E.Scores = {Scorer.score(Probs, 0)};
    Calib.add(std::move(E));
  }
  Calib.finalize();

  PromConfig Cfg;
  Cfg.WeightMode = CalibrationWeightMode::ScoreScaling;
  std::vector<double> Probs = {0.85, 0.10, 0.05};
  std::vector<double> TestScores = {Scorer.score(Probs, 0),
                                    Scorer.score(Probs, 1),
                                    Scorer.score(Probs, 2)};
  CalibrationSelection Sel = Calib.select({0.2}, Cfg);
  std::vector<double> P =
      Calib.pValues(Sel, 0, TestScores, Cfg, Scorer.isDiscrete());
  EXPECT_GT(P[0], 0.5) << "tied rank-1 scores must stay conforming";
}
