//===- tests/SerialOracle.h - Serial reference of the PROM guard -*- C++ -*-==//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serial oracle the bit-identity suites and the overhead bench check
/// the assessment engine against. It re-derives every verdict from the
/// paper, one input at a time, on the values one pinned calibration
/// generation holds. From the library it reads only the store's columns
/// and distance scale, the committee's scorers, the model's forwards, the
/// support:: distance and statistics primitives and the scalar e^-x
/// (support::kernels::expNeg); no line of the engine's selection,
/// weighting, p-value or vote code runs here.
///
///  * Selection (Sec. 5.1.2): every entry is ranked by (bit pattern of its
///    squared distance, id). The keys are integers, so the order is total:
///    a NaN row has a defined place and no sort compares a NaN. The
///    closest SelectFraction is kept (rounded, at least 1), or the whole
///    set below SelectAllBelow entries.
///  * Eq. (1): w = exp(-max(d - d0, 0)^p / tau), where d is the rooted
///    distance, d0 the closest selected distance under WeightedCount and 0
///    under ScoreScaling, and tau = TauScale * medianNNDist() under
///    AutoTau; w = 1 under None. exp is the library's scalar e^-x
///    (kernels::expNeg), the one every kernel variant reproduces bit for
///    bit; KernelTest holds it within 1 ulp of libm's exp, so the oracle
///    checks the engine's arithmetic, not the host's libm.
///  * Eq. (2): per label, over the selected entries of that label, a
///    ScoreScaling expert adds 1 to the total and compares w * a against
///    the test score; every other expert (and a discrete one under
///    ScoreScaling) adds w and compares a. Sums run in ascending id order
///    within canonical 256-entry blocks and in ascending block order
///    across them. Smoothing adds one pseudo-entry of the label's mean
///    selected weight m to both sums: p = (GE + m) / (Tot + m). A label
///    with no selected entry gets p = 0, and so does one whose Tot is 0,
///    smoothed or not: its selected weights are all +0.
///  * The vote (Sec. 5.3): credibility is the p-value of the predicted
///    label, confidence exp(-(s - 1)^2 / (2 c^2)) of the prediction-set
///    size s (the same scalar e^-x), and an expert flags when both fall
///    below their thresholds;
///    the committee flags at MinVotesToFlag votes (default majority).
///  * Regression (Sec. 5.1.1): the predicted label is the nearest
///    pseudo-label centroid (lowest index on a tie), and the k-NN ground
///    truth comes from an exact scan ranked like the selection. The same
///    scan, leaving the row itself out, re-derives each calibration row's
///    scores (oracleCalibrationScores).
///
/// Deliberately gtest-free so bench binaries can include it.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_TESTS_SERIALORACLE_H
#define PROM_TESTS_SERIALORACLE_H

#include "core/Detector.h"
#include "support/Distance.h"
#include "support/Kernels.h"
#include "support/Matrix.h"
#include "support/Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace prom {
namespace testing {

/// Entries per canonical block of the Eq. (2) sums (fixed by the
/// determinism contract, independent of thread count).
constexpr size_t OracleAccumBlock = 256;

/// One input's selection: entry ids, closest first by (squared-distance
/// bits, id), and the Eq. (1) weight of each.
struct OracleSelection {
  std::vector<size_t> Indices;
  std::vector<double> Weights;
};

/// No row to leave out of an oracleRanking().
constexpr size_t OracleNoRow = static_cast<size_t>(-1);

/// The \p Count nearest rows of \p Rows to \p Embed (every row when Count
/// is larger) as (bit pattern of the squared distance, id), ascending;
/// row \p Skip, when it names one, is left out.
inline std::vector<std::pair<uint64_t, size_t>>
oracleRanking(const support::FeatureMatrix &Rows, const double *Embed,
              size_t Count, size_t Skip = OracleNoRow) {
  std::vector<std::pair<uint64_t, size_t>> Keys;
  Keys.reserve(Rows.rows());
  for (size_t I = 0; I < Rows.rows(); ++I) {
    if (I == Skip)
      continue;
    double DistSq =
        support::squaredEuclidean(Rows.rowPtr(I), Embed, Rows.dim());
    uint64_t Bits;
    std::memcpy(&Bits, &DistSq, sizeof(DistSq));
    Keys.emplace_back(Bits, I);
  }
  Count = std::min(Count, Keys.size());
  std::partial_sort(Keys.begin(), Keys.begin() + Count, Keys.end());
  Keys.resize(Count);
  return Keys;
}

/// The rooted distance of a ranking key.
inline double oracleDistance(uint64_t KeyBits) {
  double DistSq;
  std::memcpy(&DistSq, &KeyBits, sizeof(DistSq));
  return std::sqrt(DistSq);
}

/// Sec. 5.1.2 selection and Eq. (1) weights of \p Embed (embedDim()
/// values) against the live entries of \p Store.
inline OracleSelection oracleSelect(const CalibrationStore &Store,
                                    const double *Embed,
                                    const PromConfig &Cfg) {
  size_t N = Store.embedMatrix().rows(), Keep = N;
  if (N >= Cfg.SelectAllBelow) {
    Keep = static_cast<size_t>(Cfg.SelectFraction * static_cast<double>(N) +
                               0.5);
    Keep = std::max<size_t>(1, std::min(Keep, N));
  }
  std::vector<std::pair<uint64_t, size_t>> Keys =
      oracleRanking(Store.embedMatrix(), Embed, Keep);
  double Scale = Store.medianNNDist();
  double Tau = Cfg.AutoTau && Scale > 0.0 ? Cfg.TauScale * Scale : Cfg.Tau;
  double Nearest = Cfg.WeightMode == CalibrationWeightMode::WeightedCount
                       ? oracleDistance(Keys.front().first)
                       : 0.0;
  OracleSelection Sel;
  for (size_t Pos = 0; Pos < Keys.size(); ++Pos) {
    double W = 1.0;
    if (Cfg.WeightMode != CalibrationWeightMode::None) {
      double D = std::max(0.0, oracleDistance(Keys[Pos].first) - Nearest);
      double Exponent = (Cfg.WeightNormPower == 2 ? D * D : D) / Tau;
      W = support::kernels::expNeg(Exponent);
    }
    Sel.Indices.push_back(Keys[Pos].second);
    Sel.Weights.push_back(W);
  }
  return Sel;
}

/// Eq. (2) p-values of expert \p Expert for every label in
/// [0, TestScores.size()), given the test scores and \p Sel.
inline std::vector<double>
oraclePValues(const CalibrationStore &Store, const OracleSelection &Sel,
              size_t Expert, const std::vector<double> &TestScores,
              const PromConfig &Cfg, bool DiscreteScores) {
  size_t N = Store.embedMatrix().rows(), NumLabels = TestScores.size();
  bool Scaling = Cfg.WeightMode == CalibrationWeightMode::ScoreScaling &&
                 !DiscreteScores;
  std::vector<char> Selected(N, 0);
  std::vector<double> Weight(N, 0.0);
  for (size_t Pos = 0; Pos < Sel.Indices.size(); ++Pos) {
    Selected[Sel.Indices[Pos]] = 1;
    Weight[Sel.Indices[Pos]] = Sel.Weights[Pos];
  }
  const std::vector<double> &Scores = Store.scoreColumn(Expert);
  std::vector<double> GE(NumLabels, 0.0), Tot(NumLabels, 0.0),
      Count(NumLabels, 0.0);
  for (size_t B0 = 0; B0 < N; B0 += OracleAccumBlock) {
    std::vector<double> BlockGE(NumLabels, 0.0), BlockTot(NumLabels, 0.0);
    for (size_t I = B0; I < std::min(N, B0 + OracleAccumBlock); ++I) {
      int Label = Store.label(I);
      if (!Selected[I] || Label < 0 || static_cast<size_t>(Label) >= NumLabels)
        continue;
      size_t L = static_cast<size_t>(Label);
      double Add = Scaling ? 1.0 : Weight[I];
      double Compared = Scaling ? Weight[I] * Scores[I] : Scores[I];
      Count[L] += 1.0;
      BlockTot[L] += Add;
      if (Compared >= TestScores[L])
        BlockGE[L] += Add;
    }
    for (size_t L = 0; L < NumLabels; ++L) {
      GE[L] += BlockGE[L];
      Tot[L] += BlockTot[L];
    }
  }
  std::vector<double> P(NumLabels, 0.0);
  for (size_t L = 0; L < NumLabels; ++L) {
    if (Count[L] == 0.0 || Tot[L] == 0.0)
      continue;
    if (Cfg.SmoothedPValues) {
      double MeanWeight = Tot[L] / Count[L];
      P[L] = (GE[L] + MeanWeight) / (Tot[L] + MeanWeight);
    } else {
      P[L] = GE[L] / Tot[L];
    }
  }
  return P;
}

/// The Sec. 5.3 committee vote over one row of p-values per expert, for
/// the predicted label \p Label.
inline void oracleVote(const std::vector<std::vector<double>> &PVals,
                       size_t Label, const PromConfig &Cfg,
                       CommitteeVerdict &V) {
  double CredThreshold =
      Cfg.CredThreshold < 0.0 ? Cfg.Epsilon : Cfg.CredThreshold;
  V.Experts.clear();
  V.VotesToFlag = 0;
  for (const std::vector<double> &Row : PVals) {
    ExpertOpinion Op;
    Op.Credibility = Row[Label];
    for (double P : Row)
      Op.PredictionSetSize += P > Cfg.Epsilon ? 1 : 0;
    double D = static_cast<double>(Op.PredictionSetSize) - 1.0;
    Op.Confidence = support::kernels::expNeg(
        (D * D) / (2.0 * Cfg.ConfidenceC * Cfg.ConfidenceC));
    Op.FlagDrift = Op.Credibility < CredThreshold &&
                   Op.Confidence < Cfg.ConfThreshold;
    V.VotesToFlag += Op.FlagDrift ? 1 : 0;
    V.Experts.push_back(Op);
  }
  size_t Needed = Cfg.MinVotesToFlag != 0 ? Cfg.MinVotesToFlag
                                          : (PVals.size() + 1) / 2;
  V.Drifted = V.VotesToFlag >= Needed;
}

/// The classification verdict of \p S, against the generation \p Prom
/// serves now.
inline Verdict oracleAssess(const PromClassifier &Prom,
                            const data::Sample &S) {
  std::shared_ptr<const PromClassifier::Generation> G = Prom.pin();
  const PromConfig &Cfg = Prom.config();
  Verdict V;
  // Temperature softening: softmax(log(p) / T), untouched at T = 1.
  V.Probabilities = Prom.model().predictProba(S);
  double T = G->Fit.Temperature;
  if (T != 1.0) {
    for (double &P : V.Probabilities)
      P = std::log(std::max(P, 1e-12)) / T;
    support::softmaxInPlace(V.Probabilities);
  }
  V.Predicted = static_cast<int>(support::argmax(V.Probabilities));

  std::vector<double> Embed = Prom.model().embed(S);
  OracleSelection Sel = oracleSelect(G->Store, Embed.data(), Cfg);
  size_t NumLabels = V.Probabilities.size();
  std::vector<std::vector<double>> PVals;
  for (size_t E = 0; E < Prom.numExperts(); ++E) {
    const ClassificationScorer &Scorer = Prom.scorer(E);
    std::vector<double> TestScores(NumLabels);
    for (size_t C = 0; C < NumLabels; ++C)
      TestScores[C] = Scorer.score(V.Probabilities, static_cast<int>(C));
    PVals.push_back(oraclePValues(G->Store, Sel, E, TestScores, Cfg,
                                  Scorer.isDiscrete()));
  }
  oracleVote(PVals, static_cast<size_t>(V.Predicted), Cfg, V);
  return V;
}

/// The k-NN half of a regression score input (Sec. 5.1.1): the mean and
/// spread of the targets and the mean rooted distance of the \p K rows of
/// \p G's store nearest to \p Embed, leaving out row \p Skip when it
/// names one, plus the residual IQR.
inline void oracleKnnStats(const PromRegressor::Generation &G,
                           const double *Embed, size_t K, size_t Skip,
                           RegressionScoreInput &In) {
  std::vector<std::pair<uint64_t, size_t>> Keys =
      oracleRanking(G.Store.embedMatrix(), Embed, K, Skip);
  std::vector<double> Targets, Dists;
  for (const std::pair<uint64_t, size_t> &Key : Keys) {
    Targets.push_back(G.Fit.Targets[Key.second]);
    Dists.push_back(oracleDistance(Key.first));
  }
  In.ApproxTarget = support::mean(Targets);
  In.KnnTargetSpread = support::stddev(Targets);
  In.KnnMeanDistance = support::mean(Dists);
  In.ResidualIqr = G.Fit.ResidualIqr;
}

/// The calibration scores of the generation \p Prom serves now, re-derived
/// from \p CalibSet, the set it was calibrated on (store row I is sample
/// I): Out[E][I] is expert E's score of row I, whose k-NN statistics leave
/// the row itself out and whose approximate target is its true target.
inline std::vector<std::vector<double>>
oracleCalibrationScores(const PromRegressor &Prom,
                        const data::Dataset &CalibSet) {
  std::shared_ptr<const PromRegressor::Generation> G = Prom.pin();
  const support::FeatureMatrix &Rows = G->Store.embedMatrix();
  std::vector<std::vector<double>> Out(Prom.numExperts(),
                                       std::vector<double>(Rows.rows()));
  for (size_t I = 0; I < Rows.rows(); ++I) {
    RegressionScoreInput In;
    In.Prediction = Prom.model().predict(CalibSet[I]);
    oracleKnnStats(*G, Rows.rowPtr(I), Prom.config().KnnK, I, In);
    In.ApproxTarget = G->Fit.Targets[I];
    for (size_t E = 0; E < Prom.numExperts(); ++E)
      Out[E][I] = Prom.scorer(E).score(In);
  }
  return Out;
}

/// The regression verdict of \p S, against the generation \p Prom serves
/// now.
inline RegressionVerdict oracleAssess(const PromRegressor &Prom,
                                      const data::Sample &S) {
  std::shared_ptr<const PromRegressor::Generation> G = Prom.pin();
  const PromConfig &Cfg = Prom.config();
  const support::FeatureMatrix &Centroids = G->Fit.Centroids;
  RegressionVerdict V;
  V.Predicted = Prom.model().predict(S);
  std::vector<double> Embed = Prom.model().embed(S);

  double Closest = 0.0;
  for (size_t C = 0; C < Centroids.rows(); ++C) {
    double DistSq = support::squaredEuclidean(Centroids.rowPtr(C),
                                              Embed.data(), Centroids.dim());
    if (C == 0 || DistSq < Closest) {
      Closest = DistSq;
      V.Cluster = static_cast<int>(C);
    }
  }

  RegressionScoreInput In;
  In.Prediction = V.Predicted;
  oracleKnnStats(*G, Embed.data(), Cfg.KnnK, OracleNoRow, In);

  // One label-independent test score per expert: the conditioning is
  // which cluster's calibration scores it is compared to.
  OracleSelection Sel = oracleSelect(G->Store, Embed.data(), Cfg);
  std::vector<std::vector<double>> PVals;
  for (size_t E = 0; E < Prom.numExperts(); ++E) {
    std::vector<double> TestScores(Centroids.rows(), Prom.scorer(E).score(In));
    PVals.push_back(oraclePValues(G->Store, Sel, E, TestScores, Cfg,
                                  /*DiscreteScores=*/false));
  }
  oracleVote(PVals, static_cast<size_t>(V.Cluster), Cfg, V);
  return V;
}

} // namespace testing
} // namespace prom

#endif // PROM_TESTS_SERIALORACLE_H
