//===- core/PromConfig.h - PROM configuration knobs --------------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All tunable parameters of the PROM detector with the paper's defaults.
/// Thresholds, the adaptive-selection knobs and the confidence scale apply
/// at assessment time, so a PromConfig can be re-tuned (e.g. by grid
/// search, Sec. 5.2) without rebuilding calibration scores.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_CORE_PROMCONFIG_H
#define PROM_CORE_PROMCONFIG_H

#include <cstddef>

namespace prom {

/// How Eq. (1) distance weights enter the p-value computation.
///
/// The paper writes the adjustment multiplicatively (a_i = w_i * a_i).
/// Taken literally that breaks tie-heavy discrete nonconformity scores
/// (e.g. TopK rank 1 vs rank 1: any w < 1 flips every tie against the test
/// sample and the p-value collapses to ~0). WeightedCount applies the same
/// "closer calibration samples count more" idea as a weighted count in Eq.
/// (2) — the standard weighted-conformal-prediction form — and is the
/// default; ScoreScaling is the paper's literal equation, kept for
/// ablation.
enum class CalibrationWeightMode {
  /// p = (sum w_i [a_i >= a_test] + m) / (sum w_i + m), where m, the
  /// smoothing pseudo-count, is the label's mean selected weight (1 only
  /// when every weight is 1; see PromConfig::SmoothedPValues).
  WeightedCount,
  ScoreScaling, ///< Compare w_i * a_i >= a_test with unit counts.
  None,         ///< Unweighted counts (selection still applies).
};

/// PROM detector configuration (paper defaults in comments).
struct PromConfig {
  /// Significance level epsilon (Sec. 4.1.1, default 0.1). Prediction sets
  /// contain the classes whose p-value exceeds Epsilon, giving ~(1-eps)
  /// marginal coverage.
  double Epsilon = 0.1;

  /// Credibility threshold of each expert; negative means "use Epsilon".
  double CredThreshold = -1.0;

  /// Confidence threshold of each expert. With the Gaussian set-size score
  /// (c = 3) the default 0.95 separates "exactly one conforming class"
  /// (confidence 1.0) from empty/ambiguous prediction sets (Sec. 5.3).
  double ConfThreshold = 0.95;

  /// Gaussian scale c in conf = exp(-(setSize-1)^2 / (2 c^2)) (Sec. 5.3).
  double ConfidenceC = 3.0;

  /// Temperature tau of the distance weights w = exp(-d / Tau) (Eq. 1,
  /// default 500). The paper's 500 is calibrated to its models' raw
  /// embedding scales; with AutoTau (default) the effective temperature is
  /// TauScale times the calibration set's median nearest-neighbour
  /// distance, which transfers across feature spaces.
  double Tau = 500.0;

  /// Scale the temperature to the calibration set's own distance scale.
  bool AutoTau = true;

  /// Effective tau = TauScale * median nearest-neighbour distance.
  double TauScale = 50.0;

  /// Exponent on the l2 distance inside the weight (1 = exp(-d/tau),
  /// 2 = exp(-d^2/tau)); Eq. (1)'s typography is ambiguous, default 1.
  int WeightNormPower = 1;

  /// Fraction of nearest calibration samples used per test input
  /// (Sec. 5.1.2, default: closest 50%).
  double SelectFraction = 0.5;

  /// Use the whole calibration set when it has fewer samples than this
  /// (Sec. 5.1.2, default 200).
  size_t SelectAllBelow = 200;

  /// How the Eq. (1) weights are applied (see CalibrationWeightMode).
  CalibrationWeightMode WeightMode = CalibrationWeightMode::WeightedCount;

  /// Smooth Eq. (2) with one pseudo-entry that carries the label's mean
  /// selected weight m = Tot / n: p = (GE + m) / (Tot + m), where GE and
  /// Tot are the label's summed ">= test score" and total addends and n its
  /// selected count. When every addend is 1 (None, or a ScoreScaling
  /// expert that is not discrete) m is 1 and this is the standard split-CP
  /// (count+1)/(n+1); under weighted counting the minimum p-value stays
  /// ~1/(n+1) however sharply the weights localize. A label whose selected
  /// weights all round to +0 has Tot = m = 0 and gets p = 0, like a label
  /// with no selected entry.
  bool SmoothedPValues = true;

  /// Committee votes needed to flag a sample; 0 means majority
  /// (ceil(numExperts / 2)).
  size_t MinVotesToFlag = 0;

  /// k in the regression k-NN ground-truth approximation (Sec. 5.1.1,
  /// default 3).
  size_t KnnK = 3;

  /// Gap-statistic search range for the regression pseudo-label clustering
  /// (Sec. 5.1.2, default K in [2, 20]).
  size_t MinClusters = 2;
  size_t MaxClusters = 20;

  /// Overrides the gap statistic with a fixed cluster count when non-zero.
  size_t FixedClusters = 0;

  /// Upper bound on live calibration entries under online refresh
  /// (refreshCalibration() folds relabeled deployment samples into the
  /// store and evicts oldest-first beyond this bound, keeping a
  /// continuously refreshed server's memory flat). 0 = unbounded.
  /// calibrate() itself never evicts — the bound governs refresh only.
  size_t MaxCalibEntries = 0;

  /// Effective credibility threshold.
  double credThreshold() const {
    return CredThreshold < 0.0 ? Epsilon : CredThreshold;
  }
};

} // namespace prom

#endif // PROM_CORE_PROMCONFIG_H
