//===- baselines/Baselines.cpp - Comparison drift detectors -----------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "data/Split.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>

using namespace prom;
using namespace prom::baselines;

/// Configuration shared by the single-function, full-calibration baselines:
/// no adaptive selection, no distance weighting, decision on credibility
/// alone (confidence threshold above 1 disables the conjunct).
static PromConfig baselineConfig(double Epsilon) {
  PromConfig Cfg;
  Cfg.Epsilon = Epsilon;
  Cfg.SelectFraction = 1.0;
  Cfg.SelectAllBelow = static_cast<size_t>(-1);
  Cfg.WeightMode = CalibrationWeightMode::None;
  Cfg.ConfThreshold = 2.0; // Always satisfied: reject on credibility only.
  Cfg.MinVotesToFlag = 1;
  return Cfg;
}

/// Single-expert committee (LAC), matching the prior work's monolithic
/// nonconformity function.
static std::vector<std::unique_ptr<ClassificationScorer>> lacOnly() {
  std::vector<std::unique_ptr<ClassificationScorer>> Scorers;
  Scorers.push_back(std::make_unique<LacScorer>());
  return Scorers;
}

//===----------------------------------------------------------------------===//
// NaiveCpDetector
//===----------------------------------------------------------------------===//

void NaiveCpDetector::fit(const ml::Classifier &Model,
                          const data::Dataset &Calib, support::Rng &) {
  Impl = std::make_unique<PromClassifier>(Model, lacOnly(),
                                          baselineConfig(Epsilon));
  Impl->calibrate(Calib);
}

bool NaiveCpDetector::isDrifting(const data::Sample &S) const {
  assert(Impl && "fit() not called");
  return Impl->assess(S).Drifted;
}

std::vector<char>
NaiveCpDetector::isDriftingBatch(const data::Dataset &Batch) const {
  assert(Impl && "fit() not called");
  std::vector<Verdict> Verdicts = Impl->assessBatch(Batch);
  std::vector<char> Out(Verdicts.size(), 0);
  for (size_t I = 0; I < Verdicts.size(); ++I)
    Out[I] = Verdicts[I].Drifted ? 1 : 0;
  return Out;
}

//===----------------------------------------------------------------------===//
// RiseDetector
//===----------------------------------------------------------------------===//

std::vector<double> RiseDetector::cpFeatures(const data::Sample &S) const {
  std::vector<double> PVals = Impl->pValues(S)[0];
  size_t Pred = support::argmax(Impl->model().predictProba(S));
  double Cred = PVals[Pred];
  double SecondBest = 0.0;
  for (size_t C = 0; C < PVals.size(); ++C)
    if (C != Pred)
      SecondBest = std::max(SecondBest, PVals[C]);
  return {Cred, 1.0 - SecondBest};
}

void RiseDetector::fit(const ml::Classifier &Model,
                       const data::Dataset &Calib, support::Rng &R) {
  // 70% of the calibration data computes CP scores; the remaining 30%
  // trains the misprediction SVM on (credibility, confidence) features.
  data::TrainTest Split = data::randomSplit(Calib, /*TestFraction=*/0.3, R);
  const data::Dataset &CpPart = Split.Train;
  const data::Dataset &SvmPart = Split.Test;

  Impl = std::make_unique<PromClassifier>(Model, lacOnly(),
                                          baselineConfig(Epsilon));
  Impl->calibrate(CpPart.empty() ? Calib : CpPart);

  data::Dataset SvmTrain("rise-svm", 2);
  for (const data::Sample &S : SvmPart.samples()) {
    data::Sample Row;
    Row.Features = cpFeatures(S);
    Row.Label = Model.predict(S) != S.Label ? 1 : 0;
    SvmTrain.add(std::move(Row));
  }

  // The SVM needs both classes; fall back to threshold-free CP otherwise.
  std::vector<size_t> Counts = SvmTrain.classCounts();
  Svm.reset();
  if (SvmTrain.size() >= 8 && Counts[0] > 0 && Counts[1] > 0) {
    Svm = std::make_unique<ml::LinearSvm>();
    Svm->fit(SvmTrain, R);
  }
}

bool RiseDetector::isDrifting(const data::Sample &S) const {
  assert(Impl && "fit() not called");
  std::vector<double> Features = cpFeatures(S);
  if (Svm) {
    data::Sample Row;
    Row.Features = Features;
    return Svm->predict(Row) == 1;
  }
  return Features[0] < Epsilon; // Degenerate fallback.
}

//===----------------------------------------------------------------------===//
// TesseractDetector
//===----------------------------------------------------------------------===//

void TesseractDetector::fit(const ml::Classifier &Model,
                            const data::Dataset &Calib, support::Rng &R) {
  data::TrainTest Split = data::randomSplit(Calib, /*TestFraction=*/0.25, R);
  const data::Dataset &CpPart = Split.Train;
  const data::Dataset &ValPart = Split.Test;

  Impl = std::make_unique<PromClassifier>(Model, lacOnly(),
                                          baselineConfig(Quantile));
  Impl->calibrate(CpPart.empty() ? Calib : CpPart);

  // Per-class thresholds: the Quantile-level credibility of correctly
  // predicted validation samples of that class.
  int NumClasses = Model.numClasses();
  std::vector<std::vector<double>> PerClass(
      static_cast<size_t>(NumClasses));
  for (const data::Sample &S : ValPart.samples()) {
    int Pred = Model.predict(S);
    if (Pred != S.Label)
      continue;
    std::vector<double> PVals = Impl->pValues(S)[0];
    PerClass[static_cast<size_t>(Pred)].push_back(
        PVals[static_cast<size_t>(Pred)]);
  }
  ClassThresholds.assign(static_cast<size_t>(NumClasses), Quantile);
  for (int C = 0; C < NumClasses; ++C)
    if (PerClass[static_cast<size_t>(C)].size() >= 4)
      ClassThresholds[static_cast<size_t>(C)] =
          support::quantile(PerClass[static_cast<size_t>(C)], Quantile);
}

bool TesseractDetector::isDrifting(const data::Sample &S) const {
  assert(Impl && "fit() not called");
  int Pred = Impl->model().predict(S);
  std::vector<double> PVals = Impl->pValues(S)[0];
  return PVals[static_cast<size_t>(Pred)] <
         ClassThresholds[static_cast<size_t>(Pred)];
}
