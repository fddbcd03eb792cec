//===- core/Assessment.cpp - Initialization assessment ----------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Assessment.h"
#include "core/Detector.h"
#include "data/Split.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <cassert>
#include <cmath>

using namespace prom;

AssessmentResult prom::assessInitialization(const ml::Classifier &Model,
                                            const data::Dataset &Calib,
                                            const PromConfig &Cfg,
                                            support::Rng &R,
                                            size_t Repeats) {
  assert(Calib.size() >= 10 && "calibration set too small to assess");
  AssessmentResult Result;

  for (size_t Rep = 0; Rep < Repeats; ++Rep) {
    data::TrainTest Split = data::randomSplit(Calib, /*TestFraction=*/0.2, R);
    const data::Dataset &Internal = Split.Train; // 80%: internal calibration.
    const data::Dataset &Val = Split.Test;       // 20%: internal validation.
    if (Internal.empty() || Val.empty())
      continue;

    PromClassifier Prom(Model, Cfg);
    Prom.calibrate(Internal);

    // Eq. (3): fraction of validation samples whose true label lies in the
    // epsilon-level prediction region, averaged across the experts. One
    // engine pass per sample yields every expert's row.
    double Covered = 0.0, Total = 0.0;
    for (const data::Sample &S : Val.samples()) {
      for (const std::vector<double> &PVals : Prom.pValues(S)) {
        bool InRegion =
            PVals[static_cast<size_t>(S.Label)] > Cfg.Epsilon;
        Covered += InRegion ? 1.0 : 0.0;
        Total += 1.0;
      }
    }
    if (Total > 0.0)
      Result.FoldCoverages.push_back(Covered / Total);
  }

  Result.MeanCoverage = support::mean(Result.FoldCoverages);
  Result.Deviation = std::fabs(Result.MeanCoverage - (1.0 - Cfg.Epsilon));
  Result.Ok = Result.Deviation <= 0.1;
  return Result;
}
