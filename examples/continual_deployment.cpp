//===- examples/continual_deployment.cpp - Incremental-learning loop ----------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The full Figure 3 feedback loop on the vulnerability-detection case
// study, run through the async serving runtime: a Vulde-style Bi-LSTM
// trained on 2013-2020 deploys on the 2021-2023 code behind an
// AssessmentService; PROM flags drifting requests in the serving loop, a
// 5% budget of the lowest-credibility flagged samples is relabeled (here:
// the generator's ground truth, standing in for the expert), the model is
// warm-start updated, the detector recalibrates, and the WindowedDriftMonitor
// is reset to watch the refreshed deployment. The loop repeats on the
// updated model to show detector and model adapt together.
//
//===----------------------------------------------------------------------===//

#include "core/Prom.h"
#include "data/Scaler.h"
#include "eval/ModelZoo.h"
#include "eval/Runner.h"
#include "serve/AssessmentService.h"
#include "support/Rng.h"
#include "tasks/VulnerabilityDetection.h"

#include <cstdio>
#include <future>
#include <vector>

using namespace prom;

int main() {
  support::Rng R(11);
  tasks::VulnerabilityDetection Task(/*SamplesPerClass=*/180);
  data::Dataset Data = Task.generate(R);
  tasks::TaskSplit Split = Task.driftSplits(Data, R)[0];
  eval::PreparedSplit Prep = eval::prepare(Split, R);

  auto Model = eval::makeClassifier(eval::TaskId::VulnerabilityDetection,
                                    "Vulde");
  std::printf("training on 2013-2020 (%zu samples), deploying on "
              "2021-2023 (%zu samples)...\n",
              Prep.Train.size(), Prep.Test.size());
  Model->fit(Prep.Train, R);

  // Tune the rejection thresholds on the calibration split (Sec. 5.2) —
  // fixed defaults are rarely right for an arbitrary model/task pair.
  // Grid search reuses one batched model forward per internal fold across
  // all 54 candidate configurations.
  GridSearchResult Tuned = gridSearch(*Model, Prep.Calib,
                                      GridSearchSpace(), PromConfig(), R,
                                      /*Repeats=*/2, labelMispredicate());
  std::printf("grid search: credibility threshold %.2f, confidence "
              "threshold %.2f (internal F1 %.2f)\n",
              Tuned.Best.credThreshold(), Tuned.Best.ConfThreshold,
              Tuned.BestF1);

  const double RelabelBudget = 0.05;
  const size_t OversampleFactor = 4;

  data::Dataset Train = Prep.Train;
  data::Dataset Calib = Prep.Calib;

  serve::WindowedDriftMonitor Monitor(
      serve::DriftWindowConfig{/*WindowSize=*/128, /*AlertRejectRate=*/0.3,
                               /*MinFill=*/32});

  std::printf("\n%-7s %-12s %-12s %-9s %-10s %-7s\n", "round",
              "native acc", "updated acc", "flagged", "relabeled",
              "alerts");
  for (int Round = 1; Round <= 3; ++Round) {
    // Deployment pass through the serving runtime: the detector is
    // rebuilt on the current model/calibration state, the test years
    // arrive as individual requests.
    PromClassifier Prom(*Model, Tuned.Best);
    Prom.calibrate(Calib);

    serve::ServiceConfig SvcCfg;
    SvcCfg.MaxBatch = 32;
    serve::AssessmentService Service(Prom, SvcCfg, &Monitor);

    std::vector<std::future<Verdict>> Futures;
    Futures.reserve(Prep.Test.size());
    for (const data::Sample &S : Prep.Test.samples())
      Futures.push_back(Service.submit(S));

    size_t NativeCorrect = 0;
    std::vector<size_t> Flagged;
    std::vector<double> Credibility(Prep.Test.size(), 0.0);
    for (size_t I = 0; I < Prep.Test.size(); ++I) {
      Verdict V = Futures[I].get();
      Credibility[I] = V.meanCredibility();
      if (V.Predicted == Prep.Test[I].Label)
        ++NativeCorrect;
      if (V.Drifted)
        Flagged.push_back(I);
    }
    Service.shutdown();
    double NativeAcc = static_cast<double>(NativeCorrect) /
                       static_cast<double>(Prep.Test.size());

    // Relabel the lowest-credibility flagged samples within the budget
    // (the user-feedback edge of Figure 3).
    size_t NumFlaggedTotal = Flagged.size();
    Flagged = selectRelabelCandidates(Flagged, Credibility,
                                      Prep.Test.size(), RelabelBudget);

    if (!Flagged.empty()) {
      data::Dataset Merged = Train;
      for (size_t I : Flagged) {
        for (size_t Copy = 0; Copy < OversampleFactor; ++Copy)
          Merged.add(Prep.Test[I]);
        Train.add(Prep.Test[I]);
        Calib.add(Prep.Test[I]);
      }
      Model->update(Merged, R);
    }

    // Post-update accuracy (batched forward, argmax per row).
    size_t UpdatedCorrect = 0;
    support::Matrix Probs = Model->predictProbaBatch(Prep.Test);
    for (size_t I = 0; I < Prep.Test.size(); ++I)
      if (static_cast<int>(support::argmaxRow(Probs, I)) ==
          Prep.Test[I].Label)
        ++UpdatedCorrect;
    double UpdatedAcc = static_cast<double>(UpdatedCorrect) /
                        static_cast<double>(Prep.Test.size());

    serve::DriftWindowSnapshot Snap = Monitor.snapshot();
    std::printf("%-7d %-12.3f %-12.3f %-9zu %-10zu %-7zu\n", Round,
                NativeAcc, UpdatedAcc, NumFlaggedTotal, Flagged.size(),
                Snap.AlertsRaised);
    if (Flagged.empty())
      break; // Nothing left to learn from.

    // The refreshed detector starts the next round from a clean window.
    Monitor.reset();
  }

  std::printf("\nEach round relabels <= 5%% of the deployment stream; "
              "accuracy climbs toward the design-time level (the paper's "
              "Figure 3 loop) while the drift monitor rides along in the "
              "serving path.\n");
  return 0;
}
