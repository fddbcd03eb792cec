//===- examples/self_healing_server.cpp - Drift-triggered recalibration -------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// A long-running, self-recalibrating assessment server: a Vulde-style
// Bi-LSTM trained on 2013-2018 serves a stream of samples arriving year
// by year through an AssessmentService, with a WindowedDriftMonitor
// folded inside the serving loop and a RecalibrationController closing
// the paper's deployment loop automatically:
//
//   drift alert (rising edge of the windowed rejection rate)
//     -> background incremental calibration refresh from the relabeled
//        buffer (serving continues on the old store)
//     -> atomic store swap (zero dropped or failed requests)
//     -> snapshot rotation (snapshot.N.bin + `latest` pointer, old
//        generations pruned)
//     -> monitor reset (the alarm re-arms against the refreshed store)
//
// Each served year also feeds a small relabeling budget back into the
// controller — the "relabel a small sample of deployment data" of the
// paper's continual-deployment story (labels arrive late, but they
// arrive). No operator intervention, no detector teardown, no restart.
// A DriftAttribution sink rides along the monitor, so every alert also
// prints *which* feature dimensions drifted (and how: sudden, gradual,
// recurring), and the controller spends the bounded relabel budget on
// the samples that moved along those dimensions.
//
// After the yearly stream the example runs a fault storm: every named
// fault point (snapshot writes/renames/loads, refresh attempts, batcher
// stalls) armed at 100%. The server must keep answering bit-identically
// from the last known-good calibration the whole time, and once the
// faults are disarmed the abandoned refresh batch folds in on the next
// trigger — graceful degradation, then self-healing.
//
//===----------------------------------------------------------------------===//

#include "core/Prom.h"
#include "data/Scaler.h"
#include "data/Split.h"
#include "eval/ModelZoo.h"
#include "serve/AssessmentService.h"
#include "serve/RecalibrationController.h"
#include "support/FaultInjection.h"
#include "support/Rng.h"
#include "support/Serialize.h"

#include <chrono>
#include <thread>
#include "tasks/VulnerabilityDetection.h"

#include <cstdio>
#include <future>
#include <vector>

using namespace prom;

int main() {
  support::Rng R(7);
  tasks::VulnerabilityDetection Task(/*SamplesPerClass=*/160);
  data::Dataset Data = Task.generate(R);

  data::Dataset TrainYears = Data.byYearRange(2013, 2018);
  auto [Train, Calib] = data::calibrationPartition(TrainYears, R, 0.15);

  data::StandardScaler Scaler;
  Scaler.fit(Train);
  Scaler.transformInPlace(Train);
  Scaler.transformInPlace(Calib);

  auto Model =
      eval::makeClassifier(eval::TaskId::VulnerabilityDetection, "Vulde");
  std::printf("training the bug detector on 2013-2018 (%zu samples)...\n",
              Train.size());
  Model->fit(Train, R);

  PromConfig Cfg;
  Cfg.MaxCalibEntries = Calib.size() + 256; // Bounded under refresh.
  PromClassifier Prom(*Model, Cfg);
  Prom.calibrate(Calib);
  std::printf("calibrated on %zu samples (store bound %zu)\n", Calib.size(),
              Cfg.MaxCalibEntries);

  // The serving stack: async service + streaming drift alarm + the
  // controller that turns alarms into automatic calibration refreshes.
  // The attribution layer rides along as an observe-only sink: it never
  // changes a verdict or an alert edge, it only explains them.
  serve::DriftAttributionConfig AttrCfg;
  AttrCfg.ReferenceWindow = 192; // Short windows: yearly streams are small.
  AttrCfg.CurrentWindow = 96;
  AttrCfg.MinCurrent = 24;
  serve::DriftAttribution Attribution(AttrCfg);

  serve::DriftWindowConfig WindowCfg;
  WindowCfg.WindowSize = 128;
  WindowCfg.AlertRejectRate = 0.25;
  WindowCfg.MinFill = 48;
  serve::WindowedDriftMonitor Monitor(WindowCfg);
  Monitor.setAttributionSink(&Attribution);

  const char *SnapshotDir = "self_healing_snapshots";
  serve::RecalibrationConfig RecalCfg;
  RecalCfg.MinRefreshSamples = 32;
  RecalCfg.SnapshotDir = SnapshotDir;
  RecalCfg.MaxSamplesPerRefresh = 40; // Spend the label budget on the
                                      // dimensions that actually moved.
  serve::RecalibrationController Controller(Prom, Monitor, RecalCfg);
  Controller.setScaler(&Scaler);
  Controller.setAttribution(&Attribution);

  // Tap the alert stream (the controller holds the monitor's subscriber
  // slot) to print *which* feature dimensions drifted at each alert.
  Controller.setAlertObserver([](const serve::DriftWindowSnapshot &Snap) {
    if (!Snap.HasAttribution || !Snap.Attribution.ReferenceReady)
      return;
    const serve::DriftAttributionReport &Rep = Snap.Attribution;
    std::printf("  [alert] reject rate %.2f, drift type %s, top dims:",
                Snap.RejectRate, serve::driftTypeName(Rep.Type));
    size_t Shown = 0;
    for (const serve::DimensionDrift &D : Rep.Top) {
      if (Shown++ == 4)
        break;
      std::printf(" f%zu(z=%+.1f)", D.Dim, D.ZScore);
    }
    std::printf("\n");
  });

  serve::ServiceConfig SvcCfg;
  SvcCfg.MaxBatch = 32;
  SvcCfg.FlushDeadline = std::chrono::microseconds(500);
  serve::AssessmentService Service(Prom, SvcCfg, &Monitor);

  std::printf("\n%-6s %-9s %-10s %-10s %-7s %-9s %-7s\n", "year", "samples",
              "accuracy", "rejected", "alerts", "refreshes", "store");
  size_t Failed = 0;
  const size_t RelabelBudgetPerYear = 48;
  for (int Year = 2016; Year <= 2023; ++Year) {
    data::Dataset Stream = Data.byYearRange(Year, Year);
    Scaler.transformInPlace(Stream);

    // Submit the year's arrivals as individual requests; the service
    // micro-batches them through the batch engine. Refreshes may
    // swap the store mid-year — requests never fail or block on it.
    std::vector<std::future<Verdict>> Futures;
    Futures.reserve(Stream.size());
    for (const data::Sample &S : Stream.samples())
      Futures.push_back(Service.submit(S));

    size_t Correct = 0, Rejected = 0;
    for (size_t I = 0; I < Stream.size(); ++I) {
      Verdict V;
      try {
        V = Futures[I].get();
      } catch (const std::exception &) {
        ++Failed;
        continue;
      }
      if (V.Predicted == Stream[I].Label)
        ++Correct;
      if (V.Drifted)
        ++Rejected;
    }

    // Delayed labels: a small relabeling budget of this year's samples
    // flows back. The controller folds them in at the next alert.
    for (size_t I = 0; I < Stream.size() && I < RelabelBudgetPerYear; ++I)
      Controller.submitLabeled(Stream[I]);

    // Let an alert raised by this year's tail finish its refresh before
    // printing the row (purely cosmetic - serving never waits).
    serve::RecalibrationStats RStats = Controller.stats();
    if (Monitor.alertActive() || RStats.AlertsSeen >
                                     RStats.RefreshesCompleted +
                                         RStats.RefreshesDeferred)
      Controller.waitForRefreshes(RStats.RefreshesCompleted + 1,
                                  std::chrono::milliseconds(2000));
    RStats = Controller.stats();

    double N = static_cast<double>(Stream.size());
    std::printf("%-6d %-9zu %-10.3f %-10.3f %-7zu %-9zu %-7zu %s\n", Year,
                Stream.size(), Correct / N, Rejected / N,
                static_cast<size_t>(RStats.AlertsSeen),
                static_cast<size_t>(RStats.RefreshesCompleted),
                Prom.calibrationSize(),
                RStats.RefreshesCompleted > 0 &&
                        Monitor.snapshot().TotalSeen < WindowCfg.MinFill
                    ? "<- recalibrated"
                    : "");
  }

  // ---- Fault storm: every failure point armed at 100% ----
  //
  // The game-day drill. With writes, renames, loads, refresh attempts,
  // and the batcher all failing or stalling, the server must degrade
  // gracefully: keep answering, bit-identical to a direct assessment of
  // the last known-good store, while the refresh machinery fails loudly
  // in its counters instead of corrupting anything.
  std::printf("\n-- fault storm: all fault points armed at 100%% --\n");
  data::Dataset Probe = Data.byYearRange(2023, 2023);
  Scaler.transformInPlace(Probe);
  std::vector<Verdict> Direct = Prom.assessBatch(Probe);

  namespace faults = support::faults;
  for (const char *Point :
       {"snapshot_write", "snapshot_truncate", "snapshot_corrupt",
        "snapshot_rename", "snapshot_load", "refresh_throw", "refresh_stall",
        "batcher_stall"})
    faults::arm(Point);

  // Serve under the storm: the batcher stalls on every batch, but every
  // verdict must still match the direct one bit for bit.
  size_t StormMismatches = 0, StormServed = 0;
  {
    std::vector<std::future<Verdict>> StormFutures;
    StormFutures.reserve(Probe.size());
    for (const data::Sample &S : Probe.samples())
      StormFutures.push_back(Service.submit(S));
    for (size_t I = 0; I < Probe.size(); ++I) {
      try {
        Verdict V = StormFutures[I].get();
        ++StormServed;
        if (V.Predicted != Direct[I].Predicted ||
            V.Drifted != Direct[I].Drifted)
          ++StormMismatches;
      } catch (const std::exception &) {
        ++Failed;
      }
    }
  }

  // Force a refresh under the storm: every attempt throws, the batch is
  // abandoned back into the buffer, and the store never moves.
  size_t StoreBefore = Prom.calibrationSize();
  uint64_t AbandonedBefore = Controller.stats().RefreshesAbandoned;
  for (size_t I = 0; I < RecalCfg.MinRefreshSamples; ++I)
    Controller.submitLabeled(Probe[I % Probe.size()]);
  Controller.triggerRefresh();
  for (int Spin = 0;
       Spin < 10000 &&
       Controller.stats().RefreshesAbandoned == AbandonedBefore;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  serve::RecalibrationStats Storm = Controller.stats();
  std::printf("served %zu/%zu storm requests, %zu verdict mismatches; "
              "refresh failed %llu times, %llu batch(es) abandoned, store "
              "still %zu entries\n",
              StormServed, Probe.size(), StormMismatches,
              static_cast<unsigned long long>(Storm.RefreshFailures),
              static_cast<unsigned long long>(Storm.RefreshesAbandoned -
                                              AbandonedBefore),
              Prom.calibrationSize());
  bool StormHealthy = StormMismatches == 0 &&
                      Prom.calibrationSize() == StoreBefore &&
                      Storm.RefreshesAbandoned > AbandonedBefore;

  // Disarm and heal: the abandoned batch is still buffered, so the next
  // trigger folds it in and rotation commits a fresh generation.
  faults::disarmAll();
  Controller.triggerRefresh();
  Controller.waitForRefreshes(Storm.RefreshesCompleted + 1,
                              std::chrono::milliseconds(10000));
  serve::RecalibrationStats Healed = Controller.stats();
  std::printf("disarmed: refresh #%llu folded the abandoned batch, store "
              "%zu entries -> recovered\n",
              static_cast<unsigned long long>(Healed.RefreshesCompleted),
              Prom.calibrationSize());
  StormHealthy =
      StormHealthy && Healed.RefreshesCompleted > Storm.RefreshesCompleted;

  Service.shutdown();
  Controller.shutdown();

  serve::ServiceStats Stats = Service.stats();
  serve::RecalibrationStats RStats = Controller.stats();
  std::printf("\nserved %llu requests in %llu micro-batches, %zu failed; "
              "%llu automatic refreshes folded %llu relabeled samples and "
              "rotated %llu snapshot generations.\n",
              static_cast<unsigned long long>(Stats.Completed),
              static_cast<unsigned long long>(Stats.Batches), Failed,
              static_cast<unsigned long long>(RStats.RefreshesCompleted),
              static_cast<unsigned long long>(RStats.SamplesFolded),
              static_cast<unsigned long long>(RStats.SnapshotsRotated));
  if (!RStats.LastDriftedDims.empty())
    std::printf("last refresh attributed the drift to feature dim %zu "
                "(type %s, max |z| %.1f); %llu refresh(es) ranked their "
                "relabel batch by attribution.\n",
                RStats.LastDriftedDims.front(),
                serve::driftTypeName(RStats.LastDriftType),
                RStats.LastMaxAbsZ,
                static_cast<unsigned long long>(RStats.RefreshesPrioritized));

  // The restart path: a fresh process loads the committed generation
  // (a stale pointer falls back to the newest generation that loads) and
  // serves the refreshed calibration without recalibrating.
  PromClassifier Restored(*Model);
  data::StandardScaler RestoredScaler;
  uint64_t Restart = support::loadLatestSnapshot(
      SnapshotDir, [&](const std::string &Path) {
        return Restored.loadSnapshot(Path, &RestoredScaler);
      });
  if (Restart != 0)
    std::printf("restart check: generation %llu restores %zu refreshed "
                "calibration entries (+ scaler) - no recalibration "
                "needed.\n",
                static_cast<unsigned long long>(Restart),
                Restored.calibrationSize());
  else
    std::printf("no snapshot generation was committed (no alert fired).\n");

  // Keep the repo clean: this is a demo, not a deployment.
  for (uint64_t Gen : support::listSnapshotGenerations(SnapshotDir))
    std::remove((std::string(SnapshotDir) + "/" +
                 support::snapshotGenerationFile(Gen))
                    .c_str());
  std::remove((std::string(SnapshotDir) + "/latest").c_str());
  std::remove(SnapshotDir);
  return Failed == 0 && StormHealthy ? 0 : 1;
}
