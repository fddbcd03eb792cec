//===- perfbench/Regress.cpp - The regress_10k workload --------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Closed loop over PromRegressor::assessBatch in batches of 64 with 10^4
// calibration entries, past ClusterIndexMinEntries, so the k-NN
// ground-truth lookups run through the pruned ClusterIndex. This is the
// cost-model guard: the regression engine and its k-NN index are measured
// nowhere else. The pseudo-label count is fixed (6 clusters) so set-up
// does not pay for the gap-statistic sweep.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <filesystem>

using namespace prom;

namespace perfbench {

namespace {

constexpr size_t Entries = 10000;
/// Set-ups per run: one before the closed loop, the rest spread over it.
constexpr int SetupReps = 7;
constexpr size_t WarmupBatches = 4;
constexpr size_t Clusters = 6;
/// A prediction counts as wrong when its error exceeds this multiple of
/// the model's median absolute error on the calibration set.
constexpr double WrongFactor = 3.0;

PromConfig regressorConfig() {
  PromConfig Cfg;
  Cfg.FixedClusters = Clusters;
  return Cfg;
}

} // namespace

void runRegress(const Options &Opt, RunResult &Out) {
  support::Rng R(Opt.Seed);
  data::Dataset Calib = regressSet(R, Entries);
  data::Dataset Stream = regressStream(R);
  const uint64_t ClusterSeed = R.next();
  std::unique_ptr<ml::MlpRegressor> Host = trainHostRegressor();
  SpanLog Log;
  TracedRegressor Traced(*Host, Log);
  const ml::Regressor &Model =
      Opt.Trace ? static_cast<const ml::Regressor &>(Traced) : *Host;

  const size_t NumBatches = Stream.size() / BatchRows;
  std::vector<data::Dataset> Batches;
  for (size_t B = 0; B < NumBatches; ++B)
    Batches.push_back(slice(Stream, B * BatchRows, BatchRows));

  std::vector<double> SetupS, CalibrateS;
  auto SetUp = [&] {
    auto T0 = Clock::now();
    auto P = std::make_unique<PromRegressor>(Model, regressorConfig());
    support::Rng CR(ClusterSeed);
    P->calibrate(Calib, CR);
    CalibrateS.push_back(secondsSince(T0));
    for (size_t B = 0; B < WarmupBatches; ++B)
      P->assessBatch(Batches[B]);
    SetupS.push_back(secondsSince(T0));
    return P;
  };
  std::unique_ptr<PromRegressor> Prom = SetUp();

  // The closed loop, in slices with one more set-up after each (see
  // engine_10k); the forward span of each call splits model from engine
  // time in traced runs.
  std::vector<double> CallUs, Rates;
  std::vector<RegressionVerdict> FirstPass =
      slicedClosedLoop(*Prom, Batches, 0.85 * Opt.Seconds, SetupReps - 1,
                       [&] { SetUp(); }, Log, Opt.Trace, CallUs, Rates);
  Out.Attempted += CallUs.size();

  // Wrong = error above WrongFactor x the calibration median error.
  std::vector<double> CalibErr;
  std::vector<double> CalibPred = Host->predictBatch(Calib);
  for (size_t I = 0; I < Calib.size(); ++I)
    CalibErr.push_back(std::fabs(CalibPred[I] - Calib[I].Target));
  double WrongAbove = WrongFactor * median(CalibErr);
  size_t Wrong = 0, Caught = 0, Flagged = 0;
  for (size_t I = 0; I < Stream.size(); ++I) {
    Flagged += FirstPass[I].Drifted ? 1 : 0;
    if (std::fabs(FirstPass[I].Predicted - Stream[I].Target) <= WrongAbove)
      continue;
    ++Wrong;
    Caught += FirstPass[I].Drifted ? 1 : 0;
  }

  // Gate: a snapshot round trip must reproduce the direct verdicts.
  data::Dataset Probe = slice(Stream, 0, 128);
  std::vector<RegressionVerdict> Ref = Prom->assessBatch(Probe);
  Out.Digest = digest(Ref);
  SnapshotTimes Snap;
  std::filesystem::create_directories(Opt.WorkDir);
  std::string Path = Opt.WorkDir + "/regress.snapshot";
  auto T0 = Clock::now();
  bool Saved = Prom->saveSnapshot(Path);
  Snap.SaveMs = 1e3 * secondsSince(T0);
  PromRegressor Restored(Model, regressorConfig());
  T0 = Clock::now();
  bool Loaded = Saved && Restored.loadSnapshot(Path);
  Snap.LoadMs = 1e3 * secondsSince(T0);
  if (Saved)
    Snap.Bytes = static_cast<double>(std::filesystem::file_size(Path));
  std::vector<RegressionVerdict> Got;
  if (Loaded)
    Got = Restored.assessBatch(Probe);
  for (size_t I = 0; I < Ref.size(); ++I) {
    ++Out.Attempted;
    if (I >= Got.size() || !sameVerdict(Got[I], Ref[I]))
      ++Out.Mismatches;
  }

  Out.EndToEnd.push_back({"throughput_sps", median(Rates), "1/s"});
  addLatency(Out, Out.EndToEnd, "", summarize(CallUs), "batch calls");
  Out.EndToEnd.push_back({"setup_s", median(SetupS), "s"});
  Out.Ledger.push_back(
      {"flag_recall", Wrong ? static_cast<double>(Caught) / Wrong : 0.0,
       "fraction"});
  if (!Opt.Trace)
    return;

  std::vector<ForwardSpan> Spans = Log.take();
  ForwardStats Fwd = forwardStats(Spans);
  // Engine time per call: the call minus its forward span.
  std::vector<double> EngineUs;
  for (size_t I = 0; I < Spans.size() && I < CallUs.size(); ++I)
    EngineUs.push_back(
        (CallUs[I] - usBetween(Spans[I].Start, Spans[I].End)) / BatchRows);
  PromRegressor Raw(*Host, regressorConfig());
  support::Rng CR(ClusterSeed);
  Raw.calibrate(Calib, CR);
  double Overhead = traceOverhead(*Prom, Raw, Batches, 0.1 * Opt.Seconds, Log);
  addCommonLayers(Out, Fwd, median(EngineUs), median(CalibrateS),
                  static_cast<double>(Flagged) / Stream.size(),
                  static_cast<double>(Entries * FeatureDim * 8), Snap,
                  Overhead);
  Out.Ledger.push_back(
      {"core.regressor.engine_us_per_sample", median(EngineUs), "us"});
  Out.Ledger.push_back(
      {"core.regressor.calibrate_s", median(CalibrateS), "s"});
}

} // namespace perfbench
