//===- perfbench/Bench.h - Shared plumbing of the seeded benchmark -*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the three workloads share: run options and the result record,
/// timing and latency summaries, the seeded input generators, the fixed
/// host models, the tracing decorators, the open-loop arrival schedule,
/// the correctness gate and the store-stage replica.
///
/// The benchmark only calls the prom library's public API. Per-layer
/// numbers come from spans the benchmark records around its own calls
/// into each layer (and around model forwards, through a forwarding
/// decorator), never from instrumentation inside the library.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "core/CApi.h"
#include "core/Detector.h"
#include "ml/Mlp.h"
#include "serve/AssessmentService.h"
#include "support/Rng.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}
inline double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0; ///< Measured time, split over the timed phases.
  bool Trace = false;
  std::string WorkDir;   ///< Scratch directory for snapshots (removed).
};

/// One named metric with its unit.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Everything one run reports.
struct RunResult {
  uint64_t Attempted = 0;  ///< Operations attempted (requests, calls, checks).
  uint64_t Shed = 0;       ///< Requests shed for any reason.
  uint64_t Unresolved = 0; ///< Futures that never resolved.
  uint64_t Mismatches = 0; ///< Verdicts differing from direct assessBatch.
  bool ReplicaExact = true; ///< Store replica matched assessBatch bits.
  std::string Digest;       ///< Hex digest of the probe-set verdicts.
  std::vector<Metric> EndToEnd; ///< The gated metrics (untraced runs).
  std::vector<Metric> PerLayer; ///< The layer metrics every workload has.
  std::vector<Metric> Ledger;   ///< Workload-specific metrics and stages.
  std::vector<std::string> Notes; ///< Sample counts and similar remarks.

  uint64_t failed() const { return Shed + Unresolved + Mismatches; }
  bool correct() const { return Mismatches == 0 && Unresolved == 0 && ReplicaExact; }
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);

/// Median and tail of a latency sample. The tail is the highest quantile,
/// at most 0.99, that leaves at least ten samples beyond it.
struct LatencySummary {
  size_t Count = 0;
  double P50 = 0.0;
  double Tail = 0.0;
  double TailQuantile = 0.0;
};
LatencySummary summarize(std::vector<double> V);

/// Quantile \p Q of \p V by linear interpolation (0 when empty).
double quantile(std::vector<double> V, double Q);

/// "p99_us is p97.3 over 370 calls"-style note for a tail metric.
std::string tailNote(const std::string &Name, const LatencySummary &S,
                     const char *What);

/// Adds the p50/p99 pair of \p S to \p Into as <Prefix>.p50 / <Prefix>.p99
/// (an empty prefix gives the plain p50_us / p99_us) and records the tail
/// note in \p Out.
void addLatency(RunResult &Out, std::vector<Metric> &Into,
                const std::string &Prefix, const LatencySummary &S,
                const char *What);

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

constexpr size_t FeatureDim = 16;
constexpr int NumClasses = 6;
constexpr size_t StreamRows = 4096;  ///< Distinct rows of a deployment stream.
constexpr size_t BatchRows = 64;     ///< Closed-loop batch size.
/// Every fourth stream row is drifted: all features shifted by 3 sigma.
/// At 10^3 and 10^4 entries the default committee flags roughly 40% of the
/// mispredicted rows on this stream.
constexpr double DriftShift = 3.0;

/// Classification sample: feature D ~ N(0.7 * Label, 1), plus DriftShift
/// on every feature when \p Drifted.
prom::data::Sample classSample(prom::support::Rng &R, int Label, bool Drifted);

/// Regression sample: target = sum_D sin(x_D) * (D + 1) / 16 over
/// x ~ N(0, 1), plus DriftShift on every feature when \p Drifted.
prom::data::Sample regressSample(prom::support::Rng &R, bool Drifted);

/// \p N classification samples with balanced labels.
prom::data::Dataset classSet(prom::support::Rng &R, size_t N);
/// A deployment stream of StreamRows rows; row I is drifted when I % 4 == 0.
prom::data::Dataset classStream(prom::support::Rng &R);
/// \p N regression samples.
prom::data::Dataset regressSet(prom::support::Rng &R, size_t N);
/// A regression stream of StreamRows rows, drifted like classStream().
prom::data::Dataset regressStream(prom::support::Rng &R);

/// Row block [First, First + Count) of \p M.
prom::support::Matrix rowBlock(const prom::support::Matrix &M, size_t First,
                               size_t Count);

/// Copies \p Count rows of \p Pool starting at row \p First (cyclic).
prom::data::Dataset slice(const prom::data::Dataset &Pool, size_t First,
                          size_t Count);

/// The host's classifier: an MLP (hidden 32-16, so 16-d embeddings) trained
/// once from a fixed seed. It stands for the already-deployed model, so it
/// does not vary with --seed; its training is excluded from setup_s.
std::unique_ptr<prom::ml::MlpClassifier> trainHostClassifier();
/// The host's regressor, trained the same way.
std::unique_ptr<prom::ml::MlpRegressor> trainHostRegressor();

/// Share of mispredicted rows (Predicted != Label) that were flagged.
double flagRecall(const prom::data::Dataset &Rows,
                  const std::vector<prom::Verdict> &V);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One model-forward span: wall interval plus the sample ids it carried.
struct ForwardSpan {
  Clock::time_point Start;
  Clock::time_point End;
  std::vector<uint64_t> Ids;
};

/// In-memory span log, written out only after the run. Recording is
/// switched on for the timed phases only.
class SpanLog {
public:
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void record(ForwardSpan S);
  std::vector<ForwardSpan> take();

private:
  std::atomic<bool> Enabled{false};
  std::mutex Mutex; ///< Guards Spans.
  std::vector<ForwardSpan> Spans;
};

/// Forwarding decorator that records a span around every batched forward
/// (direct, service, fleet and refresh paths all go through it).
class TracedClassifier : public prom::ml::Classifier {
public:
  TracedClassifier(const prom::ml::Classifier &Inner, SpanLog &Log)
      : Inner(Inner), Log(Log) {}
  void fit(const prom::data::Dataset &, prom::support::Rng &) override;
  std::vector<double> predictProba(const prom::data::Sample &S) const override {
    return Inner.predictProba(S);
  }
  std::vector<double> embed(const prom::data::Sample &S) const override {
    return Inner.embed(S);
  }
  void predictWithEmbedBatch(const prom::data::Dataset &Batch,
                             prom::support::Matrix &Probs,
                             prom::support::Matrix &Embeds) const override;
  int numClasses() const override { return Inner.numClasses(); }
  std::string name() const override { return Inner.name(); }

private:
  const prom::ml::Classifier &Inner;
  SpanLog &Log;
};

/// The regressor counterpart of TracedClassifier.
class TracedRegressor : public prom::ml::Regressor {
public:
  TracedRegressor(const prom::ml::Regressor &Inner, SpanLog &Log)
      : Inner(Inner), Log(Log) {}
  void fit(const prom::data::Dataset &, prom::support::Rng &) override;
  double predict(const prom::data::Sample &S) const override {
    return Inner.predict(S);
  }
  std::vector<double> embed(const prom::data::Sample &S) const override {
    return Inner.embed(S);
  }
  void predictWithEmbedBatch(const prom::data::Dataset &Batch,
                             std::vector<double> &Predictions,
                             prom::support::Matrix &Embeds) const override;
  std::string name() const override { return Inner.name(); }

private:
  const prom::ml::Regressor &Inner;
  SpanLog &Log;
};

/// Forward time per row and rows per call over \p Spans.
struct ForwardStats {
  size_t Calls = 0;
  size_t Rows = 0;
  double UsPerRow = 0.0;
  double RowsPerCall = 0.0;
};
ForwardStats forwardStats(const std::vector<ForwardSpan> &Spans);

//===----------------------------------------------------------------------===//
// Open-loop arrivals
//===----------------------------------------------------------------------===//

/// Poisson arrival offsets (seconds from the start) at \p Rate per second
/// over \p Seconds.
std::vector<double> poissonSchedule(prom::support::Rng &R, double Rate,
                                    double Seconds);

/// Blocks until \p Due: sleeps while far away, yields when close.
void waitUntil(Clock::time_point Due);

/// One planned request of an open loop.
struct PlannedRequest {
  double Due = 0.0;   ///< Seconds after the loop starts.
  std::string Tenant; ///< Fleet tenant ("" for a single-tenant service).
  size_t Row = 0;     ///< Row of the request pool it sends.
};

/// How one open-loop request ended.
enum class Outcome : uint8_t { Verdict, Shed, Unresolved };

/// Per-request record of an open loop, indexed like the plan.
struct OpenLoopRun {
  Clock::time_point Start;
  std::vector<double> LatencyUs; ///< Due time to resolution.
  std::vector<double> LagUs;     ///< How late the generator sent it.
  std::vector<Outcome> Outcomes;
};

/// Sends \p Plan through \p Svc from one generator thread, timing every
/// request from its due time to the moment a collector thread sees its
/// future resolve. Request I carries sample id \p IdBase + I. \p OnVerdict
/// runs on the collector for every verdict. Returns after every future
/// resolved or was given up (30 s past the last due time).
OpenLoopRun runOpenLoop(
    prom::serve::AssessmentService &Svc,
    const std::vector<PlannedRequest> &Plan, const prom::data::Dataset &Pool,
    uint64_t IdBase,
    const std::function<void(size_t, const prom::Verdict &)> &OnVerdict);

/// The service-layer ledger of an open loop: queue wait (due time to the
/// start of the forward span that served the request, from \p Spans),
/// batch size, size-flush and shed fractions from \p Stats, and how late
/// the generator ran.
void addServiceLayers(RunResult &Out, const prom::serve::ServiceStats &Stats,
                      const OpenLoopRun &Run,
                      const std::vector<PlannedRequest> &Plan,
                      const std::vector<ForwardSpan> &Spans, uint64_t IdBase);

/// Closed loop of one caller over \p Batches (cyclically) for one full pass
/// and at least \p Seconds: every assessBatch call is timed into \p CallUs,
/// and \p Rates gets the verdict rate of every set of 8 calls. Returns the
/// first pass's verdicts in row order.
template <typename Detector>
auto closedLoop(const Detector &D,
                const std::vector<prom::data::Dataset> &Batches,
                double Seconds, std::vector<double> &CallUs,
                std::vector<double> &Rates) {
  decltype(D.assessBatch(Batches[0])) FirstPass;
  auto Start = Clock::now();
  for (size_t B = 0; B < Batches.size() || secondsSince(Start) < Seconds;) {
    size_t Rows = 0;
    auto SetStart = Clock::now();
    for (size_t K = 0; K < 8; ++K, ++B) {
      const prom::data::Dataset &Batch = Batches[B % Batches.size()];
      auto T0 = Clock::now();
      auto V = D.assessBatch(Batch);
      CallUs.push_back(usBetween(T0, Clock::now()));
      Rows += Batch.size();
      if (B < Batches.size())
        FirstPass.insert(FirstPass.end(), std::make_move_iterator(V.begin()),
                         std::make_move_iterator(V.end()));
    }
    Rates.push_back(static_cast<double>(Rows) / secondsSince(SetStart));
  }
  return FirstPass;
}

/// closedLoop() over \p Seconds in \p Slices slices, with \p Between run
/// after each slice and four untimed calls after that, so the caches
/// \p Between disturbed are warm again before timing resumes. Span
/// recording is on only inside the slices (traced runs). Returns the first
/// pass's verdicts in row order.
template <typename Detector>
auto slicedClosedLoop(const Detector &D,
                      const std::vector<prom::data::Dataset> &Batches,
                      double Seconds, int Slices,
                      const std::function<void()> &Between, SpanLog &Log,
                      bool Trace, std::vector<double> &CallUs,
                      std::vector<double> &Rates) {
  decltype(D.assessBatch(Batches[0])) FirstPass;
  for (int S = 0; S < Slices; ++S) {
    Log.setEnabled(Trace);
    auto Pass = closedLoop(D, Batches, Seconds / Slices, CallUs, Rates);
    Log.setEnabled(false);
    if (S == 0)
      FirstPass = std::move(Pass);
    Between();
    for (size_t B = 0; B < 4; ++B)
      D.assessBatch(Batches[B % Batches.size()]);
  }
  return FirstPass;
}

/// Staged drain: \p Count requests over \p Pool (rows taken
/// cyclically from \p First, tenants from \p TenantOf) are queued into a
/// paused service built by \p Make, then the batchers start and the drain
/// is timed. Returns verdicts per second; counts failures into \p Out.
double stagedDrain(
    const std::function<std::unique_ptr<prom::serve::AssessmentService>()>
        &Make,
    const prom::data::Dataset &Pool, size_t First, size_t Count,
    const std::function<std::string(size_t)> &TenantOf, RunResult &Out);

/// Tracing overhead of \p Traced against \p Raw: 1 - traced/untraced
/// closed-loop assessBatch rate over \p Batches, alternating sets of
/// batches for \p Seconds in total (span recording on for the traced
/// sets).
template <typename Detector>
double traceOverhead(const Detector &Traced, const Detector &Raw,
                     const std::vector<prom::data::Dataset> &Batches,
                     double Seconds, SpanLog &Log) {
  std::vector<double> TracedRate, RawRate;
  auto Start = Clock::now();
  for (size_t Set = 0; Set < 4 || secondsSince(Start) < Seconds; ++Set) {
    bool UseTraced = Set % 2 == 0;
    Log.setEnabled(UseTraced);
    size_t Rows = 0;
    auto T0 = Clock::now();
    for (size_t B = 0; B < 4; ++B) {
      const prom::data::Dataset &Batch = Batches[(Set * 4 + B) % Batches.size()];
      (UseTraced ? Traced : Raw).assessBatch(Batch);
      Rows += Batch.size();
    }
    double Rate = static_cast<double>(Rows) / secondsSince(T0);
    (UseTraced ? TracedRate : RawRate).push_back(Rate);
  }
  Log.setEnabled(false);
  Log.take();
  return 1.0 - median(TracedRate) / median(RawRate);
}

//===----------------------------------------------------------------------===//
// Correctness
//===----------------------------------------------------------------------===//

/// Bitwise equality of two classification verdicts.
bool sameVerdict(const prom::Verdict &A, const prom::Verdict &B);
/// Bitwise equality of two regression verdicts.
bool sameVerdict(const prom::RegressionVerdict &A,
                 const prom::RegressionVerdict &B);

/// FNV-1a digest of the verdict bits, as 16 hex digits.
std::string digest(const std::vector<prom::Verdict> &V);
std::string digest(const std::vector<prom::RegressionVerdict> &V);

/// Snapshot round-trip timings of the gate.
struct SnapshotTimes {
  double SaveMs = 0.0;
  double LoadMs = 0.0;
  double Bytes = 0.0;
};

/// The classifier correctness gate. On \p Probe, verdicts through a
/// single-tenant AssessmentService, through a fleet-mode service before and
/// after an evict -> reload, through the C ABI (a prom_detector calibrated
/// from the same model outputs as \p Engine), and from a detector restored
/// from a snapshot must equal \p Engine.assessBatch bit for bit. Counts
/// checks in Out.Attempted, divergences (wrong verdicts and futures that
/// fail) in Out.Mismatches and unresolved futures in Out.Unresolved; sets
/// Out.Digest.
SnapshotTimes classifierGate(const prom::PromClassifier &Engine,
                             const prom::ml::Classifier &Model,
                             const prom::data::Dataset &Calib,
                             const prom::data::Dataset &Probe,
                             const std::string &Dir, RunResult &Out);

/// Calibrates a C-ABI detector from \p Model's outputs on \p Calib.
/// Returns null on failure. The caller owns the handle (prom_destroy).
prom_detector *makeCApiDetector(const prom::ml::Classifier &Model,
                                const prom::data::Dataset &Calib);

//===----------------------------------------------------------------------===//
// Store-stage replica
//===----------------------------------------------------------------------===//

/// Per-query stage times of the engine's store path, in microseconds.
struct StageTimes {
  double SelectUs = 0.0;
  double ScoreAllUs = 0.0;
  double PValuesUs = 0.0;
  double EngineUs = 0.0; ///< assessBatchWithForwards per sample.
  double OtherUs = 0.0;  ///< Engine time outside the three stages.
  bool Exact = true;     ///< Replica credibilities equal the engine's bits.
  size_t Queries = 0;
};

/// Rebuilds \p Engine's store through CalibrationStore::{add, finalize} and
/// times selectForAssessment / scorer(E).scoreAll / pValuesAllExperts per
/// query on \p Rows, paired batch by batch with the engine's own
/// assessBatchWithForwards on the same rows, over \p Passes passes
/// (medians over every (pass, batch) pair; the remainder is the median of
/// the per-pair differences). The replica's credibilities are checked bit
/// for bit against the engine's on every row.
StageTimes replicaStages(const prom::PromClassifier &Engine,
                         const prom::ml::Classifier &Model,
                         const prom::data::Dataset &Calib,
                         const prom::data::Dataset &Rows, size_t Passes);

/// Direct assessBatchWithForwards cost per sample on \p Rows (batches of
/// BatchRows, median over the batches run in \p Seconds).
double engineUsPerSample(const prom::PromClassifier &Engine,
                         const prom::ml::Classifier &Model,
                         const prom::data::Dataset &Rows, double Seconds);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runEngine(const Options &Opt, RunResult &Out);
void runFleet(const Options &Opt, RunResult &Out);
void runRegress(const Options &Opt, RunResult &Out);

/// Adds the per-layer metrics every workload reports (see README.md).
void addCommonLayers(RunResult &Out, const ForwardStats &Fwd,
                     double EngineUsPerSample, double CalibrateS,
                     double FlagFrac, double ScanBytes,
                     const SnapshotTimes &Snap, double TraceOverhead);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
