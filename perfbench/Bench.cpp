//===- perfbench/Bench.cpp - Shared plumbing of the seeded benchmark -------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/CApi.h"
#include "core/CalibrationStore.h"
#include "serve/AssessmentService.h"
#include "serve/DetectorRegistry.h"
#include "support/Matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>

using namespace prom;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] * (1.0 - Frac) + V[Hi] * Frac;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

LatencySummary summarize(std::vector<double> V) {
  LatencySummary S;
  S.Count = V.size();
  if (V.empty())
    return S;
  S.TailQuantile = std::min(0.99, 1.0 - 10.0 / static_cast<double>(V.size()));
  S.TailQuantile = std::max(S.TailQuantile, 0.5);
  S.P50 = quantile(V, 0.5);
  S.Tail = quantile(std::move(V), S.TailQuantile);
  return S;
}

std::string tailNote(const std::string &Name, const LatencySummary &S,
                     const char *What) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s is p%.1f over %zu %s", Name.c_str(),
                100.0 * S.TailQuantile, S.Count, What);
  return Buf;
}

void addLatency(RunResult &Out, std::vector<Metric> &Into,
                const std::string &Prefix, const LatencySummary &S,
                const char *What) {
  std::string P50 = Prefix.empty() ? "p50_us" : Prefix + ".p50";
  std::string P99 = Prefix.empty() ? "p99_us" : Prefix + ".p99";
  Into.push_back({P50, S.P50, "us"});
  Into.push_back({P99, S.Tail, "us"});
  Out.Notes.push_back(tailNote(P99, S, What));
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

data::Sample classSample(support::Rng &R, int Label, bool Drifted) {
  data::Sample S;
  S.Features.reserve(FeatureDim);
  for (size_t D = 0; D < FeatureDim; ++D)
    S.Features.push_back(R.gaussian(0.7 * Label, 1.0) +
                         (Drifted ? DriftShift : 0.0));
  S.Label = Label;
  return S;
}

data::Sample regressSample(support::Rng &R, bool Drifted) {
  data::Sample S;
  S.Features.reserve(FeatureDim);
  double Y = 0.0;
  for (size_t D = 0; D < FeatureDim; ++D) {
    double X = R.gaussian(0.0, 1.0) + (Drifted ? DriftShift : 0.0);
    S.Features.push_back(X);
    Y += std::sin(X) * static_cast<double>(D + 1) / 16.0;
  }
  S.Target = Y;
  return S;
}

data::Dataset classSet(support::Rng &R, size_t N) {
  data::Dataset Out("perfbench", NumClasses);
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    Out.add(classSample(R, static_cast<int>(I % NumClasses), false));
    Out[I].Id = I;
  }
  return Out;
}

data::Dataset classStream(support::Rng &R) {
  data::Dataset Out("perfbench", NumClasses);
  Out.reserve(StreamRows);
  for (size_t I = 0; I < StreamRows; ++I) {
    Out.add(classSample(R, R.intIn(0, NumClasses - 1), I % 4 == 0));
    Out[I].Id = I;
  }
  return Out;
}

data::Dataset regressSet(support::Rng &R, size_t N) {
  data::Dataset Out("perfbench-reg", 0);
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    Out.add(regressSample(R, false));
    Out[I].Id = I;
  }
  return Out;
}

data::Dataset regressStream(support::Rng &R) {
  data::Dataset Out("perfbench-reg", 0);
  Out.reserve(StreamRows);
  for (size_t I = 0; I < StreamRows; ++I) {
    Out.add(regressSample(R, I % 4 == 0));
    Out[I].Id = I;
  }
  return Out;
}

data::Dataset slice(const data::Dataset &Pool, size_t First, size_t Count) {
  data::Dataset Out(Pool.name(), Pool.numClasses());
  Out.reserve(Count);
  for (size_t I = 0; I < Count; ++I)
    Out.add(Pool[(First + I) % Pool.size()]);
  return Out;
}

std::unique_ptr<ml::MlpClassifier> trainHostClassifier() {
  support::Rng R(0x5EEDC1A55ull);
  data::Dataset Train = classSet(R, 1200);
  ml::MlpConfig Cfg;
  Cfg.Epochs = 40;
  auto Model = std::make_unique<ml::MlpClassifier>(Cfg);
  Model->fit(Train, R);
  return Model;
}

std::unique_ptr<ml::MlpRegressor> trainHostRegressor() {
  support::Rng R(0x5EEDBE6Eull);
  data::Dataset Train = regressSet(R, 1200);
  ml::MlpConfig Cfg;
  Cfg.Epochs = 30;
  auto Model = std::make_unique<ml::MlpRegressor>(Cfg);
  Model->fit(Train, R);
  return Model;
}

double flagRecall(const data::Dataset &Rows, const std::vector<Verdict> &V) {
  size_t Mis = 0, Caught = 0;
  for (size_t I = 0; I < V.size(); ++I) {
    if (V[I].Predicted == Rows[I].Label)
      continue;
    ++Mis;
    Caught += V[I].Drifted ? 1 : 0;
  }
  return Mis ? static_cast<double>(Caught) / static_cast<double>(Mis) : 0.0;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

void SpanLog::record(ForwardSpan S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(S));
}

std::vector<ForwardSpan> SpanLog::take() {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<ForwardSpan> Out;
  Out.swap(Spans);
  return Out;
}

static std::vector<uint64_t> idsOf(const data::Dataset &Batch) {
  std::vector<uint64_t> Ids;
  Ids.reserve(Batch.size());
  for (const data::Sample &S : Batch.samples())
    Ids.push_back(S.Id);
  return Ids;
}

void TracedClassifier::fit(const data::Dataset &, support::Rng &) {
  throw std::logic_error("the traced host model is never retrained");
}

void TracedClassifier::predictWithEmbedBatch(const data::Dataset &Batch,
                                             support::Matrix &Probs,
                                             support::Matrix &Embeds) const {
  if (!Log.enabled()) {
    Inner.predictWithEmbedBatch(Batch, Probs, Embeds);
    return;
  }
  ForwardSpan S;
  S.Start = Clock::now();
  Inner.predictWithEmbedBatch(Batch, Probs, Embeds);
  S.End = Clock::now();
  S.Ids = idsOf(Batch);
  Log.record(std::move(S));
}

void TracedRegressor::fit(const data::Dataset &, support::Rng &) {
  throw std::logic_error("the traced host model is never retrained");
}

void TracedRegressor::predictWithEmbedBatch(const data::Dataset &Batch,
                                            std::vector<double> &Predictions,
                                            support::Matrix &Embeds) const {
  if (!Log.enabled()) {
    Inner.predictWithEmbedBatch(Batch, Predictions, Embeds);
    return;
  }
  ForwardSpan S;
  S.Start = Clock::now();
  Inner.predictWithEmbedBatch(Batch, Predictions, Embeds);
  S.End = Clock::now();
  S.Ids = idsOf(Batch);
  Log.record(std::move(S));
}

ForwardStats forwardStats(const std::vector<ForwardSpan> &Spans) {
  ForwardStats F;
  double Us = 0.0;
  for (const ForwardSpan &S : Spans) {
    ++F.Calls;
    F.Rows += S.Ids.size();
    Us += usBetween(S.Start, S.End);
  }
  if (F.Rows) {
    F.UsPerRow = Us / static_cast<double>(F.Rows);
    F.RowsPerCall =
        static_cast<double>(F.Rows) / static_cast<double>(F.Calls);
  }
  return F;
}

/// Per-request start of the forward span that served it, keyed by id.
static std::vector<std::pair<uint64_t, Clock::time_point>>
forwardStartById(const std::vector<ForwardSpan> &Spans) {
  std::vector<std::pair<uint64_t, Clock::time_point>> Out;
  for (const ForwardSpan &S : Spans)
    for (uint64_t Id : S.Ids)
      Out.emplace_back(Id, S.Start);
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Out;
}

//===----------------------------------------------------------------------===//
// Open-loop arrivals
//===----------------------------------------------------------------------===//

std::vector<double> poissonSchedule(support::Rng &R, double Rate,
                                    double Seconds) {
  std::vector<double> Due;
  double T = 0.0;
  while (true) {
    T += -std::log(1.0 - R.uniform()) / Rate;
    if (T >= Seconds)
      return Due;
    Due.push_back(T);
  }
}

/// When request \p P of \p Run was due.
static Clock::time_point dueTime(const OpenLoopRun &Run,
                                 const PlannedRequest &P) {
  return Run.Start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(P.Due));
}

void waitUntil(Clock::time_point Due) {
  while (true) {
    auto Now = Clock::now();
    if (Now >= Due)
      return;
    auto Left = Due - Now;
    if (Left > std::chrono::microseconds(120))
      std::this_thread::sleep_for(Left - std::chrono::microseconds(80));
    else
      std::this_thread::yield();
  }
}

OpenLoopRun runOpenLoop(
    serve::AssessmentService &Svc, const std::vector<PlannedRequest> &Plan,
    const data::Dataset &Pool, uint64_t IdBase,
    const std::function<void(size_t, const Verdict &)> &OnVerdict) {
  const size_t N = Plan.size();
  OpenLoopRun Run;
  Run.Start = Clock::now();
  if (N == 0)
    return Run;
  Run.LatencyUs.assign(N, 0.0);
  Run.LagUs.assign(N, 0.0);
  Run.Outcomes.assign(N, Outcome::Unresolved);
  std::vector<std::future<Verdict>> Futures(N);
  std::atomic<size_t> Published{0};

  // Requests are built before the clock starts, so the generator only
  // waits and submits.
  std::vector<data::Sample> Samples;
  Samples.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    Samples.push_back(Pool[Plan[I].Row % Pool.size()]);
    Samples.back().Id = IdBase + I;
  }

  Run.Start = Clock::now() + std::chrono::milliseconds(5);
  auto DueAt = [&](size_t I) { return dueTime(Run, Plan[I]); };
  std::thread Generator([&] {
    for (size_t I = 0; I < N; ++I) {
      auto Due = DueAt(I);
      waitUntil(Due);
      Run.LagUs[I] = usBetween(Due, Clock::now());
      Futures[I] = Plan[I].Tenant.empty()
                       ? Svc.submit(std::move(Samples[I]))
                       : Svc.submit(Plan[I].Tenant, std::move(Samples[I]));
      Published.store(I + 1, std::memory_order_release);
    }
  });

  auto GiveUp = DueAt(N - 1) + std::chrono::seconds(30);
  for (size_t I = 0; I < N; ++I) {
    while (Published.load(std::memory_order_acquire) <= I)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    if (Futures[I].wait_until(GiveUp) != std::future_status::ready)
      continue; // Stays Unresolved.
    auto Done = Clock::now();
    Run.LatencyUs[I] = usBetween(DueAt(I), Done);
    try {
      Verdict V = Futures[I].get();
      Run.Outcomes[I] = Outcome::Verdict;
      if (OnVerdict)
        OnVerdict(I, V);
    } catch (const serve::ShedError &) {
      Run.Outcomes[I] = Outcome::Shed;
    }
  }
  Generator.join();
  return Run;
}

void addServiceLayers(RunResult &Out, const serve::ServiceStats &Stats,
                      const OpenLoopRun &Run,
                      const std::vector<PlannedRequest> &Plan,
                      const std::vector<ForwardSpan> &Spans, uint64_t IdBase) {
  std::vector<double> WaitUs;
  for (const auto &IdStart : forwardStartById(Spans)) {
    if (IdStart.first < IdBase || IdStart.first - IdBase >= Plan.size())
      continue;
    WaitUs.push_back(usBetween(dueTime(Run, Plan[IdStart.first - IdBase]),
                               IdStart.second));
  }
  addLatency(Out, Out.Ledger, "serve.service.queue_wait_us",
             summarize(WaitUs), "requests");
  double Submitted = std::max<double>(1.0, static_cast<double>(Plan.size()));
  Out.Ledger.push_back(
      {"serve.service.batch_size_mean", Stats.meanBatchSize(), "count"});
  Out.Ledger.push_back(
      {"serve.service.size_flush_frac",
       Stats.Batches ? static_cast<double>(Stats.SizeFlushes) / Stats.Batches
                     : 0.0,
       "fraction"});
  Out.Ledger.push_back({"serve.service.shed_frac.queue_full",
                        Stats.ShedQueueFull / Submitted, "fraction"});
  Out.Ledger.push_back({"serve.service.shed_frac.expired",
                        Stats.ShedExpired / Submitted, "fraction"});
  Out.Ledger.push_back({"serve.service.shed_frac.unknown_tenant",
                        Stats.ShedUnknownTenant / Submitted, "fraction"});
  LatencySummary Lag = summarize(Run.LagUs);
  Out.Ledger.push_back({"gen.lag_us.p99", Lag.Tail, "us"});
  Out.Notes.push_back(tailNote("gen.lag_us.p99", Lag, "requests"));
}

double stagedDrain(
    const std::function<std::unique_ptr<serve::AssessmentService>()> &Make,
    const data::Dataset &Pool, size_t First, size_t Count,
    const std::function<std::string(size_t)> &TenantOf, RunResult &Out) {
  std::unique_ptr<serve::AssessmentService> Svc = Make();
  std::vector<std::future<Verdict>> Futures;
  Futures.reserve(Count);
  for (size_t I = 0; I < Count; ++I) {
    const data::Sample &S = Pool[(First + I) % Pool.size()];
    Futures.push_back(Svc->submit(TenantOf(I), S));
  }
  auto T0 = Clock::now();
  Svc->start();
  Svc->drain();
  double Sec = secondsSince(T0);
  for (size_t I = 0; I < Count; ++I) {
    ++Out.Attempted;
    if (Futures[I].wait_for(std::chrono::seconds(20)) !=
        std::future_status::ready) {
      ++Out.Unresolved;
      continue;
    }
    try {
      Futures[I].get();
    } catch (const serve::ShedError &) {
      ++Out.Shed;
    }
  }
  return static_cast<double>(Count) / Sec;
}

//===----------------------------------------------------------------------===//
// Correctness
//===----------------------------------------------------------------------===//

static bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

static bool sameExperts(const std::vector<ExpertOpinion> &A,
                        const std::vector<ExpertOpinion> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t E = 0; E < A.size(); ++E)
    if (!sameBits(A[E].Credibility, B[E].Credibility) ||
        !sameBits(A[E].Confidence, B[E].Confidence) ||
        A[E].PredictionSetSize != B[E].PredictionSetSize ||
        A[E].FlagDrift != B[E].FlagDrift)
      return false;
  return true;
}

bool sameVerdict(const Verdict &A, const Verdict &B) {
  if (A.Predicted != B.Predicted || A.Drifted != B.Drifted ||
      A.VotesToFlag != B.VotesToFlag ||
      A.Probabilities.size() != B.Probabilities.size())
    return false;
  for (size_t I = 0; I < A.Probabilities.size(); ++I)
    if (!sameBits(A.Probabilities[I], B.Probabilities[I]))
      return false;
  return sameExperts(A.Experts, B.Experts);
}

bool sameVerdict(const RegressionVerdict &A, const RegressionVerdict &B) {
  return sameBits(A.Predicted, B.Predicted) && A.Cluster == B.Cluster &&
         A.Drifted == B.Drifted && A.VotesToFlag == B.VotesToFlag &&
         sameExperts(A.Experts, B.Experts);
}

namespace {
struct Fnv {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(const void *P, size_t N) {
    const auto *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 0x100000001b3ull;
    }
  }
  void add(double V) { add(&V, sizeof(V)); }
  void add(int64_t V) { add(&V, sizeof(V)); }
  std::string hex() const {
    char Buf[17];
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(H));
    return Buf;
  }
};

void addExperts(Fnv &F, const std::vector<ExpertOpinion> &Experts) {
  for (const ExpertOpinion &E : Experts) {
    F.add(E.Credibility);
    F.add(E.Confidence);
  }
}
} // namespace

std::string digest(const std::vector<Verdict> &V) {
  Fnv F;
  for (const Verdict &X : V) {
    F.add(static_cast<int64_t>(X.Predicted * 2 + (X.Drifted ? 1 : 0)));
    addExperts(F, X.Experts);
  }
  return F.hex();
}

std::string digest(const std::vector<RegressionVerdict> &V) {
  Fnv F;
  for (const RegressionVerdict &X : V) {
    F.add(X.Predicted);
    F.add(static_cast<int64_t>(X.Cluster * 2 + (X.Drifted ? 1 : 0)));
    addExperts(F, X.Experts);
  }
  return F.hex();
}

prom_detector *makeCApiDetector(const ml::Classifier &Model,
                                const data::Dataset &Calib) {
  support::Matrix Probs, Embeds;
  Model.predictWithEmbedBatch(Calib, Probs, Embeds);
  prom_detector *D = prom_create(Model.numClasses(),
                                 static_cast<int>(Embeds.cols()), 0.0);
  if (!D)
    return nullptr;
  for (size_t I = 0; I < Calib.size(); ++I)
    if (prom_add_calibration(D, Probs.rowPtr(I), Embeds.rowPtr(I),
                             Calib[I].Label) != 0) {
      prom_destroy(D);
      return nullptr;
    }
  if (prom_finalize(D) != 0) {
    prom_destroy(D);
    return nullptr;
  }
  return D;
}

namespace {

/// Resolves \p Futures and compares each verdict with \p Ref. Nothing in
/// the gate may shed (Block policy, no deadline), so a future that fails
/// instead of delivering a verdict diverges like a wrong verdict does.
void checkFutures(std::vector<std::future<Verdict>> &Futures,
                  const std::vector<Verdict> &Ref, RunResult &Out) {
  for (size_t I = 0; I < Futures.size(); ++I) {
    ++Out.Attempted;
    if (Futures[I].wait_for(std::chrono::seconds(20)) !=
        std::future_status::ready) {
      ++Out.Unresolved;
      continue;
    }
    try {
      if (!sameVerdict(Futures[I].get(), Ref[I]))
        ++Out.Mismatches;
    } catch (const std::exception &) {
      ++Out.Mismatches;
    }
  }
}

void checkVerdicts(const std::vector<Verdict> &Got,
                   const std::vector<Verdict> &Ref, RunResult &Out) {
  for (size_t I = 0; I < Ref.size(); ++I) {
    ++Out.Attempted;
    if (I >= Got.size() || !sameVerdict(Got[I], Ref[I]))
      ++Out.Mismatches;
  }
}

} // namespace

SnapshotTimes classifierGate(const PromClassifier &Engine,
                             const ml::Classifier &Model,
                             const data::Dataset &Calib,
                             const data::Dataset &Probe,
                             const std::string &Dir, RunResult &Out) {
  std::vector<Verdict> Ref = Engine.assessBatch(Probe);
  Out.Digest = digest(Ref);

  // Single-tenant service.
  {
    serve::AssessmentService Svc(Engine);
    std::vector<std::future<Verdict>> Futures;
    for (const data::Sample &S : Probe.samples())
      Futures.push_back(Svc.submit(S));
    checkFutures(Futures, Ref, Out);
  }

  // Snapshot round trip.
  SnapshotTimes Snap;
  std::filesystem::create_directories(Dir);
  std::string Path = Dir + "/gate.snapshot";
  auto T0 = Clock::now();
  bool Saved = Engine.saveSnapshot(Path);
  Snap.SaveMs = 1e3 * secondsSince(T0);
  PromClassifier Restored(Model, Engine.config());
  T0 = Clock::now();
  bool Loaded = Saved && Restored.loadSnapshot(Path);
  Snap.LoadMs = 1e3 * secondsSince(T0);
  if (Saved)
    Snap.Bytes = static_cast<double>(std::filesystem::file_size(Path));
  if (!Loaded) {
    ++Out.Attempted;
    ++Out.Mismatches;
  } else {
    checkVerdicts(Restored.assessBatch(Probe), Ref, Out);
  }

  // Fleet-mode service, before and after an evict -> reload cycle.
  if (Loaded) {
    serve::DetectorRegistry Fleet;
    serve::TenantSpec Spec;
    Spec.Model = &Model;
    Spec.Cfg = Engine.config();
    Spec.SnapshotDir = Dir + "/gate-tenant";
    auto Det = std::make_unique<PromClassifier>(Model, Engine.config());
    bool Ok = Fleet.registerTenant("gate", Spec) && Det->loadSnapshot(Path) &&
              Fleet.installDetector("gate", std::move(Det));
    serve::AssessmentService Svc(Fleet);
    for (int Round = 0; Ok && Round < 2; ++Round) {
      std::vector<std::future<Verdict>> Futures;
      for (const data::Sample &S : Probe.samples())
        Futures.push_back(Svc.submit("gate", S));
      checkFutures(Futures, Ref, Out);
      Svc.drain();
      if (Round == 0)
        Ok = Fleet.evict("gate");
    }
    ++Out.Attempted;
    if (!Ok || Fleet.stats().Loads != 1)
      ++Out.Mismatches;
  }

  // C ABI over the same model outputs.
  prom_detector *D = makeCApiDetector(Model, Calib);
  if (!D) {
    ++Out.Attempted;
    ++Out.Mismatches;
  } else {
    support::Matrix Probs, Embeds;
    Model.predictWithEmbedBatch(Probe, Probs, Embeds);
    size_t N = Probe.size();
    std::vector<int> Reject(N);
    std::vector<double> Cred(N), Conf(N);
    int Rc = prom_assess_batch(D, N, Probs.data().data(),
                               Embeds.data().data(), Reject.data(),
                               Cred.data(), Conf.data());
    for (size_t I = 0; I < N; ++I) {
      ++Out.Attempted;
      if (Rc != 0 || (Reject[I] != 0) != Ref[I].Drifted ||
          !sameBits(Cred[I], Ref[I].meanCredibility()) ||
          !sameBits(Conf[I], Ref[I].meanConfidence()))
        ++Out.Mismatches;
    }
    prom_destroy(D);
  }
  return Snap;
}

//===----------------------------------------------------------------------===//
// Store-stage replica
//===----------------------------------------------------------------------===//

namespace {

/// The engine's temperature softening, on one copied row.
std::vector<double> softened(const double *Row, size_t N, double T) {
  std::vector<double> P(Row, Row + N);
  if (T == 1.0)
    return P;
  for (double &X : P)
    X = std::log(std::max(X, 1e-12)) / T;
  support::softmaxRowInPlace(P.data(), N);
  return P;
}

} // namespace

support::Matrix rowBlock(const support::Matrix &M, size_t First,
                         size_t Count) {
  support::Matrix Out(Count, M.cols());
  for (size_t I = 0; I < Count; ++I)
    std::memcpy(Out.rowPtr(I), M.rowPtr(First + I), M.cols() * sizeof(double));
  return Out;
}

StageTimes replicaStages(const PromClassifier &Engine,
                         const ml::Classifier &Model,
                         const data::Dataset &Calib,
                         const data::Dataset &Rows, size_t Passes) {
  const PromConfig &Cfg = Engine.config();
  const double T = Engine.temperature();
  const size_t NumExp = Engine.numExperts();
  const size_t L = static_cast<size_t>(Model.numClasses());

  // The engine's calibrate(), rebuilt from the public store API.
  support::Matrix CP, CE;
  Model.predictWithEmbedBatch(Calib, CP, CE);
  CalibrationStore Store;
  Store.reserve(Calib.size());
  for (size_t I = 0; I < Calib.size(); ++I) {
    CalibrationEntry Entry;
    Entry.Embed = CE.row(I);
    Entry.Label = Calib[I].Label;
    std::vector<double> P = softened(CP.rowPtr(I), L, T);
    for (size_t E = 0; E < NumExp; ++E)
      Entry.Scores.push_back(Engine.scorer(E).score(P, Calib[I].Label));
    Store.add(std::move(Entry));
  }
  Store.setMaxEntries(Cfg.MaxCalibEntries);
  Store.setIndexPolicy(ClusterIndexPolicy::fromConfig(Cfg));
  Store.finalize(Engine.numShards());

  support::Matrix RP, RE;
  Model.predictWithEmbedBatch(Rows, RP, RE);
  std::vector<uint8_t> Discrete(NumExp);
  for (size_t E = 0; E < NumExp; ++E)
    Discrete[E] = Engine.scorer(E).isDiscrete() ? 1 : 0;
  std::vector<double> Cred(Rows.size() * NumExp);
  std::vector<int> Pred(Rows.size());

  AssessmentScratch Scratch;
  std::vector<double> TestScores(NumExp * L), PVals(NumExp * L);
  const size_t NumBatches = Rows.size() / BatchRows;
  // One sample per (pass, batch): the engine and the replica run back to
  // back on the same batch, in alternating order, so a slow moment of a
  // shared host hits both sides of a pair and the order favours neither.
  std::vector<double> EngineUs, SelectUs, ScoreUs, PValUs, OtherUs;
  StageTimes Out;
  for (size_t Pass = 0; Pass < Passes; ++Pass)
    for (size_t B = 0; B < NumBatches; ++B) {
      support::Matrix BP = rowBlock(RP, B * BatchRows, BatchRows);
      support::Matrix BE = rowBlock(RE, B * BatchRows, BatchRows);
      std::vector<Verdict> V;
      double Sel = 0.0, Score = 0.0, PVal = 0.0;
      // Alternate which side runs first, so neither inherits warmer caches.
      for (int Side = 0; Side < 2; ++Side) {
        if ((Side + Pass + B) % 2 == 0) {
          auto E0 = Clock::now();
          V = Engine.assessBatchWithForwards(BP, BE);
          EngineUs.push_back(usBetween(E0, Clock::now()));
          continue;
        }
        for (size_t I = 0; I < BatchRows; ++I) {
          std::vector<double> P = softened(BP.rowPtr(I), L, T);
          size_t Row = B * BatchRows + I, Predicted = support::argmax(P);
          auto T0 = Clock::now();
          Store.selectForAssessment(BE.rowPtr(I), Cfg, Scratch);
          auto T1 = Clock::now();
          for (size_t E = 0; E < NumExp; ++E)
            Engine.scorer(E).scoreAll(P, TestScores.data() + E * L);
          auto T2 = Clock::now();
          Store.pValuesAllExperts(Scratch, TestScores.data(), L, Cfg,
                                  Discrete.data(), PVals.data());
          auto T3 = Clock::now();
          Sel += usBetween(T0, T1);
          Score += usBetween(T1, T2);
          PVal += usBetween(T2, T3);
          // Keep the row's credibilities for the bit check below.
          for (size_t E = 0; E < NumExp; ++E)
            Cred[Row * NumExp + E] = PVals[E * L + Predicted];
          Pred[Row] = static_cast<int>(Predicted);
        }
      }
      SelectUs.push_back(Sel);
      ScoreUs.push_back(Score);
      PValUs.push_back(PVal);
      OtherUs.push_back(EngineUs.back() - Sel - Score - PVal);
      for (size_t I = 0; I < BatchRows; ++I) {
        size_t Row = B * BatchRows + I;
        bool Same = Pred[Row] == V[I].Predicted && V[I].Experts.size() == NumExp;
        for (size_t E = 0; Same && E < NumExp; ++E)
          Same = sameBits(Cred[Row * NumExp + E], V[I].Experts[E].Credibility);
        Out.Exact = Out.Exact && Same;
      }
      Out.Queries += BatchRows;
    }
  const double PerRow = 1.0 / BatchRows;
  Out.SelectUs = median(SelectUs) * PerRow;
  Out.ScoreAllUs = median(ScoreUs) * PerRow;
  Out.PValuesUs = median(PValUs) * PerRow;
  Out.EngineUs = median(EngineUs) * PerRow;
  Out.OtherUs = median(OtherUs) * PerRow;
  return Out;
}

double engineUsPerSample(const PromClassifier &Engine,
                         const ml::Classifier &Model,
                         const data::Dataset &Rows, double Seconds) {
  support::Matrix RP, RE;
  Model.predictWithEmbedBatch(Rows, RP, RE);
  const size_t NumBatches = Rows.size() / BatchRows;
  std::vector<double> Us;
  auto Start = Clock::now();
  for (size_t B = 0; B < 4 || secondsSince(Start) < Seconds; ++B) {
    size_t First = (B % NumBatches) * BatchRows;
    support::Matrix BP = rowBlock(RP, First, BatchRows);
    support::Matrix BE = rowBlock(RE, First, BatchRows);
    auto T0 = Clock::now();
    Engine.assessBatchWithForwards(BP, BE);
    Us.push_back(usBetween(T0, Clock::now()) / BatchRows);
  }
  return median(Us);
}

void addCommonLayers(RunResult &Out, const ForwardStats &Fwd,
                     double EngineUsPerSample, double CalibrateS,
                     double FlagFrac, double ScanBytes,
                     const SnapshotTimes &Snap, double TraceOverhead) {
  Out.PerLayer.push_back({"ml.forward_us_per_sample", Fwd.UsPerRow, "us"});
  Out.PerLayer.push_back({"ml.rows_per_call", Fwd.RowsPerCall, "count"});
  Out.PerLayer.push_back(
      {"core.detector.engine_us_per_sample", EngineUsPerSample, "us"});
  Out.PerLayer.push_back({"core.detector.calibrate_s", CalibrateS, "s"});
  Out.PerLayer.push_back({"core.detector.flag_frac", FlagFrac, "fraction"});
  Out.PerLayer.push_back(
      {"support.kernels.scan_bytes_per_query", ScanBytes, "B"});
  Out.PerLayer.push_back({"support.serialize.save_ms", Snap.SaveMs, "ms"});
  Out.PerLayer.push_back({"support.serialize.load_ms", Snap.LoadMs, "ms"});
  Out.PerLayer.push_back(
      {"support.serialize.snapshot_bytes", Snap.Bytes, "B"});
  Out.PerLayer.push_back({"trace.overhead_frac", TraceOverhead, "fraction"});
  Out.Notes.push_back("support.kernels.scan_bytes_per_query is computed as "
                      "entries x embedding dims x 8 bytes, not measured");
}

} // namespace perfbench
