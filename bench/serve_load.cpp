//===- bench/serve_load.cpp - Open-loop overload study ------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Trace-driven open-loop load generator for the serving runtime. Unlike a
// closed loop (which measures the drain rate, as saturationRps() below
// and perfbench's workloads do), this harness emits requests on a
// precomputed arrival schedule — Poisson or bursty — that never slows
// down when the service does, so it measures what production traffic
// actually experiences under overload instead of the coordinated-omission
// picture a closed loop paints.
//
// The sweep: saturation throughput is measured first (closed-loop drain),
// then offered load is swept from 0.5x to 2.0x of it under the
// DeadlineAware shed policy with a per-request deadline budget. Past
// saturation a well-behaved runtime must keep p99.9 of *served* requests
// bounded near the deadline by shedding the excess — and resolve every
// single future (served or shed; a hung future fails the run). One Block
// run at 2x shows the alternative: backpressure pushes the arrival thread
// off its schedule and offered load simply cannot be sustained.
//
// Output: human-readable table plus one JSON line per metric (schema of
// bench::jsonResult). Pass --ci for the small configuration used by the
// workflow artifact job.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "ml/Mlp.h"
#include "serve/AssessmentService.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace prom;
using namespace prom::bench;
using Clock = std::chrono::steady_clock;

namespace {

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Bench state: an MLP over 16-d features wrapped by a calibrated PROM
/// detector at the paper's 1,000-sample calibration cap, plus a fixed
/// request pool the schedules draw from round-robin.
struct LoadBenchState {
  support::Rng R{BenchSeed};
  data::Dataset Train{"serve", 6};
  data::Dataset Calib{"serve", 6};
  std::vector<data::Sample> Pool;
  ml::MlpClassifier Model;
  std::unique_ptr<PromClassifier> Prom;

  explicit LoadBenchState(size_t PoolSize) {
    for (int I = 0; I < 1200; ++I)
      Train.add(makeSample(I % 6));
    for (size_t I = 0; I < 1000; ++I)
      Calib.add(makeSample(static_cast<int>(I % 6)));
    Model.fit(Train, R);
    Prom = std::make_unique<PromClassifier>(Model);
    Prom->calibrate(Calib);
    Pool.reserve(PoolSize);
    for (size_t I = 0; I < PoolSize; ++I)
      Pool.push_back(makeSample(static_cast<int>(I % 6)));
  }

  data::Sample makeSample(int Label) {
    data::Sample S;
    for (int D = 0; D < 16; ++D)
      S.Features.push_back(R.gaussian(Label * 0.7, 1.0));
    S.Label = Label;
    return S;
  }
};

serve::ServiceConfig loadServiceConfig() {
  serve::ServiceConfig Cfg;
  Cfg.MaxBatch = 64;
  Cfg.FlushDeadline = std::chrono::microseconds(200);
  // Deliberately modest: under overload the queue bound is the knob that
  // trades latency for shed rate, and an 8k queue would hide the policy
  // behind seconds of buffering.
  Cfg.QueueCapacity = 1024;
  Cfg.NumBatchers = std::thread::hardware_concurrency() > 1 ? 2 : 1;
  return Cfg;
}

/// Saturation throughput: closed-loop drain of a staged queue. This
/// anchors the offered-load multipliers.
double saturationRps(const LoadBenchState &S, size_t Requests, int Reps) {
  double Best = 1e300;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    serve::ServiceConfig Cfg = loadServiceConfig();
    Cfg.StartPaused = true;
    Cfg.QueueCapacity = Requests;
    serve::AssessmentService Svc(*S.Prom, Cfg);
    std::vector<std::future<Verdict>> Futures;
    Futures.reserve(Requests);
    for (size_t I = 0; I < Requests; ++I)
      Futures.push_back(Svc.submit(S.Pool[I % S.Pool.size()]));
    auto T0 = Clock::now();
    Svc.start();
    Svc.drain();
    Best = std::min(Best, secondsSince(T0));
    for (auto &Fut : Futures)
      Fut.get();
  }
  return static_cast<double>(Requests) / Best;
}

/// Precomputed open-loop arrival schedule: offsets (seconds from run
/// start) at which requests are emitted, independent of service state.
std::vector<double> makeSchedule(bool Bursty, double Rps, double DurationSec,
                                 support::Rng &R) {
  std::vector<double> Offsets;
  Offsets.reserve(static_cast<size_t>(Rps * DurationSec * 1.2) + 16);
  // Bursty: a two-state modulated Poisson process — ON periods arrive at
  // 1.75x the mean rate, OFF periods at 0.25x, exponentially distributed
  // ~25ms state dwell times. Mean offered rate stays Rps; the bursts are
  // what stress admission control.
  const double StateMeanSec = 0.025;
  bool On = true;
  double StateEnd = Bursty ? -StateMeanSec * std::log(1.0 - R.uniform()) : 0.0;
  double T = 0.0;
  while (T < DurationSec) {
    double Rate = Bursty ? (On ? 1.75 * Rps : 0.25 * Rps) : Rps;
    T += -std::log(1.0 - R.uniform()) / Rate;
    if (Bursty && T > StateEnd) {
      On = !On;
      StateEnd = T - StateMeanSec * std::log(1.0 - R.uniform());
    }
    if (T < DurationSec)
      Offsets.push_back(T);
  }
  return Offsets;
}

struct LoadRun {
  double OfferedRps = 0.0;
  double AchievedRps = 0.0; ///< Served verdicts per second of run.
  double ShedRate = 0.0;    ///< Shed / emitted.
  double P50Us = 0.0, P99Us = 0.0, P999Us = 0.0;
  bool AllResolved = false; ///< Every future got a verdict or a ShedError.
};

/// One open-loop run: emit the schedule against a live service, harvest
/// every future, report latency quantiles of the served requests from the
/// service's own histogram (recorded at fulfillment, so harvester lag
/// cannot inflate the tail).
LoadRun runOpenLoop(const LoadBenchState &S, const std::vector<double> &Offsets,
                    serve::ShedPolicy Policy,
                    std::chrono::microseconds Deadline) {
  serve::ServiceConfig Cfg = loadServiceConfig();
  Cfg.Shed = Policy;
  serve::AssessmentService Svc(*S.Prom, Cfg);

  std::vector<std::future<Verdict>> Futures;
  Futures.reserve(Offsets.size());
  auto Start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t I = 0; I < Offsets.size(); ++I) {
    auto Arrival =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Offsets[I]));
    // Open loop: sleep until the *scheduled* arrival. When the service
    // (under Block) or the host stalls us past it, we emit immediately —
    // late, but never rescheduled; the backlog is the measurement.
    if (Arrival > Clock::now() + std::chrono::microseconds(100))
      std::this_thread::sleep_until(Arrival);
    if (Policy == serve::ShedPolicy::Block)
      Futures.push_back(Svc.submit(S.Pool[I % S.Pool.size()]));
    else
      Futures.push_back(
          Svc.submitWithDeadline(S.Pool[I % S.Pool.size()], Deadline));
  }
  double EmitSec = secondsSince(Start);

  // Harvest: every future must resolve. wait_for() bounds the hang check —
  // a future neither served nor shed within the grace window is a runtime
  // bug, not load.
  size_t Served = 0, Shed = 0, Hung = 0;
  for (auto &Fut : Futures) {
    if (Fut.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      ++Hung;
      continue;
    }
    try {
      (void)Fut.get();
      ++Served;
    } catch (const serve::ShedError &) {
      ++Shed;
    }
  }
  double TotalSec = secondsSince(Start);
  Svc.drain();
  serve::ServiceStats Stats = Svc.stats();

  LoadRun Run;
  Run.OfferedRps = static_cast<double>(Offsets.size()) / EmitSec;
  Run.AchievedRps = static_cast<double>(Served) / TotalSec;
  Run.ShedRate =
      static_cast<double>(Shed) / static_cast<double>(Offsets.size());
  Run.P50Us = Stats.Latency.p50Us();
  Run.P99Us = Stats.Latency.p99Us();
  Run.P999Us = Stats.Latency.p999Us();
  Run.AllResolved = Hung == 0 && Served + Shed == Offsets.size() &&
                    Stats.Completed == Served && Stats.shedTotal() == Shed;
  return Run;
}

std::string multTag(double Mult) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%03dx", static_cast<int>(Mult * 100));
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  bool Ci = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--ci") == 0)
      Ci = true;

  const double DurationSec = Ci ? 0.3 : 1.0;
  const size_t SatRequests = Ci ? 2048 : 8192;
  const auto Deadline = std::chrono::milliseconds(20);

  LoadBenchState S(4096);

  double SatRps = saturationRps(S, SatRequests, Ci ? 2 : 3);
  std::printf("== serve_load (calib=1000, queue=1024, "
              "deadline=%lldms, duration=%.1fs) ==\n",
              static_cast<long long>(Deadline.count()), DurationSec);
  std::printf("saturation (closed-loop drain): %9.1f req/s\n", SatRps);
  jsonResult("serve_load", "saturation_rps", SatRps);

  support::Rng ScheduleRng(BenchSeed + 1);
  const double Multipliers[] = {0.5, 0.8, 1.0, 1.5, 2.0};
  bool Healthy = true;

  for (bool Bursty : {false, true}) {
    const char *Process = Bursty ? "bursty" : "poisson";
    for (double Mult : Multipliers) {
      std::vector<double> Offsets =
          makeSchedule(Bursty, Mult * SatRps, DurationSec, ScheduleRng);
      LoadRun Run = runOpenLoop(S, Offsets, serve::ShedPolicy::DeadlineAware,
                                Deadline);
      std::printf("%-7s %.2fx: offered %9.1f req/s  achieved %9.1f req/s  "
                  "shed %5.1f%%  p50 %8.1fus  p99 %8.1fus  p99.9 %8.1fus%s\n",
                  Process, Mult, Run.OfferedRps, Run.AchievedRps,
                  100.0 * Run.ShedRate, Run.P50Us, Run.P99Us, Run.P999Us,
                  Run.AllResolved ? "" : "  [UNRESOLVED FUTURES]");
      std::string Tag = std::string(Process) + "_" + multTag(Mult);
      jsonResult("serve_load", Tag + "_offered_rps", Run.OfferedRps);
      jsonResult("serve_load", Tag + "_achieved_rps", Run.AchievedRps);
      jsonResult("serve_load", Tag + "_shed_rate", Run.ShedRate);
      jsonResult("serve_load", Tag + "_p50_us", Run.P50Us);
      jsonResult("serve_load", Tag + "_p99_us", Run.P99Us);
      jsonResult("serve_load", Tag + "_p999_us", Run.P999Us);
      Healthy = Healthy && Run.AllResolved;
      // The overload acceptance gate: at 2x saturation, served-request
      // p99.9 must stay within an order of magnitude of the deadline —
      // shedding, not unbounded queueing, absorbs the excess.
      if (Mult == 2.0) {
        double BoundUs = 10.0 * 1e3 * static_cast<double>(Deadline.count());
        if (Run.P999Us > BoundUs) {
          std::fprintf(stderr,
                       "FATAL: %s 2x p99.9 %.1fus exceeds %.1fus bound\n",
                       Process, Run.P999Us, BoundUs);
          Healthy = false;
        }
      }
    }
  }

  // The contrast run: Block at 2x. No shedding, so the queue bound turns
  // into submitter backpressure and the offered schedule cannot be held —
  // achieved rate clamps near saturation while arrival lag absorbs the
  // rest. This is the coordinated-omission trap the open-loop harness
  // exists to expose.
  {
    std::vector<double> Offsets =
        makeSchedule(false, 2.0 * SatRps, DurationSec, ScheduleRng);
    LoadRun Run = runOpenLoop(S, Offsets, serve::ShedPolicy::Block,
                              std::chrono::milliseconds(0));
    std::printf("block   2.00x: offered %9.1f req/s  achieved %9.1f req/s  "
                "shed %5.1f%%  p50 %8.1fus  p99 %8.1fus  p99.9 %8.1fus%s\n",
                Run.OfferedRps, Run.AchievedRps, 100.0 * Run.ShedRate,
                Run.P50Us, Run.P99Us, Run.P999Us,
                Run.AllResolved ? "" : "  [UNRESOLVED FUTURES]");
    jsonResult("serve_load", "block_200x_offered_rps", Run.OfferedRps);
    jsonResult("serve_load", "block_200x_achieved_rps", Run.AchievedRps);
    jsonResult("serve_load", "block_200x_p999_us", Run.P999Us);
    Healthy = Healthy && Run.AllResolved;
  }

  if (!Healthy) {
    std::fprintf(stderr, "FATAL: overload run left futures unresolved or "
                         "unbounded; see above\n");
    return 1;
  }
  std::printf("all futures resolved (served or shed) in every run\n");
  return 0;
}
