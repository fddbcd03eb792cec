//===- perfbench/Fleet.cpp - The fleet_churn workload ----------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Open loop over a DetectorRegistry behind a fleet-mode service with two
// batchers. Eight tenants of 10^4 entries share a memory budget that fits
// four: the three hot tenants (Zipf(1) popularity) stay resident and the
// fourth slot churns, because a fixed schedule visits the five cold
// tenants in a seeded round (each visit a burst of requests to a tenant
// that is not loaded). Every visit is a lazy snapshot load plus a
// save-before-evict. Meanwhile a fixed relabel schedule folds batches into
// the two hottest tenants (RCU refresh). This is the only workload with
// writes beside reads.
//
// The traffic is sized from measurements, one pool lane, HEAD of the
// commit that added the benchmark (README.md, "Traffic"):
//  - hot reads: a fifth of the fleet's single-lane staged-drain rate
//    (3013 verdicts/s, the ten-seed median) -> 600 requests/s;
//  - cold visits: each costs a lazy load plus an eviction (91 + 7 ms in the
//    traced run), so one visit a second spends a tenth of a lane on them;
//    a visit carries 16 requests, the requests per snapshot reload in the
//    autotuner farm example's ledger (1080 requests, 69 reloads);
//  - refreshes: one 128-row relabel batch a second (88 ms traced), again
//    about a tenth of a lane.
// Together that is about 0.4 of one lane: below half load, past which
// queueing rather than the code starts to set the latency (an M/M/1 queue
// at half load already waits as long as it serves), with headroom for a
// host whose speed drifts by a third.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "serve/AssessmentService.h"
#include "serve/DetectorRegistry.h"

#include <algorithm>
#include <filesystem>
#include <thread>

using namespace prom;

namespace perfbench {

namespace {

constexpr size_t Tenants = 8;
constexpr size_t HotTenants = 3;
constexpr size_t Entries = 10000;
constexpr size_t SetupReps = 5;
/// Offered load over the hot tenants, requests per second; the rates
/// below are derived in the file comment.
constexpr double HotRate = 600.0;
constexpr double ColdVisitsPerSecond = 1.0;
constexpr size_t ColdBurst = 16;
constexpr double RefreshPeriodS = 1.0;
constexpr size_t RelabelRows = 128;
constexpr std::chrono::milliseconds Budget{1000};
constexpr size_t DrainRequests = 2048;
constexpr uint64_t OpenIdBase = 1ull << 32;

std::string tenantId(size_t K) { return "t" + std::to_string(K); }
size_t tenantIndex(const std::string &Id) { return std::stoul(Id.substr(1)); }

/// Hot tenant drawn by Zipf(1) popularity.
size_t hotTenant(support::Rng &R) {
  double U = R.uniform() * (1.0 + 1.0 / 2 + 1.0 / 3);
  return U < 1.0 ? 0 : U < 1.5 ? 1 : 2;
}

/// The registry and the fleet-mode service over it; the service, declared
/// last, goes first on destruction.
struct Fleet {
  std::unique_ptr<serve::DetectorRegistry> Registry;
  std::unique_ptr<serve::AssessmentService> Service;
};

} // namespace

void runFleet(const Options &Opt, RunResult &Out) {
  support::Rng R(Opt.Seed);
  std::vector<data::Dataset> Calib;
  for (size_t K = 0; K < Tenants; ++K)
    Calib.push_back(classSet(R, Entries));
  data::Dataset Stream = classStream(R);

  // The arrival plan: hot Poisson traffic plus the cold-visit round.
  const double OpenS = 0.65 * Opt.Seconds;
  std::vector<PlannedRequest> Plan;
  std::vector<char> IsCold;
  for (double Due : poissonSchedule(R, HotRate, OpenS))
    Plan.push_back({Due, tenantId(hotTenant(R)), R.bounded(Stream.size())});
  std::vector<size_t> ColdOrder = R.permutation(Tenants - HotTenants);
  size_t Visits = 0;
  for (double Due = 0.1; Due < OpenS; Due += 1.0 / ColdVisitsPerSecond) {
    std::string Tenant =
        tenantId(HotTenants + ColdOrder[Visits++ % ColdOrder.size()]);
    for (size_t B = 0; B < ColdBurst; ++B)
      Plan.push_back({Due, Tenant, R.bounded(Stream.size())});
  }
  std::stable_sort(Plan.begin(), Plan.end(),
                   [](const PlannedRequest &A, const PlannedRequest &B) {
                     return A.Due < B.Due;
                   });
  for (const PlannedRequest &P : Plan)
    IsCold.push_back(tenantIndex(P.Tenant) >= HotTenants ? 1 : 0);
  std::vector<data::Dataset> Relabel;
  for (double Due = 0.25; Due < OpenS; Due += RefreshPeriodS)
    Relabel.push_back(classSet(R, RelabelRows));
  std::vector<std::string> DrainTenants;
  for (size_t I = 0; I < DrainRequests; ++I)
    DrainTenants.push_back(tenantId(hotTenant(R)));

  std::unique_ptr<ml::MlpClassifier> Host = trainHostClassifier();
  SpanLog Log;
  TracedClassifier Traced(*Host, Log);
  const ml::Classifier &Model =
      Opt.Trace ? static_cast<const ml::Classifier &>(Traced) : *Host;
  PromConfig Cfg;
  Cfg.MaxCalibEntries = Entries; // Refreshes keep every store at 10^4.

  // Set-up: calibrate every tenant, write the cold tenants' snapshots
  // (install + evict), install the hot ones, start the service, warm up.
  // The first set-up serves the run; the others are spread over the
  // staged drains (see engine_10k).
  std::vector<double> SetupS, CalibrateS;
  size_t TenantBytes = 0;
  auto SetUp = [&] {
    std::string Dir = Opt.WorkDir + "/fleet" + std::to_string(SetupS.size());
    auto T0 = Clock::now();
    Fleet G;
    for (size_t K = Tenants; K-- > 0;) {
      auto C0 = Clock::now();
      auto P = std::make_unique<PromClassifier>(Model, Cfg);
      P->calibrate(Calib[K]);
      CalibrateS.push_back(secondsSince(C0));
      if (!G.Registry) {
        TenantBytes = P->memoryBytes();
        serve::RegistryConfig RC;
        RC.MemoryBudgetBytes = TenantBytes * 9 / 2; // Four tenants fit.
        G.Registry = std::make_unique<serve::DetectorRegistry>(RC);
      }
      serve::TenantSpec Spec;
      Spec.Model = &Model;
      Spec.Cfg = Cfg;
      Spec.SnapshotDir = Dir + "/" + tenantId(K);
      bool Ok = G.Registry->registerTenant(tenantId(K), Spec) &&
                G.Registry->installDetector(tenantId(K), std::move(P)) &&
                (K < HotTenants || G.Registry->evict(tenantId(K)));
      ++Out.Attempted;
      if (!Ok)
        ++Out.Mismatches;
    }
    serve::ServiceConfig SC;
    SC.NumBatchers = 2;
    SC.Shed = serve::ShedPolicy::DeadlineAware;
    SC.DefaultDeadline = Budget;
    G.Service = std::make_unique<serve::AssessmentService>(*G.Registry, SC);
    std::vector<std::future<Verdict>> Warm;
    for (size_t I = 0; I < 3 * BatchRows; ++I)
      Warm.push_back(G.Service->submit(tenantId(I % HotTenants), Stream[I]));
    for (auto &W : Warm)
      W.wait();
    SetupS.push_back(secondsSince(T0));
    return G;
  };
  Fleet F = SetUp();
  serve::DetectorRegistry &Reg = *F.Registry;
  serve::RegistryStats Before = Reg.stats();

  // Phase 1: the open loop, with the relabel schedule and (traced runs)
  // a prober timing acquire() of the hottest tenant.
  std::vector<double> RefreshMs, AcquireHotUs;
  size_t RefreshFailures = 0;
  std::atomic<bool> LoopDone{false};
  auto LoopStart = Clock::now() + std::chrono::milliseconds(5);
  std::thread Refresher([&] {
    for (size_t K = 0; K < Relabel.size(); ++K) {
      auto Due = LoopStart + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     0.25 + K * RefreshPeriodS));
      waitUntil(Due);
      try {
        serve::DetectorRegistry::Lease L = Reg.acquire(tenantId(K % 2));
        if (!L)
          throw std::runtime_error("hot tenant not loadable");
        L.engine()->refreshCalibration(Relabel[K]);
        RefreshMs.push_back(usBetween(Due, Clock::now()) / 1e3);
      } catch (const std::exception &) {
        ++RefreshFailures;
      }
    }
  });
  // The prober runs on a fixed schedule and times each acquire from when
  // it was due, so a stall counts once per probe it delays, not once.
  std::thread Prober([&] {
    auto Due = LoopStart;
    while (Opt.Trace && !LoopDone.load()) {
      Due += std::chrono::milliseconds(2);
      waitUntil(Due);
      { serve::DetectorRegistry::Lease L = Reg.acquire(tenantId(0)); }
      AcquireHotUs.push_back(usBetween(Due, Clock::now()));
    }
  });
  size_t Mispredicted = 0, Caught = 0, Flagged = 0;
  Log.setEnabled(Opt.Trace);
  OpenLoopRun Run = runOpenLoop(
      *F.Service, Plan, Stream, OpenIdBase, [&](size_t I, const Verdict &V) {
        Flagged += V.Drifted ? 1 : 0;
        if (V.Predicted != Stream[Plan[I].Row].Label) {
          ++Mispredicted;
          Caught += V.Drifted ? 1 : 0;
        }
      });
  F.Service->drain();
  Refresher.join();
  LoopDone.store(true);
  Prober.join();
  Log.setEnabled(false);
  serve::ServiceStats Stats = F.Service->stats();
  F.Service.reset();
  serve::RegistryStats After = Reg.stats();

  std::vector<double> LatencyUs, HotUs, ColdUs;
  Out.Attempted += Plan.size() + Relabel.size();
  Out.Shed += RefreshFailures;
  for (size_t I = 0; I < Plan.size(); ++I) {
    if (Run.Outcomes[I] == Outcome::Shed) {
      ++Out.Shed;
      continue;
    }
    if (Run.Outcomes[I] == Outcome::Unresolved) {
      ++Out.Unresolved;
      continue;
    }
    LatencyUs.push_back(Run.LatencyUs[I]);
    if (IsCold[I])
      ColdUs.push_back(Run.LatencyUs[I]);
    else if (Plan[I].Tenant == tenantId(0))
      HotUs.push_back(Run.LatencyUs[I]);
  }

  // Phase 2: staged drains over the resident hot tenants for capacity, on
  // one batcher so the figure is a single-lane one like the other
  // workloads' (two batchers would measure how many cores the host had
  // free at the time). The remaining set-ups run between the drains.
  const double DrainS = 0.25 * Opt.Seconds;
  std::vector<double> DrainRates;
  auto MakeDrainService = [&] {
    serve::ServiceConfig SC;
    SC.StartPaused = true;
    SC.QueueCapacity = DrainRequests;
    return std::make_unique<serve::AssessmentService>(Reg, SC);
  };
  auto TenantOf = [&](size_t I) { return DrainTenants[I]; };
  auto Start = Clock::now();
  for (size_t Rep = 0; Rep < SetupReps - 1 || secondsSince(Start) < DrainS;
       ++Rep) {
    DrainRates.push_back(stagedDrain(MakeDrainService, Stream,
                                     Rep * DrainRequests, DrainRequests,
                                     TenantOf, Out));
    if (SetupS.size() < SetupReps)
      SetUp();
  }

  // The gate runs on a fresh detector over a cold tenant's calibration set
  // (the hot tenants' stores were refreshed while serving).
  PromClassifier GateEngine(Model, Cfg);
  GateEngine.calibrate(Calib[Tenants - 1]);
  SnapshotTimes Snap =
      classifierGate(GateEngine, Model, Calib[Tenants - 1],
                     slice(Stream, 0, 128), Opt.WorkDir + "/gate", Out);

  Out.EndToEnd.push_back({"throughput_sps", median(DrainRates), "1/s"});
  addLatency(Out, Out.EndToEnd, "", summarize(LatencyUs), "requests");
  Out.EndToEnd.push_back({"setup_s", median(SetupS), "s"});
  Out.Ledger.push_back(
      {"flag_recall",
       Mispredicted ? static_cast<double>(Caught) / Mispredicted : 0.0,
       "fraction"});
  LatencySummary Hot = summarize(HotUs);
  Out.Ledger.push_back({"hot_p99_us", Hot.Tail, "us"});
  Out.Notes.push_back(tailNote("hot_p99_us", Hot, "hot-tenant requests"));
  Out.Ledger.push_back({"cold_verdict_ms", median(ColdUs) / 1e3, "ms"});
  Out.Notes.push_back("cold_verdict_ms is the median over " +
                      std::to_string(ColdUs.size()) + " cold requests");
  Out.Ledger.push_back({"refresh_ms", median(RefreshMs), "ms"});
  Out.Ledger.push_back(
      {"bytes_per_entry", static_cast<double>(TenantBytes) / Entries, "B"});
  Out.Ledger.push_back({"offered_rate_rps",
                        static_cast<double>(Plan.size()) / OpenS, "1/s"});
  if (!Opt.Trace)
    return;

  std::vector<ForwardSpan> Spans = Log.take();

  // Cold-path probe: explicit evict / lazy-load cycles and snapshot
  // save / load of a hot tenant's detector.
  std::vector<double> EvictMs, AcquireColdMs, SaveMs, LoadMs;
  std::string Loaded;
  for (size_t K = HotTenants; K < Tenants; ++K)
    if (Reg.isLoaded(tenantId(K)))
      Loaded = tenantId(K);
  for (size_t C = 0; C < 6; ++C) {
    std::string Next = tenantId(HotTenants + ColdOrder[C % ColdOrder.size()]);
    if (Next == Loaded)
      continue;
    auto T0 = Clock::now();
    if (!Loaded.empty() && Reg.evict(Loaded))
      EvictMs.push_back(1e3 * secondsSince(T0));
    auto T1 = Clock::now();
    serve::DetectorRegistry::Lease L = Reg.acquire(Next);
    if (L)
      AcquireColdMs.push_back(1e3 * secondsSince(T1));
    Loaded = Next;
  }
  {
    serve::DetectorRegistry::Lease L = Reg.acquire(tenantId(0));
    std::string Path = Opt.WorkDir + "/probe.snapshot";
    for (int Rep = 0; L && Rep < 5; ++Rep) {
      auto T0 = Clock::now();
      L.engine()->saveSnapshot(Path);
      SaveMs.push_back(1e3 * secondsSince(T0));
      PromClassifier Copy(Model, Cfg);
      T0 = Clock::now();
      Copy.loadSnapshot(Path);
      LoadMs.push_back(1e3 * secondsSince(T0));
    }
  }
  Snap.SaveMs = median(SaveMs);
  Snap.LoadMs = median(LoadMs);

  PromClassifier Raw(*Host, Cfg), TracedEngine(Model, Cfg);
  Raw.calibrate(Calib[0]);
  TracedEngine.calibrate(Calib[0]);
  std::vector<data::Dataset> Batches;
  for (size_t B = 0; B < Stream.size() / BatchRows; ++B)
    Batches.push_back(slice(Stream, B * BatchRows, BatchRows));
  double Overhead =
      traceOverhead(TracedEngine, Raw, Batches, 0.1 * Opt.Seconds, Log);
  double Served = std::max<double>(1.0, static_cast<double>(LatencyUs.size()));
  addCommonLayers(
      Out, forwardStats(Spans),
      engineUsPerSample(TracedEngine, Model, Stream, 0.05 * Opt.Seconds),
      median(CalibrateS), static_cast<double>(Flagged) / Served,
      static_cast<double>(Entries * FeatureDim * 8), Snap, Overhead);

  addServiceLayers(Out, Stats, Run, Plan, Spans, OpenIdBase);
  uint64_t Acquires = (After.Hits - Before.Hits) + (After.Loads - Before.Loads) +
                      (After.LoadFailures - Before.LoadFailures);
  LatencySummary AcqHot = summarize(AcquireHotUs);
  Out.Ledger.push_back({"serve.registry.acquire_hot_us.p99", AcqHot.Tail, "us"});
  Out.Notes.push_back(
      tailNote("serve.registry.acquire_hot_us.p99", AcqHot, "probe acquires"));
  Out.Ledger.push_back({"serve.registry.evict_ms.p50", median(EvictMs), "ms"});
  Out.Ledger.push_back(
      {"serve.registry.acquire_cold_ms.p50", median(AcquireColdMs), "ms"});
  Out.Ledger.push_back(
      {"serve.registry.hit_ratio",
       Acquires ? static_cast<double>(After.Hits - Before.Hits) / Acquires
                : 0.0,
       "fraction"});
  Out.Ledger.push_back({"serve.registry.loads",
                        static_cast<double>(After.Loads - Before.Loads),
                        "count"});
  Out.Ledger.push_back({"serve.registry.evictions",
                        static_cast<double>(After.Evictions - Before.Evictions),
                        "count"});
  Out.Ledger.push_back(
      {"serve.registry.load_failures",
       static_cast<double>(After.LoadFailures - Before.LoadFailures), "count"});
  Out.Ledger.push_back({"serve.registry.eviction_save_failures",
                        static_cast<double>(After.EvictionSaveFailures -
                                            Before.EvictionSaveFailures),
                        "count"});
  Out.Ledger.push_back({"support.serialize.save_ms.p50", Snap.SaveMs, "ms"});
  Out.Ledger.push_back({"support.serialize.load_ms.p50", Snap.LoadMs, "ms"});
  Out.Ledger.push_back(
      {"support.serialize.snapshot_bytes", Snap.Bytes, "B"});
  Out.Ledger.push_back(
      {"serve.recal.refresh_ms.p50", quantile(RefreshMs, 0.5), "ms"});
  Out.Ledger.push_back(
      {"serve.recal.refresh_ms.p99", quantile(RefreshMs, 0.99), "ms"});
  Out.Ledger.push_back({"serve.recal.refreshes",
                        static_cast<double>(RefreshMs.size()), "count"});
  Out.Ledger.push_back({"serve.recal.refresh_failures",
                        static_cast<double>(RefreshFailures), "count"});
}

} // namespace perfbench
