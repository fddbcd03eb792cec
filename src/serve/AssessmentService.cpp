//===- serve/AssessmentService.cpp - Async assessment serving ---------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/AssessmentService.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace prom;
using namespace prom::serve;

namespace {

const char *shedMessage(ShedReason R) {
  switch (R) {
  case ShedReason::QueueFull:
    return "request shed: queue full";
  case ShedReason::DeadlineExpired:
    return "request shed: deadline expired";
  case ShedReason::Shutdown:
    return "AssessmentService is shut down";
  case ShedReason::UnknownTenant:
    return "request shed: unknown or unloadable tenant";
  }
  return "request shed";
}

double microsBetween(AssessmentService::Clock::time_point From,
                     AssessmentService::Clock::time_point To) {
  return 1e6 * std::chrono::duration<double>(To - From).count();
}

} // namespace

ShedError::ShedError(ShedReason R)
    : std::runtime_error(shedMessage(R)), Reason(R) {}

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

// Bucket 0 holds [0, 1us); bucket I >= 1 holds [2^((I-1)/2), 2^(I/2)) us,
// with the last bucket absorbing everything beyond.

void LatencyHistogram::record(double Us) {
  ++Total;
  size_t Idx = 0;
  if (Us >= 1.0) {
    Idx = static_cast<size_t>(2.0 * std::log2(Us)) + 1;
    if (Idx >= NumBuckets)
      Idx = NumBuckets - 1;
  }
  ++Counts[Idx];
}

double LatencyHistogram::quantileUs(double Q) const {
  if (Total == 0)
    return 0.0;
  Q = std::min(1.0, std::max(0.0, Q));
  double Target = Q * static_cast<double>(Total);
  uint64_t Cum = 0;
  double LastUpper = 0.0;
  for (size_t I = 0; I < NumBuckets; ++I) {
    if (Counts[I] == 0)
      continue;
    double Lo = I == 0 ? 0.0 : std::exp2(static_cast<double>(I - 1) / 2.0);
    double Hi = std::exp2(static_cast<double>(I) / 2.0);
    LastUpper = Hi;
    if (static_cast<double>(Cum + Counts[I]) >= Target) {
      double Frac =
          (Target - static_cast<double>(Cum)) / static_cast<double>(Counts[I]);
      return Lo + std::max(0.0, Frac) * (Hi - Lo);
    }
    Cum += Counts[I];
  }
  return LastUpper;
}

LatencyHistogram &LatencyHistogram::operator+=(const LatencyHistogram &Other) {
  for (size_t I = 0; I < NumBuckets; ++I)
    Counts[I] += Other.Counts[I];
  Total += Other.Total;
  return *this;
}

//===----------------------------------------------------------------------===//
// AssessmentService
//===----------------------------------------------------------------------===//

AssessmentService::AssessmentService(const PromClassifier &Engine,
                                     ServiceConfig CfgIn,
                                     WindowedDriftMonitor *Monitor)
    : Engine(&Engine), Fleet(nullptr), Cfg(CfgIn), Monitor(Monitor) {
  assert(Engine.isCalibrated() && "serve an uncalibrated detector");
  spawnBatchers();
}

AssessmentService::AssessmentService(DetectorRegistry &Fleet,
                                     ServiceConfig CfgIn)
    : Engine(nullptr), Fleet(&Fleet), Cfg(CfgIn), Monitor(nullptr) {
  spawnBatchers();
}

void AssessmentService::spawnBatchers() {
  assert(Cfg.QueueCapacity > 0 && Cfg.MaxBatch > 0 && "degenerate config");
  if (Cfg.NumBatchers == 0)
    Cfg.NumBatchers = 1;
  Started = !Cfg.StartPaused;
  // Batchers spawn up front either way; a paused service's batchers park
  // on the Started flag, so start() is a flag flip, not thread creation.
  Batchers.reserve(Cfg.NumBatchers);
  for (size_t I = 0; I < Cfg.NumBatchers; ++I)
    Batchers.emplace_back([this] { batcherLoop(); });
}

void AssessmentService::start() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping || Started)
      return;
    Started = true;
  }
  NotEmpty.notify_all();
}

AssessmentService::~AssessmentService() { shutdown(); }

void AssessmentService::shed(Request &Req, ShedReason Reason) {
  Req.P.set_exception(std::make_exception_ptr(ShedError(Reason)));
}

void AssessmentService::countShedLocked(const Request &Req) {
  if (Fleet)
    ++Stats.Tenants[Req.Tenant].Shed;
}

void AssessmentService::evictExpiredLocked(Clock::time_point Now,
                                           std::vector<Request> &Out) {
  // Caller holds Mutex. Expired requests anywhere in the queue are pulled
  // out (deadlines are per request, so expiry is not FIFO); their
  // promises are failed by the caller after unlocking.
  auto Keep = Queue.begin();
  for (auto It = Queue.begin(); It != Queue.end(); ++It) {
    if (It->expired(Now)) {
      ++Stats.ShedExpired;
      countShedLocked(*It);
      Out.push_back(std::move(*It));
    } else {
      if (Keep != It)
        *Keep = std::move(*It);
      ++Keep;
    }
  }
  Queue.erase(Keep, Queue.end());
}

std::future<Verdict> AssessmentService::submit(data::Sample S) {
  return submit(std::string(), std::move(S));
}

std::future<Verdict> AssessmentService::submit(const std::string &Tenant,
                                               data::Sample S) {
  return submitImpl(Tenant, std::move(S),
                    /*HasDeadline=*/Cfg.DefaultDeadline.count() > 0,
                    Cfg.DefaultDeadline);
}

std::future<Verdict>
AssessmentService::submitWithDeadline(data::Sample S,
                                      std::chrono::microseconds Budget) {
  return submitWithDeadline(std::string(), std::move(S), Budget);
}

std::future<Verdict>
AssessmentService::submitWithDeadline(const std::string &Tenant,
                                      data::Sample S,
                                      std::chrono::microseconds Budget) {
  return submitImpl(Tenant, std::move(S), /*HasDeadline=*/true, Budget);
}

std::future<Verdict>
AssessmentService::submitImpl(std::string Tenant, data::Sample S,
                              bool HasDeadline,
                              std::chrono::microseconds Budget) {
  Request Req;
  Req.S = std::move(S);
  Req.Tenant = std::move(Tenant);
  // One clock read: the deadline counts from the admission stamp, so only
  // a non-positive budget is already expired below.
  Req.SubmittedAt = Clock::now();
  Req.HasDeadline = HasDeadline;
  Req.Deadline = Req.SubmittedAt + Budget;
  std::future<Verdict> Fut = Req.P.get_future();

  std::vector<Request> Evicted;
  bool ShedNow = false;
  ShedReason Reason = ShedReason::QueueFull;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (Stopping) {
      ShedNow = true;
      Reason = ShedReason::Shutdown;
      ++Stats.ShedShutdown;
    } else if (Req.expired(Req.SubmittedAt)) {
      // A non-positive budget: the caller's deadline is already gone.
      ShedNow = true;
      Reason = ShedReason::DeadlineExpired;
      ++Stats.ShedExpired;
    } else if (Queue.size() >= Cfg.QueueCapacity) {
      switch (Cfg.Shed) {
      case ShedPolicy::Block:
        // Backpressure: wait for space. Expiry while waiting is caught at
        // batch-pick time, so a deadline still bounds wasted engine work.
        NotFull.wait(Lock, [&] {
          return Stopping || Queue.size() < Cfg.QueueCapacity;
        });
        if (Stopping) {
          ShedNow = true;
          Reason = ShedReason::Shutdown;
          ++Stats.ShedShutdown;
        }
        break;
      case ShedPolicy::RejectNewest:
        ShedNow = true;
        Reason = ShedReason::QueueFull;
        ++Stats.ShedQueueFull;
        break;
      case ShedPolicy::DeadlineAware:
        // Make room from requests that can no longer be answered in time
        // before refusing work that still can.
        evictExpiredLocked(Clock::now(), Evicted);
        if (Queue.size() >= Cfg.QueueCapacity) {
          ShedNow = true;
          Reason = ShedReason::QueueFull;
          ++Stats.ShedQueueFull;
        }
        break;
      }
    }
    if (ShedNow) {
      countShedLocked(Req);
    } else {
      ++Stats.Submitted;
      if (Fleet)
        ++Stats.Tenants[Req.Tenant].Submitted;
      Queue.push_back(std::move(Req));
    }
  }
  for (Request &E : Evicted)
    shed(E, ShedReason::DeadlineExpired);
  if (ShedNow) {
    shed(Req, Reason);
    return Fut;
  }
  NotEmpty.notify_one();
  return Fut;
}

bool AssessmentService::trySubmit(data::Sample S, std::future<Verdict> &Out) {
  return trySubmitImpl(std::string(), std::move(S), Out);
}

bool AssessmentService::trySubmit(const std::string &Tenant, data::Sample S,
                                  std::future<Verdict> &Out) {
  return trySubmitImpl(Tenant, std::move(S), Out);
}

bool AssessmentService::trySubmitImpl(std::string Tenant, data::Sample S,
                                      std::future<Verdict> &Out) {
  Request Req;
  Req.S = std::move(S);
  Req.Tenant = std::move(Tenant);
  Req.SubmittedAt = Clock::now();
  if (Cfg.DefaultDeadline.count() > 0) {
    Req.HasDeadline = true;
    Req.Deadline = Req.SubmittedAt + Cfg.DefaultDeadline;
  }
  std::future<Verdict> Fut = Req.P.get_future();
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (Stopping || Queue.size() >= Cfg.QueueCapacity)
      return false;
    ++Stats.Submitted;
    if (Fleet)
      ++Stats.Tenants[Req.Tenant].Submitted;
    Queue.push_back(std::move(Req));
  }
  Out = std::move(Fut);
  NotEmpty.notify_one();
  return true;
}

void AssessmentService::batcherLoop() {
  std::vector<std::promise<Verdict>> Promises;
  std::vector<Clock::time_point> SubmitTimes;
  std::vector<Request> Expired;
  Promises.reserve(Cfg.MaxBatch);
  SubmitTimes.reserve(Cfg.MaxBatch);

  while (true) {
    Promises.clear();
    SubmitTimes.clear();
    Expired.clear();
    data::Dataset Work;
    Work.reserve(Cfg.MaxBatch);
    bool ByDeadline = false;
    std::string BatchTenant;   // Fleet mode: the batch's single tenant.
    bool TenantChosen = false; // Set by the first live pick (fleet mode).
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      NotEmpty.wait(Lock,
                    [&] { return Stopping || (Started && !Queue.empty()); });
      if (Stopping && (Queue.empty() || !Started))
        return; // Drained (or never started: shutdown() sheds the queue).

      // Requests move straight from the queue into the engine Dataset;
      // only the promise is kept aside. Expiry is re-checked here, at
      // pick time: a request that waited out its deadline in the queue
      // is shed in O(1) instead of spending engine time on an answer
      // nobody is waiting for. The batch's flush deadline runs from its
      // first (oldest) live request.
      //
      // Fleet mode: the first live pick fixes the batch's tenant, and
      // every later pick takes only that tenant's oldest queued request
      // (skipped requests stay queued in order, so per-tenant FIFO is
      // preserved and a batch holds exactly one tenant — the grouping
      // that makes shared-service verdicts bit-identical to a dedicated
      // service).
      auto TakeNext = [&]() -> bool {
        auto It = Queue.begin();
        if (Fleet && TenantChosen)
          while (It != Queue.end() && It->Tenant != BatchTenant)
            ++It;
        if (It == Queue.end())
          return false;
        Request Req = std::move(*It);
        Queue.erase(It);
        if (Req.expired(Clock::now())) {
          ++Stats.ShedExpired;
          countShedLocked(Req);
          Expired.push_back(std::move(Req));
          return true;
        }
        if (Fleet && !TenantChosen) {
          BatchTenant = Req.Tenant;
          TenantChosen = true;
        }
        SubmitTimes.push_back(Req.SubmittedAt);
        Work.add(std::move(Req.S));
        Promises.push_back(std::move(Req.P));
        return true;
      };
      // A queued request the current batch can still take: any request
      // until the tenant is fixed, then only the batch tenant's.
      auto HasCandidate = [&]() -> bool {
        if (!Fleet || !TenantChosen)
          return !Queue.empty();
        for (const Request &Req : Queue)
          if (Req.Tenant == BatchTenant)
            return true;
        return false;
      };
      TakeNext();
      auto Deadline = std::chrono::steady_clock::now() + Cfg.FlushDeadline;
      while (Promises.size() < Cfg.MaxBatch) {
        if (TakeNext())
          continue;
        if (Promises.empty())
          break; // Every pick so far expired; nothing to flush for.
        if (Stopping) {
          ByDeadline = true; // Drain flush: take what we have, now.
          break;
        }
        if (NotEmpty.wait_until(Lock, Deadline,
                                [&] { return Stopping || HasCandidate(); }))
          continue;
        ByDeadline = true; // Deadline expired with a short batch.
        break;
      }
      if (!Promises.empty()) {
        ++InFlight;
        ++Stats.Batches;
        if (ByDeadline)
          ++Stats.DeadlineFlushes;
        else
          ++Stats.SizeFlushes;
      } else if (Queue.empty() && InFlight == 0) {
        // An expired-only pick emptied the queue without forming a
        // batch; drain() waiters must still wake.
        Idle.notify_all();
      }
    }
    NotFull.notify_all();
    for (Request &Req : Expired)
      shed(Req, ShedReason::DeadlineExpired);
    if (Promises.empty())
      continue;

    // Injected engine slowness: with "batcher_stall" armed the batch
    // takes ~2ms longer, so offered load outruns capacity and the shed
    // machinery above is what keeps latency bounded.
    if (support::faults::shouldFail("batcher_stall"))
      std::this_thread::sleep_for(std::chrono::milliseconds(2));

    // Engine work outside the lock: other batchers keep collecting. In
    // fleet mode the batch's tenant is pinned for the duration (lazily
    // reloading it if it was evicted); a tenant that cannot be resolved
    // fails the whole batch — each request individually — with
    // UnknownTenant.
    const PromClassifier *BatchEngine = Engine;
    WindowedDriftMonitor *BatchMonitor = Monitor;
    DetectorRegistry::Lease Lease;
    if (Fleet) {
      Lease = Fleet->acquire(BatchTenant);
      if (!Lease) {
        for (std::promise<Verdict> &P : Promises)
          P.set_exception(
              std::make_exception_ptr(ShedError(ShedReason::UnknownTenant)));
        std::lock_guard<std::mutex> Lock(Mutex);
        Stats.ShedUnknownTenant += Promises.size();
        Stats.Tenants[BatchTenant].Shed += Promises.size();
        --InFlight;
        if (Queue.empty() && InFlight == 0)
          Idle.notify_all();
        continue;
      }
      BatchEngine = Lease.engine();
      BatchMonitor = Lease.monitor();
    }
    std::vector<Verdict> Verdicts = BatchEngine->assessBatch(Work);
    assert(Verdicts.size() == Promises.size() && "engine dropped verdicts");

    // One completion timestamp per batch: requests in a batch finish
    // together, and per-promise clock reads would only jitter the
    // histogram.
    Clock::time_point Done = Clock::now();
    LatencyHistogram BatchLatency;
    size_t Rejected = 0;
    for (size_t I = 0; I < Promises.size(); ++I) {
      if (Verdicts[I].Drifted)
        ++Rejected;
      if (BatchMonitor)
        // The feature-carrying fold: samples are still alive in Work, so
        // the monitor's attribution sink (when one is attached) sees the
        // assessed vector alongside the verdict. Observe-only — the
        // verdict already exists and is moved out unchanged below. In
        // fleet mode this is the batch tenant's own monitor, folded
        // under the lease.
        BatchMonitor->record(Verdicts[I], Work[I].Features.data(),
                             Work[I].Features.size());
      BatchLatency.record(microsBetween(SubmitTimes[I], Done));
      Promises[I].set_value(std::move(Verdicts[I]));
    }

    // Unpin the tenant before signaling idle: a drain() caller must be
    // free to evict the tenant the moment drain() returns, so the lease
    // cannot outlive the InFlight decrement that wakes the waiter.
    Lease.release();

    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stats.Completed += Promises.size();
      Stats.DriftRejected += Rejected;
      Stats.Latency += BatchLatency;
      if (Fleet) {
        TenantServiceStats &TS = Stats.Tenants[BatchTenant];
        TS.Completed += Promises.size();
        TS.DriftRejected += Rejected;
        TS.Latency += BatchLatency;
        ++TS.Batches;
      }
      --InFlight;
      if (Queue.empty() && InFlight == 0)
        Idle.notify_all();
    }
  }
}

void AssessmentService::drain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Idle.wait(Lock, [&] { return Queue.empty() && InFlight == 0; });
}

void AssessmentService::shutdown() {
  // Serializes concurrent shutdown() callers (e.g. an operator thread
  // racing the destructor): the join/clear phase below runs outside
  // Mutex, so without this two callers could join the same threads.
  std::lock_guard<std::mutex> ShutdownLock(ShutdownMutex);
  std::deque<Request> Orphans;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping && Batchers.empty() && Queue.empty())
      return;
    Stopping = true;
    // A StartPaused service that was never start()ed must not begin
    // assessing during teardown; shed its pending requests instead.
    if (!Started) {
      Stats.ShedShutdown += Queue.size();
      for (const Request &Req : Queue)
        countShedLocked(Req);
      Orphans.swap(Queue);
    }
  }
  NotEmpty.notify_all();
  NotFull.notify_all();
  // Concurrent drain() callers on a never-started service would
  // otherwise sleep until the final notify below; the queue is already
  // empty, so wake them now.
  Idle.notify_all();
  for (std::thread &T : Batchers)
    T.join();
  Batchers.clear();
  for (Request &Req : Orphans)
    shed(Req, ShedReason::Shutdown);
  Idle.notify_all();
}

size_t AssessmentService::queueDepth() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Queue.size();
}

ServiceStats AssessmentService::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}
