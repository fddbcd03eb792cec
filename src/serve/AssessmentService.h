//===- serve/AssessmentService.h - Async assessment serving -----*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The async serving runtime over a calibrated PromClassifier.
///
/// Callers submit single samples and get std::future<Verdict> responses;
/// a bounded MPMC request queue feeds batcher threads that micro-batch
/// the stream — flushing when a batch reaches MaxBatch or when the oldest
/// queued request has waited FlushDeadline — and drive the whole batch
/// through the batched assessment engine. Because the engine is a
/// pure performance transformation, a verdict served this way is
/// bit-identical to a direct assess() call for the same sample; the
/// runtime only changes *when* work happens, never what it computes.
///
/// Overload control: the queue bound plus a ShedPolicy decide what a
/// burst past capacity degrades into. Under Block (the default) submit()
/// applies backpressure — it blocks while the queue is full, so latency
/// grows but nothing is lost. Under RejectNewest the arriving request is
/// shed immediately (its future fails with ShedError{QueueFull}), and
/// under DeadlineAware already-expired queued requests are evicted first
/// to make room before the arrival is shed. Requests may carry a
/// per-request deadline (submitWithDeadline); expiry is re-checked when a
/// batch is picked, so a request that waited out its budget is shed with
/// ShedError{DeadlineExpired} in O(1) instead of burning engine time on
/// an answer nobody is waiting for. Every accepted request is always
/// resolved — with a verdict or a ShedError — never dropped.
///
/// An optional WindowedDriftMonitor is folded on the batcher threads,
/// putting the streaming recalibration alarm directly in the serving
/// loop.
///
/// Fleet mode: constructed over a DetectorRegistry instead of one
/// engine, the service serves every registered tenant through one queue
/// and one batcher pool. Requests carry a tenant id, and the
/// micro-batcher groups per tenant — a batch holds requests of exactly
/// one tenant and is assessed under an acquire() lease, so the tenant
/// cannot be evicted mid-batch and per-tenant FIFO order is preserved.
/// Because each batch hits exactly one detector and batched assessment
/// is element-wise bit-identical to serial assessment, a tenant's
/// verdicts through the shared service are bit-identical to a dedicated
/// single-tenant service over the same detector (FleetTest enforces
/// this, including across an evict -> reload cycle). Stats gain
/// per-tenant splits alongside the fleet-wide counters.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SERVE_ASSESSMENTSERVICE_H
#define PROM_SERVE_ASSESSMENTSERVICE_H

#include "core/Detector.h"
#include "serve/DetectorRegistry.h"
#include "serve/WindowedDriftMonitor.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

/// \namespace prom::serve
/// The asynchronous serving runtime: AssessmentService (queue +
/// micro-batcher + overload control), WindowedDriftMonitor (streaming
/// recalibration alarm), and RecalibrationController (drift-triggered
/// self-recalibration).

namespace prom {
namespace serve {

/// What a burst past the queue bound degrades into.
enum class ShedPolicy {
  /// submit() blocks until space frees (backpressure; nothing is shed at
  /// admission — pick-time deadline expiry still applies).
  Block,
  /// The arriving request is shed immediately when the queue is full.
  RejectNewest,
  /// Already-expired queued requests are evicted first to make room;
  /// only if the queue is still full is the arrival shed. Under
  /// overload, capacity goes to the requests that can still meet their
  /// deadlines.
  DeadlineAware,
};

/// Why a request was shed instead of assessed.
enum class ShedReason {
  QueueFull,       ///< Admission refused: queue at capacity.
  DeadlineExpired, ///< The request's deadline passed before assessment.
  Shutdown,        ///< The service was shut down.
  UnknownTenant,   ///< Fleet mode: the tenant is unregistered or unloadable.
};

/// The failure a shed request's future resolves with. Derives from
/// std::runtime_error so callers that only distinguish success/failure
/// keep working; overload-aware callers switch on reason().
class ShedError : public std::runtime_error {
public:
  explicit ShedError(ShedReason R); ///< Constructs with reason \p R.
  ShedReason reason() const { return Reason; } ///< Why it was shed.

private:
  ShedReason Reason;
};

/// Fixed-footprint log-bucketed latency histogram (microseconds).
/// Buckets are sqrt(2)-spaced from 1us, so quantiles resolve to ~±20%
/// anywhere in the range — enough to watch a p99.9 walk toward the
/// deadline under load without storing per-request samples.
struct LatencyHistogram {
  static constexpr size_t NumBuckets = 64; ///< Covers 1us .. ~50 days.
  uint64_t Counts[NumBuckets] = {0};       ///< Per-bucket request counts.
  uint64_t Total = 0;                      ///< Requests recorded.

  void record(double Us); ///< Adds one latency observation.
  /// Latency at quantile \p Q in [0, 1] (linear interpolation inside the
  /// bucket; 0 with no observations).
  double quantileUs(double Q) const;
  double p50Us() const { return quantileUs(0.50); }    ///< Median.
  double p99Us() const { return quantileUs(0.99); }    ///< Tail.
  double p999Us() const { return quantileUs(0.999); }  ///< Deep tail.
  /// Merges \p Other's buckets into this histogram.
  LatencyHistogram &operator+=(const LatencyHistogram &Other);
};

/// Serving-runtime knobs.
struct ServiceConfig {
  /// Bounded request-queue capacity (backpressure bound).
  size_t QueueCapacity = 4096;
  /// Flush a forming batch at this size.
  size_t MaxBatch = 64;
  /// Flush a forming batch once its oldest request has waited this long.
  std::chrono::microseconds FlushDeadline{200};
  /// Batcher threads. One saturates the pool through the batch engine;
  /// a second lets queue pop + batch assembly + promise fulfillment of one
  /// batch overlap the engine work of the previous one.
  size_t NumBatchers = 1;
  /// What to do with arrivals while the queue is full; see ShedPolicy.
  ShedPolicy Shed = ShedPolicy::Block;
  /// Deadline budget applied to submit() calls that do not carry their
  /// own (zero = no deadline). submitWithDeadline() overrides per
  /// request.
  std::chrono::microseconds DefaultDeadline{0};
  /// Construct without batchers; requests queue up (to the capacity
  /// bound) until start(). Lets a server finish staged initialization —
  /// snapshot load, warm-up, health checks — while the listener already
  /// accepts work, and gives benchmarks a pre-staged closed system.
  bool StartPaused = false;
};

/// Per-tenant slice of the fleet-mode counters (empty map in
/// single-tenant mode). The fleet-wide ServiceStats counters always
/// equal the sum over tenants plus the untagged traffic.
struct TenantServiceStats {
  uint64_t Submitted = 0;     ///< Requests accepted for this tenant.
  uint64_t Completed = 0;     ///< Requests answered with a verdict.
  uint64_t DriftRejected = 0; ///< Completed verdicts with Drifted set.
  uint64_t Shed = 0;          ///< Requests shed, any reason.
  uint64_t Batches = 0;       ///< Single-tenant micro-batches assessed.
  /// Submit-to-verdict latency of this tenant's completed requests.
  LatencyHistogram Latency;
};

/// Monotonic counters of a running service (consistent snapshot).
struct ServiceStats {
  uint64_t Submitted = 0;     ///< Requests accepted into the queue.
  uint64_t Completed = 0;     ///< Requests answered with a verdict.
  uint64_t DriftRejected = 0; ///< Completed verdicts with Drifted set.
  uint64_t ShedQueueFull = 0; ///< Shed at admission: queue at capacity.
  uint64_t ShedExpired = 0;   ///< Shed for an expired deadline (at
                              ///< admission, eviction, or batch pick).
  uint64_t ShedShutdown = 0;  ///< Failed because the service was shut down.
  /// Fleet mode: shed because the tenant tag matched no loadable tenant.
  uint64_t ShedUnknownTenant = 0;
  uint64_t Batches = 0;       ///< Micro-batches that assessed >=1 request.
  uint64_t SizeFlushes = 0;   ///< Batches flushed by reaching MaxBatch.
  uint64_t DeadlineFlushes = 0; ///< Batches flushed by deadline or drain.
  /// Submit-to-verdict latency of completed requests (shed requests are
  /// not latency observations — they are counted above).
  LatencyHistogram Latency;

  /// Fleet mode: the per-tenant splits, keyed by tenant id (empty in
  /// single-tenant mode).
  std::map<std::string, TenantServiceStats> Tenants;

  /// Requests shed for any reason.
  uint64_t shedTotal() const {
    return ShedQueueFull + ShedExpired + ShedShutdown + ShedUnknownTenant;
  }

  /// Completed (answered-with-a-verdict) requests per assessed batch;
  /// shed requests never enter a batch, so they cannot dilute this (0
  /// before the first batch).
  double meanBatchSize() const {
    return Batches == 0 ? 0.0
                        : static_cast<double>(Completed) /
                              static_cast<double>(Batches);
  }
};

/// Async micro-batching front-end over a calibrated PromClassifier; see
/// the file comment. The engine (and its underlying model) must outlive
/// the service and stay unmodified while it runs.
///
/// Post-shutdown contract (unified across entry points): after
/// shutdown() begins, trySubmit() returns false and submit() /
/// submitWithDeadline() return a future that fails with
/// ShedError{Shutdown}; neither throws synchronously, and no request
/// accepted *before* shutdown is ever dropped — it resolves with a
/// verdict (started services drain) or a ShedError. drain() may run
/// concurrently with shutdown() (and with other drain() calls).
class AssessmentService {
public:
  using Clock = std::chrono::steady_clock; ///< Deadline/latency clock.

  /// Spawns the batcher threads over \p Engine; \p Monitor, when given,
  /// is folded on the batcher threads (may be null).
  explicit AssessmentService(const PromClassifier &Engine,
                             ServiceConfig Cfg = ServiceConfig(),
                             WindowedDriftMonitor *Monitor = nullptr);

  /// Fleet mode: spawns the batcher threads over \p Fleet, serving every
  /// registered tenant through one queue (see the file comment). Submit
  /// through the tenant-tagged overloads; untagged submits are shed with
  /// ShedError{UnknownTenant} at batch pick. Each tenant's own drift
  /// monitor (enableRecalibration) is folded on the batcher threads. The
  /// registry must outlive the service.
  explicit AssessmentService(DetectorRegistry &Fleet,
                             ServiceConfig Cfg = ServiceConfig());

  ~AssessmentService(); ///< shutdown()s, resolving every queued request.

  AssessmentService(const AssessmentService &) = delete; ///< Owns threads.
  /// Non-copyable: owns threads and pending promises.
  AssessmentService &operator=(const AssessmentService &) = delete;

  /// Enqueues one sample under the configured ShedPolicy (with the
  /// config's DefaultDeadline, if any). Under Block this waits while the
  /// queue is full; the other policies shed instead of waiting. The
  /// future resolves to the committee verdict or fails with a ShedError.
  std::future<Verdict> submit(data::Sample S);

  /// submit() with a per-request deadline budget measured from now: once
  /// \p Budget elapses the request is shed (at admission, by DeadlineAware
  /// eviction, or at batch pick) rather than assessed late. A
  /// non-positive budget sheds immediately.
  std::future<Verdict> submitWithDeadline(data::Sample S,
                                          std::chrono::microseconds Budget);

  /// Non-blocking submit; returns false (leaving \p Out untouched) when
  /// the queue is full or the service is shut down. Never sheds queued
  /// requests (even under DeadlineAware) — it is the polling-style
  /// admission probe.
  bool trySubmit(data::Sample S, std::future<Verdict> &Out);

  /// Fleet mode: submit() tagged with \p Tenant. The request rides the
  /// shared queue but is batched only with other \p Tenant requests and
  /// assessed by that tenant's detector (lazily loaded under the lease
  /// if evicted). An unknown or unloadable tenant fails the future with
  /// ShedError{UnknownTenant} at batch pick.
  std::future<Verdict> submit(const std::string &Tenant, data::Sample S);

  /// Tenant-tagged submitWithDeadline(); see the tenant submit().
  std::future<Verdict> submitWithDeadline(const std::string &Tenant,
                                          data::Sample S,
                                          std::chrono::microseconds Budget);

  /// Tenant-tagged trySubmit(); see the tenant submit().
  bool trySubmit(const std::string &Tenant, data::Sample S,
                 std::future<Verdict> &Out);

  /// Starts the batchers of a StartPaused service (no-op otherwise).
  void start();

  /// Blocks until every accepted request has been resolved (verdict or
  /// shed). Safe to call concurrently with submitters, other drain()
  /// callers, and shutdown().
  void drain();

  /// Drains, then stops the batcher threads. Idempotent and safe against
  /// concurrent shutdown()/drain() callers.
  void shutdown();

  /// Requests currently queued (not yet picked into a batch).
  size_t queueDepth() const;

  ServiceStats stats() const; ///< Consistent counter snapshot.
  const ServiceConfig &config() const { return Cfg; } ///< The knobs.

private:
  struct Request {
    data::Sample S;
    std::string Tenant; ///< Fleet routing tag ("" in single-tenant mode).
    std::promise<Verdict> P;
    Clock::time_point SubmittedAt;
    Clock::time_point Deadline;
    bool HasDeadline = false;

    bool expired(Clock::time_point Now) const {
      return HasDeadline && Deadline <= Now;
    }
  };

  /// Shared admission path of submit()/submitWithDeadline(); a request
  /// with a deadline expires \p Budget after its admission stamp.
  std::future<Verdict> submitImpl(std::string Tenant, data::Sample S,
                                  bool HasDeadline,
                                  std::chrono::microseconds Budget);

  /// Shared admission path of the trySubmit() overloads.
  bool trySubmitImpl(std::string Tenant, data::Sample S,
                     std::future<Verdict> &Out);

  /// Counts one shed request against its tenant split (fleet mode only;
  /// caller holds Mutex).
  void countShedLocked(const Request &Req);

  /// Fails \p Req's promise with ShedError(\p Reason). Called outside
  /// Mutex (set_exception wakes waiters synchronously).
  static void shed(Request &Req, ShedReason Reason);

  /// Evicts expired requests from the queue into \p Out; caller holds
  /// Mutex and sheds them after unlocking. Counts them as ShedExpired.
  void evictExpiredLocked(Clock::time_point Now, std::vector<Request> &Out);

  void batcherLoop();
  void spawnBatchers(); ///< Shared constructor tail.

  const PromClassifier *Engine; ///< Single-tenant engine (null in fleet mode).
  DetectorRegistry *Fleet;      ///< Fleet registry (null in single-tenant mode).
  ServiceConfig Cfg;
  WindowedDriftMonitor *Monitor;

  mutable std::mutex Mutex;
  /// Serializes shutdown() callers; held across the batcher join phase,
  /// which runs outside Mutex.
  std::mutex ShutdownMutex;
  std::condition_variable NotEmpty;
  std::condition_variable NotFull;
  std::condition_variable Idle;
  std::deque<Request> Queue;
  size_t InFlight = 0; ///< Batches picked but not yet answered.
  bool Started = true; ///< False while a StartPaused service is parked.
  bool Stopping = false;
  ServiceStats Stats;

  std::vector<std::thread> Batchers;
};

} // namespace serve
} // namespace prom

#endif // PROM_SERVE_ASSESSMENTSERVICE_H
