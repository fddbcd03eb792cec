//===- serve/RecalibrationController.h - Drift-triggered refresh -*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The self-recalibration loop of the serving runtime.
///
/// The paper's deployment story is continual: when the detector reports
/// drift, a small sample of deployment inputs is relabeled and folded
/// back into calibration, so the detector stays trustworthy without
/// retraining the underlying model. This controller closes that loop
/// in-process:
///
///  1. operators (or a labeling pipeline) stream relabeled samples into
///     submitLabeled(), which buffers them;
///  2. the WindowedDriftMonitor's rising-edge alert — subscribed via its
///     callback hook — wakes the controller's background thread;
///  3. the thread drains the buffer and runs
///     PromClassifier::refreshCalibration(), the incremental
///     CalibrationStore refresh, while the AssessmentService keeps
///     serving from the previous store generation;
///  4. the engine atomically swaps in the refreshed store (RCU-style
///     shared_ptr publication — in-flight batches finish on the store
///     they pinned, with zero dropped or failed requests);
///  5. a snapshot generation is rotated to disk through
///     support::rotateSnapshot (snapshot.N.bin plus the `latest` pointer,
///     old generations pruned, numbered in the same sequence as the
///     registry's saves) so a restart resumes from the refreshed state,
///     and the monitor window is reset so the alarm re-arms against the
///     new calibration.
///
/// Everything heavy happens on the controller's own thread; the alert
/// callback only signals it, so the serving path never blocks on a
/// refresh.
///
/// Failure semantics: the engine publishes a refreshed store only as the
/// last step of a successful refresh, so a refresh attempt that throws —
/// an I/O error in the relabel pipeline, an injected refresh_throw fault,
/// anything — leaves the last known-good calibrated state serving
/// bit-identical verdicts. The controller retries with exponential
/// backoff up to MaxRefreshAttempts, counting every failure
/// (RecalibrationStats::RefreshFailures); an abandoned batch
/// (RefreshesAbandoned) is returned to the relabel buffer so the next
/// alert retries it together with newer labels. Snapshot rotation gets
/// the same bounded retry; a rotation that never commits leaves the
/// previous committed generation in place (SnapshotFailures is the
/// alarm), and a restart's support::loadLatestSnapshot walks back over
/// generations that do not load to the newest one that does.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SERVE_RECALIBRATIONCONTROLLER_H
#define PROM_SERVE_RECALIBRATIONCONTROLLER_H

#include "core/Detector.h"
#include "serve/WindowedDriftMonitor.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace prom {
namespace serve {

/// Refresh-loop knobs.
struct RecalibrationConfig {
  /// A refresh needs at least this many buffered relabeled samples; an
  /// alert arriving with fewer is deferred (the buffer keeps filling and
  /// the refresh runs on the next alert or triggerRefresh()).
  size_t MinRefreshSamples = 32;

  /// Bound on the pending relabel buffer; the oldest samples are dropped
  /// beyond it (the freshest labels are the ones worth folding in).
  size_t MaxBufferedSamples = 4096;

  /// Directory for rotated snapshot generations; empty disables rotation.
  /// Created on demand, and pruned to support::SnapshotGenerationsKept
  /// after every rotation. The scaler registered with setScaler(), if
  /// any, is saved into each generation.
  std::string SnapshotDir;

  /// Reset the drift monitor's window after a successful refresh so the
  /// alarm measures the refreshed detector, not the drift that triggered
  /// it.
  bool ResetMonitorAfterRefresh = true;

  /// Attempts per refresh batch (first try + retries) before the batch
  /// is abandoned back into the relabel buffer. Snapshot rotation gets
  /// the same bound independently.
  size_t MaxRefreshAttempts = 3;

  /// Backoff before the first retry; doubles on each subsequent retry.
  /// The wait is interruptible by shutdown().
  std::chrono::milliseconds RefreshRetryBackoff{25};

  /// Bound on the relabeled samples folded per refresh (0 = fold the
  /// whole drained buffer). When the drained batch exceeds the bound,
  /// the controller keeps the most drift-relevant samples — ranked along
  /// the attribution report's top drifted dimensions when an attribution
  /// layer is registered (setAttribution), by recency otherwise — and
  /// returns the rest to the relabel buffer for a later refresh. This is
  /// the targeted-refresh knob: label budget goes to the directions that
  /// actually moved.
  size_t MaxSamplesPerRefresh = 0;
};

/// Monotonic counters of the refresh loop (consistent snapshot).
struct RecalibrationStats {
  uint64_t AlertsSeen = 0;         ///< Rising-edge alerts delivered.
  uint64_t RefreshesCompleted = 0; ///< Store swaps published.
  uint64_t RefreshesDeferred = 0;  ///< Alerts parked below MinRefreshSamples.
  uint64_t SamplesFolded = 0;      ///< Relabeled samples folded in, total.
  uint64_t SnapshotsRotated = 0;   ///< Generations written + committed.
  /// Rotation attempts that failed (unusable SnapshotDir, save error, or
  /// pointer-commit error), across the bounded per-refresh retries. The
  /// refresh itself still succeeded — only its durability is missing;
  /// monitor this alongside SnapshotsRotated, because a permanently
  /// failing rotation means a restart falls back to the last committed
  /// (possibly pre-drift) generation.
  uint64_t SnapshotFailures = 0;
  /// Refresh attempts that threw. The engine still serves the previous
  /// store after any number of these — a failed refresh never corrupts
  /// the serving state, it only delays the fold.
  uint64_t RefreshFailures = 0;
  /// Refresh batches given up after MaxRefreshAttempts and returned to
  /// the relabel buffer. A rising count with zero RefreshesCompleted is
  /// the "calibration is going stale" alarm.
  uint64_t RefreshesAbandoned = 0;
  /// Generation this controller last committed (0 before its first
  /// rotation). The directory's numbering is shared with every other
  /// writer (a registry save, another process), so the next one this
  /// controller commits may skip numbers.
  uint64_t LastGeneration = 0;
  size_t PendingSamples = 0;       ///< Relabeled samples waiting in buffer.
  size_t StoreSize = 0;            ///< Live calibration entries after last swap.
  /// Refreshes whose relabel batch exceeded MaxSamplesPerRefresh and was
  /// ranked along the attribution report's top drifted dimensions.
  uint64_t RefreshesPrioritized = 0;
  /// Drift shape reported by the attribution layer at the last completed
  /// refresh (None when no layer is registered).
  DriftType LastDriftType = DriftType::None;
  /// Attribution report magnitude (max |z|) at the last completed refresh.
  double LastMaxAbsZ = 0.0;
  /// Ranked top drifted dimensions at the last completed refresh (the
  /// report's Top rows; empty when no layer is registered).
  std::vector<size_t> LastDriftedDims;
};

/// Drift-triggered background recalibrator; see the file comment. The
/// engine and monitor must outlive the controller, and the controller
/// must be the only writer of the engine's calibration state while it
/// runs (assessments may continue concurrently — that is the point).
class RecalibrationController {
public:
  /// Observer of the alert stream; see setAlertObserver().
  using AlertObserver = std::function<void(const DriftWindowSnapshot &)>;

  /// Subscribes to \p Monitor's rising-edge alerts and starts the
  /// background refresh thread. \p Engine must already be calibrated.
  RecalibrationController(PromClassifier &Engine,
                          WindowedDriftMonitor &Monitor,
                          RecalibrationConfig Cfg = RecalibrationConfig());

  ~RecalibrationController(); ///< shutdown()s.

  RecalibrationController(const RecalibrationController &) = delete; ///< Owns a thread.
  /// Non-copyable: owns a thread and a monitor subscription.
  RecalibrationController &operator=(const RecalibrationController &) = delete;

  /// Buffers one relabeled deployment sample (its Label field carries the
  /// fresh ground truth) for the next refresh. Thread-safe; drops the
  /// oldest buffered sample beyond MaxBufferedSamples.
  void submitLabeled(data::Sample S);

  /// Relabeled samples currently buffered.
  size_t pendingLabeled() const;

  /// Registers the deployment feature scaler to embed in rotated
  /// snapshots (optional; pass nullptr to clear, and rotated snapshots
  /// then carry no scaler). The scaler must outlive the controller.
  void setScaler(const data::StandardScaler *Scaler);

  /// Registers the drift-attribution layer (optional; pass nullptr to
  /// clear; it must outlive the controller). At each refresh the
  /// controller takes one report — describing the drift that triggered
  /// the refresh — records it in stats() (LastDriftType / LastMaxAbsZ /
  /// LastDriftedDims), uses it to prioritize the relabel batch under
  /// MaxSamplesPerRefresh, and re-arms the layer after a successful
  /// refresh when ResetMonitorAfterRefresh is set, so the reference
  /// window rebuilds against the refreshed calibration.
  void setAttribution(DriftAttribution *Attribution);

  /// Registers an observer of the alert stream (optional; pass nullptr
  /// to clear). The controller occupies the monitor's single alert
  /// subscriber slot; this hook lets a server still tap the alerts —
  /// e.g. to print the attribution report carried by the snapshot. Runs
  /// after the controller's own signaling, on the recording batcher
  /// thread, outside the controller's lock; it must be cheap and must
  /// not block (same rules as a monitor callback).
  void setAlertObserver(AlertObserver Fn);

  /// Manually requests a refresh (the same path an alert takes) — e.g.
  /// for an operator-initiated recalibration or a scheduled one. Returns
  /// immediately; the refresh runs on the background thread when at least
  /// MinRefreshSamples are buffered.
  void triggerRefresh();

  /// Blocks until at least \p N refreshes have completed since
  /// construction, or \p Timeout elapses. Returns whether the count was
  /// reached.
  bool waitForRefreshes(size_t N, std::chrono::milliseconds Timeout);

  /// Consistent view of the refresh-loop counters.
  RecalibrationStats stats() const;

  /// Unsubscribes from the monitor, stops the background thread, and
  /// joins it. Buffered samples are dropped. Idempotent.
  void shutdown();

  const RecalibrationConfig &config() const { return Cfg; } ///< The knobs.

private:
  void workerLoop();

  /// One refresh pass: drain buffer, refresh engine (bounded retries),
  /// rotate snapshot (bounded retries), reset monitor. Runs on the
  /// worker thread only.
  void runRefresh(std::deque<data::Sample> Batch);

  /// Runs \p Attempt until it returns true, at most MaxRefreshAttempts
  /// times, waiting RefreshRetryBackoff (doubled after each wait) between
  /// failures. Returns whether an attempt succeeded; a shutdown during a
  /// wait ends the retries. Worker thread only.
  bool retryWithBackoff(const std::function<bool()> &Attempt);

  /// Returns \p Batch to the front of the relabel buffer (oldest-first
  /// drop beyond MaxBufferedSamples) so an abandoned refresh is retried
  /// with these samples plus whatever arrives next.
  void requeueBatch(std::deque<data::Sample> &&Batch);

  /// Trims \p Batch to its \p Bound most drift-relevant samples (relative
  /// order preserved) and returns the overflow. With a usable \p Report
  /// (reference frozen, ranked rows), relevance is the mean standardized
  /// distance from the reference along the report's top dimensions and
  /// \p Ranked is set; otherwise the newest \p Bound samples are kept.
  /// Deterministic: score ties break by original position.
  std::deque<data::Sample>
  prioritizeBatch(std::deque<data::Sample> &Batch, size_t Bound,
                  const DriftAttributionReport *Report, bool &Ranked);

  PromClassifier &Engine;
  WindowedDriftMonitor &Monitor;
  RecalibrationConfig Cfg;
  const data::StandardScaler *Scaler = nullptr;
  DriftAttribution *Attribution = nullptr;
  AlertObserver OnAlertObserved;

  mutable std::mutex Mutex;
  std::condition_variable WakeWorker;
  std::condition_variable RefreshDone;
  /// Relabel buffer; deque so the oldest-out drop at the bound is O(1).
  std::deque<data::Sample> Pending;
  bool RefreshRequested = false;
  bool Stopping = false;
  RecalibrationStats Stats;

  std::thread Worker;
};

} // namespace serve
} // namespace prom

#endif // PROM_SERVE_RECALIBRATIONCONTROLLER_H
