//===- serve/DriftAttribution.h - Drift attribution layer -------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-dimension drift attribution and richer drift detectors.
///
/// The WindowedDriftMonitor answers *whether* the deployment distribution
/// drifted (the windowed committee rejection rate, paper Sec. 5.4). This
/// layer answers *which* feature/embedding directions moved and what
/// shape the drift has — the signals the RecalibrationController needs to
/// choose a targeted refresh over a full recalibration, and the case a
/// scalar rejection rate is weakest at (adversarially perturbed inputs
/// drift in few, concentrated directions).
///
/// Mechanics: per-dimension Welford running mean/variance over the
/// assessed feature vectors, compared against a *reference window* frozen
/// shortly after (re)calibration. Each dimension's standardized mean
/// shift (a z-score against the reference spread) ranks a top-k report of
/// drifted dimensions; Page-Hinkley and CUSUM sequential detectors run
/// over both the rejection stream and every dimension's standardized
/// values; and a hysteresis tracker over the report magnitude classifies
/// the drift as sudden, gradual, or recurring.
///
/// The layer is strictly observe-only: nothing here feeds back into the
/// assessment path, so served verdicts are bit-identical with attribution
/// on or off (test-enforced). Every update is O(dims) with a fixed memory
/// footprint (~a dozen doubles per tracked dimension; no per-observation
/// history is kept).
///
/// Thread-safe: AssessmentService batchers observe from their threads.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SERVE_DRIFTATTRIBUTION_H
#define PROM_SERVE_DRIFTATTRIBUTION_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace prom {
namespace serve {

/// Shape taxonomy of a detected drift episode.
enum class DriftType {
  None,      ///< No excursion above the classification threshold yet.
  Sudden,    ///< Magnitude crossed the threshold within SuddenSpan samples.
  Gradual,   ///< Magnitude crept up to the threshold over a longer span.
  Recurring, ///< At least two separate excursions (drift came, went, came).
};

/// Short display name of \p T ("none"/"sudden"/"gradual"/"recurring").
const char *driftTypeName(DriftType T);

/// Numerically stable streaming mean/variance (Welford's algorithm).
struct WelfordAccumulator {
  uint64_t Count = 0; ///< Observations folded so far.
  double Mean = 0.0;  ///< Running mean.
  double M2 = 0.0;    ///< Sum of squared deviations from the running mean.

  /// Folds one observation; O(1).
  void add(double X) {
    ++Count;
    double Delta = X - Mean;
    Mean += Delta / static_cast<double>(Count);
    M2 += Delta * (X - Mean);
  }

  /// Unbiased sample variance (0 with fewer than two observations).
  double variance() const {
    return Count < 2 ? 0.0 : M2 / static_cast<double>(Count - 1);
  }

  /// Square root of variance().
  double stddev() const;

  /// Folds \p Other into this accumulator (Chan's parallel combination);
  /// deterministic for a fixed argument order.
  void merge(const WelfordAccumulator &Other);

  /// Back to the empty state.
  void reset() { *this = WelfordAccumulator(); }
};

/// Page-Hinkley detector knobs.
struct PageHinkleyConfig {
  /// Magnitude tolerance delta: per-step slack subtracted from the
  /// deviation, so small wander never accumulates toward an alarm.
  double Delta = 0.05;
  /// Alarm threshold lambda on the cumulative deviation excursion.
  double Lambda = 50.0;
  /// No alarms before this many updates (the running mean must settle).
  uint64_t MinSamples = 30;
};

/// Two-sided Page-Hinkley sequential change detector over one scalar
/// stream: tracks the cumulative deviation of the stream from its own
/// running mean and alarms when the excursion from its running extremum
/// exceeds Lambda (mean shifted up or down).
struct PageHinkleyState {
  uint64_t Count = 0;     ///< Updates folded so far.
  double Mean = 0.0;      ///< Running mean of the stream.
  double CumUp = 0.0;     ///< Cumulative (x - mean - delta) sum.
  double MinCumUp = 0.0;  ///< Running minimum of CumUp.
  double CumDown = 0.0;   ///< Cumulative (x - mean + delta) sum.
  double MaxCumDown = 0.0; ///< Running maximum of CumDown.
  bool Alarm = false;     ///< Latched: the threshold was crossed.
  uint64_t AlarmAt = 0;   ///< Count at the first crossing (0 = never).

  /// Folds one observation under \p Cfg; returns the latched alarm flag.
  bool update(double X, const PageHinkleyConfig &Cfg);

  /// Current excursion statistic (max of the up and down sides).
  double score() const;

  /// Back to the initial state (alarm unlatched).
  void reset() { *this = PageHinkleyState(); }
};

/// CUSUM detector knobs.
struct CUSUMConfig {
  /// Allowance K: per-step slack around the target, in the stream's
  /// units. Shifts below K are never accumulated.
  double Allowance = 0.5;
  /// Decision threshold H on the one-sided cumulative sums.
  double Threshold = 8.0;
  /// No alarms before this many updates.
  uint64_t MinSamples = 8;
};

/// Tabular two-sided CUSUM detector against a fixed target mean: the
/// classic "V-mask unrolled" recursion Pos = max(0, Pos + x - T - K),
/// Neg = max(0, Neg + T - x - K), alarming when either exceeds H.
struct CUSUMState {
  double Target = 0.0;  ///< Target (in-control) mean.
  double PosSum = 0.0;  ///< Upper one-sided cumulative sum.
  double NegSum = 0.0;  ///< Lower one-sided cumulative sum.
  uint64_t Count = 0;   ///< Updates folded so far.
  bool Alarm = false;   ///< Latched: a sum crossed the threshold.
  uint64_t AlarmAt = 0; ///< Count at the first crossing (0 = never).

  /// Re-targets the detector at \p NewTarget and unlatches the alarm.
  void reset(double NewTarget);

  /// Folds one observation under \p Cfg; returns the latched alarm flag.
  bool update(double X, const CUSUMConfig &Cfg);

  /// Current decision statistic (max of the two one-sided sums).
  double score() const { return PosSum > NegSum ? PosSum : NegSum; }
};

/// Attribution-layer knobs.
struct DriftAttributionConfig {
  /// Observations folded into the per-dimension reference statistics
  /// before they freeze (clamped to >= 2). The reference is the frozen
  /// "normal" every later window is standardized against.
  size_t ReferenceWindow = 512;

  /// Tumbling current-window length: the active per-dimension window
  /// restarts every CurrentWindow observations and the completed bucket
  /// is retained, so the current mean always reflects the last one-to-two
  /// windows without per-observation history (clamped to >= 1).
  size_t CurrentWindow = 256;

  /// Dimensions listed in the ranked report.
  size_t TopK = 8;

  /// |z| at or above this marks a dimension as drifted in the report.
  double ZThreshold = 3.0;

  /// Current-window observations required before z-scores (and the type
  /// tracker) activate; suppresses the noisy first few samples.
  size_t MinCurrent = 32;

  /// Hysteresis: an excursion starts when the report magnitude (max |z|)
  /// reaches TypeEnter and ends when it falls below TypeExit.
  double TypeEnter = 1.0;
  /// See TypeEnter; must be <= TypeEnter for sane hysteresis.
  double TypeExit = 0.5;

  /// An excursion whose magnitude climbed from quiet to TypeEnter within
  /// this many observations classifies as sudden, else gradual. 0 picks
  /// CurrentWindow / 2.
  size_t SuddenSpan = 0;

  /// Page-Hinkley knobs for the per-dimension standardized streams. The
  /// slack must absorb not just in-control noise but the standardization
  /// error of a reference estimated from ReferenceWindow samples (a
  /// slightly underestimated reference sigma inflates every later z);
  /// 0.15 sigma / 65 measured zero false alarms across seeded 16-dim
  /// in-control streams while a 4-sigma step still alarms in ~17
  /// observations.
  PageHinkleyConfig DimPageHinkley{0.15, 65.0, 30};
  /// CUSUM knobs for the per-dimension standardized streams (z units).
  /// K = 0.5 sigma tunes for ~1-sigma-and-up shifts; H = 14 puts the
  /// in-control ARL in the millions per dimension (Siegmund's
  /// approximation) while a 4-sigma step crosses in ~4 observations.
  CUSUMConfig DimCusum{0.5, 14.0, 8};
  /// Page-Hinkley knobs for the 0/1 rejection stream (rate units).
  PageHinkleyConfig RejectPageHinkley{0.005, 50.0, 30};
  /// CUSUM knobs for the rejection stream, targeted at the reference
  /// window's rejection rate (rate units).
  CUSUMConfig RejectCusum{0.1, 4.0, 8};
};

/// One row of the ranked drifted-dimension report.
struct DimensionDrift {
  size_t Dim = 0;          ///< Feature/embedding dimension index.
  double ZScore = 0.0;     ///< Standardized current-vs-reference mean shift.
  double RefMean = 0.0;    ///< Frozen reference mean.
  double RefStd = 0.0;     ///< Frozen reference standard deviation.
  double CurrentMean = 0.0; ///< Mean over the current (tumbling) window.
  bool PageHinkley = false; ///< This dimension's PH detector has alarmed.
  bool Cusum = false;       ///< This dimension's CUSUM detector has alarmed.
};

/// Point-in-time attribution report (one lock, consistent fields).
struct DriftAttributionReport {
  bool ReferenceReady = false; ///< The reference window has frozen.
  size_t Dims = 0;             ///< Tracked feature dimensions.
  uint64_t ReferenceCount = 0; ///< Observations frozen into the reference.
  uint64_t CurrentCount = 0;   ///< Observations since the reference froze.
  double MaxAbsZ = 0.0;        ///< Largest |z| across dimensions.
  double MeanAbsZ = 0.0;       ///< Mean |z| across dimensions.
  size_t DriftedDims = 0;      ///< Dimensions with |z| >= ZThreshold.
  size_t PageHinkleyDims = 0;  ///< Dimensions whose PH detector alarmed.
  size_t CusumDims = 0;        ///< Dimensions whose CUSUM detector alarmed.
  bool RejectPageHinkley = false; ///< Rejection-stream PH alarm (latched).
  bool RejectCusum = false;       ///< Rejection-stream CUSUM alarm (latched).
  double ReferenceRejectRate = 0.0; ///< Rejection rate of the reference.
  DriftType Type = DriftType::None; ///< Classified drift shape.
  size_t Excursions = 0;       ///< Magnitude excursions since (re)arm.
  /// Ranked drifted dimensions: |z| descending, exact ties broken by
  /// ascending dimension index (deterministic); at most TopK rows.
  std::vector<DimensionDrift> Top;
};

/// The drift attribution layer; see the file comment. Plug one into a
/// WindowedDriftMonitor (setAttributionSink) to have served verdicts and
/// their feature vectors flow in, or drive observe() directly.
class DriftAttribution {
public:
  /// Constructs an empty (reference-filling) tracker under \p Cfg.
  explicit DriftAttribution(DriftAttributionConfig Cfg =
                                DriftAttributionConfig());

  /// Folds one assessed sample: \p Features points at \p Dims values (the
  /// assessed feature/embedding vector) and \p Rejected is the committee
  /// verdict. The first observation with Dims > 0 fixes the tracked
  /// dimensionality; later observations with a different width only fold
  /// the rejection stream (counted in DimMismatches). Dims == 0 (or a
  /// null \p Features) folds the rejection stream alone. O(Dims).
  void observe(const double *Features, size_t Dims, bool Rejected);

  /// observe() on a vector.
  void observe(const std::vector<double> &Features, bool Rejected) {
    observe(Features.data(), Features.size(), Rejected);
  }

  /// Rejection-stream-only observation (no feature vector available).
  void observeRejection(bool Rejected) { observe(nullptr, 0, Rejected); }

  /// Freezes the reference now instead of waiting for ReferenceWindow
  /// observations. Returns false (and stays in the filling phase) with
  /// fewer than two reference observations.
  bool freezeReference();

  /// Re-arms after a recalibration: drops the reference and every
  /// detector/tracker state so a fresh reference window is rebuilt from
  /// the upcoming (post-refresh) stream. Lifetime counters
  /// (totalObserved(), rearm count) survive.
  void rearm();

  /// Full reset: rearm() plus the lifetime counters.
  void reset();

  /// Consistent snapshot of the attribution state. \p TopK == 0 uses the
  /// configured report size.
  DriftAttributionReport report(size_t TopK = 0) const;

  /// True once the reference window has frozen.
  bool referenceReady() const;

  /// Observations ever folded (across rearms).
  uint64_t totalObserved() const;

  /// Observations whose feature width disagreed with the tracked one.
  uint64_t dimMismatches() const;

  /// Times rearm() was called.
  uint64_t rearms() const;

  const DriftAttributionConfig &config() const { return Cfg; } ///< Knobs.

private:
  /// Per-dimension tracking state (fixed footprint).
  struct DimState {
    WelfordAccumulator Ref;    ///< Reference stats (frozen after fill).
    double InvRefStd = 0.0;    ///< 1/stddev, or 1 if the ref is constant.
    WelfordAccumulator Active; ///< Current tumbling bucket.
    WelfordAccumulator Prev;   ///< Last completed bucket.
    PageHinkleyState PH;       ///< Detector over standardized values.
    CUSUMState Cusum;          ///< Detector over standardized values.
  };

  /// Mean of Prev+Active merged (the "current window" mean); 0 when both
  /// buckets are empty. Callers hold Mutex.
  static double currentMean(const DimState &D);

  /// Locked core of report(). Callers hold Mutex.
  DriftAttributionReport reportLocked(size_t TopK) const;

  /// Freezes the reference stats; callers hold Mutex and guarantee at
  /// least two reference observations.
  void freezeLocked();

  /// Clears reference/current/detector/tracker state; callers hold Mutex.
  void rearmLocked();

  DriftAttributionConfig Cfg;

  mutable std::mutex Mutex;
  std::vector<DimState> DimStates;
  bool RefReady = false;
  uint64_t RefCount = 0;     ///< Feature observations in the reference.
  uint64_t CurCount = 0;     ///< Feature observations since the freeze.
  uint64_t TotalSeen = 0;    ///< Lifetime observations (any kind).
  uint64_t Mismatches = 0;   ///< Width-mismatched feature observations.
  uint64_t Rearms = 0;       ///< rearm() calls.

  WelfordAccumulator RefReject; ///< Rejection stats of the reference phase.
  bool RejFrozen = false;       ///< Rejection reference frozen (CUSUM armed).
  PageHinkleyState RejectPH;    ///< Rejection-stream Page-Hinkley.
  CUSUMState RejectCusum;       ///< Rejection-stream CUSUM (post-freeze).

  // Drift-shape tracker over the per-observation report magnitude.
  double LastMaxAbsZ = 0.0;  ///< Magnitude at the latest observation.
  double LastMeanAbsZ = 0.0; ///< Mean |z| at the latest observation.
  bool InExcursion = false;  ///< Magnitude currently above the hysteresis.
  size_t Excursions = 0;     ///< Excursions started since (re)arm.
  uint64_t QuietEnd = 0;     ///< Latest observation index with magnitude
                             ///< below TypeExit (excursion-delay anchor).
  bool LastExcursionSudden = false; ///< Shape of the latest excursion.
};

} // namespace serve
} // namespace prom

#endif // PROM_SERVE_DRIFTATTRIBUTION_H
