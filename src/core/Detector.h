//===- core/Detector.h - The PROM drift detectors ----------------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deployment-time PROM engines (paper Figures 2, 5 and 6).
///
/// PromClassifier / PromRegressor wrap an already-trained underlying model
/// and share one detector core (CommitteeEngine). calibrate() performs the
/// offline calibration-set processing; assess() runs the expert committee
/// on one test input and returns the prediction together with per-expert
/// credibility/confidence scores and the majority drift verdict.
/// DriftDetector is the uniform interface the comparison baselines (naive
/// CP, RISE, TESSERACT) also implement.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_CORE_DETECTOR_H
#define PROM_CORE_DETECTOR_H

#include "core/CalibrationStore.h"
#include "core/IncrementalLearner.h"
#include "core/Nonconformity.h"
#include "core/PromConfig.h"
#include "data/Dataset.h"
#include "ml/Model.h"

#include <memory>
#include <string>
#include <vector>

/// \namespace prom
/// Root namespace of the PROM reproduction.

/// \namespace prom::data
/// Datasets, samples, feature scaling, and split utilities.

namespace prom {
namespace data {
class StandardScaler;
} // namespace data

/// One nonconformity function's judgement of a prediction (Sec. 5.3).
struct ExpertOpinion {
  double Credibility = 0.0;   ///< P-value of the predicted label/cluster.
  double Confidence = 0.0;    ///< Gaussian of the prediction-set size.
  size_t PredictionSetSize = 0; ///< Labels with p-value above epsilon.
  bool FlagDrift = false;     ///< Both scores below their thresholds.
};

/// The committee half of a verdict, shared by both tasks: one opinion per
/// expert and the vote over them.
struct CommitteeVerdict {
  bool Drifted = false;              ///< Committee flagged this input.
  size_t VotesToFlag = 0;            ///< Experts that voted "drift".
  std::vector<ExpertOpinion> Experts; ///< One opinion per committee expert.

  /// Mean expert credibility (0 with an empty committee).
  double meanCredibility() const;
  /// Mean expert confidence (0 with an empty committee).
  double meanConfidence() const;
};

/// Committee verdict for a classification prediction.
struct Verdict : CommitteeVerdict {
  int Predicted = -1;                ///< Argmax class of the model.
  std::vector<double> Probabilities; ///< Temperature-softened class probs.
};

/// Committee verdict for a regression prediction.
struct RegressionVerdict : CommitteeVerdict {
  double Predicted = 0.0;     ///< The model's point prediction.
  int Cluster = -1;           ///< Pseudo-label assigned to the input.
};

/// Uniform accept/reject interface shared with the baselines.
class DriftDetector {
public:
  virtual ~DriftDetector(); ///< Virtual: deleted through the base.

  /// Prepares the detector from the trained \p Model and \p Calib set.
  virtual void fit(const ml::Classifier &Model, const data::Dataset &Calib,
                   support::Rng &R) = 0;

  /// True when the model's prediction for \p S should be rejected.
  virtual bool isDrifting(const data::Sample &S) const = 0;

  /// Batched form of isDrifting(); element I equals isDrifting(Batch[I]).
  /// The default loops per sample; detectors with a batch engine override
  /// it (the evaluation harness always drives deployment through this).
  virtual std::vector<char> isDriftingBatch(const data::Dataset &Batch) const;

  /// Short display name used by the evaluation tables.
  virtual std::string name() const = 0;
};

/// Task tag of the classification committee: softened class
/// probabilities in, the true classes as the label space.
struct ClassificationTask {
  using ModelType = ml::Classifier;        ///< The wrapped model.
  using ScorerType = ClassificationScorer; ///< One committee expert.
  using VerdictType = Verdict;             ///< Per-input result.
  using OutputType = support::Matrix;      ///< Batched model output.

  /// A generation's fitted state: the softening temperature (see
  /// PromClassifier::calibrate(); 1 = untouched).
  struct Fitted {
    double Temperature = 1.0;
  };
};

/// Task tag of the regression committee: k-NN-approximated residuals in,
/// k-means pseudo-labels as the label space (Sec. 5.1.2).
struct RegressionTask {
  using ModelType = ml::Regressor;         ///< The wrapped model.
  using ScorerType = RegressionScorer;     ///< One committee expert.
  using VerdictType = RegressionVerdict;   ///< Per-input result.
  using OutputType = std::vector<double>;  ///< Batched model output.

  /// A generation's fitted state, aligned with the store's entries (the
  /// k-NN ground truth queries the store itself).
  struct Fitted {
    std::vector<double> Targets; ///< True target per store entry.
    /// Pseudo-label centroids, one row per label (kMeansMatrix output).
    support::FeatureMatrix Centroids;
    double ResidualIqr = 0.0; ///< IQR of the calibration residuals.
  };
};

/// The detector core both PROM detectors run on (Sec. 5.1: one conformal
/// committee; only the nonconformity inputs and the label space differ).
/// It owns the config, the committee, and one RCU handle to an immutable
/// calibration *generation* (the CalibrationStore plus the task's fitted
/// state). Every writer builds a new generation privately and publishes it
/// with one atomic swap, and every batch pins exactly one generation. The
/// batch skeleton, the snapshot envelope and publication live here once;
/// the task policies in Detector.cpp keep only what differs. Explicitly
/// instantiated for ClassificationTask and RegressionTask.
template <class Task> class CommitteeEngine {
public:
  using ModelType = typename Task::ModelType;     ///< The wrapped model.
  using ScorerType = typename Task::ScorerType;   ///< One committee expert.
  using VerdictType = typename Task::VerdictType; ///< Per-input result.

  /// Full committee assessment of one test input (Figure 5). Delegates to
  /// assessBatch() on a size-1 batch, so single-sample and batched
  /// deployments produce bit-identical verdicts by construction.
  VerdictType assess(const data::Sample &S) const;

  /// Batched committee assessment: one batched model forward computes every
  /// output and embedding — every model in the zoo has a native batch path
  /// (matmul batching, one-scan k-NN, level-by-level tree ensembles; see
  /// ml/Model.h) — then the per-sample committee work (selection, fused
  /// all-expert p-values, vote) runs across the ThreadPool with reusable
  /// per-lane scratch, against one pinned generation. A verdict depends
  /// only on its own input and that generation, never on the batch
  /// around it.
  std::vector<VerdictType> assessBatch(const data::Dataset &Batch) const;

  /// Live calibration entries (0 before calibration).
  size_t calibrationSize() const;

  /// True once calibrate() (or a snapshot load) has run.
  bool isCalibrated() const;

  /// Always 1: the calibration store has no shards. Its only caller is
  /// perfbench/Bench.cpp:709, Store.finalize(Engine.numShards()); delete
  /// it with that call.
  [[deprecated("the calibration store has no shards")]] size_t
  numShards() const {
    return 1;
  }

  /// Writes a versioned binary snapshot of the live generation — config,
  /// the task's fitted state, committee (by scorer name), calibration
  /// entries, and optionally the deployment feature \p Scaler — so a
  /// restarted server can loadSnapshot() instead of recalibrating. Returns
  /// false before calibration, on I/O failure, or — writing nothing — when
  /// loadSnapshot() would reject a value (docs/SNAPSHOT_FORMAT.md).
  bool saveSnapshot(const std::string &Path,
                    const data::StandardScaler *Scaler = nullptr) const;

  /// Restores the state written by saveSnapshot(): verdicts after a load
  /// are bit-identical to the ones the saving detector produced. The
  /// committee is rebuilt by scorer name. Returns false (leaving the
  /// detector untouched) on missing/truncated/corrupt files, a snapshot of
  /// the wrong kind, an unknown scorer name, or a config or payload value
  /// no detector can run (docs/SNAPSHOT_FORMAT.md lists the rules). Targets
  /// a detector that is not serving yet: the generation is published
  /// atomically, but the config and committee are replaced in place.
  bool loadSnapshot(const std::string &Path,
                    data::StandardScaler *Scaler = nullptr);

  const PromConfig &config() const { return Cfg; }   ///< Current knobs.
  PromConfig &config() { return Cfg; }               ///< Mutable knobs.
  size_t numExperts() const { return Scorers.size(); } ///< Committee size.
  /// Committee expert \p I.
  const ScorerType &scorer(size_t I) const { return *Scorers[I]; }
  const ModelType &model() const { return Model; } ///< Wrapped model.

  /// One immutable calibration generation: the store plus the task's
  /// fitted state.
  struct Generation {
    CalibrationStore Store;
    typename Task::Fitted Fit;
  };

  /// Pins the live generation (atomic load; null before calibration): one
  /// consistent store and fitted state, read-only. Writers publish a new
  /// generation and never change a published one, so the pinned one stays
  /// valid and unchanged for as long as the pointer is held.
  std::shared_ptr<const Generation> pin() const;

protected:
  /// Wraps \p Model with the committee \p Scorers (must be non-empty).
  CommitteeEngine(const ModelType &Model,
                  std::vector<std::unique_ptr<ScorerType>> Scorers,
                  PromConfig Cfg);

  /// Publishes \p Fresh as the live generation (atomic swap).
  void publish(std::shared_ptr<const Generation> Fresh);

  /// The batch skeleton: committee assessment of every row of \p Out /
  /// \p Embeds (the batched model outputs and embeddings) against \p Gen.
  /// \p Out is consumed (the classifier softens it in place).
  std::vector<VerdictType> assessRows(const Generation &Gen,
                                      typename Task::OutputType &Out,
                                      const support::Matrix &Embeds) const;

  const ModelType &Model;                          ///< Wrapped model.
  PromConfig Cfg;                                  ///< Current knobs.
  std::vector<std::unique_ptr<ScorerType>> Scorers; ///< The committee.

private:
  /// Live generation; access only through pin()/publish().
  std::shared_ptr<const Generation> Live;
};

/// PROM wrapper around a trained classifier.
class PromClassifier : public CommitteeEngine<ClassificationTask> {
public:
  /// Uses the default LAC/TopK/APS/RAPS committee.
  explicit PromClassifier(const ml::Classifier &Model,
                          PromConfig Cfg = PromConfig());

  /// Uses a custom committee (must be non-empty).
  PromClassifier(const ml::Classifier &Model,
                 std::vector<std::unique_ptr<ClassificationScorer>> Scorers,
                 PromConfig Cfg);

  /// Offline calibration processing (Sec. 4.1.1): embeds every calibration
  /// sample and stores one true-label nonconformity score per expert.
  /// Also fits a temperature that softens the model's probability vector
  /// (minimum NLL on the calibration labels): log-loss-trained networks
  /// saturate to one-hot outputs, which starves every probability-based
  /// nonconformity function; temperature scaling restores the signal
  /// without touching the model or its argmax. Re-callable after
  /// incremental learning updates the model; the store and temperature
  /// are published together as one generation, so it is safe against
  /// concurrent assessments.
  void calibrate(const data::Dataset &Calib);

  /// Online calibration refresh (the deployment loop's "relabel a small
  /// sample and fold it back"): scores \p NewlyLabeled with the current
  /// committee and temperature, folds the entries into a copy of the live
  /// calibration store via the incremental CalibrationStore::refinalize()
  /// (evicting oldest-first beyond PromConfig::MaxCalibEntries), and
  /// atomically publishes the refreshed generation. Concurrent
  /// assessments are unaffected: every batch pins the generation it
  /// started with, so in-flight verdicts stay internally consistent and
  /// the swap never blocks the serving path.
  ///
  /// With \p Incremental false the refreshed store is rebuilt from
  /// scratch on the same union of entries — the reference path; verdicts
  /// are bit-identical either way (RefreshTest), it is only slower.
  ///
  /// Unlike calibrate(), the fitted temperature is kept: refreshed
  /// entries must be exchangeable with the retained ones, and re-fitting
  /// the temperature would silently rescore every retained entry.
  ///
  /// calibrate() and refreshCalibration() are each safe against concurrent
  /// assessments; concurrent *writers* must be serialized by the caller —
  /// the serve::RecalibrationController runs all refreshes on one
  /// background thread.
  ///
  /// Returns the live store size after the refresh.
  size_t refreshCalibration(const data::Dataset &NewlyLabeled,
                            bool Incremental = true);

  /// Estimated heap footprint of the calibrated state (the live
  /// calibration store with its indexes; the wrapped model is external
  /// and not counted). The serve::DetectorRegistry meters loaded tenants
  /// with this against its memory budget.
  size_t memoryBytes() const;

  /// The fitted softening temperature (1 = untouched).
  double temperature() const;

  /// Committee assessment over precomputed *raw* model outputs: row I of
  /// \p RawProbs / \p Embeds must be predictProba / embed of sample I
  /// (temperature softening is applied here). Bit-identical to
  /// assessBatch() on the corresponding Dataset; callers that sweep
  /// configurations over a fixed sample set (grid search) reuse one model
  /// forward across every candidate through this entry point.
  std::vector<Verdict>
  assessBatchWithForwards(const support::Matrix &RawProbs,
                          const support::Matrix &Embeds) const;

  /// Per-class p-values of \p S, one row per expert in committee order
  /// (used by the initialization assessment, the baselines, and tests of
  /// the CP validity property). One run of the engine's selection and
  /// fused all-expert p-value pass serves every row, so every bit equals
  /// the p-values behind assess(S).
  std::vector<std::vector<double>> pValues(const data::Sample &S) const;
};

/// Adapter exposing PromClassifier through the DriftDetector interface.
/// By default fit() runs the Sec. 5.2 grid search on the calibration set
/// to select the rejection thresholds (pass AutoTune = false to keep the
/// given config verbatim); \p Mispredicted customizes the tuning objective
/// for tasks whose mispredictions are performance-defined.
class PromDriftDetector : public DriftDetector {
public:
  /// \p Cfg seeds the grid search (or is used verbatim when \p AutoTune
  /// is false); \p Mispredicted overrides the tuning objective.
  explicit PromDriftDetector(PromConfig Cfg = PromConfig(),
                             bool AutoTune = true,
                             MispredicateFn Mispredicted = nullptr)
      : Cfg(Cfg), AutoTune(AutoTune),
        Mispredicted(std::move(Mispredicted)) {}

  /// Grid-searches thresholds (unless AutoTune is off), then builds and
  /// calibrates the wrapped PromClassifier.
  void fit(const ml::Classifier &Model, const data::Dataset &Calib,
           support::Rng &R) override;
  /// Committee verdict for one sample (accept/reject only).
  bool isDrifting(const data::Sample &S) const override;
  /// Batched committee verdicts (accept/reject only).
  std::vector<char>
  isDriftingBatch(const data::Dataset &Batch) const override;
  /// Always "PROM".
  std::string name() const override { return "PROM"; }

  /// The wrapped engine (valid after fit()); exposed so harnesses can run
  /// full batched assessments rather than bare accept/reject decisions.
  const PromClassifier &engine() const { return *Impl; }

private:
  PromConfig Cfg;
  bool AutoTune;
  MispredicateFn Mispredicted;
  std::unique_ptr<PromClassifier> Impl;
};

/// PROM wrapper around a trained regressor (Sec. 5.1.2 regression scheme).
/// Its generation adds the per-entry targets, the pseudo-label centroids
/// and the residual IQR; its k-NN ground truth queries the store's index,
/// built at any selection. It has no online refresh: its scores depend on
/// the whole calibration set.
class PromRegressor : public CommitteeEngine<RegressionTask> {
public:
  /// Uses the default regression committee.
  explicit PromRegressor(const ml::Regressor &Model,
                         PromConfig Cfg = PromConfig());

  /// Uses a custom committee (must be non-empty).
  PromRegressor(const ml::Regressor &Model,
                std::vector<std::unique_ptr<RegressionScorer>> Scorers,
                PromConfig Cfg);

  /// Offline processing: embeds the calibration samples, clusters them into
  /// pseudo-labels (k-means++, K by gap statistic unless fixed), finalizes
  /// the store, and stores per-expert residual-based scores from its
  /// k-NN. \p R seeds the clustering. Safe against concurrent assessments
  /// (one generation swap). At assessment the ground truth of an input is
  /// approximated by its k nearest calibration samples (Sec. 5.1.1).
  void calibrate(const data::Dataset &Calib, support::Rng &R);

  /// Pseudo-labels of the live generation (0 before calibration).
  size_t numClusters() const;
};

} // namespace prom

#endif // PROM_CORE_DETECTOR_H
