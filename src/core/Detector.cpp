//===- core/Detector.cpp - The PROM drift detectors --------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "core/GridSearch.h"
#include "data/Scaler.h"
#include "support/Distance.h"
#include "support/KMeans.h"
#include "support/Matrix.h"
#include "support/Rng.h"
#include "support/Serialize.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <type_traits>

using namespace prom;
using support::Matrix;

DriftDetector::~DriftDetector() = default;

std::vector<char>
DriftDetector::isDriftingBatch(const data::Dataset &Batch) const {
  std::vector<char> Out(Batch.size(), 0);
  for (size_t I = 0; I < Batch.size(); ++I)
    Out[I] = isDrifting(Batch[I]) ? 1 : 0;
  return Out;
}

double CommitteeVerdict::meanCredibility() const {
  double Sum = 0.0;
  for (const ExpertOpinion &E : Experts)
    Sum += E.Credibility;
  return Experts.empty() ? 0.0 : Sum / static_cast<double>(Experts.size());
}

double CommitteeVerdict::meanConfidence() const {
  double Sum = 0.0;
  for (const ExpertOpinion &E : Experts)
    Sum += E.Confidence;
  return Experts.empty() ? 0.0 : Sum / static_cast<double>(Experts.size());
}

namespace {

/// The committee decision rule shared by both tasks. \p PVals holds one
/// row of \p NumLabels p-values per expert; \p Label is the predicted
/// class or cluster. An expert's credibility is the p-value of \p Label
/// and its confidence a Gaussian of the prediction-set size; it flags
/// drift when both fall below their thresholds (Sec. 5), and the
/// committee flags when at least MinVotesToFlag experts do (majority by
/// default).
void judgeCommittee(const double *PVals, size_t NumExperts, size_t NumLabels,
                    size_t Label, const PromConfig &Cfg,
                    CommitteeVerdict &V) {
  V.Experts.assign(NumExperts, ExpertOpinion());
  V.VotesToFlag = 0;
  for (size_t E = 0; E < NumExperts; ++E) {
    const double *Row = PVals + E * NumLabels;
    ExpertOpinion &Op = V.Experts[E];
    Op.Credibility = Row[Label];
    for (size_t L = 0; L < NumLabels; ++L)
      if (Row[L] > Cfg.Epsilon)
        ++Op.PredictionSetSize;
    Op.Confidence =
        confidenceFromSetSize(Op.PredictionSetSize, Cfg.ConfidenceC);
    Op.FlagDrift = Op.Credibility < Cfg.credThreshold() &&
                   Op.Confidence < Cfg.ConfThreshold;
    if (Op.FlagDrift)
      ++V.VotesToFlag;
  }
  size_t Needed = Cfg.MinVotesToFlag != 0 ? Cfg.MinVotesToFlag
                                          : (NumExperts + 1) / 2;
  V.Drifted = V.VotesToFlag >= Needed;
}

/// Folds a privately built generation's staged entries into \p Store under
/// \p Cfg (store bound, cluster-index policy). A store whose k-NN ground
/// truth queries it (\p KnnQueries, the regressor's) is indexed whatever
/// the selection routes to.
void finalizeStore(CalibrationStore &Store, const PromConfig &Cfg,
                   bool KnnQueries) {
  ClusterIndexPolicy Index = ClusterIndexPolicy::fromConfig(Cfg);
  Index.Enabled = Index.Enabled || KnnQueries;
  Store.setMaxEntries(Cfg.MaxCalibEntries);
  Store.setIndexPolicy(Index);
  Store.finalize();
}

/// Applies temperature \p T to a probability vector: softmax(log(p) / T).
/// T > 1 softens saturated outputs; the argmax never changes.
std::vector<double> applyTemperature(std::vector<double> Probs, double T) {
  if (T == 1.0)
    return Probs;
  for (double &P : Probs)
    P = std::log(std::max(P, 1e-12)) / T;
  support::softmaxInPlace(Probs);
  return Probs;
}

/// Row-wise applyTemperature over a probability matrix; identical
/// arithmetic to the per-sample version on each row.
void applyTemperatureRows(Matrix &Probs, double T) {
  if (T == 1.0)
    return;
  for (size_t I = 0; I < Probs.rows(); ++I) {
    double *Row = Probs.rowPtr(I);
    for (size_t J = 0; J < Probs.cols(); ++J)
      Row[J] = std::log(std::max(Row[J], 1e-12)) / T;
    support::softmaxRowInPlace(Row, Probs.cols());
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Task policies
//
// Everything the two committees do differently. Per batch, the engine
// core constructs the policy's Rows view over the batched model outputs;
// per row, Rows::score() fills the task half of the verdict, writes one
// row of test scores per expert, and returns the label whose p-value is
// the credibility. The snapshot hooks write and read the task's fitted
// state inside the shared envelope.
//===----------------------------------------------------------------------===//

namespace prom {

template <class Task> struct TaskPolicy;

/// Classification: temperature softening, scoreAll over every class, and
/// the argmax as the predicted label.
template <> struct TaskPolicy<ClassificationTask> {
  static constexpr uint32_t SnapshotKind = 1;
  using Fitted = ClassificationTask::Fitted;

  /// Softens the batch's raw probabilities in place.
  class Rows {
  public:
    Rows(const CalibrationStore &, const Fitted &Fit, Matrix &Probs,
         const Matrix &, const PromConfig &)
        : Probs(Probs) {
      applyTemperatureRows(Probs, Fit.Temperature);
    }

    size_t numLabels() const { return Probs.cols(); }

    size_t
    score(size_t I,
          const std::vector<std::unique_ptr<ClassificationScorer>> &Scorers,
          Verdict &V, double *TestScores, AssessmentScratch &) const {
      size_t NumLabels = Probs.cols();
      V.Probabilities.assign(Probs.rowPtr(I), Probs.rowPtr(I) + NumLabels);
      V.Predicted = static_cast<int>(support::argmaxRow(Probs, I));
      for (size_t E = 0; E < Scorers.size(); ++E)
        Scorers[E]->scoreAll(V.Probabilities, TestScores + E * NumLabels);
      return static_cast<size_t>(V.Predicted);
    }

  private:
    const Matrix &Probs;
  };

  static bool discrete(const ClassificationScorer &S) {
    return S.isDiscrete();
  }
  static std::unique_ptr<ClassificationScorer>
  makeScorer(const std::string &Name) {
    return makeClassificationScorer(Name);
  }

  // Snapshot hooks: the temperature precedes the committee.
  static void writeHead(support::ByteWriter &W, const Fitted &Fit) {
    W.writeF64(Fit.Temperature);
  }
  static bool readHead(support::ByteReader &R, Fitted &Fit) {
    Fit.Temperature = R.readF64();
    return !R.failed();
  }
  static void writeTail(support::ByteWriter &, const Fitted &) {}
  static bool readTail(support::ByteReader &, Fitted &, size_t, size_t) {
    return true;
  }
  /// Payload value rule: the temperature divides every log-probability.
  static bool validFit(const Fitted &Fit) {
    return std::isfinite(Fit.Temperature) && Fit.Temperature > 0.0;
  }
};

/// Regression: k-NN statistics against the calibration targets, one
/// label-independent test score per expert, and the nearest pseudo-label
/// centroid as the predicted label.
template <> struct TaskPolicy<RegressionTask> {
  static constexpr uint32_t SnapshotKind = 2;
  using Fitted = RegressionTask::Fitted;

  /// Fills the k-NN half of \p In (ResidualIqr, ApproxTarget,
  /// KnnTargetSpread, KnnMeanDistance): the statistics of the \p K
  /// entries of \p Store nearest to \p Embed (length embedDim()),
  /// excluding an optional \p SelfIndex (Sec. 5.1.1). One
  /// CalibrationStore::nearestRows() query on \p Scratch finds them, and
  /// they are folded in ascending (distance bits, id) order. The sqrt of a
  /// key's squared distance equals the euclidean() recompute, because the
  /// 1xN row fold matches the per-pair kernel.
  static void knnStats(const Fitted &Fit, const CalibrationStore &Store,
                       const double *Embed, size_t K, long SelfIndex,
                       AssessmentScratch &Scratch, RegressionScoreInput &In) {
    Store.nearestRows(Embed, K + (SelfIndex >= 0 ? 1 : 0), Scratch);
    std::sort(Scratch.Candidates.begin(), Scratch.Candidates.end());
    std::vector<double> NearTargets;
    std::vector<double> Dists;
    for (const support::kernels::SelectKey &Key : Scratch.Candidates) {
      if (SelfIndex >= 0 && Key.second == static_cast<size_t>(SelfIndex))
        continue;
      if (NearTargets.size() == K)
        break;
      NearTargets.push_back(Fit.Targets[Key.second]);
      Dists.push_back(std::sqrt(support::kernels::fromKeyBits(Key.first)));
    }
    assert(!NearTargets.empty() && "calibration set too small for k-NN");
    In.ResidualIqr = Fit.ResidualIqr;
    In.ApproxTarget = support::mean(NearTargets);
    In.KnnTargetSpread = support::stddev(NearTargets);
    In.KnnMeanDistance = support::mean(Dists);
  }

  /// Scores each row from its k-NN statistics over the store's embeddings
  /// and its nearest pseudo-label centroid.
  class Rows {
  public:
    Rows(const CalibrationStore &Store, const Fitted &Fit,
         const std::vector<double> &Predictions, const Matrix &Embeds,
         const PromConfig &Cfg)
        : Store(Store), Fit(Fit), Predictions(Predictions), Embeds(Embeds),
          K(Cfg.KnnK) {}

    size_t numLabels() const { return Fit.Centroids.rows(); }

    size_t
    score(size_t I,
          const std::vector<std::unique_ptr<RegressionScorer>> &Scorers,
          RegressionVerdict &V, double *TestScores,
          AssessmentScratch &Scratch) const {
      size_t NumLabels = Fit.Centroids.rows();
      V.Predicted = Predictions[I];
      const double *Embed = Embeds.rowPtr(I);
      V.Cluster =
          static_cast<int>(support::nearestCentroid(Fit.Centroids, Embed));
      RegressionScoreInput In;
      In.Prediction = V.Predicted;
      knnStats(Fit, Store, Embed, K, /*SelfIndex=*/-1, Scratch, In);
      // The test score is label-independent for regression; the
      // conditioning happens through which cluster's calibration scores
      // it is compared to.
      for (size_t E = 0; E < Scorers.size(); ++E)
        std::fill(TestScores + E * NumLabels,
                  TestScores + (E + 1) * NumLabels, Scorers[E]->score(In));
      return static_cast<size_t>(V.Cluster);
    }

  private:
    const CalibrationStore &Store;
    const Fitted &Fit;
    const std::vector<double> &Predictions;
    const Matrix &Embeds;
    size_t K;
  };

  static bool discrete(const RegressionScorer &) { return false; }
  static std::unique_ptr<RegressionScorer>
  makeScorer(const std::string &Name) {
    return makeRegressionScorer(Name);
  }

  // Snapshot hooks: the fitted state follows the entries.
  static void writeHead(support::ByteWriter &, const Fitted &) {}
  static bool readHead(support::ByteReader &, Fitted &) { return true; }
  static void writeTail(support::ByteWriter &W, const Fitted &Fit) {
    W.writeDoubleVec(Fit.Targets);
    W.writeU64(Fit.Centroids.rows());
    for (size_t C = 0; C < Fit.Centroids.rows(); ++C)
      W.writeDoubleVec(Fit.Centroids.row(C));
    W.writeF64(Fit.ResidualIqr);
  }
  /// Every centroid row must be exactly \p EmbedDim wide: assessment
  /// scans it against the test embedding.
  static bool readTail(support::ByteReader &R, Fitted &Fit,
                       size_t NumEntries, size_t EmbedDim) {
    Fit.Targets = R.readDoubleVec();
    if (R.failed() || Fit.Targets.size() != NumEntries)
      return false;
    uint64_t NumCentroids = R.readU64();
    if (R.failed() || NumCentroids == 0 || NumCentroids > NumEntries)
      return false;
    Fit.Centroids.reset(static_cast<size_t>(NumCentroids), EmbedDim);
    for (size_t C = 0; C < Fit.Centroids.rows(); ++C) {
      std::vector<double> Row = R.readDoubleVec();
      if (R.failed() || Row.size() != EmbedDim)
        return false;
      Fit.Centroids.setRow(C, Row.data());
    }
    Fit.ResidualIqr = R.readF64();
    return !R.failed();
  }
  /// Payload value rule: the residual IQR is a finite spread. (Targets and
  /// centroids are f64vecs, which the codec keeps finite.)
  static bool validFit(const Fitted &Fit) {
    return std::isfinite(Fit.ResidualIqr) && Fit.ResidualIqr >= 0.0;
  }
};

} // namespace prom

//===----------------------------------------------------------------------===//
// The engine core
//===----------------------------------------------------------------------===//

template <class Task>
CommitteeEngine<Task>::CommitteeEngine(
    const ModelType &Model, std::vector<std::unique_ptr<ScorerType>> ScorersIn,
    PromConfig CfgIn)
    : Model(Model), Cfg(CfgIn), Scorers(std::move(ScorersIn)) {
  assert(!Scorers.empty() && "committee needs at least one expert");
}

template <class Task>
std::shared_ptr<const typename CommitteeEngine<Task>::Generation>
CommitteeEngine<Task>::pin() const {
  return std::atomic_load(&Live);
}

template <class Task>
void CommitteeEngine<Task>::publish(std::shared_ptr<const Generation> Fresh) {
  std::atomic_store(&Live, std::move(Fresh));
}

template <class Task> bool CommitteeEngine<Task>::isCalibrated() const {
  std::shared_ptr<const Generation> G = pin();
  return G && !G->Store.empty();
}

template <class Task> size_t CommitteeEngine<Task>::calibrationSize() const {
  std::shared_ptr<const Generation> G = pin();
  return G ? G->Store.size() : 0;
}

template <class Task>
std::vector<typename Task::VerdictType>
CommitteeEngine<Task>::assessRows(const Generation &Gen,
                                  typename Task::OutputType &Out,
                                  const Matrix &Embeds) const {
  assert(Embeds.cols() == Gen.Store.embedDim() &&
         "embedding width does not match the calibration set");
  std::vector<VerdictType> Verdicts(Embeds.rows());
  if (Verdicts.empty())
    return Verdicts;
  typename TaskPolicy<Task>::Rows Rows(Gen.Store, Gen.Fit, Out, Embeds, Cfg);

  size_t NumExp = Scorers.size(), NumLabels = Rows.numLabels();
  std::vector<uint8_t> Discrete(NumExp);
  for (size_t E = 0; E < NumExp; ++E)
    Discrete[E] = TaskPolicy<Task>::discrete(*Scorers[E]) ? 1 : 0;

  support::ThreadPool::global().parallelFor(
      Verdicts.size(), [&](size_t Begin, size_t End) {
        // Per-lane scratch, reused across every row of the range, so
        // ranges never share state.
        AssessmentScratch Scratch;
        std::vector<double> TestScores(NumExp * NumLabels);
        std::vector<double> PVals(NumExp * NumLabels);
        for (size_t I = Begin; I < End; ++I) {
          VerdictType &V = Verdicts[I];
          size_t Label =
              Rows.score(I, Scorers, V, TestScores.data(), Scratch);
          Gen.Store.selectForAssessment(Embeds.rowPtr(I), Cfg, Scratch);
          Gen.Store.pValuesAllExperts(Scratch, TestScores.data(), NumLabels,
                                      Cfg, Discrete.data(), PVals.data());
          judgeCommittee(PVals.data(), NumExp, NumLabels, Label, Cfg, V);
        }
      });
  return Verdicts;
}

template <class Task>
std::vector<typename Task::VerdictType>
CommitteeEngine<Task>::assessBatch(const data::Dataset &Batch) const {
  // One pinned generation per batch: a concurrent writer's swap cannot
  // split the batch across calibration generations.
  std::shared_ptr<const Generation> G = pin();
  assert(G && !G->Store.empty() && "assess before calibrate");
  if (Batch.empty())
    return {};
  typename Task::OutputType Out;
  Matrix Embeds;
  Model.predictWithEmbedBatch(Batch, Out, Embeds);
  return assessRows(*G, Out, Embeds);
}

template <class Task>
typename Task::VerdictType
CommitteeEngine<Task>::assess(const data::Sample &S) const {
  data::Dataset One;
  One.reserve(1);
  One.add(S);
  std::vector<VerdictType> Out = assessBatch(One);
  return std::move(Out.front());
}

//===----------------------------------------------------------------------===//
// PromClassifier
//===----------------------------------------------------------------------===//

PromClassifier::PromClassifier(const ml::Classifier &Model, PromConfig Cfg)
    : PromClassifier(Model, defaultClassificationScorers(), Cfg) {}

PromClassifier::PromClassifier(
    const ml::Classifier &Model,
    std::vector<std::unique_ptr<ClassificationScorer>> Scorers,
    PromConfig Cfg)
    : CommitteeEngine(Model, std::move(Scorers), Cfg) {}

/// One calibration entry per row of \p Calib: embedding, true label, and
/// each expert's true-label score of the probabilities softened by \p T.
static std::vector<CalibrationEntry> classificationEntries(
    const std::vector<std::unique_ptr<ClassificationScorer>> &Scorers,
    double T, const Matrix &RawProbs, const Matrix &Embeds,
    const data::Dataset &Calib) {
  std::vector<CalibrationEntry> Entries(Calib.size());
  for (size_t I = 0; I < Calib.size(); ++I) {
    CalibrationEntry &Entry = Entries[I];
    Entry.Embed = Embeds.row(I);
    Entry.Label = Calib[I].Label;
    std::vector<double> Probs = applyTemperature(RawProbs.row(I), T);
    Entry.Scores.reserve(Scorers.size());
    for (const auto &Scorer : Scorers)
      Entry.Scores.push_back(Scorer->score(Probs, Entry.Label));
  }
  return Entries;
}

void PromClassifier::calibrate(const data::Dataset &CalibSet) {
  assert(!CalibSet.empty() && "empty calibration set");

  // One batched forward computes every raw probability vector and
  // embedding (row I is bit-identical to the per-sample calls).
  Matrix RawProbs, Embeds;
  Model.predictWithEmbedBatch(CalibSet, RawProbs, Embeds);

  // Fit the softening temperature by true-label NLL on the calibration
  // set (standard post-hoc temperature scaling, argmax-invariant).
  auto Fresh = std::make_shared<Generation>();
  static const double Grid[] = {0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0};
  double BestNll = 1e300;
  for (double T : Grid) {
    double Nll = 0.0;
    for (size_t I = 0; I < CalibSet.size(); ++I) {
      std::vector<double> P = applyTemperature(RawProbs.row(I), T);
      Nll -= std::log(
          std::max(P[static_cast<size_t>(CalibSet[I].Label)], 1e-12));
    }
    if (Nll < BestNll) {
      BestNll = Nll;
      Fresh->Fit.Temperature = T;
    }
  }

  Fresh->Store.appendEntries(classificationEntries(
      Scorers, Fresh->Fit.Temperature, RawProbs, Embeds, CalibSet));
  finalizeStore(Fresh->Store, Cfg, /*KnnQueries=*/false);
  publish(std::move(Fresh));
}

size_t PromClassifier::refreshCalibration(const data::Dataset &NewlyLabeled,
                                          bool Incremental) {
  std::shared_ptr<const Generation> Old = pin();
  assert(Old && !Old->Store.empty() && "refresh before calibrate");
  if (NewlyLabeled.empty())
    return Old->Store.size();

  // Score the relabeled samples exactly like calibrate() does, but with
  // the already-fitted temperature: refreshed entries must be
  // exchangeable with the retained ones.
  Matrix RawProbs, Embeds;
  Model.predictWithEmbedBatch(NewlyLabeled, RawProbs, Embeds);
  assert(Embeds.cols() == Old->Store.embedDim() &&
         "refresh embedding width does not match the calibration set");

  // Stage + refresh on a private copy, then publish: readers pinned to
  // the old generation are never disturbed.
  auto Fresh = std::make_shared<Generation>(*Old);
  Fresh->Store.setMaxEntries(Cfg.MaxCalibEntries);
  Fresh->Store.appendEntries(classificationEntries(
      Scorers, Old->Fit.Temperature, RawProbs, Embeds, NewlyLabeled));
  if (Incremental)
    Fresh->Store.refinalize();
  else
    Fresh->Store.refinalizeFull();
  size_t NewSize = Fresh->Store.size();
  publish(std::move(Fresh));
  return NewSize;
}

size_t PromClassifier::memoryBytes() const {
  std::shared_ptr<const Generation> G = pin();
  return sizeof(*this) + (G ? G->Store.memoryBytes() : 0);
}

double PromClassifier::temperature() const {
  std::shared_ptr<const Generation> G = pin();
  return G ? G->Fit.Temperature : 1.0;
}

std::vector<Verdict>
PromClassifier::assessBatchWithForwards(const Matrix &RawProbs,
                                        const Matrix &Embeds) const {
  std::shared_ptr<const Generation> G = pin();
  assert(G && !G->Store.empty() && "assess before calibrate");
  assert(RawProbs.rows() == Embeds.rows() && "forwards row mismatch");
  Matrix Probs = RawProbs;
  return assessRows(*G, Probs, Embeds);
}

std::vector<std::vector<double>>
PromClassifier::pValues(const data::Sample &S) const {
  std::shared_ptr<const Generation> G = pin();
  assert(G && !G->Store.empty() && "assess before calibrate");
  std::vector<double> Probs =
      applyTemperature(Model.predictProba(S), G->Fit.Temperature);
  std::vector<double> Embed = Model.embed(S);
  size_t NumLabels = Probs.size(), NumExp = Scorers.size();
  std::vector<uint8_t> Discrete(NumExp);
  std::vector<double> TestScores(NumExp * NumLabels), PVals(NumExp * NumLabels);
  for (size_t E = 0; E < NumExp; ++E) {
    Discrete[E] = Scorers[E]->isDiscrete() ? 1 : 0;
    Scorers[E]->scoreAll(Probs, TestScores.data() + E * NumLabels);
  }
  AssessmentScratch Scratch;
  G->Store.selectForAssessment(Embed.data(), Cfg, Scratch);
  G->Store.pValuesAllExperts(Scratch, TestScores.data(), NumLabels, Cfg,
                             Discrete.data(), PVals.data());
  std::vector<std::vector<double>> PerExpert(NumExp);
  for (size_t E = 0; E < NumExp; ++E)
    PerExpert[E].assign(PVals.begin() + E * NumLabels,
                        PVals.begin() + (E + 1) * NumLabels);
  return PerExpert;
}

//===----------------------------------------------------------------------===//
// PromDriftDetector
//===----------------------------------------------------------------------===//

void PromDriftDetector::fit(const ml::Classifier &Model,
                            const data::Dataset &Calib, support::Rng &R) {
  PromConfig Use = Cfg;
  if (AutoTune && Calib.size() >= 10)
    Use = gridSearch(Model, Calib, GridSearchSpace(), Cfg, R,
                     /*Repeats=*/1, Mispredicted)
              .Best;
  Impl = std::make_unique<PromClassifier>(Model, Use);
  Impl->calibrate(Calib);
}

bool PromDriftDetector::isDrifting(const data::Sample &S) const {
  assert(Impl && "fit() not called");
  return Impl->assess(S).Drifted;
}

std::vector<char>
PromDriftDetector::isDriftingBatch(const data::Dataset &Batch) const {
  assert(Impl && "fit() not called");
  std::vector<Verdict> Verdicts = Impl->assessBatch(Batch);
  std::vector<char> Out(Verdicts.size(), 0);
  for (size_t I = 0; I < Verdicts.size(); ++I)
    Out[I] = Verdicts[I].Drifted ? 1 : 0;
  return Out;
}

//===----------------------------------------------------------------------===//
// PromRegressor
//===----------------------------------------------------------------------===//

PromRegressor::PromRegressor(const ml::Regressor &Model, PromConfig Cfg)
    : PromRegressor(Model, defaultRegressionScorers(), Cfg) {}

PromRegressor::PromRegressor(
    const ml::Regressor &Model,
    std::vector<std::unique_ptr<RegressionScorer>> Scorers, PromConfig Cfg)
    : CommitteeEngine(Model, std::move(Scorers), Cfg) {}

size_t PromRegressor::numClusters() const {
  std::shared_ptr<const Generation> G = pin();
  return G ? G->Fit.Centroids.rows() : 0;
}

void PromRegressor::calibrate(const data::Dataset &CalibSet,
                              support::Rng &R) {
  assert(CalibSet.size() > Cfg.KnnK && "calibration set too small");

  // One batched forward for every prediction and embedding (row I is
  // bit-identical to the per-sample calls).
  std::vector<double> Predictions;
  Matrix Embeds;
  Model.predictWithEmbedBatch(CalibSet, Predictions, Embeds);

  // A transient block of the embeddings for the pseudo-label clustering.
  size_t N = CalibSet.size();
  using Policy = TaskPolicy<RegressionTask>;
  auto Fresh = std::make_shared<Generation>();
  RegressionTask::Fitted &Fit = Fresh->Fit;
  support::FeatureMatrix Block(N, Embeds.cols());
  std::vector<double> Residuals;
  for (size_t I = 0; I < N; ++I) {
    Block.setRow(I, Embeds.rowPtr(I));
    Fit.Targets.push_back(CalibSet[I].Target);
    Residuals.push_back(std::fabs(Predictions[I] - CalibSet[I].Target));
  }
  Fit.ResidualIqr = support::quantile(Residuals, 0.75) -
                    support::quantile(Residuals, 0.25);

  // Pseudo-labels from k-means over the embedding space (Sec. 5.1.2): the
  // final exact assignment, so every label is its entry's nearest
  // centroid — the rule assessment applies to a test embedding.
  size_t K = Cfg.FixedClusters;
  if (K == 0)
    K = support::gapStatisticK(Block, R, Cfg.MinClusters,
                               std::min(Cfg.MaxClusters, N / 2));
  support::KMeansMatrixResult Clusters = support::kMeansMatrix(
      Block, 0, N, K, R, /*MaxIters=*/50, /*SampleCap=*/N);
  Fit.Centroids = std::move(Clusters.Centroids);

  // The store is finalized before it is scored: its index then serves the
  // calibration rows' k-NN exactly as it serves every input's.
  CalibrationStore &Store = Fresh->Store;
  Store.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    CalibrationEntry Entry;
    Entry.Embed = Block.row(I);
    Entry.Label = static_cast<int>(Clusters.Assignments[I]);
    Store.add(std::move(Entry));
  }
  finalizeStore(Store, Cfg, /*KnnQueries=*/true);

  // Calibration samples use their true targets but the same local
  // statistics pipeline as test samples (self excluded from the k-NN).
  std::vector<std::vector<double>> Columns(Scorers.size(),
                                           std::vector<double>(N));
  AssessmentScratch Scratch;
  for (size_t I = 0; I < N; ++I) {
    RegressionScoreInput In;
    In.Prediction = Predictions[I];
    Policy::knnStats(Fit, Store, Store.embedMatrix().rowPtr(I), Cfg.KnnK,
                     static_cast<long>(I), Scratch, In);
    In.ApproxTarget = Fit.Targets[I];
    for (size_t E = 0; E < Scorers.size(); ++E)
      Columns[E][I] = Scorers[E]->score(In);
  }
  Store.setScoreColumns(std::move(Columns));
  publish(std::move(Fresh));
}

//===----------------------------------------------------------------------===//
// Snapshots
//
// Format version 4 (see support/Serialize.h for the envelope and
// docs/SNAPSHOT_FORMAT.md for the full layout): a version and kind tag,
// every PromConfig field, the task's head state (the classifier's
// temperature), the committee by scorer name, the calibration entries,
// the task's tail state (the regressor's targets, centroids and residual
// IQR), and the optional scaler. finalize() rebuilds every derived index
// deterministically from the entries, so a restored detector's verdicts
// are bit-identical to the saving one's. loadSnapshot() stages a whole
// generation locally and commits only after the payload validated, so a
// failed load leaves the detector untouched.
//
// Version history: v2 appended PromConfig::MaxCalibEntries to the config
// block (the online-refresh store bound); v3 dropped the regressor's
// second copy of the calibration embeddings (its k-NN lookups read the
// store's embedding block); v4 dropped the shard count from the config
// block and from the end of both payloads (the store has no shards).
// Loaders accept exactly the current version — snapshots are restart
// artifacts, not archives; the self-healing server simply writes a fresh
// generation after an upgrade.
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t SnapshotFormatVersion = 4;

void writeConfig(support::ByteWriter &W, const PromConfig &Cfg) {
  W.writeF64(Cfg.Epsilon);
  W.writeF64(Cfg.CredThreshold);
  W.writeF64(Cfg.ConfThreshold);
  W.writeF64(Cfg.ConfidenceC);
  W.writeF64(Cfg.Tau);
  W.writeU8(Cfg.AutoTau ? 1 : 0);
  W.writeF64(Cfg.TauScale);
  W.writeI32(Cfg.WeightNormPower);
  W.writeF64(Cfg.SelectFraction);
  W.writeU64(Cfg.SelectAllBelow);
  W.writeU32(static_cast<uint32_t>(Cfg.WeightMode));
  W.writeU8(Cfg.SmoothedPValues ? 1 : 0);
  W.writeU64(Cfg.MinVotesToFlag);
  W.writeU64(Cfg.KnnK);
  W.writeU64(Cfg.MinClusters);
  W.writeU64(Cfg.MaxClusters);
  W.writeU64(Cfg.FixedClusters);
  W.writeU64(Cfg.MaxCalibEntries); // Appended in format version 2.
}

/// Reads the config block and rejects a config no detector can run
/// (docs/SNAPSHOT_FORMAT.md, "Load-time config rules"): any non-finite
/// double, Epsilon outside (0,1), SelectFraction outside (0,1],
/// non-positive ConfidenceC / Tau / TauScale, a WeightNormPower other than
/// 1 or 2, or — when \p NeedsKnn — KnnK = 0. ConfThreshold and
/// CredThreshold only need to be finite: 2.0 disables the confidence
/// test (NaiveCP) and a negative CredThreshold means "use Epsilon".
bool readConfig(support::ByteReader &R, PromConfig &Cfg, bool NeedsKnn) {
  Cfg.Epsilon = R.readF64();
  Cfg.CredThreshold = R.readF64();
  Cfg.ConfThreshold = R.readF64();
  Cfg.ConfidenceC = R.readF64();
  Cfg.Tau = R.readF64();
  Cfg.AutoTau = R.readU8() != 0;
  Cfg.TauScale = R.readF64();
  Cfg.WeightNormPower = R.readI32();
  Cfg.SelectFraction = R.readF64();
  Cfg.SelectAllBelow = static_cast<size_t>(R.readU64());
  uint32_t Mode = R.readU32();
  if (Mode > static_cast<uint32_t>(CalibrationWeightMode::None))
    return false;
  Cfg.WeightMode = static_cast<CalibrationWeightMode>(Mode);
  Cfg.SmoothedPValues = R.readU8() != 0;
  Cfg.MinVotesToFlag = static_cast<size_t>(R.readU64());
  Cfg.KnnK = static_cast<size_t>(R.readU64());
  Cfg.MinClusters = static_cast<size_t>(R.readU64());
  Cfg.MaxClusters = static_cast<size_t>(R.readU64());
  Cfg.FixedClusters = static_cast<size_t>(R.readU64());
  Cfg.MaxCalibEntries = static_cast<size_t>(R.readU64());
  if (R.failed())
    return false;
  for (double V : {Cfg.Epsilon, Cfg.CredThreshold, Cfg.ConfThreshold,
                   Cfg.ConfidenceC, Cfg.Tau, Cfg.TauScale,
                   Cfg.SelectFraction})
    if (!std::isfinite(V))
      return false;
  return Cfg.Epsilon > 0.0 && Cfg.Epsilon < 1.0 &&
         Cfg.SelectFraction > 0.0 && Cfg.SelectFraction <= 1.0 &&
         Cfg.ConfidenceC > 0.0 && Cfg.Tau > 0.0 && Cfg.TauScale > 0.0 &&
         (Cfg.WeightNormPower == 1 || Cfg.WeightNormPower == 2) &&
         (!NeedsKnn || Cfg.KnnK != 0);
}

void writeEntries(support::ByteWriter &W, const CalibrationStore &Store) {
  W.writeU64(Store.size());
  std::vector<double> Scores(Store.numExperts());
  for (size_t I = 0; I < Store.size(); ++I) {
    W.writeDoubleVec(Store.embedMatrix().row(I));
    W.writeI32(Store.label(I));
    for (size_t E = 0; E < Scores.size(); ++E)
      Scores[E] = Store.scoreColumn(E)[I];
    W.writeDoubleVec(Scores);
  }
}

/// Reads the entry block into \p Store (not finalized) and their common
/// embedding width into \p EmbedDim. Validates shape consistency: every
/// embed the same width, every entry one score per expert of the
/// committee being restored.
bool readEntries(support::ByteReader &R, size_t NumExperts,
                 CalibrationStore &Store, size_t &EmbedDim) {
  uint64_t Count = R.readU64();
  if (R.failed() || Count == 0)
    return false;
  for (uint64_t I = 0; I < Count; ++I) {
    CalibrationEntry E;
    E.Embed = R.readDoubleVec();
    E.Label = R.readI32();
    E.Scores = R.readDoubleVec();
    if (R.failed() || E.Embed.empty() || E.Scores.size() != NumExperts)
      return false;
    if (I == 0)
      EmbedDim = E.Embed.size();
    else if (E.Embed.size() != EmbedDim)
      return false;
    Store.add(std::move(E));
  }
  return true;
}

/// Payload value rule for a fitted scaler: transform() divides by every
/// stddev.
bool positiveStddevs(const std::vector<double> &Stddevs) {
  return std::all_of(Stddevs.begin(), Stddevs.end(),
                     [](double S) { return S > 0.0; });
}

void writeScaler(support::ByteWriter &W, const data::StandardScaler *Scaler) {
  if (!Scaler || !Scaler->isFitted()) {
    W.writeU8(0);
    return;
  }
  W.writeU8(1);
  W.writeDoubleVec(Scaler->means());
  W.writeDoubleVec(Scaler->stddevs());
}

/// Parses the scaler block; restores into \p Scaler when the snapshot has
/// one.
bool readScaler(support::ByteReader &R, data::StandardScaler &Scaler) {
  uint8_t Present = R.readU8();
  if (R.failed() || Present > 1)
    return false;
  if (!Present)
    return true;
  std::vector<double> Means = R.readDoubleVec();
  std::vector<double> Stddevs = R.readDoubleVec();
  if (R.failed() || Means.size() != Stddevs.size() || Means.empty() ||
      !positiveStddevs(Stddevs))
    return false;
  Scaler.restore(std::move(Means), std::move(Stddevs));
  return true;
}

} // namespace

template <class Task>
bool CommitteeEngine<Task>::saveSnapshot(
    const std::string &Path, const data::StandardScaler *Scaler) const {
  using Policy = TaskPolicy<Task>;
  std::shared_ptr<const Generation> G = pin();
  // No payload value loadSnapshot would reject (W refuses a non-finite
  // f64vec value), so a rotation never points `latest` at such a file.
  if (!G || G->Store.empty() || !Policy::validFit(G->Fit) ||
      (Scaler && Scaler->isFitted() && !positiveStddevs(Scaler->stddevs())))
    return false;
  support::ByteWriter W;
  W.writeU32(SnapshotFormatVersion);
  W.writeU32(Policy::SnapshotKind);
  writeConfig(W, Cfg);
  Policy::writeHead(W, G->Fit);
  W.writeU32(static_cast<uint32_t>(Scorers.size()));
  for (const auto &Scorer : Scorers)
    W.writeString(Scorer->name());
  writeEntries(W, G->Store);
  Policy::writeTail(W, G->Fit);
  writeScaler(W, Scaler);
  return W.writeFile(Path);
}

template <class Task>
bool CommitteeEngine<Task>::loadSnapshot(const std::string &Path,
                                         data::StandardScaler *Scaler) {
  using Policy = TaskPolicy<Task>;
  support::ByteReader R;
  if (!R.loadFile(Path))
    return false;
  if (R.readU32() != SnapshotFormatVersion ||
      R.readU32() != Policy::SnapshotKind)
    return false;

  PromConfig NewCfg; // The block holds every field.
  if (!readConfig(R, NewCfg,
                  /*NeedsKnn=*/std::is_same<Task, RegressionTask>::value))
    return false;
  auto Fresh = std::make_shared<Generation>();
  if (!Policy::readHead(R, Fresh->Fit))
    return false;

  uint32_t NumScorers = R.readU32();
  if (R.failed() || NumScorers == 0)
    return false;
  std::vector<std::unique_ptr<ScorerType>> NewScorers;
  for (uint32_t I = 0; I < NumScorers; ++I) {
    std::unique_ptr<ScorerType> Scorer = Policy::makeScorer(R.readString());
    if (!Scorer)
      return false;
    NewScorers.push_back(std::move(Scorer));
  }

  size_t EmbedDim = 0;
  if (!readEntries(R, NewScorers.size(), Fresh->Store, EmbedDim) ||
      !Policy::readTail(R, Fresh->Fit, Fresh->Store.size(), EmbedDim) ||
      !Policy::validFit(Fresh->Fit))
    return false;

  data::StandardScaler StagedScaler;
  if (!readScaler(R, StagedScaler))
    return false;
  if (R.failed() || !R.atEnd())
    return false;

  // Everything validated: build the generation, then commit.
  finalizeStore(Fresh->Store, NewCfg,
                /*KnnQueries=*/std::is_same<Task, RegressionTask>::value);
  Cfg = NewCfg;
  Scorers = std::move(NewScorers);
  publish(std::move(Fresh));
  if (Scaler && StagedScaler.isFitted())
    *Scaler = std::move(StagedScaler);
  return true;
}

template class prom::CommitteeEngine<ClassificationTask>;
template class prom::CommitteeEngine<RegressionTask>;
