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

#include <cassert>
#include <cmath>
#include <memory>

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

double Verdict::meanCredibility() const {
  double Sum = 0.0;
  for (const ExpertOpinion &E : Experts)
    Sum += E.Credibility;
  return Experts.empty() ? 0.0 : Sum / static_cast<double>(Experts.size());
}

double Verdict::meanConfidence() const {
  double Sum = 0.0;
  for (const ExpertOpinion &E : Experts)
    Sum += E.Confidence;
  return Experts.empty() ? 0.0 : Sum / static_cast<double>(Experts.size());
}

double RegressionVerdict::meanCredibility() const {
  double Sum = 0.0;
  for (const ExpertOpinion &E : Experts)
    Sum += E.Credibility;
  return Experts.empty() ? 0.0 : Sum / static_cast<double>(Experts.size());
}

/// Committee decision rule shared by both detectors: an expert flags drift
/// when both scores fall below their thresholds (Sec. 5); the committee
/// flags when at least MinVotesToFlag experts do (majority by default).
static bool committeeFlags(const std::vector<ExpertOpinion> &Experts,
                           const PromConfig &Cfg, size_t &VotesOut) {
  size_t Votes = 0;
  for (const ExpertOpinion &E : Experts)
    if (E.FlagDrift)
      ++Votes;
  VotesOut = Votes;
  size_t Needed = Cfg.MinVotesToFlag != 0
                      ? Cfg.MinVotesToFlag
                      : (Experts.size() + 1) / 2;
  return Votes >= Needed;
}

//===----------------------------------------------------------------------===//
// PromClassifier
//===----------------------------------------------------------------------===//

PromClassifier::PromClassifier(const ml::Classifier &Model, PromConfig Cfg)
    : PromClassifier(Model, defaultClassificationScorers(), Cfg) {}

PromClassifier::PromClassifier(
    const ml::Classifier &Model,
    std::vector<std::unique_ptr<ClassificationScorer>> ScorersIn,
    PromConfig CfgIn)
    : Model(Model), Cfg(CfgIn), Scorers(std::move(ScorersIn)) {
  assert(!Scorers.empty() && "committee needs at least one expert");
}

/// Applies temperature \p T to a probability vector: softmax(log(p) / T).
/// T > 1 softens saturated outputs; the argmax never changes.
static std::vector<double> applyTemperature(std::vector<double> Probs,
                                            double T) {
  if (T == 1.0)
    return Probs;
  for (double &P : Probs)
    P = std::log(std::max(P, 1e-12)) / T;
  support::softmaxInPlace(Probs);
  return Probs;
}

/// Effective shard count of the calibration store under \p Cfg.
static size_t effectiveShards(const PromConfig &Cfg) {
  return Cfg.NumShards != 0 ? Cfg.NumShards
                            : support::ThreadPool::global().numThreads();
}

std::shared_ptr<const CalibrationStore> PromClassifier::store() const {
  return std::atomic_load(&Calib);
}

void PromClassifier::installStore(
    std::shared_ptr<const CalibrationStore> NewStore) {
  std::atomic_store(&Calib, std::move(NewStore));
}

bool PromClassifier::isCalibrated() const {
  std::shared_ptr<const CalibrationStore> S = store();
  return S && !S->empty();
}

size_t PromClassifier::calibrationSize() const {
  std::shared_ptr<const CalibrationStore> S = store();
  return S ? S->size() : 0;
}

size_t PromClassifier::memoryBytes() const {
  std::shared_ptr<const CalibrationStore> S = store();
  return sizeof(*this) + (S ? S->memoryBytes() : 0);
}

size_t PromClassifier::numShards() const {
  std::shared_ptr<const CalibrationStore> S = store();
  return S && S->numShards() ? S->numShards() : 1;
}

void PromClassifier::reshard(size_t NumShards) {
  std::shared_ptr<const CalibrationStore> Old = store();
  assert(Old && "reshard before calibrate");
  // Copy-modify-publish: in-flight batches keep reading the store they
  // pinned; new batches see the re-partitioned copy.
  auto Fresh = std::make_shared<CalibrationStore>(*Old);
  Fresh->reshard(NumShards);
  installStore(std::move(Fresh));
}

void PromClassifier::calibrate(const data::Dataset &CalibSet) {
  assert(!CalibSet.empty() && "empty calibration set");

  // One batched forward computes every raw probability vector and
  // embedding (row I is bit-identical to the per-sample calls).
  Matrix RawProbs, Embeds;
  Model.predictWithEmbedBatch(CalibSet, RawProbs, Embeds);

  // Fit the softening temperature by true-label NLL on the calibration
  // set (standard post-hoc temperature scaling, argmax-invariant).
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
      Temperature = T;
    }
  }

  auto Fresh = std::make_shared<CalibrationStore>();
  Fresh->reserve(CalibSet.size());
  for (size_t I = 0; I < CalibSet.size(); ++I) {
    const data::Sample &S = CalibSet[I];
    CalibrationEntry Entry;
    Entry.Embed = Embeds.row(I);
    Entry.Label = S.Label;
    std::vector<double> Probs = applyTemperature(RawProbs.row(I), Temperature);
    Entry.Scores.reserve(Scorers.size());
    for (const auto &Scorer : Scorers)
      Entry.Scores.push_back(Scorer->score(Probs, S.Label));
    Fresh->add(std::move(Entry));
  }
  Fresh->setMaxEntries(Cfg.MaxCalibEntries);
  Fresh->setIndexPolicy(ClusterIndexPolicy::fromConfig(Cfg));
  Fresh->finalize(effectiveShards(Cfg));
  installStore(std::move(Fresh));
}

size_t PromClassifier::refreshCalibration(const data::Dataset &NewlyLabeled,
                                          bool Incremental) {
  std::shared_ptr<const CalibrationStore> Old = store();
  assert(Old && !Old->empty() && "refresh before calibrate");
  if (NewlyLabeled.empty())
    return Old->size();

  // Score the relabeled samples exactly like calibrate() does, but with
  // the already-fitted temperature: refreshed entries must be
  // exchangeable with the retained ones.
  Matrix RawProbs, Embeds;
  Model.predictWithEmbedBatch(NewlyLabeled, RawProbs, Embeds);
  assert(Embeds.cols() == Old->embedDim() &&
         "refresh embedding width does not match the calibration set");

  std::vector<CalibrationEntry> NewEntries;
  NewEntries.reserve(NewlyLabeled.size());
  for (size_t I = 0; I < NewlyLabeled.size(); ++I) {
    CalibrationEntry Entry;
    Entry.Embed = Embeds.row(I);
    Entry.Label = NewlyLabeled[I].Label;
    std::vector<double> Probs =
        applyTemperature(RawProbs.row(I), Temperature);
    Entry.Scores.reserve(Scorers.size());
    for (const auto &Scorer : Scorers)
      Entry.Scores.push_back(Scorer->score(Probs, NewlyLabeled[I].Label));
    NewEntries.push_back(std::move(Entry));
  }

  // Stage + refresh on a private copy, then publish: readers pinned to
  // the old store are never disturbed.
  auto Fresh = std::make_shared<CalibrationStore>(*Old);
  Fresh->setMaxEntries(Cfg.MaxCalibEntries);
  Fresh->appendEntries(std::move(NewEntries));
  if (Incremental)
    Fresh->refinalize();
  else
    Fresh->refinalizeFull();
  size_t NewSize = Fresh->size();
  installStore(std::move(Fresh));
  return NewSize;
}

std::vector<double> PromClassifier::softenedProbs(const data::Sample &S) const {
  return applyTemperature(Model.predictProba(S), Temperature);
}

/// Row-wise applyTemperature over a probability matrix; identical
/// arithmetic to the per-sample version on each row.
static void applyTemperatureRows(Matrix &Probs, double T) {
  if (T == 1.0)
    return;
  for (size_t I = 0; I < Probs.rows(); ++I) {
    double *Row = Probs.rowPtr(I);
    for (size_t J = 0; J < Probs.cols(); ++J)
      Row[J] = std::log(std::max(Row[J], 1e-12)) / T;
    support::softmaxRowInPlace(Row, Probs.cols());
  }
}

std::vector<double> PromClassifier::pValues(const data::Sample &S,
                                            size_t Expert) const {
  std::shared_ptr<const CalibrationStore> Store = store();
  assert(Store && !Store->empty() && "assess before calibrate");
  assert(Expert < Scorers.size() && "expert index out of range");
  // The engine path (selection + fused all-expert p-values), so callers
  // that want one expert's row per sample never pay the reference path's
  // full distance sort.
  std::vector<double> Probs = softenedProbs(S);
  std::vector<double> Embed = Model.embed(S);
  size_t NumLabels = Probs.size(), NumExp = Scorers.size();
  std::vector<uint8_t> Discrete(NumExp);
  std::vector<double> TestScores(NumExp * NumLabels), PVals(NumExp * NumLabels);
  for (size_t E = 0; E < NumExp; ++E) {
    Discrete[E] = Scorers[E]->isDiscrete() ? 1 : 0;
    Scorers[E]->scoreAll(Probs, TestScores.data() + E * NumLabels);
  }
  AssessmentScratch Scratch;
  Store->selectForAssessment(Embed.data(), Cfg, Scratch);
  Store->pValuesAllExperts(Scratch, TestScores.data(), NumLabels, Cfg,
                           Discrete.data(), PVals.data());
  return std::vector<double>(PVals.begin() + Expert * NumLabels,
                             PVals.begin() + (Expert + 1) * NumLabels);
}

ExpertOpinion PromClassifier::judge(const double *PVals, size_t NumLabels,
                                    int Predicted) const {
  ExpertOpinion Op;
  Op.Credibility = PVals[static_cast<size_t>(Predicted)];
  for (size_t L = 0; L < NumLabels; ++L)
    if (PVals[L] > Cfg.Epsilon)
      ++Op.PredictionSetSize;
  Op.Confidence = confidenceFromSetSize(Op.PredictionSetSize,
                                        Cfg.ConfidenceC);
  Op.FlagDrift = Op.Credibility < Cfg.credThreshold() &&
                 Op.Confidence < Cfg.ConfThreshold;
  return Op;
}

Verdict PromClassifier::assessSerial(const data::Sample &S) const {
  std::shared_ptr<const CalibrationStore> Store = store();
  assert(Store && !Store->empty() && "assess before calibrate");
  Verdict V;
  V.Probabilities = softenedProbs(S);
  V.Predicted = static_cast<int>(support::argmax(V.Probabilities));

  CalibrationSelection Sel = Store->select(Model.embed(S), Cfg);
  size_t NumClasses = V.Probabilities.size();
  std::vector<double> TestScores(NumClasses);
  V.Experts.reserve(Scorers.size());
  for (size_t E = 0; E < Scorers.size(); ++E) {
    for (size_t C = 0; C < NumClasses; ++C)
      TestScores[C] =
          Scorers[E]->score(V.Probabilities, static_cast<int>(C));
    std::vector<double> PVals =
        Store->pValues(Sel, E, TestScores, Cfg, Scorers[E]->isDiscrete());
    V.Experts.push_back(judge(PVals.data(), PVals.size(), V.Predicted));
  }
  V.Drifted = committeeFlags(V.Experts, Cfg, V.VotesToFlag);
  return V;
}

void PromClassifier::assessRange(const CalibrationStore &Store,
                                 const Matrix &Probs, const Matrix &Embeds,
                                 size_t Begin, size_t End,
                                 std::vector<Verdict> &Out,
                                 CalibrationStore::BatchPrunedScan &Scan)
    const {
  size_t NumLabels = Probs.cols();
  size_t NumExp = Scorers.size();

  // Per-lane scratch, reused across every sample of the range.
  AssessmentScratch Scratch;
  std::vector<uint8_t> Discrete(NumExp);
  for (size_t E = 0; E < NumExp; ++E)
    Discrete[E] = Scorers[E]->isDiscrete() ? 1 : 0;
  std::vector<double> TestScores(NumExp * NumLabels);
  std::vector<double> PVals(NumExp * NumLabels);

  for (size_t I = Begin; I < End; ++I) {
    Verdict &V = Out[I];
    V.Probabilities.assign(Probs.rowPtr(I), Probs.rowPtr(I) + NumLabels);
    V.Predicted = static_cast<int>(support::argmaxRow(Probs, I));

    Store.selectForAssessment(Embeds.rowPtr(I), Cfg, Scratch, &Scan, I);
    for (size_t E = 0; E < NumExp; ++E)
      Scorers[E]->scoreAll(V.Probabilities, TestScores.data() + E * NumLabels);
    Store.pValuesAllExperts(Scratch, TestScores.data(), NumLabels, Cfg,
                            Discrete.data(), PVals.data());

    V.Experts.clear();
    V.Experts.reserve(NumExp);
    for (size_t E = 0; E < NumExp; ++E)
      V.Experts.push_back(
          judge(PVals.data() + E * NumLabels, NumLabels, V.Predicted));
    V.Drifted = committeeFlags(V.Experts, Cfg, V.VotesToFlag);
  }
}

std::vector<Verdict>
PromClassifier::assessBatch(const data::Dataset &Batch) const {
  assert(isCalibrated() && "assess before calibrate");
  if (Batch.empty())
    return {};

  // One batched forward computes every probability vector and embedding.
  Matrix Probs, Embeds;
  Model.predictWithEmbedBatch(Batch, Probs, Embeds);
  return assessBatchWithForwards(Probs, Embeds);
}

std::vector<Verdict>
PromClassifier::assessBatchWithForwards(const Matrix &RawProbs,
                                        const Matrix &Embeds) const {
  // One pinned store per batch: a concurrent refresh swap cannot split
  // the batch across calibration generations.
  std::shared_ptr<const CalibrationStore> Store = store();
  assert(Store && !Store->empty() && "assess before calibrate");
  assert(RawProbs.rows() == Embeds.rows() && "forwards row mismatch");
  std::vector<Verdict> Out(RawProbs.rows());
  if (Out.empty())
    return Out;

  Matrix Probs = RawProbs;
  applyTemperatureRows(Probs, Temperature);
  assert(Embeds.cols() == Store->embedDim() &&
         "embedding width does not match the calibration set");

  // One batched centroid-distance pass for the whole batch (inactive when
  // the pruned routing is not in force) — the per-query selections then
  // read their own rows instead of re-ranking the lists from scratch.
  CalibrationStore::BatchPrunedScan Scan;
  Store->prepareBatchPrunedScan(Embeds.rowPtr(0), Embeds.rows(),
                                Embeds.cols(), Cfg, Scan);

  support::ThreadPool::global().parallelFor(
      Out.size(), [&](size_t Begin, size_t End) {
        assessRange(*Store, Probs, Embeds, Begin, End, Out, Scan);
      });
  return Out;
}

Verdict PromClassifier::assess(const data::Sample &S) const {
  data::Dataset One;
  One.reserve(1);
  One.add(S);
  std::vector<Verdict> Out = assessBatch(One);
  return std::move(Out.front());
}

//===----------------------------------------------------------------------===//
// Snapshots
//
// Format version 3 (see support/Serialize.h for the envelope and
// docs/SNAPSHOT_FORMAT.md for the full layout): a version and kind tag,
// the persisted PromConfig fields, detector-specific fitted state, the
// committee by scorer name, and the calibration entries. finalize()
// rebuilds every derived index deterministically from the entries, so a
// restored detector's verdicts are bit-identical to the saving one's.
// loadSnapshot() stages everything locally and commits only after the
// whole payload validated, so a failed load leaves the detector untouched.
// Config knobs the snapshot does not persist (the cluster-index
// deployment knobs) keep the loading detector's values.
//
// Version history: v2 appended PromConfig::MaxCalibEntries to the config
// block (the online-refresh store bound); v3 dropped the regressor's
// second copy of the calibration embeddings (its k-NN lookups read the
// store's embedding block). Loaders accept exactly the current version —
// snapshots are restart artifacts, not archives; the self-healing server
// simply writes a fresh generation after an upgrade.
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t SnapshotFormatVersion = 3;
constexpr uint32_t SnapshotKindClassifier = 1;
constexpr uint32_t SnapshotKindRegressor = 2;

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
  W.writeU64(Cfg.NumShards);
  W.writeU64(Cfg.MaxCalibEntries); // Appended in format version 2.
}

bool readConfig(support::ByteReader &R, PromConfig &Cfg) {
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
  Cfg.NumShards = static_cast<size_t>(R.readU64());
  Cfg.MaxCalibEntries = static_cast<size_t>(R.readU64());
  return !R.failed();
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

/// Reads the entry block into \p Store (not finalized). Validates shape
/// consistency: every embed the same width, every entry one score per
/// expert of the committee being restored.
bool readEntries(support::ByteReader &R, size_t NumExperts,
                 CalibrationStore &Store) {
  uint64_t Count = R.readU64();
  if (R.failed() || Count == 0)
    return false;
  size_t EmbedDim = 0;
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
/// one and the caller asked for it.
bool readScaler(support::ByteReader &R, data::StandardScaler *Scaler) {
  uint8_t Present = R.readU8();
  if (R.failed() || Present > 1)
    return false;
  if (!Present)
    return true;
  std::vector<double> Means = R.readDoubleVec();
  std::vector<double> Stddevs = R.readDoubleVec();
  if (R.failed() || Means.size() != Stddevs.size() || Means.empty())
    return false;
  if (Scaler)
    Scaler->restore(std::move(Means), std::move(Stddevs));
  return true;
}

} // namespace

bool PromClassifier::saveSnapshot(const std::string &Path,
                                  const data::StandardScaler *Scaler) const {
  std::shared_ptr<const CalibrationStore> Store = store();
  if (!Store || Store->empty())
    return false;
  support::ByteWriter W;
  W.writeU32(SnapshotFormatVersion);
  W.writeU32(SnapshotKindClassifier);
  writeConfig(W, Cfg);
  W.writeF64(Temperature);
  W.writeU32(static_cast<uint32_t>(Scorers.size()));
  for (const auto &Scorer : Scorers)
    W.writeString(Scorer->name());
  writeEntries(W, *Store);
  // The *requested* shard count, not the built (block-clamped) one: a
  // restored store must keep rebalancing toward the configured
  // parallelism as online refreshes grow it past the clamp.
  W.writeU64(Store->targetShards());
  writeScaler(W, Scaler);
  return W.writeFile(Path);
}

bool PromClassifier::loadSnapshot(const std::string &Path,
                                  data::StandardScaler *Scaler) {
  support::ByteReader R;
  if (!R.loadFile(Path))
    return false;
  if (R.readU32() != SnapshotFormatVersion ||
      R.readU32() != SnapshotKindClassifier)
    return false;

  PromConfig NewCfg = Cfg; // Unpersisted knobs keep their current values.
  if (!readConfig(R, NewCfg))
    return false;
  double NewTemperature = R.readF64();

  uint32_t NumScorers = R.readU32();
  if (R.failed() || NumScorers == 0)
    return false;
  std::vector<std::unique_ptr<ClassificationScorer>> NewScorers;
  for (uint32_t I = 0; I < NumScorers; ++I) {
    std::unique_ptr<ClassificationScorer> Scorer =
        makeClassificationScorer(R.readString());
    if (!Scorer)
      return false;
    NewScorers.push_back(std::move(Scorer));
  }

  auto NewStore = std::make_shared<CalibrationStore>();
  if (!readEntries(R, NewScorers.size(), *NewStore))
    return false;
  size_t Shards = static_cast<size_t>(R.readU64());

  data::StandardScaler StagedScaler;
  if (!readScaler(R, &StagedScaler))
    return false;
  if (R.failed() || !R.atEnd())
    return false;

  Cfg = NewCfg;
  Temperature = NewTemperature;
  Scorers = std::move(NewScorers);
  NewStore->setMaxEntries(Cfg.MaxCalibEntries);
  NewStore->setIndexPolicy(ClusterIndexPolicy::fromConfig(Cfg));
  NewStore->finalize(Shards);
  installStore(std::move(NewStore));
  if (Scaler && StagedScaler.isFitted())
    *Scaler = std::move(StagedScaler);
  return true;
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
    std::vector<std::unique_ptr<RegressionScorer>> ScorersIn,
    PromConfig CfgIn)
    : Model(Model), Cfg(CfgIn), Scorers(std::move(ScorersIn)) {
  assert(!Scorers.empty() && "committee needs at least one expert");
}

/// k-NN statistics of \p Embed (length Embeds.dim()) against the flat
/// calibration embedding block, excluding an optional \p SelfIndex. The
/// neighbour search is one batched kernel scan over the block — or, with
/// a valid \p Index over it, the lossless cluster-pruned scan (the same
/// (distance, id) pairs in the same order, so the folds below are
/// bit-identical; sqrt of the scanned squared distance equals the
/// euclidean() recompute because the 1xN row fold matches the per-pair
/// kernel). \p CentDistSq, when non-null, supplies the query's
/// precomputed index-centroid distances (one row of a batch block).
static void knnStats(const support::FeatureMatrix &Embeds,
                     const std::vector<double> &Targets, const double *Embed,
                     size_t K, long SelfIndex,
                     const support::ClusterIndex *Index,
                     const double *CentDistSq, double &MeanTarget,
                     double &Spread, double &MeanDist) {
  size_t Want = K + (SelfIndex >= 0 ? 1 : 0);
  std::vector<double> NearTargets;
  std::vector<double> Dists;
  // Shared harvest of one neighbour (ascending (distance, id) order):
  // skips the excluded self row, stops once K neighbours are in.
  auto Take = [&](size_t Idx, double Dist) {
    if (SelfIndex >= 0 && Idx == static_cast<size_t>(SelfIndex))
      return true;
    if (NearTargets.size() == K)
      return false;
    NearTargets.push_back(Targets[Idx]);
    Dists.push_back(Dist);
    return true;
  };
  if (Index && Index->valid()) {
    std::vector<std::pair<double, uint32_t>> Near =
        CentDistSq
            ? Index->nearestPrunedFromCentroids(Embed, CentDistSq, Want)
            : Index->nearestPruned(Embed, Want);
    for (const std::pair<double, uint32_t> &P : Near)
      if (!Take(P.second, std::sqrt(P.first)))
        break;
  } else {
    std::vector<size_t> Near = support::kNearest(Embeds, Embed, Want);
    for (size_t Idx : Near)
      if (!Take(Idx,
                support::euclidean(Embeds.rowPtr(Idx), Embed, Embeds.dim())))
        break;
  }
  assert(!NearTargets.empty() && "calibration set too small for k-NN");
  MeanTarget = support::mean(NearTargets);
  Spread = support::stddev(NearTargets);
  MeanDist = support::mean(Dists);
}

RegressionScoreInput
PromRegressor::makeScoreInput(const double *Embed, double Prediction,
                              const double *KnnCentDists) const {
  RegressionScoreInput In;
  In.Prediction = Prediction;
  In.ResidualIqr = ResidualIqr;
  knnStats(Calib.embedMatrix(), CalibTargets, Embed, Cfg.KnnK,
           /*SelfIndex=*/-1, &KnnIndex, KnnCentDists, In.ApproxTarget,
           In.KnnTargetSpread, In.KnnMeanDistance);
  return In;
}

/// Seed of the regressor's k-NN ground-truth index: fixed, so calibrating
/// twice on the same set yields the same index (losslessness makes the
/// value irrelevant to verdicts — it only shapes the pruning).
static constexpr uint64_t RegKnnIndexSeed = 0x8D2F4A6E1B97C35Dull;

void PromRegressor::rebuildKnnIndex(const support::FeatureMatrix &Embeds) {
  KnnIndex.clear();
  if (!Cfg.KnnClusterIndex || Embeds.rows() < Cfg.ClusterIndexMinEntries)
    return;
  KnnIndex.build(Embeds, 0, Embeds.rows(), Cfg.ClusterIndexCentroids,
                 RegKnnIndexSeed);
}

void PromRegressor::calibrate(const data::Dataset &CalibSet,
                              support::Rng &R) {
  assert(CalibSet.size() > Cfg.KnnK && "calibration set too small");

  // One batched forward for every prediction and embedding (row I is
  // bit-identical to the per-sample calls).
  std::vector<double> Predictions;
  Matrix Embeds;
  Model.predictWithEmbedBatch(CalibSet, Predictions, Embeds);

  // Row-vector copies for the (calibration-time) clustering, and a
  // transient block of the same rows for the calibration-time k-NN. The
  // store's embedding block, which the deployment-time k-NN scans stream,
  // holds exactly these rows, so the index built here is the one
  // rebuildKnnIndex() builds over the store after a snapshot load.
  std::vector<std::vector<double>> EmbedRows;
  EmbedRows.reserve(CalibSet.size());
  CalibTargets.clear();
  std::vector<double> Residuals;
  for (size_t I = 0; I < CalibSet.size(); ++I) {
    EmbedRows.push_back(Embeds.row(I));
    CalibTargets.push_back(CalibSet[I].Target);
    Residuals.push_back(std::fabs(Predictions[I] - CalibSet[I].Target));
  }
  support::FeatureMatrix Block = support::FeatureMatrix::fromRows(EmbedRows);
  rebuildKnnIndex(Block);
  ResidualIqr = support::quantile(Residuals, 0.75) -
                support::quantile(Residuals, 0.25);

  // Pseudo-labels from k-means over the embedding space (Sec. 5.1.2).
  size_t K = Cfg.FixedClusters;
  if (K == 0)
    K = support::gapStatisticK(EmbedRows, R, Cfg.MinClusters,
                               std::min(Cfg.MaxClusters,
                                        CalibSet.size() / 2));
  support::KMeansResult Clusters = support::kMeans(EmbedRows, K, R);
  Centroids = Clusters.Centroids;

  Calib.clear();
  Calib.reserve(CalibSet.size());
  for (size_t I = 0; I < CalibSet.size(); ++I) {
    CalibrationEntry Entry;
    Entry.Embed = std::move(EmbedRows[I]); // Clustering is done with it.
    Entry.Label = Clusters.Assignments[I];

    // Calibration samples use their true targets but the same local
    // statistics pipeline as test samples (self excluded from the k-NN).
    RegressionScoreInput In;
    In.Prediction = Predictions[I];
    In.ResidualIqr = ResidualIqr;
    double ApproxUnused;
    knnStats(Block, CalibTargets, Block.rowPtr(I), Cfg.KnnK,
             static_cast<long>(I), &KnnIndex, /*CentDistSq=*/nullptr,
             ApproxUnused, In.KnnTargetSpread, In.KnnMeanDistance);
    In.ApproxTarget = CalibTargets[I];

    Entry.Scores.reserve(Scorers.size());
    for (const auto &Scorer : Scorers)
      Entry.Scores.push_back(Scorer->score(In));
    Calib.add(std::move(Entry));
  }
  Calib.setIndexPolicy(ClusterIndexPolicy::fromConfig(Cfg));
  Calib.finalize(effectiveShards(Cfg));
}

/// Shared regression judging rule: expert opinion from one expert's
/// p-value row.
static ExpertOpinion judgeRegression(const double *PVals, size_t NumLabels,
                                     int Cluster, const PromConfig &Cfg) {
  ExpertOpinion Op;
  Op.Credibility = PVals[static_cast<size_t>(Cluster)];
  for (size_t L = 0; L < NumLabels; ++L)
    if (PVals[L] > Cfg.Epsilon)
      ++Op.PredictionSetSize;
  Op.Confidence = confidenceFromSetSize(Op.PredictionSetSize, Cfg.ConfidenceC);
  Op.FlagDrift = Op.Credibility < Cfg.credThreshold() &&
                 Op.Confidence < Cfg.ConfThreshold;
  return Op;
}

RegressionVerdict PromRegressor::assessSerial(const data::Sample &S) const {
  assert(!Calib.empty() && "assess before calibrate");
  RegressionVerdict V;
  V.Predicted = Model.predict(S);

  std::vector<double> Embed = Model.embed(S);
  V.Cluster = static_cast<int>(support::nearestCentroid(Centroids, Embed));

  RegressionScoreInput In = makeScoreInput(Embed.data(), V.Predicted);
  CalibrationSelection Sel = Calib.select(Embed, Cfg);

  V.Experts.reserve(Scorers.size());
  for (size_t E = 0; E < Scorers.size(); ++E) {
    double TestScore = Scorers[E]->score(In);
    // The test score is label-independent for regression; the conditioning
    // happens through which cluster's calibration scores it is compared to.
    std::vector<double> TestScores(Centroids.size(), TestScore);
    std::vector<double> PVals = Calib.pValues(Sel, E, TestScores, Cfg);
    V.Experts.push_back(
        judgeRegression(PVals.data(), PVals.size(), V.Cluster, Cfg));
  }
  V.Drifted = committeeFlags(V.Experts, Cfg, V.VotesToFlag);
  return V;
}

void PromRegressor::assessRange(const std::vector<double> &Predictions,
                                const Matrix &Embeds, size_t Begin,
                                size_t End,
                                std::vector<RegressionVerdict> &Out,
                                CalibrationStore::BatchPrunedScan &Scan,
                                const double *KnnCentBlock) const {
  size_t NumLabels = Centroids.size();
  size_t NumExp = Scorers.size();

  AssessmentScratch Scratch;
  std::vector<double> Embed(Embeds.cols());
  std::vector<double> TestScores(NumExp * NumLabels);
  std::vector<double> PVals(NumExp * NumLabels);

  for (size_t I = Begin; I < End; ++I) {
    RegressionVerdict &V = Out[I];
    V.Predicted = Predictions[I];
    Embed.assign(Embeds.rowPtr(I), Embeds.rowPtr(I) + Embeds.cols());
    V.Cluster = static_cast<int>(support::nearestCentroid(Centroids, Embed));

    RegressionScoreInput In = makeScoreInput(
        Embeds.rowPtr(I), V.Predicted,
        KnnCentBlock ? KnnCentBlock + I * KnnIndex.numLists() : nullptr);
    Calib.selectForAssessment(Embeds.rowPtr(I), Cfg, Scratch, &Scan, I);
    for (size_t E = 0; E < NumExp; ++E) {
      double TestScore = Scorers[E]->score(In);
      for (size_t L = 0; L < NumLabels; ++L)
        TestScores[E * NumLabels + L] = TestScore;
    }
    Calib.pValuesAllExperts(Scratch, TestScores.data(), NumLabels, Cfg,
                            /*DiscreteFlags=*/nullptr, PVals.data());

    V.Experts.clear();
    V.Experts.reserve(NumExp);
    for (size_t E = 0; E < NumExp; ++E)
      V.Experts.push_back(judgeRegression(PVals.data() + E * NumLabels,
                                          NumLabels, V.Cluster, Cfg));
    V.Drifted = committeeFlags(V.Experts, Cfg, V.VotesToFlag);
  }
}

std::vector<RegressionVerdict>
PromRegressor::assessBatch(const data::Dataset &Batch) const {
  assert(!Calib.empty() && "assess before calibrate");
  std::vector<RegressionVerdict> Out(Batch.size());
  if (Batch.empty())
    return Out;

  std::vector<double> Predictions;
  Matrix Embeds;
  Model.predictWithEmbedBatch(Batch, Predictions, Embeds);
  assert(Embeds.cols() == Calib.embedDim() &&
         "embedding width does not match the calibration set");

  // Batch-amortized centroid passes: one for the store's pruned selection
  // (inactive when the routing is not in force) and one for the k-NN
  // ground-truth index. Chunks are disjoint query rows and each block row
  // is bit-identical to the per-query kernel call, so verdicts cannot
  // change.
  CalibrationStore::BatchPrunedScan Scan;
  Calib.prepareBatchPrunedScan(Embeds.rowPtr(0), Embeds.rows(),
                               Embeds.cols(), Cfg, Scan);
  std::vector<double> KnnCentBlock;
  if (KnnIndex.valid()) {
    size_t NumLists = KnnIndex.numLists();
    KnnCentBlock.resize(Batch.size() * NumLists);
    support::ThreadPool::global().parallelFor(
        Batch.size(), [&](size_t Begin, size_t End) {
          if (Begin >= End)
            return;
          KnnIndex.centroidDistancesBatch(
              Embeds.rowPtr(Begin), End - Begin, Embeds.cols(),
              KnnCentBlock.data() + Begin * NumLists);
        });
  }

  support::ThreadPool::global().parallelFor(
      Batch.size(), [&](size_t Begin, size_t End) {
        assessRange(Predictions, Embeds, Begin, End, Out, Scan,
                    KnnCentBlock.empty() ? nullptr : KnnCentBlock.data());
      });
  return Out;
}

RegressionVerdict PromRegressor::assess(const data::Sample &S) const {
  data::Dataset One;
  One.reserve(1);
  One.add(S);
  std::vector<RegressionVerdict> Out = assessBatch(One);
  return std::move(Out.front());
}

bool PromRegressor::saveSnapshot(const std::string &Path,
                                 const data::StandardScaler *Scaler) const {
  if (!isCalibrated())
    return false;
  support::ByteWriter W;
  W.writeU32(SnapshotFormatVersion);
  W.writeU32(SnapshotKindRegressor);
  writeConfig(W, Cfg);
  W.writeU32(static_cast<uint32_t>(Scorers.size()));
  for (const auto &Scorer : Scorers)
    W.writeString(Scorer->name());
  writeEntries(W, Calib);
  W.writeDoubleVec(CalibTargets);
  W.writeU64(Centroids.size());
  for (const std::vector<double> &Centroid : Centroids)
    W.writeDoubleVec(Centroid);
  W.writeF64(ResidualIqr);
  W.writeU64(Calib.targetShards()); // Requested, not block-clamped.
  writeScaler(W, Scaler);
  return W.writeFile(Path);
}

bool PromRegressor::loadSnapshot(const std::string &Path,
                                 data::StandardScaler *Scaler) {
  support::ByteReader R;
  if (!R.loadFile(Path))
    return false;
  if (R.readU32() != SnapshotFormatVersion ||
      R.readU32() != SnapshotKindRegressor)
    return false;

  PromConfig NewCfg = Cfg; // Unpersisted knobs keep their current values.
  if (!readConfig(R, NewCfg))
    return false;

  uint32_t NumScorers = R.readU32();
  if (R.failed() || NumScorers == 0)
    return false;
  std::vector<std::unique_ptr<RegressionScorer>> NewScorers;
  for (uint32_t I = 0; I < NumScorers; ++I) {
    std::unique_ptr<RegressionScorer> Scorer =
        makeRegressionScorer(R.readString());
    if (!Scorer)
      return false;
    NewScorers.push_back(std::move(Scorer));
  }

  CalibrationStore NewStore;
  if (!readEntries(R, NewScorers.size(), NewStore))
    return false;

  std::vector<double> NewTargets = R.readDoubleVec();
  if (R.failed() || NewTargets.size() != NewStore.size())
    return false;

  uint64_t NumCentroids = R.readU64();
  if (R.failed() || NumCentroids == 0 || NumCentroids > NewStore.size())
    return false;
  std::vector<std::vector<double>> NewCentroids;
  NewCentroids.reserve(static_cast<size_t>(NumCentroids));
  for (uint64_t I = 0; I < NumCentroids; ++I) {
    NewCentroids.push_back(R.readDoubleVec());
    if (R.failed() || NewCentroids.back().empty())
      return false;
  }
  double NewResidualIqr = R.readF64();
  size_t Shards = static_cast<size_t>(R.readU64());

  data::StandardScaler StagedScaler;
  if (!readScaler(R, &StagedScaler))
    return false;
  if (R.failed() || !R.atEnd())
    return false;

  Cfg = NewCfg;
  Scorers = std::move(NewScorers);
  Calib = std::move(NewStore);
  Calib.setIndexPolicy(ClusterIndexPolicy::fromConfig(Cfg));
  Calib.finalize(Shards);
  rebuildKnnIndex(Calib.embedMatrix());
  CalibTargets = std::move(NewTargets);
  Centroids = std::move(NewCentroids);
  ResidualIqr = NewResidualIqr;
  if (Scaler && StagedScaler.isFitted())
    *Scaler = std::move(StagedScaler);
  return true;
}
