//===- core/CalibrationStore.h - Columnar calibration store ------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The calibration store behind the PROM detectors: offline calibration-set
/// processing (paper Sec. 4.1.1), the adaptive per-test selection and
/// weighting scheme (Sec. 5.1.2), and the class-conditional p-values of
/// Eq. (2).
///
/// At design time PROM applies the trained model to every calibration
/// sample and keeps its feature embedding plus one nonconformity score per
/// committee expert. The store holds each of those values once, as
/// columns: a contiguous embedding block, a label column, and one score
/// column per expert. Entries handed to add() or appendEntries() wait in a
/// staging buffer until finalize() or refinalize() moves them onto the
/// columns.
///
/// Everything else is derived. Once the store holds
/// ClusterIndexPolicy::MinEntries rows (and the policy enables it), one
/// lossless support::ClusterIndex covers its leading rows. nearestRows()
/// is the store's one nearest-rows query: support::ClusterIndex::walk(),
/// the one pruned walk, over the embedding block, which also scans the
/// rows the index does not cover exactly. A small selection runs its
/// pruned scan through it, and so does the regressor's k-NN ground truth.
/// Every other selection runs one exact kernel scan over the embedding
/// block, and the Eq. (2) p-values fold the canonical accumulation blocks
/// (see CalibrationAccumBlock) in ascending order. Verdicts are identical for
/// every thread count; the bit-identity suites check the engine against a
/// serial oracle that re-derives selection, weights and p-values from the
/// paper (tests/SerialOracle.h), and the library ships only the engine.
///
/// The store also supports *online refresh*: appendEntries() stages
/// freshly relabeled deployment samples, and refinalize() folds them into
/// the columns and the derived state, evicting oldest-first beyond
/// maxEntries(). Verdicts after append + refinalize are bit-identical to
/// finalizing a new store on the surviving entries (test-enforced by
/// RefreshTest; see docs/ARCHITECTURE.md).
///
//===----------------------------------------------------------------------===//

#ifndef PROM_CORE_CALIBRATIONSTORE_H
#define PROM_CORE_CALIBRATIONSTORE_H

#include "core/PromConfig.h"
#include "support/ClusterIndex.h"
#include "support/FeatureMatrix.h"
#include "support/Kernels.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace prom {

/// Entries per canonical accumulation block of the Eq. (2) sums.
///
/// The Eq. (2) pass accumulates the weighted counts per fixed-size block of
/// calibration entries — sequential in ascending entry order inside a
/// block — and adds each block partial to the totals in ascending block
/// order. Block boundaries depend only on the entry position, so the
/// floating-point result is a pure function of the calibration set; sets
/// smaller than one block reduce to the plain sequential sum.
constexpr size_t CalibrationAccumBlock = 256;

/// One calibration sample as handed to the store. The store keeps only the
/// values (in its columns) once finalize()/refinalize() has folded it in.
struct CalibrationEntry {
  std::vector<double> Embed; ///< Model feature embedding.
  int Label = 0;             ///< True class (or cluster pseudo-label).
  std::vector<double> Scores; ///< One nonconformity score per expert.
};

/// Reusable per-lane working state of the batched assessment engine: one
/// instance per ThreadPool lane, recycled across the samples of a batch so
/// the hot path performs no per-sample allocation.
///
/// A selection is one cut over Dists. Entries are ordered by the key
/// (IEEE bit pattern of the squared distance, entry id), which for the
/// non-negative distances the kernel returns is the (distance, id) order;
/// entry I is selected when its key is at most the cut, the Keep-th
/// smallest key (a full selection's cut admits every key). The
/// Eq. (1) weight of a selected entry is a pure function of its distance
/// and the four parameters below, so the p-value fold
/// (support::kernels::foldBlock) computes it inline and nothing stores it.
/// The fold's sums are label-major: row L holds one lane per expert,
/// padded to foldStride(numExperts()) lanes.
struct AssessmentScratch {
  /// Squared distance per live entry. The exact scan fills every slot; the
  /// pruned scan writes the Keep selected entries and, elsewhere, the NaN
  /// whose bits are all ones (the largest key, so never selected).
  std::vector<double> Dists;
  size_t Keep = 0; ///< Number of selected entries.
  /// The cut: the Keep-th smallest (distance bits, entry id) key.
  support::kernels::SelectKey Cut;
  bool Weighted = false; ///< Eq. (1) applies; false gives every weight 1.
  double Offset = 0.0;   ///< Closest distance under WeightedCount, else 0.
  double Tau = 1.0;      ///< Effective Eq. (1) temperature.
  int NormPower = 1;     ///< Eq. (1) norm power (1 or 2).

  /// True when entry \p I's key is at most the cut.
  bool selected(size_t I) const {
    return support::kernels::SelectKey(support::kernels::keyBits(Dists[I]),
                                       static_cast<uint32_t>(I)) <= Cut;
  }

  /// (distance bits, entry id) keys of the last call: the pivot bucket of
  /// the exact cut (empty when the cut needs none), or the K keys of a
  /// nearestRows() query (the Keep selected keys of the pruned scan).
  std::vector<support::kernels::SelectKey> Candidates;
  /// Per-expert score-column pointers of the fused pass.
  std::vector<const double *> Columns;
  /// Per expert: 1 when it resolved to ScoreScaling (see foldBlock()).
  std::vector<uint8_t> Scaling;
  /// The test scores, label-major like the sums.
  std::vector<double> TestScores;
  /// Weighted ">= test score" sums of the fused pass, label-major.
  std::vector<double> GreaterEq;
  /// Weighted totals of the fused pass, label-major.
  std::vector<double> Total;
  std::vector<double> Counts; ///< Per-label selected counts.
  /// GreaterEq of the block being folded, laid out like GreaterEq: the
  /// canonical block fold zeroes it per block and adds it to GreaterEq.
  std::vector<double> BlockGreaterEq;
  /// Total of the block being folded, laid out like Total.
  std::vector<double> BlockTotal;
  /// Counts of the block being folded.
  std::vector<double> BlockCounts;
  /// Counters of the last nearestRows() query (the pruned scan): RowsTotal
  /// is the store size, ListsTotal the lists of the store's index. A
  /// selection the exact scan served leaves them zero, so ListsTotal != 0
  /// marks a pruned selection (a valid index holds at least one list).
  support::ClusterScanStats Pruned;
  /// Pruned scan: the buffers of support::ClusterIndex::walk().
  support::ClusterIndex::WalkScratch Walk;
};

/// How many of \p N calibration entries the Sec. 5.1.2 policy selects
/// (everything below Cfg.SelectAllBelow, else the SelectFraction rounded
/// share, at least 1).
size_t selectionKeepCount(size_t N, const PromConfig &Cfg);

/// Gaussian confidence of a prediction-set size (Sec. 5.3):
/// exp(-(Size-1)^2 / (2 c^2)). Size 1 gives 1.0; empty or ambiguous sets
/// give lower confidence.
double confidenceFromSetSize(size_t Size, double C);

/// Policy governing the store's cluster index of the pruned distance scan
/// (see support/ClusterIndex.h for the losslessness contract). The
/// store-level default is *disabled*; detectors install the
/// config-derived policy at calibrate / snapshot-load time.
struct ClusterIndexPolicy {
  bool Enabled = false;        ///< Build and use the index at all.
  size_t NumCentroids = 0;     ///< Index lists; 0 = ~sqrt(covered rows).
  /// Smaller stores stay unindexed.
  size_t MinEntries = support::ClusterIndexMinEntries;
  /// Unindexed-tail share that forces a rebuild: entries appended by
  /// refinalize() leave an index covering only a prefix, and the pruned
  /// scan reads the tail exactly until it outgrows this share.
  double MaxStaleFraction = 0.25;
  /// Largest Keep/N the pruned scan serves; larger selections fall back to
  /// the exact scan, which is faster there (measured: pruning a 50%
  /// selection scans ~90% of the rows and loses 10-30%, while 10%/2%
  /// selections win 1.7x/6.5x at 10^6 entries).
  double MaxSelectFraction = 0.25;
  uint64_t Seed = 0x5851F42D4C957F2Dull; ///< Clustering seed base.

  /// The classifier's policy under \p Cfg: the defaults above, enabled
  /// only when the config's own selection can route to the index
  /// (SelectFraction <= MaxSelectFraction); at the default 50% selection
  /// its index would be built and never read. (The regressor's k-NN reads
  /// it at any selection.) The pruned scan is lossless, so this decides
  /// cost, never a verdict.
  static ClusterIndexPolicy fromConfig(const PromConfig &Cfg) {
    ClusterIndexPolicy P;
    P.Enabled = Cfg.SelectFraction <= P.MaxSelectFraction;
    return P;
  }
};

/// Columnar calibration store; see the file comment for the layout and the
/// exactness contract.
class CalibrationStore {
public:
  /// Reserves staging room for \p N entries.
  void reserve(size_t N) { Staged.reserve(N); }
  /// Stages one calibration entry for the next finalize().
  void add(CalibrationEntry Entry) { Staged.push_back(std::move(Entry)); }

  /// Moves every staged entry onto the columns, measures the distance
  /// scale, and rebuilds the cluster index under the policy in force.
  void finalize();

  /// finalize(), ignoring its argument (the store has no shards). Its only
  /// caller is perfbench/Bench.cpp:709, Store.finalize(Engine.numShards());
  /// delete it with that call.
  [[deprecated("the store has no shards: call finalize()")]] void
  finalize(size_t) {
    finalize();
  }

  //===--------------------------------------------------------------------===//
  // Online refresh (see the file comment for the exactness contract)
  //===--------------------------------------------------------------------===//

  /// Stages relabeled entries for the next refinalize(). Staged entries
  /// are invisible to the engine entry points until then, so a clone can
  /// be staged and refreshed while the original keeps serving.
  void appendEntries(std::vector<CalibrationEntry> NewEntries);

  /// Upper bound on live entries under continuous refresh; refinalize()
  /// evicts oldest-first beyond it. 0 (the default) means unbounded.
  void setMaxEntries(size_t N) { MaxEntries = N; }
  /// The live-entry bound (0 = unbounded).
  size_t maxEntries() const { return MaxEntries; }

  /// Entries staged by add()/appendEntries() but not yet folded in.
  size_t stagedEntries() const { return Staged.size(); }

  /// Folds the staged entries into the store incrementally: oldest-first
  /// eviction down to maxEntries(), appended embedding rows, labels and
  /// score columns. Without eviction the cluster index keeps covering its
  /// rows and the appended tail is scanned exactly, until the tail
  /// outgrows ClusterIndexPolicy::MaxStaleFraction and the index is
  /// rebuilt. Eviction shifts every row, so it clears and rebuilds the
  /// index. Either way none of the model forwards a detector-level
  /// recalibration would redo are needed.
  ///
  /// Verdicts afterwards are bit-identical to refinalizeFull() — and to a
  /// brand-new store finalized on the surviving entries — for every thread
  /// count.
  void refinalize();

  /// Reference path for the same staged entries and eviction policy: a
  /// from-scratch finalize() on the surviving union. Used by the
  /// bit-identity tests and the refresh benchmark as the full-rebuild
  /// baseline.
  void refinalizeFull();

  /// Total entries, live and staged.
  size_t size() const { return Labels.size() + Staged.size(); }
  bool empty() const { return size() == 0; } ///< No entries yet.
  /// Experts scored per entry (0 when empty).
  size_t numExperts() const;
  /// Embedding dimensionality (0 before finalize()).
  size_t embedDim() const { return Embeds.dim(); }
  /// Distance scale of the set: the median nearest-neighbour distance over
  /// the first min(N, 256) entries (0 before finalize()). Required for
  /// PromConfig::AutoTau.
  double medianNNDist() const { return MedianNNDist; }

  //===--------------------------------------------------------------------===//
  // Columns (live entries, in insertion order)
  //===--------------------------------------------------------------------===//

  /// The contiguous row-major embedding block the distance scans stream;
  /// row I is entry I's embedding.
  const support::FeatureMatrix &embedMatrix() const { return Embeds; }
  /// Label of live entry \p I.
  int label(size_t I) const { return Labels[I]; }
  /// Contiguous per-expert score column (one value per live entry).
  const std::vector<double> &scoreColumn(size_t Expert) const {
    return ScoreColumns[Expert];
  }
  /// Installs the score columns of a finalized store whose entries were
  /// added without scores: \p Columns[E][I] is expert E's score of live
  /// entry I (the regressor scores its entries with nearestRows()).
  void setScoreColumns(std::vector<std::vector<double>> Columns);

  /// Estimated heap footprint of the store: the columns, the staging
  /// buffer, and the cluster index. The fleet registry meters a tenant's
  /// detector with this when enforcing its LRU memory budget, so it only
  /// needs to be proportional, not allocator-exact.
  size_t memoryBytes() const;

  //===--------------------------------------------------------------------===//
  // Cluster-pruned distance scan (lossless; support/ClusterIndex.h)
  //===--------------------------------------------------------------------===//

  /// Installs \p Policy and immediately rebuilds or drops the cluster index
  /// to match. The index is *derived* state: snapshots never persist it,
  /// loaders re-install the policy before finalize().
  void setIndexPolicy(const ClusterIndexPolicy &Policy);

  /// The cluster-index policy currently in force.
  const ClusterIndexPolicy &indexPolicy() const { return IndexPolicy; }

  /// True when the store carries a valid cluster index.
  bool indexed() const { return Index.valid(); }

  /// Entries the cluster index does not cover: every entry without an
  /// index, else the stale tail appended since it was built. The pruned
  /// scan always scans these exactly, which is what keeps staleness
  /// lossless.
  size_t unindexedEntries() const {
    return Labels.size() - Index.coveredRows();
  }

  /// The nearest-rows query: leaves in Scratch.Candidates the
  /// (squared-distance bits, entry id) keys of the \p K live entries
  /// nearest to \p Query (K clamped to the entry count), the K-th smallest
  /// at position K - 1, and the scan counters in Scratch.Pruned. One
  /// support::ClusterIndex::walk() over the embedding block answers it and
  /// scans the rows the index does not cover exactly, so the keys are the
  /// exact scan's.
  void nearestRows(const double *Query, size_t K,
                   AssessmentScratch &Scratch) const;

  //===--------------------------------------------------------------------===//
  // Assessment engine
  //
  // The adaptive selection (Sec. 5.1.2) with its Eq. (1) weights, and the
  // Eq. (2) p-values of every expert. Both passes after the distance scan
  // are dispatched support/Kernels entry points (scalar reference or
  // AVX2, bit-identical): the selection is one cut over the scanned
  // distances, found by an O(N) bit-pattern histogram instead of a full
  // sort (kernels::selectionCut); the p-value pass (kernels::foldBlock)
  // compacts each block's selected entries, computes their Eq. (1)
  // weights in one pass, and scores every expert at once, one vector lane
  // per expert.
  //===--------------------------------------------------------------------===//

  /// Selection for one test embedding (length embedDim()): fills
  /// \p Scratch with the squared distances, the cut and the Eq. (1)
  /// parameters (see AssessmentScratch). The selection keeps
  /// selectionKeepCount() entries, the smallest by (squared distance, id).
  /// Under WeightedCount the Offset is the closest entry's distance, so
  /// weights are relative to the nearest evidence; otherwise it is 0. One
  /// exact kernel scan fills every distance — or, when the store carries a
  /// cluster index and a small proper-subset selection is in force, the
  /// cut comes from a nearestRows() query for the Keep nearest entries
  /// instead (Scratch.Pruned carries its pruning counters, all zero when
  /// the exact scan served the call).
  void selectForAssessment(const double *TestEmbed, const PromConfig &Cfg,
                           AssessmentScratch &Scratch) const;

  /// Class-conditional p-values of every expert in one fused pass.
  ///
  /// \param Scratch selection state from selectForAssessment() on this
  ///        store (one distance per live entry).
  /// \param TestScores numExperts() x NumLabels row-major score block.
  /// \param NumLabels labels scored per expert.
  /// \param Cfg weighting and smoothing knobs.
  /// \param DiscreteFlags per-expert ClassificationScorer::isDiscrete()
  ///        (may be null when no expert is discrete).
  /// \param PValsOut numExperts() x NumLabels row-major output block.
  ///
  /// For label c, over the selected entries with label c: a ScoreScaling
  /// expert adds 1 to Tot_c, and to GE_c when w_i * a_i >= TestScores[c];
  /// any other expert adds its weight w_i (1 under None) to Tot_c, and to
  /// GE_c when a_i >= TestScores[c]. A discrete expert under ScoreScaling
  /// counts weights instead, since any shrink w_i < 1 flips every exact
  /// tie against the test sample. Then p_c = GE_c / Tot_c, or with
  /// Cfg.SmoothedPValues p_c = (GE_c + m) / (Tot_c + m), where m = Tot_c /
  /// n_c is the label's mean selected weight (1 when every addend is 1).
  /// A label with no selected entry gets p = 0 (no conformity evidence),
  /// and so does one whose Tot_c is 0, smoothed or not: its selected
  /// weights all rounded to +0 (Eq. (1) exponent past 746, e.g. every
  /// entry of the label far beyond the closest one under WeightedCount).
  /// Labels outside [0, NumLabels) are skipped.
  ///
  /// Every configuration runs the canonical block fold (one
  /// kernels::foldBlock call per block, added to the totals in ascending
  /// block order), testing each entry against the cut and weighting the
  /// selected ones inline.
  void pValuesAllExperts(AssessmentScratch &Scratch, const double *TestScores,
                         size_t NumLabels, const PromConfig &Cfg,
                         const uint8_t *DiscreteFlags,
                         double *PValsOut) const;

private:
  /// Moves every staged entry onto the end of the columns and empties the
  /// staging buffer.
  void foldStaged();

  /// Drops the \p Count oldest entries: live ones first, then staged ones.
  /// Derived state is left for the caller to rebuild.
  void dropOldest(size_t Count);

  /// Entries refinalize() must evict to honour maxEntries().
  size_t evictionCount() const;

  /// The distance-scale measurement (median nearest-neighbour distance
  /// over the first min(N, 256) entries), shared by finalize() and
  /// refinalize() so both land on identical bits.
  void computeMedianNNDist();

  /// Reconciles the cluster index with the policy and the live entries:
  /// drops it below MinEntries or when the policy is disabled, builds it
  /// when missing, and rebuilds it once its stale tail outgrew
  /// MaxStaleFraction. \p Force rebuilds in any case (the entries moved or
  /// the policy changed).
  void updateIndex(bool Force);

  /// Entries added but not yet folded into the columns.
  std::vector<CalibrationEntry> Staged;

  /// Live entries x dim embedding block (padded stride).
  support::FeatureMatrix Embeds;
  std::vector<int> Labels; ///< Live entry labels.
  /// ScoreColumns[E][I] = expert E's score of live entry I.
  std::vector<std::vector<double>> ScoreColumns;
  double MedianNNDist = 0.0;

  /// Cluster index over the leading live rows; cleared (no lists) while
  /// the store is too small or the policy is disabled.
  support::ClusterIndex Index;
  /// Policy in force; see setIndexPolicy().
  ClusterIndexPolicy IndexPolicy;
  size_t MaxEntries = 0; ///< Live-entry bound (0 = unbounded).
};

} // namespace prom

#endif // PROM_CORE_CALIBRATIONSTORE_H
