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
/// Everything else is derived per shard. The entries are partitioned into
/// K contiguous, accumulation-block-aligned shards (K = 1 is the unsharded
/// case). A shard may carry a lossless cluster index for the pruned
/// distance scan, built only when the ClusterIndexPolicy enables it. The
/// engine entry points fan out shard-parallel over support::ThreadPool:
///
///  * the squared-distance scan of selectForAssessment() fills disjoint
///    slices of the distance array per shard (per-entry independent, so
///    the values cannot depend on the partitioning);
///  * the Eq. (2) p-values have each shard fold its own canonical
///    accumulation blocks (see CalibrationAccumBlock) into per-block
///    partials that are merged in ascending block order on one thread.
///
/// Both merges reproduce the same floating-point arithmetic bit for bit,
/// so verdicts are identical for every shard count and every thread
/// count. select() and pValues() are the serial reference: a closest-first
/// distance sort and one linear scan per expert over the same columns.
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

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace prom {

/// Entries per canonical accumulation block of the Eq. (2) sums.
///
/// Every p-value path (the serial reference, the fused batch engine, and
/// the per-shard folds) accumulates the weighted counts per fixed-size
/// block of calibration entries — sequential in ascending entry order
/// inside a block — and folds the block partials in ascending block order.
/// Block boundaries depend only on the calibration set size, never on the
/// shard count or thread count, so the floating-point result is
/// bit-identical no matter how the work is partitioned; sets smaller than
/// one block reduce to the plain sequential sum.
constexpr size_t CalibrationAccumBlock = 256;

/// One calibration sample as handed to the store. The store keeps only the
/// values (in its columns) once finalize()/refinalize() has folded it in.
struct CalibrationEntry {
  std::vector<double> Embed; ///< Model feature embedding.
  int Label = 0;             ///< True class (or cluster pseudo-label).
  std::vector<double> Scores; ///< One nonconformity score per expert.
};

/// The subset of calibration samples chosen for one test input.
struct CalibrationSelection {
  std::vector<size_t> Indices;  ///< Entries, closest first.
  std::vector<double> Weights;  ///< Eq. (1) weight per selected entry.
};

/// Raw IEEE-754 bit pattern of \p V: the distance half of a selection key
/// (see AssessmentScratch).
inline uint64_t keyBits(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

/// Reusable per-lane working state of the batched assessment engine: one
/// instance per ThreadPool lane, recycled across the samples of a batch so
/// the hot path performs no per-sample allocation.
///
/// A selection is one cut over Dists. Entries are ordered by the key
/// (IEEE bit pattern of the squared distance, entry id), which for the
/// non-negative distances the kernel returns is select()'s (distance,
/// index) order; entry I is selected when its key is at most the cut, the
/// Keep-th smallest key (a full selection's cut admits every key). The
/// Eq. (1) weight of a selected entry is a pure function of its distance,
/// so the p-value fold computes it inline.
struct AssessmentScratch {
  /// Squared distance per live entry. The exact scan fills every slot; the
  /// pruned scan writes the Keep selected entries and +inf elsewhere.
  std::vector<double> Dists;
  size_t Keep = 0; ///< Number of selected entries.
  /// The cut: the Keep-th smallest (distance bits, entry id) key.
  std::pair<uint64_t, uint32_t> Cut;
  bool Weighted = false; ///< Eq. (1) applies; false gives every weight 1.
  double Offset = 0.0;   ///< Closest distance under WeightedCount, else 0.
  double Tau = 1.0;      ///< Effective Eq. (1) temperature.
  int NormPower = 1;     ///< Eq. (1) norm power (1 or 2).

  /// True when entry \p I's key is at most the cut.
  bool selected(size_t I) const {
    return std::make_pair(keyBits(Dists[I]), static_cast<uint32_t>(I)) <= Cut;
  }
  /// Eq. (1) weight of selected entry \p I, the same expression select()
  /// attaches to it.
  double weight(size_t I) const;

  /// (distance bits, entry id) keys of the last selection: the pivot
  /// bucket of the exact cut (empty when the cut needs none), or the
  /// candidates of the pruned scan (the first Keep are the selection).
  std::vector<std::pair<uint64_t, uint32_t>> Candidates;
  /// Per-(expert, label) weighted ">= test score" sums of the fused pass.
  std::vector<double> GreaterEq;
  /// Per-(expert, label) weighted totals of the fused pass.
  std::vector<double> Total;
  std::vector<double> Counts; ///< Per-label selected counts.
  /// Per-expert resolved weight modes of the fused pass.
  std::vector<CalibrationWeightMode> Modes;
  /// Per-expert score-column pointers of the fused pass.
  std::vector<const double *> Columns;
  bool UniformModes = true; ///< Every expert resolved to the same mode.
  /// Block-partial GreaterEq of the canonical block fold: one stripe per
  /// block, filled concurrently.
  std::vector<double> BlockGreaterEq;
  /// Block-partial Total, laid out like BlockGreaterEq.
  std::vector<double> BlockTotal;
  /// Block-partial Counts, one NumLabels stripe per block.
  std::vector<double> BlockCounts;
  /// Counters of the last selection's cluster-pruned scan: RowsTotal is
  /// the store size, ListsTotal the lists across all shard indexes. All
  /// zero when the exact scan served it, so ListsTotal != 0 marks a
  /// pruned selection (every valid index holds at least one list).
  support::ClusterScanStats Pruned;
  /// Pruned scan: (query-centroid distSq, (shard << 32) | list) ranking
  /// pairs.
  std::vector<std::pair<double, uint64_t>> ListOrder;
  /// Pruned scan: concatenated query-centroid distances of every shard
  /// index.
  std::vector<double> CentroidDists;
  /// Pruned scan: per-list kernel output staging area.
  std::vector<double> RowScratch;
};

/// How many of \p N calibration entries the Sec. 5.1.2 policy selects
/// (everything below Cfg.SelectAllBelow, else the SelectFraction rounded
/// share, at least 1).
size_t selectionKeepCount(size_t N, const PromConfig &Cfg);

/// Gaussian confidence of a prediction-set size (Sec. 5.3):
/// exp(-(Size-1)^2 / (2 c^2)). Size 1 gives 1.0; empty or ambiguous sets
/// give lower confidence.
double confidenceFromSetSize(size_t Size, double C);

/// Policy governing the per-shard cluster indexes of the pruned distance
/// scan (see support/ClusterIndex.h for the losslessness contract). The
/// store-level default is *disabled*; detectors install the
/// config-derived policy at calibrate / snapshot-load time.
struct ClusterIndexPolicy {
  bool Enabled = false;        ///< Build and use shard indexes at all.
  size_t NumCentroids = 0;     ///< Per-shard lists; 0 = ~sqrt(shard rows).
  size_t MinEntries = 8192;    ///< Smaller shards stay unindexed.
  double MaxStaleFraction = 0.25; ///< Unindexed-tail share forcing rebuild.
  /// Largest Keep/N the pruned scan serves; larger selections fall back to
  /// the exact scan, which is faster there (the pruned path must visit at
  /// least the kept rows anyway).
  double MaxSelectFraction = 0.25;
  uint64_t Seed = 0x5851F42D4C957F2Dull; ///< Clustering seed base.

  /// The policy the PromConfig knobs describe. Indexes are enabled only
  /// when the config's own selection can route to them (SelectFraction <=
  /// ClusterIndexMaxSelectFraction): at the default 50% selection an index
  /// would be built and never read. The pruned scan is lossless, so this
  /// decides cost, never a verdict.
  static ClusterIndexPolicy fromConfig(const PromConfig &Cfg) {
    ClusterIndexPolicy P;
    P.Enabled = Cfg.ClusterIndex &&
                Cfg.SelectFraction <= Cfg.ClusterIndexMaxSelectFraction;
    P.NumCentroids = Cfg.ClusterIndexCentroids;
    P.MinEntries = Cfg.ClusterIndexMinEntries;
    P.MaxStaleFraction = Cfg.ClusterIndexMaxStale;
    P.MaxSelectFraction = Cfg.ClusterIndexMaxSelectFraction;
    return P;
  }
};

/// Columnar, shardable calibration store; see the file comment for the
/// layout and the exactness contract.
class CalibrationStore {
public:
  /// Reserves staging room for \p N entries.
  void reserve(size_t N) { Staged.reserve(N); }
  /// Stages one calibration entry for the next finalize().
  void add(CalibrationEntry Entry) { Staged.push_back(std::move(Entry)); }

  /// Moves every staged entry onto the columns, measures the distance
  /// scale, and partitions the entries into \p NumShards block-aligned
  /// shards with their derived indexes. Sets with fewer accumulation
  /// blocks than requested shards get one shard per block.
  void finalize(size_t NumShards = 1);

  /// Re-partitions an already-finalized store into \p NumShards shards
  /// without touching the entries — verdicts are unchanged by contract, so
  /// a serving process can re-shard to its core count at load time.
  void reshard(size_t NumShards);

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
  /// score columns. Without eviction the new entries extend the last shard
  /// and its cluster index is reconciled (the partition rebalances when
  /// that shard drifts past 2x the even share). Eviction shifts every
  /// entry's block, so it rebuilds the shard partition and its indexes.
  /// Either way none of the model forwards a detector-level recalibration
  /// would redo are needed.
  ///
  /// Verdicts afterwards are bit-identical to refinalizeFull() — and to a
  /// brand-new store finalized on the surviving entries — for every shard
  /// and thread count.
  void refinalize();

  /// Reference path for the same staged entries and eviction policy: a
  /// from-scratch finalize() on the surviving union. Used by the
  /// bit-identity tests and the refresh benchmark as the full-rebuild
  /// baseline.
  void refinalizeFull();

  size_t numShards() const { return Shards.size(); } ///< Built shards.
  /// Shard count requested by the last finalize()/reshard() — what
  /// refinalize() rebalances toward as the store grows. numShards()
  /// reports the built partition, which clamps to the accumulation-block
  /// count; snapshots persist this value so a restored small store still
  /// scales back out under online refresh.
  size_t targetShards() const { return TargetShards; }
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

  /// Estimated heap footprint of the store: the columns, the staging
  /// buffer, and every per-shard cluster index. The fleet
  /// registry meters a tenant's detector with this when enforcing its LRU
  /// memory budget, so it only needs to be proportional, not
  /// allocator-exact.
  size_t memoryBytes() const;

  //===--------------------------------------------------------------------===//
  // Cluster-pruned distance scan (lossless; support/ClusterIndex.h)
  //===--------------------------------------------------------------------===//

  /// Installs \p Policy and immediately rebuilds or drops the per-shard
  /// indexes to match. Indexes are *derived* state: snapshots never
  /// persist them, loaders re-install the policy before finalize().
  void setIndexPolicy(const ClusterIndexPolicy &Policy);

  /// The per-shard cluster-index policy currently in force.
  const ClusterIndexPolicy &indexPolicy() const { return IndexPolicy; }

  /// Shards currently carrying a valid cluster index.
  size_t indexedShards() const;

  /// Entries not covered by any valid shard index — unindexed shards plus
  /// the stale tails appended since each index was built. The pruned scan
  /// always scans these exactly, which is what keeps staleness lossless.
  size_t unindexedEntries() const;

  /// Precomputed per-batch state of the cluster-pruned selection: one
  /// query-to-centroid squared-distance block per indexed shard, computed
  /// with blocked l2SqMxN passes over the whole query batch instead of one
  /// l2Sq1xN per (query, shard) — the centroid-ranking cost the per-query
  /// path repays on every call. Block row Q carries the bits
  /// centroidDistances(query Q) would produce (the MxN kernel contract),
  /// so selections served from the batch are bit-identical to the
  /// per-query pruned path. Also collects each query's pruning counters
  /// (every selection writes only its own PerQuery slot, so the aggregate
  /// is deterministic at any thread count).
  struct BatchPrunedScan {
    /// Pruned routing holds for this (store, config) and the blocks below
    /// are filled; when false, selectForAssessment() ignores the scan.
    bool Active = false;
    size_t NumQueries = 0; ///< Rows of the prepared query block.
    /// The centroid-distance block of one indexed shard.
    struct ShardBlock {
      size_t Shard = 0;    ///< Index into the store's shard array.
      size_t NumLists = 0; ///< Lists of that shard's cluster index.
      /// NumQueries x NumLists squared distances, row-major by query.
      std::vector<double> DistSq;
    };
    /// One block per indexed shard, ascending shard order (matching the
    /// per-query path's shard walk).
    std::vector<ShardBlock> Blocks;
    /// Per-query counters of the selections served from this batch; slot
    /// Q is written by the selection of query Q (all zero when the exact
    /// path served it).
    std::vector<support::ClusterScanStats> PerQuery;
    /// Canonical ascending-query fold of PerQuery — the batch's aggregate
    /// lists/rows-scanned counters, identical at any thread count.
    support::ClusterScanStats aggregated() const;
  };

  /// Fills \p Scan for a batch of \p NumQueries query embeddings (rows of
  /// stride \p QueryStride starting at \p Queries) under \p Cfg. When the
  /// pruned routing would not fire (policy disabled, no indexed shards, or
  /// the selection is not a small proper subset), Scan.Active stays false
  /// and per-query selection proceeds exactly as without a batch. The
  /// per-shard blocks fan out over the ThreadPool in deterministic
  /// disjoint query chunks.
  void prepareBatchPrunedScan(const double *Queries, size_t NumQueries,
                              size_t QueryStride, const PromConfig &Cfg,
                              BatchPrunedScan &Scan) const;

  //===--------------------------------------------------------------------===//
  // Batched assessment engine
  //
  // The engine entry points compute the same selection and Eq. (2)
  // p-values as select()/pValues() — bit-identically — but without the
  // closest-first ordering contract. The selection is one cut over the
  // scanned distances, found by an O(N) bit-pattern histogram instead of
  // a full sort; the p-value pass tests membership against the cut,
  // computes each selected entry's Eq. (1) weight inline, and scores
  // every expert in a single pass over the calibration entries.
  //===--------------------------------------------------------------------===//

  /// Selection for one test embedding (length embedDim()): fills
  /// \p Scratch with the squared distances, the cut and the Eq. (1)
  /// parameters (see AssessmentScratch); the selected set and every
  /// weight equal select()'s, for every shard count. The distance scan
  /// fans out over the shards when the store is sharded and the pool is
  /// not already saturated — or, when the index policy built cluster
  /// indexes and a small proper-subset selection is in force, runs the
  /// lossless pruned scan instead (Scratch.Pruned carries its pruning
  /// counters, all zero when the exact scan served the call).
  ///
  /// \p Batch, when non-null and Active, must have been prepared by
  /// prepareBatchPrunedScan() on this store with the same config;
  /// \p QueryIndex names this query's row of the prepared block, and the
  /// pruned scan reads its centroid distances from the block instead of
  /// recomputing them (same bits, so the selection is unchanged). The
  /// query's pruning counters land in Batch->PerQuery[QueryIndex].
  void selectForAssessment(const double *TestEmbed, const PromConfig &Cfg,
                           AssessmentScratch &Scratch,
                           BatchPrunedScan *Batch = nullptr,
                           size_t QueryIndex = 0) const;

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
  /// Every configuration runs the canonical block fold, testing each
  /// entry against the cut and weighting the selected ones inline, so the
  /// result is pValues()'s bit for bit.
  void pValuesAllExperts(AssessmentScratch &Scratch, const double *TestScores,
                         size_t NumLabels, const PromConfig &Cfg,
                         const uint8_t *DiscreteFlags,
                         double *PValsOut) const;

  //===--------------------------------------------------------------------===//
  // Serial reference
  //===--------------------------------------------------------------------===//

  /// Adaptive subset selection for \p TestEmbed (Sec. 5.1.2): sorts the
  /// entries by Euclidean distance, keeps the closest Cfg.SelectFraction
  /// (all when the set is smaller than Cfg.SelectAllBelow), and attaches
  /// Eq. (1) weights (1.0 when weighting is disabled).
  CalibrationSelection select(const std::vector<double> &TestEmbed,
                              const PromConfig &Cfg) const;

  /// Class-conditional p-values (Eq. 2) for every label in [0, NumLabels).
  ///
  /// For label c: p_c = #{ i in Sel : y_i = c and w_i * a_i^(s) >=
  /// TestScores[c] } / #{ i in Sel : y_i = c }, with +1 smoothing on both
  /// counts when Cfg.SmoothedPValues. Labels with no selected calibration
  /// sample get p = 0 (no conformity evidence). One linear scan over the
  /// score column, folded block by block like the engine.
  ///
  /// \param Sel the selection from select().
  /// \param Expert which nonconformity function's stored scores to use.
  /// \param TestScores the test sample's nonconformity score per label.
  /// \param Cfg weighting and smoothing knobs.
  /// \param DiscreteScores true when the expert's scores are tie-heavy
  ///        (e.g. TopK ranks); the ScoreScaling mode then falls back to
  ///        weighted counting, since any multiplicative shrink flips every
  ///        exact tie against the test sample.
  std::vector<double> pValues(const CalibrationSelection &Sel, size_t Expert,
                              const std::vector<double> &TestScores,
                              const PromConfig &Cfg,
                              bool DiscreteScores = false) const;

private:
  /// One contiguous, block-aligned slice of the entries with its derived
  /// cluster index.
  struct Shard {
    size_t Begin = 0; ///< First entry (multiple of CalibrationAccumBlock).
    size_t End = 0;   ///< One past the last entry.
    /// Cluster index over [Begin, End); invalid (cleared) when the shard
    /// is too small or the policy is disabled.
    support::ClusterIndex Index;
  };

  /// Moves every staged entry onto the end of the columns and empties the
  /// staging buffer.
  void foldStaged();

  /// Drops the \p Count oldest entries: live ones first, then staged ones.
  /// Derived state is left for the caller to rebuild.
  void dropOldest(size_t Count);

  /// Entries refinalize() must evict to honour maxEntries().
  size_t evictionCount() const;

  /// Number of canonical accumulation blocks covering the live entries.
  size_t numAccumBlocks() const {
    return (Labels.size() + CalibrationAccumBlock - 1) /
           CalibrationAccumBlock;
  }

  /// The distance-scale measurement (median nearest-neighbour distance
  /// over the first min(N, 256) entries), shared by finalize() and
  /// refinalize() so both land on identical bits.
  void computeMedianNNDist();

  void buildShards(size_t NumShards);

  /// Reconciles every shard's cluster index with the policy and the
  /// current partition: builds missing indexes on shards past MinEntries,
  /// rebuilds indexes whose stale tail outgrew MaxStaleFraction, drops
  /// the rest. \p Force clears first (policy changed).
  void updateShardIndexes(bool Force);

  /// The decide-and-build step of updateShardIndexes() for \p Sh.
  void updateShardIndex(Shard &Sh);

  /// The shared routing predicate of the pruned scan: true when the policy
  /// is enabled, at least one shard is indexed, and a selection of \p Keep
  /// entries is a small proper subset (MaxSelectFraction).
  /// prepareBatchPrunedScan() and selectForAssessment() both route through
  /// this, so a prepared batch can never disagree with the per-query
  /// decision.
  bool prunedRouting(size_t Keep) const;

  /// The cluster-pruned selection path: exact scan of every unindexed
  /// row, bound-pruned scan of the indexed lists, then the cut at the
  /// Scratch.Keep-th smallest candidate; returns the smallest squared
  /// distance. Bit-identical to the exact path. \p Batch, when non-null,
  /// supplies the precomputed centroid-distance rows of query
  /// \p QueryIndex (see selectForAssessment()).
  double selectForAssessmentPruned(const double *TestEmbed,
                                   AssessmentScratch &Scratch,
                                   const BatchPrunedScan *Batch,
                                   size_t QueryIndex) const;

  /// Resolves every expert's effective weight mode and score column into
  /// \p Scratch (Modes / Columns / UniformModes).
  void resolveExpertModes(const PromConfig &Cfg, const uint8_t *DiscreteFlags,
                          AssessmentScratch &Scratch) const;

  /// Accumulates the Eq. (2) partial sums of entries [Begin, End) into the
  /// caller-zeroed \p GreaterEq / \p Total (both numExperts() x NumLabels)
  /// and \p Counts (NumLabels) buffers, using the selection and resolved
  /// modes in \p Scratch. This is the canonical per-block accumulation the
  /// engine's p-value fold merges.
  void accumulateBlock(const AssessmentScratch &Scratch,
                       const double *TestScores, size_t NumLabels,
                       size_t Begin, size_t End, double *GreaterEq,
                       double *Total, double *Counts) const;

  /// Entries added but not yet folded into the columns.
  std::vector<CalibrationEntry> Staged;

  /// Live entries x dim embedding block (padded stride).
  support::FeatureMatrix Embeds;
  std::vector<int> Labels; ///< Live entry labels.
  /// ScoreColumns[E][I] = expert E's score of live entry I.
  std::vector<std::vector<double>> ScoreColumns;
  double MedianNNDist = 0.0;

  std::vector<Shard> Shards;
  /// Policy in force; see setIndexPolicy().
  ClusterIndexPolicy IndexPolicy;
  /// Shard count requested by the last finalize()/reshard(); refinalize()
  /// rebalances toward it.
  size_t TargetShards = 1;
  size_t MaxEntries = 0; ///< Live-entry bound (0 = unbounded).
};

} // namespace prom

#endif // PROM_CORE_CALIBRATIONSTORE_H
