//===- support/ClusterIndex.h - Lossless cluster-pruned k-NN -----*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A coarse-quantized, triangle-inequality-pruned index over FeatureMatrix
/// rows that makes exact nearest-neighbour scans sublinear at large row
/// counts — without changing a single output bit.
///
/// Structure: kMeansMatrix() quantizes the covered rows into K coarse
/// centroids; the members of each centroid form an inverted list whose
/// embedding rows are copied into one grouped FeatureMatrix block (so a
/// surviving list is scanned with the same contiguous l2Sq1xN kernel call
/// the flat scan uses), alongside the original row ids and the list radius
/// r_max(c) = max member-to-centroid distance.
///
/// Query protocol (driven by the caller, e.g. CalibrationStore's pruned
/// selection or nearestPruned() below): rank the lists by query-to-centroid
/// distance, maintain the current k-th-nearest candidate bound, and skip
/// every list whose lower bound
///
///     |q - c| - r_max(c)   <=   |q - x|   for every member x   (triangle)
///
/// provably exceeds the bound. Only surviving lists are scanned — with the
/// exact kernels — so the candidate set always contains every true k-NN
/// and the final selection is bit-identical to the full scan under the
/// (distance, index) tie-break total order.
///
/// Losslessness argument, in full:
///  * A list is pruned only when its *safe* lower bound strictly exceeds
///    the current k-th smallest candidate key, which is itself >= the
///    global k-th smallest key (candidates are a subset). Every pruned
///    member therefore has a squared distance strictly greater than the
///    global k-th key, so it cannot displace any selected pair — not even
///    on ties, which compare equal on the key and are never pruned
///    (strict inequality).
///  * The scanned distances are computed by the same kernels on copies of
///    the same rows: a kernel fold depends only on the row values and
///    dim(), both preserved by the copy, so every surviving candidate
///    carries exactly the bits the flat scan would have produced.
///  * The bound arithmetic runs in floating point, so every quantity is
///    slackened in the safe direction by PruneSlack (see below) before it
///    is allowed to prune; the slack dominates the kernels' relative
///    rounding error by orders of magnitude at every supported dim.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_CLUSTERINDEX_H
#define PROM_SUPPORT_CLUSTERINDEX_H

#include "support/FeatureMatrix.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace prom {
namespace support {

/// Relative safety margin of the pruning bounds.
///
/// The lane-folded l2Sq kernels carry a relative error of at most about
/// (dim + 2) * u with u = 2^-53 ~ 1.1e-16 (a standard dot-product bound),
/// and each sqrt adds half an ulp. 4e-9 dominates that chain for every
/// dim up to ~10^7, so shrinking lower bounds and growing radii by this
/// factor makes "provably exceeds" robust: a list is pruned only when no
/// rounding of the exact arithmetic could have let a member survive.
constexpr double PruneSlack = 4e-9;

/// Rows below which no cluster index is built: the calibration store's
/// shard indexes, the regressor's k-NN ground-truth index and the k-NN
/// models' auto index all keep the exact scan there, which is already
/// cheap and cheaper than the build. Sits past the measured ~2k-row
/// crossover.
constexpr size_t ClusterIndexMinEntries = 8192;

/// Counters of one pruned query, for benches and tests. A calibration
/// store's pruned selection fills them across all of its shards: the lists
/// of every shard index, every entry (RowsTotal) and every row it scanned,
/// indexed or not (RowsScanned).
struct ClusterScanStats {
  size_t ListsTotal = 0;   ///< Lists the index holds.
  size_t ListsScanned = 0; ///< Lists that survived the bound test.
  size_t RowsTotal = 0;    ///< Rows the index covers.
  size_t RowsScanned = 0;  ///< Rows of the surviving lists.

  /// Merges another query's counters in. Pure integer sums, so any merge
  /// order yields the same totals — batch callers still fold in canonical
  /// ascending-query order so the aggregate is reproducible by eye.
  ClusterScanStats &operator+=(const ClusterScanStats &O) {
    ListsTotal += O.ListsTotal;
    ListsScanned += O.ListsScanned;
    RowsTotal += O.RowsTotal;
    RowsScanned += O.RowsScanned;
    return *this;
  }
};

/// Coarse-quantized inverted-list index over a contiguous row range of a
/// FeatureMatrix; see the file comment for the losslessness contract.
class ClusterIndex {
public:
  /// Builds the index over rows [\p Begin, \p End) of \p Rows with
  /// \p NumCentroids coarse cells (0 picks ~sqrt(rows), clamped to
  /// [8, 4096]) seeded from \p Seed. Deterministic across thread counts
  /// (see kMeansMatrix). Replaces any previous contents.
  void build(const FeatureMatrix &Rows, size_t Begin, size_t End,
             size_t NumCentroids, uint64_t Seed);

  /// Drops the index (valid() becomes false).
  void clear();

  /// True when build() ran and the index covers at least one row.
  bool valid() const { return !Centroids.empty(); }

  size_t beginRow() const { return BeginRow; } ///< First covered row.
  size_t endRow() const { return EndRow; }     ///< One past the last row.
  /// Covered row count.
  size_t coveredRows() const { return EndRow - BeginRow; }
  /// Number of inverted lists (== built centroid count).
  size_t numLists() const { return Centroids.rows(); }

  /// Heap bytes held by the index (centroid + grouped-row blocks and the
  /// list bookkeeping); feeds the fleet registry's memory budget.
  size_t memoryBytes() const {
    return Centroids.memoryBytes() + Rows.memoryBytes() +
           RowIds.capacity() * sizeof(uint32_t) +
           ListOffsets.capacity() * sizeof(size_t) +
           ListRMax.capacity() * sizeof(double);
  }

  /// The K x dim centroid block (kernel-scannable).
  const FeatureMatrix &centroids() const { return Centroids; }
  /// The grouped member-embedding block; rows of list L occupy
  /// [listBegin(L), listEnd(L)).
  const FeatureMatrix &listRows() const { return Rows; }
  /// First grouped row of list \p L.
  size_t listBegin(size_t L) const { return ListOffsets[L]; }
  /// One past the last grouped row of list \p L.
  size_t listEnd(size_t L) const { return ListOffsets[L + 1]; }
  /// Original row id of grouped row \p GroupedRow.
  uint32_t rowId(size_t GroupedRow) const { return RowIds[GroupedRow]; }

  /// Writes the kernel squared distance of \p Query to every centroid into
  /// \p OutDistSq (numLists() slots).
  void centroidDistances(const double *Query, double *OutDistSq) const;

  /// Batched form: one blocked l2SqMxN pass writes the centroid distances
  /// of \p NumQueries query rows (stride \p QueryStride) into consecutive
  /// numLists()-slot rows of \p OutDistSq. Row Q is bit-identical to
  /// centroidDistances(query Q) — the MxN kernel's per-row contract — so
  /// batch callers can amortize the centroid ranking without perturbing
  /// a single pruning decision.
  void centroidDistancesBatch(const double *Queries, size_t NumQueries,
                              size_t QueryStride, double *OutDistSq) const;

  /// Safe lower bound on the *kernel-computed* squared distance of \p Query
  /// to any member of list \p L, given the kernel squared distance
  /// \p CentroidDistSq of the query to that list's centroid. Slackened by
  /// PruneSlack in the safe direction; 0.0 (which never prunes under the
  /// strict comparison) whenever the radius reaches past the query.
  double listLowerBoundSq(double CentroidDistSq, size_t L) const;

  /// Exact k-nearest rows of the covered range: the \p K smallest
  /// (kernel squared distance, original row id) pairs in ascending pair
  /// order — bit-identical, pair for pair, to a full l2Sq1xN scan followed
  /// by selectNearest(). Fewer than \p K pairs when the index covers fewer
  /// rows. \p Stats, when non-null, receives the pruning counters.
  std::vector<std::pair<double, uint32_t>>
  nearestPruned(const double *Query, size_t K,
                ClusterScanStats *Stats = nullptr) const;

  /// nearestPruned() with the query-to-centroid squared distances already
  /// computed (\p CentDistSq, numLists() values — e.g. one row of a
  /// centroidDistancesBatch() block). The walk, the bounds, and the result
  /// are exactly nearestPruned()'s; only the centroid scan is skipped.
  std::vector<std::pair<double, uint32_t>>
  nearestPrunedFromCentroids(const double *Query, const double *CentDistSq,
                             size_t K,
                             ClusterScanStats *Stats = nullptr) const;

  /// Batch-native pruned k-NN: element Q is bit-identical — pair for pair,
  /// and counter for counter in \p Stats — to nearestPruned(row Q of
  /// \p Queries, K). The batch amortizes what the per-query loop repays
  /// every call: the centroid distances of a whole query tile come from
  /// one blocked l2SqMxN pass, and the per-query pruned walks (which are
  /// independent — each query's bound tightens only on its own
  /// candidates) fan out over the ThreadPool in deterministic chunks,
  /// each lane writing only its own queries' slots. \p Stats, when
  /// non-null, is resized to the batch and carries each query's counters
  /// in ascending query order. \p Queries.dim() must match the index.
  std::vector<std::vector<std::pair<double, uint32_t>>>
  nearestPrunedBatch(const FeatureMatrix &Queries, size_t K,
                     std::vector<ClusterScanStats> *Stats = nullptr) const;

private:
  size_t BeginRow = 0;
  size_t EndRow = 0;
  /// K x dim coarse centroids.
  FeatureMatrix Centroids;
  /// Member embeddings grouped by list, copied from the source rows.
  FeatureMatrix Rows;
  /// Original row id per grouped row.
  std::vector<uint32_t> RowIds;
  /// Prefix offsets into Rows/RowIds, numLists() + 1 entries.
  std::vector<size_t> ListOffsets;
  /// Per-list radius: sqrt(max member AssignDistSq) * (1 + PruneSlack).
  std::vector<double> ListRMax;
};

} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_CLUSTERINDEX_H
