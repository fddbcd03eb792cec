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
/// Query protocol: ClusterIndex::walk() is the one pruned walk, shared by
/// nearestPruned() and the calibration store's nearest-rows query (its
/// pruned selection and the regressor's k-NN ground truth). It ranks
/// the index's lists by query-to-centroid distance, keeps the current
/// k-th smallest candidate key as a bound, and skips every list whose
/// lower bound
///
///     |q - c| - r_max(c)   <=   |q - x|   for every member x   (triangle)
///
/// provably exceeds the bound. Only surviving lists are scanned — with the
/// exact kernels — and a scanned key is kept only when its distance bits
/// are at most the bound's, so the candidates always contain the K
/// smallest (squared-distance bits, row id) keys of the rows walked, and
/// the result is bit-identical to the full scan under that order (for the
/// non-negative distances the kernels return, the (distance, id) order).
/// ClusterIndex.cpp states the losslessness argument in full, next to the
/// walk and its rounding slack.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_CLUSTERINDEX_H
#define PROM_SUPPORT_CLUSTERINDEX_H

#include "support/FeatureMatrix.h"
#include "support/Kernels.h"

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace prom {
namespace support {

/// Rows below which no cluster index is built: the calibration store's
/// index (which also serves the regressor's k-NN ground truth) and the
/// k-NN models' auto index keep the exact scan there, which is already
/// cheap and cheaper than the build. Sits well past the crossover that
/// kernel_bench records (cluster_knn_crossover_n, dim 32, K = 16, blob
/// rows): the pruned walk already wins at the sweep's smallest size,
/// 1000 rows, by 1.6-2.4x.
constexpr size_t ClusterIndexMinEntries = 8192;

/// Counters of one pruned query, for benches and tests. A calibration
/// store's pruned selection fills them for the whole store: the lists of
/// its index, every entry (RowsTotal) and every row it scanned, indexed or
/// not (RowsScanned).
struct ClusterScanStats {
  size_t ListsTotal = 0;   ///< Lists the index holds.
  size_t ListsScanned = 0; ///< Lists that survived the bound test.
  size_t RowsTotal = 0;    ///< Rows the index covers.
  size_t RowsScanned = 0;  ///< Rows of the surviving lists.

  /// Merges another query's counters in. Pure integer sums, so any merge
  /// order yields the same totals.
  ClusterScanStats &operator+=(const ClusterScanStats &O) {
    ListsTotal += O.ListsTotal;
    ListsScanned += O.ListsScanned;
    RowsTotal += O.RowsTotal;
    RowsScanned += O.RowsScanned;
    return *this;
  }
};

/// Coarse-quantized inverted-list index over the leading rows of a
/// FeatureMatrix; see the file comment for the losslessness contract.
class ClusterIndex {
public:
  /// Builds the index over the first \p N rows of \p Rows with
  /// \p NumCentroids coarse cells (0 picks ~sqrt(N), clamped to
  /// [8, 4096]) seeded from \p Seed. Deterministic across thread counts
  /// (see kMeansMatrix). Replaces any previous contents.
  void build(const FeatureMatrix &Rows, size_t N, size_t NumCentroids,
             uint64_t Seed);

  /// Drops the index (valid() becomes false): it then has no lists and
  /// covers no row.
  void clear();

  /// True when build() ran and the index covers at least one row.
  bool valid() const { return !Centroids.empty(); }

  /// Covered row count: the index covers rows [0, coveredRows()).
  size_t coveredRows() const { return Covered; }
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

  /// Reusable buffers of walk(), one per lane: recycled across queries,
  /// so the walk allocates nothing once they have grown.
  struct WalkScratch {
    /// (keyBits of the query-centroid squared distance, list): the walk
    /// order.
    std::vector<std::pair<uint64_t, size_t>> Order;
    /// Kernel output of the centroid block or the list being scanned.
    std::vector<double> Dists;
  };

  /// The one cluster-pruned walk over the covered rows plus rows
  /// [coveredRows(), \p End) of \p Source, which the index does not cover
  /// (a calibration store's stale tail, appended to the rows the index
  /// was built over; every row for a cleared index). It leaves in
  /// \p Candidates exactly the \p K smallest (squared-distance bits, row
  /// id) keys of those rows, the K-th smallest at position K - 1
  /// (unordered otherwise). The uncovered rows are scanned exactly first,
  /// so their keys give the walk a bound before it visits any list; no
  /// row of Source below coveredRows() is read. The lists are ranked by
  /// (centroid-distance bits, list) and scanned in that order, and a list
  /// is skipped only when its lower bound strictly exceeds the bound, the
  /// K-th smallest key kept. A scanned key enters the candidates only when
  /// its distance bits are at most the bound's: one past it sorts after K
  /// kept keys, while equal bits may still carry a lower id. The bound is
  /// first taken once K keys exist and re-taken whenever the candidates
  /// reach 2K keys, which one nth_element cuts back to K. \p Stats gains
  /// the index's lists (ListsTotal) and the lists and rows scanned, the
  /// tail's included; RowsTotal is the caller's. Requires
  /// coveredRows() <= End <= Source.rows() and 0 < K <= End.
  void walk(const double *Query, size_t K, const FeatureMatrix &Source,
            size_t End, std::vector<kernels::SelectKey> &Candidates,
            WalkScratch &Scratch, ClusterScanStats &Stats) const;

  /// Exact k-nearest rows of the covered prefix: the \p K smallest
  /// (kernel squared distance, original row id) pairs in ascending
  /// (distance bits, id) order — bit-identical, pair for pair, to a full
  /// l2Sq1xN scan followed by selectNearest(). Fewer than \p K pairs when
  /// the index covers fewer rows. \p Stats, when non-null, receives the
  /// pruning counters (left untouched when K is 0).
  std::vector<std::pair<double, uint32_t>>
  nearestPruned(const double *Query, size_t K,
                ClusterScanStats *Stats = nullptr) const;

  /// nearestPruned() for every row of \p Queries: element Q is
  /// bit-identical — pair for pair, and counter for counter in \p Stats —
  /// to nearestPruned(row Q of \p Queries, K). The per-query walks are
  /// independent and fan out over the ThreadPool in deterministic chunks,
  /// each lane writing only its own queries' slots. \p Stats, when
  /// non-null, is resized to the batch and carries each query's counters
  /// in ascending query order. \p Queries.dim() must match the index.
  std::vector<std::vector<std::pair<double, uint32_t>>>
  nearestPrunedBatch(const FeatureMatrix &Queries, size_t K,
                     std::vector<ClusterScanStats> *Stats = nullptr) const;

private:
  size_t Covered = 0; ///< Rows [0, Covered) are indexed.
  /// K x dim coarse centroids.
  FeatureMatrix Centroids;
  /// Member embeddings grouped by list, copied from the source rows.
  FeatureMatrix Rows;
  /// Original row id per grouped row.
  std::vector<uint32_t> RowIds;
  /// Prefix offsets into Rows/RowIds, numLists() + 1 entries.
  std::vector<size_t> ListOffsets;
  /// Per-list radius: sqrt(max member AssignDistSq), slackened outward.
  std::vector<double> ListRMax;

  /// Safe lower bound on the kernel squared distance of a query to any
  /// member of list \p L, given the kernel squared distance
  /// \p CentroidDistSq of the query to that list's centroid.
  double listLowerBoundSq(double CentroidDistSq, size_t L) const;
};

} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_CLUSTERINDEX_H
