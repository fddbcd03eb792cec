//===- support/Distance.h - Vector distances --------------------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Feature-space distances. PROM's adaptive calibration selection (paper
/// Sec. 5.1.2) and the regression k-NN ground-truth approximation (Sec.
/// 5.1.1) both measure Euclidean distance between model feature vectors.
///
/// These are thin wrappers over support/Kernels: every distance is
/// computed by the same lane-folded kernel the batched scans dispatch to,
/// so a per-vector call and a FeatureMatrix block scan produce the same
/// bits for the same data on every ISA.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_DISTANCE_H
#define PROM_SUPPORT_DISTANCE_H

#include <cstddef>
#include <functional>
#include <vector>

namespace prom {
namespace support {

class FeatureMatrix;

/// Squared Euclidean distance between equal-length vectors.
double squaredEuclidean(const std::vector<double> &A,
                        const std::vector<double> &B);

/// Pointer form of squaredEuclidean (length \p N).
double squaredEuclidean(const double *A, const double *B, size_t N);

/// Euclidean (l2) distance between equal-length vectors.
double euclidean(const std::vector<double> &A, const std::vector<double> &B);

/// Pointer form of euclidean (length \p N).
double euclidean(const double *A, const double *B, size_t N);

/// Cosine distance (1 - cosine similarity); 1 when either vector is zero.
double cosineDistance(const std::vector<double> &A,
                      const std::vector<double> &B);

/// The single k-NN tie-break rule: indices of the \p K smallest entries of
/// \p Dist (length \p N), closest first, equal distances broken by
/// ascending index. Callers pass non-negative (squared) distances, and
/// entries rank by (IEEE bit pattern, index), the order of the calibration
/// store's selection keys: for non-negative values it is the (distance,
/// index) order, and a NaN ranks after every number. It is a strict total
/// order, so the answer is unique whatever selection algorithm runs:
/// small K (<= 64, every k-NN use in this codebase) takes one O(N) pass
/// with a bounded sorted insertion buffer; larger K falls back to
/// nth_element + a sort of the kept prefix. Every nearest-neighbour path
/// of the k-NN models (kNearest, kNearestBatch, and the serial and
/// batched ml::Knn forwards) routes through this one function, so no two
/// paths can ever disagree on how duplicate distances rank
/// (regression-pinned by DistanceTest).
std::vector<size_t> selectNearest(const double *Dist, size_t N, size_t K);

/// Query-tile height of the batched k-NN scans: forEachQueryScan
/// processes at most this many queries per l2SqMxN call, bounding the
/// materialized distance block to KnnQueryTile x points regardless of
/// deployment batch size. Per-query work is independent, so tiling
/// cannot change any result.
constexpr size_t KnnQueryTile = 256;

/// The one batched k-NN scan skeleton: runs \p Fn(Q, DistSqRow) for every
/// query row of \p Queries, where DistSqRow points at that query's
/// squared distances to every row of \p Points. Distances come from
/// query-tiled l2SqMxN kernel scans (see KnnQueryTile) and the per-query
/// callbacks fan out over the global ThreadPool, so \p Fn must be safe to
/// call concurrently for distinct queries (it is called exactly once per
/// query). kNearestBatch and the batched ml::Knn forwards both run on
/// this skeleton, so the tiling/scan layout cannot diverge between them.
void forEachQueryScan(const FeatureMatrix &Points,
                      const FeatureMatrix &Queries,
                      const std::function<void(size_t, const double *)> &Fn);

/// Indices of the \p K nearest rows of \p Points to \p Query (length
/// Points.dim()) under Euclidean distance, ordered by the selectNearest()
/// contract: one batched l2Sq1xN kernel scan over the contiguous block.
/// Returns fewer when Points has < K rows.
std::vector<size_t> kNearest(const FeatureMatrix &Points, const double *Query,
                             size_t K);

/// Batched form: element Q equals kNearest(Points, Queries.rowPtr(Q), K)
/// bit for bit. The distances come from one l2SqMxN kernel scan per batch
/// and the per-query selections fan out over the global ThreadPool
/// (per-query work is independent, so the fan-out cannot change any
/// result). Queries.dim() must equal Points.dim().
std::vector<std::vector<size_t>>
kNearestBatch(const FeatureMatrix &Points, const FeatureMatrix &Queries,
              size_t K);

} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_DISTANCE_H
