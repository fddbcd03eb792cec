//===- support/KMeans.h - K-means++ and the gap statistic ------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// K-means++ clustering over FeatureMatrix rows and the Tibshirani gap
/// statistic.
///
/// kMeansMatrix() is the one k-means of the library. It serves two duties:
///
///  * PROM extends conformal p-values to regression by clustering the
///    calibration embeddings into pseudo-labels (paper Sec. 5.1.2). The
///    regressor runs kMeansMatrix() over the whole calibration block
///    (SampleCap = rows, MaxIters = 50), takes its final exact assignment
///    as the pseudo-labels, and reproduces them at assessment time with
///    nearestCentroid() — so every calibration label is the nearest
///    returned centroid, even when Lloyd stops at its iteration cap. The
///    cluster count is fixed or chosen by gapStatisticK() over K in
///    [2, 20].
///  * ClusterIndex uses it as the coarse quantizer of the lossless pruned
///    k-NN scan, with stride-sampled Lloyd iterations on large inputs.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_KMEANS_H
#define PROM_SUPPORT_KMEANS_H

#include "support/FeatureMatrix.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prom {
namespace support {

class Rng;

/// Result of a kMeansMatrix() run over FeatureMatrix rows.
struct KMeansMatrixResult {
  /// K x dim centroid block (kernel-scannable, padded stride).
  FeatureMatrix Centroids;
  /// Assignments[I] = nearestCentroid(Centroids, row Begin + I).
  std::vector<uint32_t> Assignments;
  /// AssignDistSq[I] = kernel squared distance of row Begin + I to its
  /// centroid (the exact l2Sq1xN bits, reusable as list radii).
  std::vector<double> AssignDistSq;
  /// Sum of AssignDistSq in ascending row order.
  double Inertia = 0.0;
};

/// K-means over rows [\p Begin, \p End) of \p Rows: k-means++ seeding and
/// Lloyd iterations on a deterministic stride-sample of at most
/// \p SampleCap rows, then one exact assignment pass over every row with
/// the final centroids. With SampleCap >= End - Begin the sample is the
/// whole range, in order.
///
/// Deterministic for a fixed \p R seed *across thread counts*: the
/// assignment scans are per-row independent kernel folds (fanned out over
/// the global ThreadPool), all reductions (centroid sums, inertia) run
/// serially in ascending row order, every nearest-centroid tie breaks
/// toward the lower centroid index, and clusters that empty out reseed to
/// the farthest unclaimed sample row by its assignment-step distance
/// (ties toward the lower row index). Lloyd stops once an iteration
/// changes no assignment and reseeds nothing, or after \p MaxIters. The
/// pinned regression test in ClusterIndexTest compares the parallel run
/// against a serial in-test reference bit for bit.
///
/// \param Rows feature block to cluster (dim() > 0).
/// \param Begin first row of the clustered range.
/// \param End one past the last row; End - Begin >= 1.
/// \param K desired centroid count; clamped to the row count.
/// \param R randomness for the k-means++ seeding.
/// \param MaxIters Lloyd iteration cap on the sample.
/// \param SampleCap Lloyd runs on at most this many stride-sampled rows.
KMeansMatrixResult kMeansMatrix(const FeatureMatrix &Rows, size_t Begin,
                                size_t End, size_t K, Rng &R,
                                size_t MaxIters = 8, size_t SampleCap = 16384);

/// Chooses a cluster count via the gap statistic (Tibshirani et al. 2001).
///
/// Compares log within-cluster dispersion on \p Points against the expected
/// dispersion under \p NumRefs uniform reference datasets drawn over the
/// bounding box of the data, for K in [MinK, MaxK]. Every clustering is a
/// full-range kMeansMatrix() (MaxIters = 50, no sampling). Returns the
/// first K satisfying the standard "Gap(K) >= Gap(K+1) - s(K+1)" rule,
/// falling back to the K with the largest gap.
size_t gapStatisticK(const FeatureMatrix &Points, Rng &R, size_t MinK = 2,
                     size_t MaxK = 20, size_t NumRefs = 5);

/// Index of the row of \p Centroids nearest to \p Row (Centroids.dim()
/// values) by kernel squared distance, ties toward the lower index. The
/// distances are l2Sq1xN folds, so they carry the same bits as the
/// calibration scans. \p DistSq, when non-null, receives the winning
/// squared distance. Asserts a non-empty centroid block.
size_t nearestCentroid(const FeatureMatrix &Centroids, const double *Row,
                       double *DistSq = nullptr);

} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_KMEANS_H
