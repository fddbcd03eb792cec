//===- ml/Knn.h - k-nearest-neighbour models ---------------------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instance-based k-NN classifier and regressor. Besides serving as simple
/// underlying models in tests and examples, the regressor mirrors the k-NN
/// ground-truth approximation PROM uses for regression nonconformity
/// (paper Sec. 5.1.1, k = 3).
///
/// Both models carry real batch overrides: the whole query batch is
/// scanned against the training block with one kernels::l2SqMxN call, and
/// every neighbour selection goes through support::selectNearest — the
/// single (distance, ascending index) tie-break rule the per-sample
/// kNearest path uses — so batched and serial predictions are
/// bit-identical by construction.
///
/// Both models can additionally opt into a support::ClusterIndex over the
/// training block (buildClusterIndex(), or automatically at fit() time
/// past the setAutoIndex() point threshold): the serial predict paths then
/// run the lossless cluster-pruned scan, and the batch paths fan the same
/// per-query scan out over the ThreadPool
/// (ClusterIndex::nearestPrunedBatch). Pruning is bit-identical to the
/// exact scan by the ClusterIndex contract, so the serial/batch
/// equivalence above survives unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_ML_KNN_H
#define PROM_ML_KNN_H

#include "ml/Model.h"
#include "support/ClusterIndex.h"
#include "support/FeatureMatrix.h"

namespace prom {
namespace ml {

/// Distance-weighted k-NN classifier. Training points live in one flat
/// FeatureMatrix so every prediction is a single batched kernel scan.
class KnnClassifier : public Classifier {
public:
  explicit KnnClassifier(size_t K = 5) : K(K) {}

  void fit(const data::Dataset &Train, support::Rng &R) override;
  std::vector<double> predictProba(const data::Sample &S) const override;
  /// One l2SqMxN kernel scan of the query batch against the training
  /// block, then a per-query selectNearest + distance-weighted vote fanned
  /// out over the ThreadPool — or, with a cluster index built, one
  /// nearestPrunedBatch scan (lossless, so the outputs are the same bits).
  /// Row I equals predictProba(Batch[I]) bit for bit (per-query work is
  /// independent; the vote helper is shared).
  support::Matrix predictProbaBatch(const data::Dataset &Batch) const override;
  /// The embedding is the raw feature vector; the batched form packs the
  /// rows directly instead of looping per sample.
  support::Matrix embedBatch(const data::Dataset &Batch) const override;
  int numClasses() const override { return Classes; }
  std::string name() const override { return "kNN"; }

  /// Builds a cluster-pruned index over the fitted training block; the
  /// predict paths then scan sublinearly with bit-identical output (the
  /// index is lossless). \p NumCentroids 0 picks ~sqrt(points). fit()
  /// drops any previous index (and rebuilds it when the auto-index
  /// threshold is met; see setAutoIndex()).
  void buildClusterIndex(size_t NumCentroids = 0);

  /// Auto-build policy: fit() calls buildClusterIndex(\p NumCentroids)
  /// itself whenever the training block has at least \p MinPoints rows
  /// (0 disables). Defaults to support::ClusterIndexMinEntries, so large
  /// fits get the pruned scan without a manual buildClusterIndex() call —
  /// losslessness makes this purely a speed knob.
  void setAutoIndex(size_t MinPoints, size_t NumCentroids = 0) {
    AutoIndexMinPoints = MinPoints;
    AutoIndexCentroids = NumCentroids;
  }

  /// True when a cluster index currently accelerates the predict paths.
  bool hasClusterIndex() const { return Index.valid(); }

private:
  /// Neighbour selection + distance-weighted vote over one query's
  /// squared-distance scan (writes numClasses() values to \p Out). The
  /// single scoring path of the serial and batched forwards.
  void voteFromScan(const double *DistSq, double *Out) const;

  /// The indexed twin of voteFromScan(): the same distance-weighted vote
  /// folded over nearestPruned-style (distSq, id) pairs — which arrive in
  /// exactly selectNearest()'s order, so the fold is bit-identical.
  void voteFromPairs(const std::vector<std::pair<double, uint32_t>> &Near,
                     double *Out) const;

  /// The shared vote tail: normalizes \p Out in place (uniform fallback
  /// when every vote underflowed to zero).
  void finishVote(double *Out) const;

  size_t K;
  int Classes = 0;
  support::FeatureMatrix Points;
  std::vector<int> Labels;
  /// Optional lossless index over Points (see buildClusterIndex()).
  support::ClusterIndex Index;
  /// Auto-index policy (see setAutoIndex()).
  size_t AutoIndexMinPoints = support::ClusterIndexMinEntries;
  size_t AutoIndexCentroids = 0;
};

/// Mean-of-neighbours k-NN regressor (flat-block scan like the classifier).
class KnnRegressor : public Regressor {
public:
  explicit KnnRegressor(size_t K = 3) : K(K) {}

  void fit(const data::Dataset &Train, support::Rng &R) override;
  double predict(const data::Sample &S) const override;
  /// Batched form over one kNearestBatch scan — or one nearestPrunedBatch
  /// scan with a cluster index built (lossless, same bits); element I
  /// equals predict(Batch[I]) bit for bit.
  std::vector<double> predictBatch(const data::Dataset &Batch) const override;
  /// Raw-feature embedding packed in one pass (see KnnClassifier).
  support::Matrix embedBatch(const data::Dataset &Batch) const override;
  std::string name() const override { return "kNN-Reg"; }

  /// Lossless cluster index over the fitted block for the predict paths;
  /// see KnnClassifier::buildClusterIndex().
  void buildClusterIndex(size_t NumCentroids = 0);

  /// Auto-index policy at fit() time; see KnnClassifier::setAutoIndex().
  void setAutoIndex(size_t MinPoints, size_t NumCentroids = 0) {
    AutoIndexMinPoints = MinPoints;
    AutoIndexCentroids = NumCentroids;
  }

  /// True when a cluster index currently accelerates the predict paths.
  bool hasClusterIndex() const { return Index.valid(); }

private:
  size_t K;
  support::FeatureMatrix Points;
  std::vector<double> Targets;
  /// Optional lossless index over Points (see buildClusterIndex()).
  support::ClusterIndex Index;
  /// Auto-index policy (see setAutoIndex()).
  size_t AutoIndexMinPoints = support::ClusterIndexMinEntries;
  size_t AutoIndexCentroids = 0;
};

} // namespace ml
} // namespace prom

#endif // PROM_ML_KNN_H
