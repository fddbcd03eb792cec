//===- ml/Knn.cpp - k-nearest-neighbour models ------------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ml/Knn.h"
#include "support/Distance.h"
#include "support/Kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace prom;
using namespace prom::ml;

/// Seed of the optional training-block cluster indexes: fixed, so an
/// indexed model is deterministic run to run (losslessness makes the
/// value irrelevant to predictions — it only shapes the pruning).
static constexpr uint64_t TrainingIndexSeed = 0xA24BAED4963EE407ull;

void KnnClassifier::fit(const data::Dataset &Train, support::Rng &) {
  assert(!Train.empty() && Train.numClasses() > 1 && "bad training set");
  Classes = Train.numClasses();
  Points = support::FeatureMatrix::fromRows(Train.featureRows());
  Index.clear();
  Labels.clear();
  Labels.reserve(Train.size());
  for (const data::Sample &S : Train.samples())
    Labels.push_back(S.Label);
  if (AutoIndexMinPoints != 0 && Points.rows() >= AutoIndexMinPoints)
    buildClusterIndex(AutoIndexCentroids);
}

void KnnClassifier::buildClusterIndex(size_t NumCentroids) {
  assert(!Points.empty() && "indexing an unfitted classifier");
  Index.build(Points, Points.rows(), NumCentroids, TrainingIndexSeed);
}

void KnnClassifier::finishVote(double *Out) const {
  double Total = 0.0;
  for (int C = 0; C < Classes; ++C)
    Total += Out[C];
  if (Total <= 0.0) {
    std::fill(Out, Out + static_cast<size_t>(Classes),
              1.0 / static_cast<double>(Classes));
    return;
  }
  for (int C = 0; C < Classes; ++C)
    Out[C] /= Total;
}

void KnnClassifier::voteFromScan(const double *DistSq, double *Out) const {
  std::vector<size_t> Near =
      support::selectNearest(DistSq, Points.rows(), K);
  std::fill(Out, Out + static_cast<size_t>(Classes), 0.0);
  for (size_t Idx : Near) {
    // sqrt of the scanned squared distance == support::euclidean on the
    // same pair: one kernel fold feeds both the selection and the weight.
    double D = std::sqrt(DistSq[Idx]);
    Out[static_cast<size_t>(Labels[Idx])] += 1.0 / (1.0 + D);
  }
  finishVote(Out);
}

void KnnClassifier::voteFromPairs(
    const std::vector<std::pair<double, uint32_t>> &Near, double *Out) const {
  // nearestPruned returns the very (distSq, index) pairs selectNearest
  // would, in the same ascending order — the vote fold is bit-identical.
  std::fill(Out, Out + static_cast<size_t>(Classes), 0.0);
  for (const std::pair<double, uint32_t> &P : Near)
    Out[static_cast<size_t>(Labels[P.second])] +=
        1.0 / (1.0 + std::sqrt(P.first));
  finishVote(Out);
}

std::vector<double> KnnClassifier::predictProba(const data::Sample &S) const {
  assert(!Points.empty() && "classifier not fitted");
  std::vector<double> Votes(static_cast<size_t>(Classes), 0.0);
  if (Index.valid()) {
    voteFromPairs(Index.nearestPruned(S.Features.data(), K), Votes.data());
    return Votes;
  }
  std::vector<double> DistSq(Points.rows());
  support::kernels::l2Sq1xN(S.Features.data(), Points.data(), Points.rows(),
                            Points.dim(), Points.stride(), DistSq.data());
  voteFromScan(DistSq.data(), Votes.data());
  return Votes;
}

support::Matrix
KnnClassifier::predictProbaBatch(const data::Dataset &Batch) const {
  assert(!Points.empty() && "classifier not fitted");
  support::Matrix Out(Batch.size(), static_cast<size_t>(Classes));
  if (Batch.empty())
    return Out;
  if (Index.valid()) {
    // The serial indexed path's pruned scan per query, fanned out over
    // the ThreadPool: the same pairs.
    std::vector<std::vector<std::pair<double, uint32_t>>> Near =
        Index.nearestPrunedBatch(Batch.featureBlock(), K);
    for (size_t Q = 0; Q < Near.size(); ++Q)
      voteFromPairs(Near[Q], Out.rowPtr(Q));
    return Out;
  }
  support::forEachQueryScan(Points, Batch.featureBlock(),
                            [&](size_t Q, const double *DistSq) {
                              voteFromScan(DistSq, Out.rowPtr(Q));
                            });
  return Out;
}

support::Matrix KnnClassifier::embedBatch(const data::Dataset &Batch) const {
  return Batch.featureMatrix();
}

void KnnRegressor::fit(const data::Dataset &Train, support::Rng &) {
  assert(!Train.empty() && "bad training set");
  Points = support::FeatureMatrix::fromRows(Train.featureRows());
  Index.clear();
  Targets.clear();
  Targets.reserve(Train.size());
  for (const data::Sample &S : Train.samples())
    Targets.push_back(S.Target);
  if (AutoIndexMinPoints != 0 && Points.rows() >= AutoIndexMinPoints)
    buildClusterIndex(AutoIndexCentroids);
}

void KnnRegressor::buildClusterIndex(size_t NumCentroids) {
  assert(!Points.empty() && "indexing an unfitted regressor");
  Index.build(Points, Points.rows(), NumCentroids, TrainingIndexSeed);
}

double KnnRegressor::predict(const data::Sample &S) const {
  assert(!Points.empty() && "regressor not fitted");
  if (Index.valid()) {
    // Same neighbour ids in the same ascending (distSq, id) order as
    // kNearest, so the mean folds identically.
    std::vector<std::pair<double, uint32_t>> Near =
        Index.nearestPruned(S.Features.data(), K);
    double Sum = 0.0;
    for (const std::pair<double, uint32_t> &P : Near)
      Sum += Targets[P.second];
    return Sum / static_cast<double>(Near.size());
  }
  std::vector<size_t> Near = support::kNearest(Points, S.Features.data(), K);
  double Sum = 0.0;
  for (size_t Idx : Near)
    Sum += Targets[Idx];
  return Sum / static_cast<double>(Near.size());
}

std::vector<double>
KnnRegressor::predictBatch(const data::Dataset &Batch) const {
  assert(!Points.empty() && "regressor not fitted");
  std::vector<double> Out(Batch.size());
  if (Batch.empty())
    return Out;
  if (Index.valid()) {
    // Same neighbour ids in the same ascending (distSq, id) order as
    // kNearestBatch, so the means fold identically.
    std::vector<std::vector<std::pair<double, uint32_t>>> Near =
        Index.nearestPrunedBatch(Batch.featureBlock(), K);
    for (size_t I = 0; I < Batch.size(); ++I) {
      double Sum = 0.0;
      for (const std::pair<double, uint32_t> &P : Near[I])
        Sum += Targets[P.second];
      Out[I] = Sum / static_cast<double>(Near[I].size());
    }
    return Out;
  }
  std::vector<std::vector<size_t>> Near =
      support::kNearestBatch(Points, Batch.featureBlock(), K);
  for (size_t I = 0; I < Batch.size(); ++I) {
    double Sum = 0.0;
    for (size_t Idx : Near[I])
      Sum += Targets[Idx];
    Out[I] = Sum / static_cast<double>(Near[I].size());
  }
  return Out;
}

support::Matrix KnnRegressor::embedBatch(const data::Dataset &Batch) const {
  return Batch.featureMatrix();
}
