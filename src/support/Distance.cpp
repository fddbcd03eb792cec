//===- support/Distance.cpp - Vector distances ---------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Distance.h"
#include "support/FeatureMatrix.h"
#include "support/Kernels.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

using namespace prom::support;

double prom::support::squaredEuclidean(const double *A, const double *B,
                                       size_t N) {
  return kernels::l2Sq(A, B, N);
}

double prom::support::squaredEuclidean(const std::vector<double> &A,
                                       const std::vector<double> &B) {
  assert(A.size() == B.size() && "distance length mismatch");
  return kernels::l2Sq(A.data(), B.data(), A.size());
}

double prom::support::euclidean(const double *A, const double *B, size_t N) {
  return std::sqrt(kernels::l2Sq(A, B, N));
}

double prom::support::euclidean(const std::vector<double> &A,
                                const std::vector<double> &B) {
  return std::sqrt(squaredEuclidean(A, B));
}

double prom::support::cosineDistance(const std::vector<double> &A,
                                     const std::vector<double> &B) {
  assert(A.size() == B.size() && "distance length mismatch");
  double Dot = kernels::dot(A.data(), B.data(), A.size());
  double NormA = kernels::dot(A.data(), A.data(), A.size());
  double NormB = kernels::dot(B.data(), B.data(), B.size());
  if (NormA == 0.0 || NormB == 0.0)
    return 1.0;
  return 1.0 - Dot / (std::sqrt(NormA) * std::sqrt(NormB));
}

std::vector<size_t> prom::support::selectNearest(const double *Dist, size_t N,
                                                 size_t K) {
  size_t Keep = std::min(K, N);
  if (Keep == 0)
    return {};
  // Ranks by (distance bits, index), the calibration store's key order:
  // the (distance, index) order for non-negative distances, and a NaN
  // ranks after +inf instead of comparing false both ways.
  auto Cmp = [Dist](size_t L, size_t R) {
    uint64_t A = kernels::keyBits(Dist[L]), B = kernels::keyBits(Dist[R]);
    if (A != B)
      return A < B;
    return L < R;
  };

  // The key order is a strict total order (indices are unique), so the K
  // smallest — and their ascending arrangement — are uniquely determined;
  // any selection algorithm returns the same answer.
  // Small K (every k-NN use in this codebase): one pass with a bounded
  // sorted insertion buffer — O(N) compares against the current worst,
  // no O(N) index array, no nth_element. Scanning in ascending index
  // means an incoming equal distance can never displace a kept entry,
  // which is exactly the ascending-index tie-break.
  if (Keep <= 64) {
    std::vector<size_t> Best;
    Best.reserve(Keep);
    for (size_t I = 0; I < N; ++I) {
      if (Best.size() == Keep) {
        if (!Cmp(I, Best.back()))
          continue;
        Best.pop_back();
      }
      Best.insert(std::upper_bound(Best.begin(), Best.end(), I, Cmp), I);
    }
    return Best;
  }

  // General path: nth_element under the same order + a sort of the kept
  // prefix — O(N + K log K).
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t(0));
  if (Keep < N)
    std::nth_element(Order.begin(), Order.begin() + (Keep - 1), Order.end(),
                     Cmp);
  std::sort(Order.begin(), Order.begin() + Keep, Cmp);
  Order.resize(Keep);
  return Order;
}

std::vector<size_t> prom::support::kNearest(const FeatureMatrix &Points,
                                            const double *Query, size_t K) {
  if (Points.empty())
    return {};
  std::vector<double> Dist(Points.rows());
  kernels::l2Sq1xN(Query, Points.data(), Points.rows(), Points.dim(),
                   Points.stride(), Dist.data());
  return selectNearest(Dist.data(), Dist.size(), K);
}

void prom::support::forEachQueryScan(
    const FeatureMatrix &Points, const FeatureMatrix &Queries,
    const std::function<void(size_t, const double *)> &Fn) {
  if (Points.empty() || Queries.empty())
    return;
  assert(Queries.dim() == Points.dim() && "query/point dim mismatch");
  std::vector<double> Dist(std::min(Queries.rows(), KnnQueryTile) *
                           Points.rows());
  for (size_t Q0 = 0; Q0 < Queries.rows(); Q0 += KnnQueryTile) {
    size_t Tile = std::min(KnnQueryTile, Queries.rows() - Q0);
    kernels::l2SqMxN(Queries.rowPtr(Q0), Tile, Queries.stride(),
                     Points.data(), Points.rows(), Points.dim(),
                     Points.stride(), Dist.data());
    ThreadPool::global().parallelFor(Tile, [&](size_t Begin, size_t End) {
      for (size_t Q = Begin; Q < End; ++Q)
        Fn(Q0 + Q, Dist.data() + Q * Points.rows());
    });
  }
}

std::vector<std::vector<size_t>>
prom::support::kNearestBatch(const FeatureMatrix &Points,
                             const FeatureMatrix &Queries, size_t K) {
  std::vector<std::vector<size_t>> Out(Queries.rows());
  forEachQueryScan(Points, Queries, [&](size_t Q, const double *DistSq) {
    Out[Q] = selectNearest(DistSq, Points.rows(), K);
  });
  return Out;
}
