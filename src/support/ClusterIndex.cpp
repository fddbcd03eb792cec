//===- support/ClusterIndex.cpp - Lossless cluster-pruned k-NN --------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ClusterIndex.h"
#include "support/KMeans.h"
#include "support/Kernels.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace prom::support;
using kernels::fromKeyBits;
using kernels::keyBits;

// Losslessness of the pruned walk, in full:
//  * A list is pruned only when its *safe* lower bound strictly exceeds
//    the K-th smallest key among the rows scanned so far, which is itself
//    >= the K-th smallest key of all rows walked (those rows are a
//    subset). Every
//    pruned member therefore has a squared distance strictly greater than
//    that key's, so it cannot displace any of the K smallest keys — not
//    even on ties, which compare equal on the distance and are never
//    pruned (strict inequality). A NaN bound or NaN lower bound compares
//    false, so it never prunes either.
//  * The scanned distances are computed by the same kernels on copies of
//    the same rows: a kernel fold depends only on the row values and
//    dim(), both preserved by the copy, so every surviving candidate
//    carries exactly the bits the flat scan would have produced.
//  * The bound arithmetic runs in floating point, so every quantity is
//    slackened in the safe direction by PruneSlack before it is allowed to
//    prune; the slack dominates the kernels' relative rounding error by
//    orders of magnitude at every supported dim.
//  * Every sort in the walk compares integers: lists by (centroid-distance
//    bits, list), candidates by (distance bits, row id). For the
//    non-negative distances the kernels return this is the numeric order,
//    and a NaN sorts after +inf, so no comparison ever sees a NaN double.

/// Relative safety margin of the pruning bounds. The lane-folded l2Sq
/// kernels carry a relative error of at most about (dim + 2) * u with
/// u = 2^-53 ~ 1.1e-16 (a standard dot-product bound), and each sqrt adds
/// half an ulp. 4e-9 dominates that chain for every dim up to ~10^7, so
/// shrinking lower bounds and growing radii by this factor makes
/// "provably exceeds" robust: a list is pruned only when no rounding of
/// the exact arithmetic could have let a member survive.
static constexpr double PruneSlack = 4e-9;

/// Default coarse cell count for \p N rows: ~sqrt(N) in [8, 4096] — the
/// standard IVF balance point where centroid ranking and list scanning
/// cost about the same.
static size_t autoCentroids(size_t N) {
  size_t K = static_cast<size_t>(std::sqrt(static_cast<double>(N)) + 0.5);
  return std::max<size_t>(8, std::min<size_t>(K, 4096));
}

void ClusterIndex::clear() {
  Covered = 0;
  Centroids.clear();
  Rows.clear();
  RowIds.clear();
  ListOffsets.clear();
  ListRMax.clear();
}

void ClusterIndex::build(const FeatureMatrix &Source, size_t N,
                         size_t NumCentroids, uint64_t Seed) {
  clear();
  assert(N <= Source.rows() && "covering rows past the matrix");
  if (N == 0 || Source.dim() == 0)
    return;
  size_t K = NumCentroids == 0 ? autoCentroids(N) : NumCentroids;
  K = std::min(K, N);

  Rng R(Seed);
  KMeansMatrixResult Q = kMeansMatrix(Source, 0, N, K, R);
  K = Q.Centroids.rows();

  Covered = N;
  Centroids = std::move(Q.Centroids);

  // Counting sort of the members into grouped lists, ascending row id
  // inside each list (stable by construction).
  std::vector<size_t> Counts(K, 0);
  for (uint32_t A : Q.Assignments)
    ++Counts[A];
  ListOffsets.assign(K + 1, 0);
  for (size_t C = 0; C < K; ++C)
    ListOffsets[C + 1] = ListOffsets[C] + Counts[C];

  Rows.reset(N, Source.dim());
  RowIds.assign(N, 0);
  ListRMax.assign(K, 0.0);
  std::vector<size_t> Write(ListOffsets.begin(), ListOffsets.end() - 1);
  std::vector<double> MaxDistSq(K, 0.0);
  for (size_t I = 0; I < N; ++I) {
    size_t C = Q.Assignments[I];
    size_t Slot = Write[C]++;
    // The copy preserves every row value and dim(), so a kernel fold over
    // the grouped row produces the flat scan's bits exactly.
    Rows.setRow(Slot, Source.rowPtr(I));
    RowIds[Slot] = static_cast<uint32_t>(I);
    MaxDistSq[C] = std::max(MaxDistSq[C], Q.AssignDistSq[I]);
  }
  for (size_t C = 0; C < K; ++C)
    ListRMax[C] = std::sqrt(MaxDistSq[C]) * (1.0 + PruneSlack);
}

double ClusterIndex::listLowerBoundSq(double CentroidDistSq,
                                      size_t L) const {
  // Every quantity is slackened toward "do not prune": the query-centroid
  // distance shrinks, the radius already grew at build time, and the final
  // square shrinks once more. A non-positive gap yields 0.0, which the
  // walk's strict > comparison never prunes on.
  double Cd = std::sqrt(CentroidDistSq) * (1.0 - PruneSlack);
  double Gap = Cd - ListRMax[L];
  if (Gap <= 0.0)
    return 0.0;
  return Gap * Gap * (1.0 - PruneSlack);
}

void ClusterIndex::walk(const double *Query, size_t K,
                        std::vector<kernels::SelectKey> &Cand, WalkScratch &W,
                        ClusterScanStats &Stats) const {
  assert(K > 0 && "walking for an empty selection");
  // Rank the lists by query-centroid distance; the order only affects how
  // fast the bound tightens, never the result.
  size_t NumLists = numLists();
  W.Dists.resize(NumLists);
  kernels::l2Sq1xN(Query, Centroids.data(), NumLists, Centroids.dim(),
                   Centroids.stride(), W.Dists.data());
  W.Order.clear();
  for (size_t L = 0; L < NumLists; ++L)
    W.Order.push_back({keyBits(W.Dists[L]), L});
  Stats.ListsTotal += NumLists;
  std::sort(W.Order.begin(), W.Order.end());

  // The bound is the K-th smallest key seen, re-taken whenever the rows
  // seen have doubled since the last nth_element. Keys past the K-th can
  // never return to the K smallest, so each nth_element drops them.
  bool HaveBound = false;
  double Bound = 0.0;
  size_t Seen = Cand.size(), LastTighten = 0;
  auto Tighten = [&] {
    if (Cand.size() < K)
      return;
    std::nth_element(Cand.begin(), Cand.begin() + static_cast<long>(K - 1),
                     Cand.end());
    Cand.resize(K);
    Bound = fromKeyBits(Cand[K - 1].first);
    HaveBound = true;
    LastTighten = Seen;
  };
  Tighten();

  for (const std::pair<uint64_t, size_t> &Ranked : W.Order) {
    size_t L = Ranked.second;
    size_t LB = ListOffsets[L], LE = ListOffsets[L + 1];
    if (LB == LE)
      continue;
    // Strict >: a member at exactly the bound could still carry a lower
    // id than the current K-th key, so ties are always scanned.
    if (HaveBound && listLowerBoundSq(fromKeyBits(Ranked.first), L) > Bound)
      continue;
    ++Stats.ListsScanned;
    Stats.RowsScanned += LE - LB;
    W.Dists.resize(LE - LB);
    kernels::l2Sq1xN(Query, Rows.rowPtr(LB), LE - LB, Rows.dim(),
                     Rows.stride(), W.Dists.data());
    for (size_t I = LB; I < LE; ++I)
      Cand.push_back({keyBits(W.Dists[I - LB]), RowIds[I]});
    Seen += LE - LB;
    if (!HaveBound || Seen >= 2 * LastTighten)
      Tighten();
  }

  // Every row walked was a candidate or is provably past the bound, so
  // the K smallest candidates are the K smallest keys; the last
  // nth_element at K - 1 keeps exactly them.
  assert(Cand.size() >= K && "the walk covers fewer than K rows");
  if (Seen != LastTighten)
    Tighten();
}

std::vector<std::pair<double, uint32_t>>
ClusterIndex::nearestPruned(const double *Query, size_t K,
                            ClusterScanStats *Stats) const {
  assert(valid() && "querying an empty index");
  K = std::min(K, coveredRows());
  if (K == 0)
    return {};
  ClusterScanStats S;
  S.RowsTotal = coveredRows();
  std::vector<kernels::SelectKey> Cand;
  WalkScratch W;
  walk(Query, K, Cand, W, S);
  std::sort(Cand.begin(), Cand.end());
  std::vector<std::pair<double, uint32_t>> Near(K);
  for (size_t I = 0; I < K; ++I)
    Near[I] = {fromKeyBits(Cand[I].first), Cand[I].second};
  if (Stats)
    *Stats = S;
  return Near;
}

std::vector<std::vector<std::pair<double, uint32_t>>>
ClusterIndex::nearestPrunedBatch(const FeatureMatrix &Queries, size_t K,
                                 std::vector<ClusterScanStats> *Stats) const {
  assert(valid() && "querying an empty index");
  assert((Queries.empty() || Queries.dim() == Centroids.dim()) &&
         "query/index dim mismatch");
  std::vector<std::vector<std::pair<double, uint32_t>>> Out(Queries.rows());
  if (Stats)
    Stats->assign(Queries.rows(), ClusterScanStats());
  // Per-query walks are independent (each bound tightens only on its own
  // candidates) and every lane writes only its own queries' Out/Stats
  // slots, so the fan-out cannot change a bit at any thread count.
  ThreadPool::global().parallelFor(
      Queries.rows(), [&](size_t Begin, size_t End) {
        for (size_t Q = Begin; Q < End; ++Q)
          Out[Q] = nearestPruned(Queries.rowPtr(Q), K,
                                 Stats ? Stats->data() + Q : nullptr);
      });
  return Out;
}
