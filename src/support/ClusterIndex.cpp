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
//  * The bound is the K-th smallest key among the rows scanned up to the
//    last cut, which is itself >= the K-th smallest key of all rows walked
//    (those rows are a subset).
//  * A list is pruned only when its *safe* lower bound strictly exceeds
//    the bound. Every pruned member therefore has a squared distance
//    strictly greater than the bound's, so it cannot displace any of the
//    K smallest keys — not even on ties, which compare equal on the
//    distance and are never pruned (strict inequality). A NaN bound or
//    NaN lower bound compares false, so it never prunes either.
//  * A scanned key is dropped only when its distance bits exceed the
//    bound's. The K keys kept at the last cut are all at most the bound,
//    so a key with larger bits sorts after K keys already kept and can
//    never be among the K smallest. A key with equal bits is kept: its id
//    may still be lower than the bound key's.
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
                        const FeatureMatrix &Source, size_t End,
                        std::vector<kernels::SelectKey> &Cand, WalkScratch &W,
                        ClusterScanStats &Stats) const {
  assert(K > 0 && K <= End && "walking for an empty or oversized selection");
  assert(Covered <= End && End <= Source.rows() && "tail past the source");
  assert((!valid() || Source.dim() == Centroids.dim()) &&
         "query/index dim mismatch");
  // The candidate buffer. A key enters only when its distance bits are at
  // most the bound's, the K-th smallest key kept: a key past it sorts
  // after K kept keys and can never return, while equal bits may carry a
  // lower id. The bound starts as all ones, which admits every key and, as
  // a NaN, prunes no list. It is first taken once K keys exist, then
  // re-taken whenever the buffer reaches 2K keys, each time by one
  // nth_element that cuts the buffer back to K: amortized O(1) per key.
  uint64_t BoundBits = ~uint64_t(0);
  size_t CutAt = K;
  Cand.clear();
  Cand.reserve(2 * K);
  auto Cut = [&] {
    std::nth_element(Cand.begin(), Cand.begin() + static_cast<long>(K - 1),
                     Cand.end());
    Cand.resize(K);
    BoundBits = Cand[K - 1].first;
    CutAt = 2 * K;
  };
  // Scans rows [B, E) of \p M through the filter, row I carrying id
  // IdOf(I).
  auto Scan = [&](const FeatureMatrix &M, size_t B, size_t E, auto IdOf) {
    Stats.RowsScanned += E - B;
    W.Dists.resize(E - B);
    kernels::l2Sq1xN(Query, M.rowPtr(B), E - B, M.dim(), M.stride(),
                     W.Dists.data());
    for (size_t I = B; I < E; ++I) {
      uint64_t Bits = keyBits(W.Dists[I - B]);
      if (Bits > BoundBits)
        continue;
      Cand.push_back({Bits, IdOf(I)});
      if (Cand.size() == CutAt)
        Cut();
    }
  };

  // The uncovered rows, read straight out of the source block, so the
  // kernel fold is the very one an exact scan of the source runs.
  if (Covered < End)
    Scan(Source, Covered, End,
         [](size_t I) { return static_cast<uint32_t>(I); });

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

  for (const std::pair<uint64_t, size_t> &Ranked : W.Order) {
    size_t L = Ranked.second;
    size_t LB = ListOffsets[L], LE = ListOffsets[L + 1];
    if (LB == LE)
      continue;
    // Strict >: a member at exactly the bound could still carry a lower
    // id than the current K-th key, so ties are always scanned.
    if (listLowerBoundSq(fromKeyBits(Ranked.first), L) >
        fromKeyBits(BoundBits))
      continue;
    ++Stats.ListsScanned;
    Scan(Rows, LB, LE, [&](size_t I) { return RowIds[I]; });
  }

  // Every row walked was a candidate or is provably past the bound, so
  // the K smallest candidates are the K smallest keys; a last cut at
  // K - 1 keeps exactly them.
  assert(Cand.size() >= K && "the walk covers fewer than K rows");
  if (Cand.size() > K)
    Cut();
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
  // End = Covered: every row is covered, so the walk reads none of Rows
  // as a source.
  walk(Query, K, Rows, Covered, Cand, W, S);
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
