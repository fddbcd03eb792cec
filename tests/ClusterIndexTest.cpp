//===- tests/ClusterIndexTest.cpp - Lossless cluster-pruned k-NN -----------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-identity suite of the cluster-pruned k-NN layer: kMeansMatrix
/// against a serial in-test reference (which pins the parallel
/// implementation across thread counts — CMake registers this binary under
/// PROM_THREADS=1 and 4 and under PROM_KERNELS=scalar), and
/// ClusterIndex::nearestPruned against the exact full-scan selection,
/// including duplicate, tie-heavy, and fully degenerate inputs.
///
//===----------------------------------------------------------------------===//

#include "support/ClusterIndex.h"
#include "support/Distance.h"
#include "support/KMeans.h"
#include "support/Kernels.h"
#include "support/Rng.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

using namespace prom;
using namespace prom::support;
using prom::testing::bits;

namespace {

/// Random (N x Dim) feature block.
FeatureMatrix randomRows(size_t N, size_t Dim, Rng &R, double Spread = 4.0) {
  FeatureMatrix M(N, Dim);
  for (size_t I = 0; I < N; ++I)
    for (size_t D = 0; D < Dim; ++D)
      M.rowPtr(I)[D] = R.gaussian(0.0, Spread);
  return M;
}

/// Tie-heavy block: every coordinate drawn from a tiny integer set, so
/// exact duplicate rows and exact distance ties abound.
FeatureMatrix gridRows(size_t N, size_t Dim, Rng &R) {
  FeatureMatrix M(N, Dim);
  for (size_t I = 0; I < N; ++I)
    for (size_t D = 0; D < Dim; ++D)
      M.rowPtr(I)[D] = static_cast<double>(R.bounded(3));
  return M;
}

/// The exact oracle: full l2Sq1xN scan + selectNearest, returned in the
/// same (distSq, id) pair form nearestPruned produces.
std::vector<std::pair<double, uint32_t>>
fullScanNearest(const FeatureMatrix &Rows, const double *Query, size_t K) {
  std::vector<double> DistSq(Rows.rows());
  kernels::l2Sq1xN(Query, Rows.data(), Rows.rows(), Rows.dim(),
                   Rows.stride(), DistSq.data());
  std::vector<size_t> Near = selectNearest(DistSq.data(), Rows.rows(), K);
  std::vector<std::pair<double, uint32_t>> Out;
  Out.reserve(Near.size());
  for (size_t Idx : Near)
    Out.push_back({DistSq[Idx], static_cast<uint32_t>(Idx)});
  return Out;
}

void expectSamePairs(const std::vector<std::pair<double, uint32_t>> &Got,
                     const std::vector<std::pair<double, uint32_t>> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    SCOPED_TRACE("neighbour " + std::to_string(I));
    EXPECT_EQ(Got[I].second, Want[I].second);
    EXPECT_EQ(bits(Got[I].first), bits(Want[I].first));
  }
}

/// Serial reference of kMeansMatrix: the documented algorithm written as
/// plain loops with no ThreadPool involvement. Consumes its own Rng with
/// the same draw sequence, so a parallel kMeansMatrix run under any
/// PROM_THREADS must reproduce it bit for bit.
KMeansMatrixResult serialKMeansMatrix(const FeatureMatrix &Rows, size_t Begin,
                                      size_t End, size_t K, Rng &R,
                                      size_t MaxIters = 8,
                                      size_t SampleCap = 16384) {
  size_t N = End - Begin;
  size_t Dim = Rows.dim();
  K = std::max<size_t>(1, std::min(K, N));

  size_t SampleN = std::min(N, SampleCap);
  std::vector<size_t> Sample(SampleN);
  for (size_t I = 0; I < SampleN; ++I)
    Sample[I] = Begin + I * N / SampleN;

  KMeansMatrixResult Res;
  Res.Centroids.reset(K, Dim);
  FeatureMatrix &Cent = Res.Centroids;

  Cent.setRow(0, Rows.rowPtr(Sample[R.bounded(SampleN)]));
  std::vector<double> MinDistSq(SampleN, std::numeric_limits<double>::max());
  for (size_t C = 1; C < K; ++C) {
    for (size_t I = 0; I < SampleN; ++I)
      MinDistSq[I] = std::min(
          MinDistSq[I],
          kernels::l2Sq(Rows.rowPtr(Sample[I]), Cent.rowPtr(C - 1), Dim));
    Cent.setRow(C, Rows.rowPtr(Sample[R.weightedIndex(MinDistSq)]));
  }

  auto NearestRow = [&](const double *Row) {
    std::vector<double> DistBuf(K);
    kernels::l2Sq1xN(Row, Cent.data(), K, Dim, Cent.stride(),
                     DistBuf.data());
    size_t Best = 0;
    for (size_t C = 1; C < K; ++C)
      if (DistBuf[C] < DistBuf[Best])
        Best = C;
    return std::pair<size_t, double>{Best, DistBuf[Best]};
  };

  std::vector<uint32_t> Assign(SampleN, 0);
  std::vector<double> AssignDistSq(SampleN, 0.0);
  for (size_t Iter = 0; Iter < MaxIters; ++Iter) {
    bool Changed = false;
    for (size_t I = 0; I < SampleN; ++I) {
      std::pair<size_t, double> Best = NearestRow(Rows.rowPtr(Sample[I]));
      AssignDistSq[I] = Best.second;
      if (Assign[I] != Best.first) {
        Assign[I] = static_cast<uint32_t>(Best.first);
        Changed = true;
      }
    }
    std::vector<double> Sums(K * Dim, 0.0);
    std::vector<size_t> Counts(K, 0);
    for (size_t I = 0; I < SampleN; ++I) {
      const double *Row = Rows.rowPtr(Sample[I]);
      for (size_t D = 0; D < Dim; ++D)
        Sums[Assign[I] * Dim + D] += Row[D];
      ++Counts[Assign[I]];
    }
    for (size_t C = 0; C < K; ++C)
      if (Counts[C] != 0)
        for (size_t D = 0; D < Dim; ++D)
          Cent.rowPtr(C)[D] =
              Sums[C * Dim + D] / static_cast<double>(Counts[C]);

    bool Reseeded = false;
    std::vector<uint8_t> Claimed(SampleN, 0);
    for (size_t C = 0; C < K; ++C) {
      if (Counts[C] != 0)
        continue;
      size_t Farthest = SampleN;
      double FarDist = -1.0;
      for (size_t I = 0; I < SampleN; ++I) {
        if (Claimed[I] || Counts[Assign[I]] <= 1)
          continue;
        if (AssignDistSq[I] > FarDist) {
          FarDist = AssignDistSq[I];
          Farthest = I;
        }
      }
      if (Farthest == SampleN)
        continue;
      Claimed[Farthest] = 1;
      Cent.setRow(C, Rows.rowPtr(Sample[Farthest]));
      Reseeded = true;
    }
    if (!Changed && !Reseeded && Iter > 0)
      break;
  }

  Res.Assignments.assign(N, 0);
  Res.AssignDistSq.assign(N, 0.0);
  for (size_t I = 0; I < N; ++I) {
    std::pair<size_t, double> Best = NearestRow(Rows.rowPtr(Begin + I));
    Res.Assignments[I] = static_cast<uint32_t>(Best.first);
    Res.AssignDistSq[I] = Best.second;
  }
  Res.Inertia = 0.0;
  for (size_t I = 0; I < N; ++I)
    Res.Inertia += Res.AssignDistSq[I];
  return Res;
}

} // namespace

//===----------------------------------------------------------------------===//
// kMeansMatrix: thread-count-invariant quantizer
//===----------------------------------------------------------------------===//

TEST(KMeansMatrixTest, MatchesSerialReferenceBitForBit) {
  // The binary runs under PROM_THREADS=1 and PROM_THREADS=4 (ctest
  // registrations): the serial reference never touches the pool, so this
  // comparison pins the parallel implementation across thread counts.
  for (uint64_t Seed : {11u, 202u, 3003u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng RData(Seed);
    FeatureMatrix Rows = randomRows(700, 9, RData);
    Rng RLive(Seed * 7 + 1), RRef(Seed * 7 + 1);
    KMeansMatrixResult Live = kMeansMatrix(Rows, 0, Rows.rows(), 12, RLive);
    KMeansMatrixResult Ref =
        serialKMeansMatrix(Rows, 0, Rows.rows(), 12, RRef);

    ASSERT_EQ(Live.Centroids.rows(), Ref.Centroids.rows());
    for (size_t C = 0; C < Ref.Centroids.rows(); ++C)
      for (size_t D = 0; D < Rows.dim(); ++D)
        ASSERT_EQ(bits(Live.Centroids.rowPtr(C)[D]),
                  bits(Ref.Centroids.rowPtr(C)[D]))
            << "centroid " << C << " dim " << D;
    ASSERT_EQ(Live.Assignments, Ref.Assignments);
    for (size_t I = 0; I < Ref.AssignDistSq.size(); ++I)
      ASSERT_EQ(bits(Live.AssignDistSq[I]), bits(Ref.AssignDistSq[I]));
    EXPECT_EQ(bits(Live.Inertia), bits(Ref.Inertia));
  }
}

TEST(KMeansMatrixTest, SubRangeAndClamping) {
  Rng R(5);
  FeatureMatrix Rows = randomRows(64, 4, R);
  // K larger than the range clamps; a sub-range only touches its rows.
  Rng RK(9);
  KMeansMatrixResult Res = kMeansMatrix(Rows, 10, 20, 50, RK);
  EXPECT_EQ(Res.Centroids.rows(), 10u);
  EXPECT_EQ(Res.Assignments.size(), 10u);
  for (uint32_t A : Res.Assignments)
    EXPECT_LT(A, 10u);
  // Every row sits on its own centroid: zero inertia.
  EXPECT_EQ(Res.Inertia, 0.0);
}

TEST(KMeansMatrixTest, SeparatesObviousClusters) {
  Rng R(42);
  FeatureMatrix Rows(120, 3);
  for (size_t I = 0; I < 120; ++I) {
    double Base = static_cast<double>(I % 3) * 50.0;
    for (size_t D = 0; D < 3; ++D)
      Rows.rowPtr(I)[D] = Base + R.gaussian(0.0, 0.2);
  }
  Rng RK(7);
  KMeansMatrixResult Res = kMeansMatrix(Rows, 0, 120, 3, RK);
  for (size_t I = 0; I < 120; ++I)
    EXPECT_EQ(Res.Assignments[I], Res.Assignments[I % 3]);
}

//===----------------------------------------------------------------------===//
// ClusterIndex: lossless pruned k-NN
//===----------------------------------------------------------------------===//

TEST(ClusterIndexTest, NearestPrunedMatchesFullScanBitForBit) {
  for (uint64_t Seed : {3u, 77u, 912u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    FeatureMatrix Rows = randomRows(2500, 8, R);
    ClusterIndex Index;
    Index.build(Rows, Rows.rows(), /*NumCentroids=*/0, Seed);
    ASSERT_TRUE(Index.valid());

    for (size_t K : {size_t(1), size_t(7), size_t(100), size_t(2500)}) {
      SCOPED_TRACE("K " + std::to_string(K));
      for (int Q = 0; Q < 8; ++Q) {
        SCOPED_TRACE("query " + std::to_string(Q));
        std::vector<double> Query(Rows.dim());
        for (double &V : Query)
          V = R.gaussian(0.0, 4.0);
        expectSamePairs(Index.nearestPruned(Query.data(), K),
                        fullScanNearest(Rows, Query.data(), K));
      }
    }
  }
}

TEST(ClusterIndexTest, TieHeavyAndDuplicateRowsStayExact) {
  Rng R(1234);
  FeatureMatrix Rows = gridRows(1800, 5, R);
  ClusterIndex Index;
  Index.build(Rows, Rows.rows(), 24, 99);
  ASSERT_TRUE(Index.valid());

  for (int Q = 0; Q < 10; ++Q) {
    SCOPED_TRACE("query " + std::to_string(Q));
    // Queries from the same grid maximize exact distance ties; the
    // (dist, ascending id) tie-break must survive the pruning.
    std::vector<double> Query(Rows.dim());
    for (double &V : Query)
      V = static_cast<double>(R.bounded(3));
    expectSamePairs(Index.nearestPruned(Query.data(), 64),
                    fullScanNearest(Rows, Query.data(), 64));
  }
}

TEST(ClusterIndexTest, FullyDegenerateRowsReturnLowestIds) {
  // Every row identical: all distances tie, so the k-NN is ids 0..K-1.
  FeatureMatrix Rows(500, 6);
  for (size_t I = 0; I < 500; ++I)
    for (size_t D = 0; D < 6; ++D)
      Rows.rowPtr(I)[D] = 1.5;
  ClusterIndex Index;
  Index.build(Rows, Rows.rows(), 0, 7);
  ASSERT_TRUE(Index.valid());

  std::vector<double> Query(6, -2.0);
  std::vector<std::pair<double, uint32_t>> Near =
      Index.nearestPruned(Query.data(), 5);
  ASSERT_EQ(Near.size(), 5u);
  for (uint32_t I = 0; I < 5; ++I)
    EXPECT_EQ(Near[I].second, I);
  expectSamePairs(Near, fullScanNearest(Rows, Query.data(), 5));
}

TEST(ClusterIndexTest, CoversPrefixWithOriginalRowIds) {
  Rng R(55);
  FeatureMatrix Rows = randomRows(1000, 4, R);
  ClusterIndex Index;
  Index.build(Rows, 600, 0, 1);
  ASSERT_TRUE(Index.valid());
  EXPECT_EQ(Index.coveredRows(), 600u);

  std::vector<double> Query(Rows.dim(), 0.25);
  std::vector<std::pair<double, uint32_t>> Near =
      Index.nearestPruned(Query.data(), 20);
  ASSERT_EQ(Near.size(), 20u);
  for (const std::pair<double, uint32_t> &P : Near)
    EXPECT_LT(P.second, 600u);
  // Oracle over the covered prefix only.
  std::vector<double> DistSq(600);
  kernels::l2Sq1xN(Query.data(), Rows.rowPtr(0), 600, Rows.dim(),
                   Rows.stride(), DistSq.data());
  std::vector<size_t> Sel = selectNearest(DistSq.data(), 600, 20);
  for (size_t I = 0; I < Sel.size(); ++I) {
    EXPECT_EQ(Near[I].second, static_cast<uint32_t>(Sel[I]));
    EXPECT_EQ(bits(Near[I].first), bits(DistSq[Sel[I]]));
  }
}

TEST(ClusterIndexTest, PruningActuallySkipsListsOnClusteredData) {
  // Well-separated blobs: a small-k query near one blob must not scan
  // most lists — this guards the perf claim, not just correctness.
  Rng R(8);
  FeatureMatrix Rows(4096, 6);
  for (size_t I = 0; I < Rows.rows(); ++I) {
    double Base = static_cast<double>(I % 16) * 100.0;
    for (size_t D = 0; D < 6; ++D)
      Rows.rowPtr(I)[D] = Base + R.gaussian(0.0, 0.5);
  }
  ClusterIndex Index;
  Index.build(Rows, Rows.rows(), 64, 3);
  ASSERT_TRUE(Index.valid());

  std::vector<double> Query(6, 100.0); // Near blob 1.
  ClusterScanStats Stats;
  std::vector<std::pair<double, uint32_t>> Near =
      Index.nearestPruned(Query.data(), 10, &Stats);
  expectSamePairs(Near, fullScanNearest(Rows, Query.data(), 10));
  EXPECT_EQ(Stats.ListsTotal, Index.numLists());
  EXPECT_LT(Stats.ListsScanned, Stats.ListsTotal / 2);
  EXPECT_LT(Stats.RowsScanned, Stats.RowsTotal / 2);
}

TEST(ClusterIndexTest, NaNRowAndNaNQueryFollowTheKeyOrder) {
  // Row 0 has a NaN feature, so its distance to every query is NaN, and a
  // NaN query makes every distance NaN. The walk ranks lists and
  // candidates by distance bits, so the answer is the first K keys of the
  // exact scan sorted by (distance bits, id): the NaN row last, and for
  // the NaN query the ids in ascending order.
  Rng R(29);
  FeatureMatrix Rows = randomRows(1200, 6, R);
  Rows.rowPtr(0)[0] = std::numeric_limits<double>::quiet_NaN();
  ClusterIndex Index;
  Index.build(Rows, Rows.rows(), /*NumCentroids=*/0, 13);
  ASSERT_TRUE(Index.valid());

  auto KeySorted = [&](const double *Query, size_t K) {
    std::vector<double> DistSq(Rows.rows());
    kernels::l2Sq1xN(Query, Rows.data(), Rows.rows(), Rows.dim(),
                     Rows.stride(), DistSq.data());
    std::vector<kernels::SelectKey> Keys(Rows.rows());
    for (size_t I = 0; I < Rows.rows(); ++I)
      Keys[I] = {kernels::keyBits(DistSq[I]), static_cast<uint32_t>(I)};
    std::sort(Keys.begin(), Keys.end());
    std::vector<std::pair<double, uint32_t>> Out;
    for (size_t I = 0; I < K; ++I)
      Out.push_back({DistSq[Keys[I].second], Keys[I].second});
    return Out;
  };

  std::vector<double> Finite(Rows.dim());
  for (double &V : Finite)
    V = R.gaussian(0.0, 4.0);
  std::vector<double> NaNQuery = Finite;
  NaNQuery[2] = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double> *Query : {&Finite, &NaNQuery}) {
    SCOPED_TRACE(Query == &Finite ? "finite query" : "NaN query");
    for (size_t K : {size_t(1), size_t(10), Rows.rows()}) {
      SCOPED_TRACE("K " + std::to_string(K));
      expectSamePairs(Index.nearestPruned(Query->data(), K),
                      KeySorted(Query->data(), K));
    }
  }
}

TEST(ClusterIndexTest, FilterKeepsKeysThatTieTheBound) {
  // Two lists around a query at the origin. The near list holds 2K + 8
  // points (x_r, 0), x_r = 5 + r/8, with ids past the far list's, in the
  // rank order K..2K-1, 0..K-1, then the rest: the first cut, at K keys,
  // takes the bound at rank 2K - 1, and the 2K cut, halfway through the
  // list, moves it to rank K - 1. The far list, walked after, holds row 0
  // at (0, x_{K-1}), whose squared distance has the bound's bits exactly,
  // and rows further up the y axis than any near row. Row 0 has the lower
  // id, so it is the K-th neighbour; a filter that dropped keys equal to
  // the bound would return the near row of rank K - 1 instead.
  auto X = [](size_t Rank) { return 5.0 + static_cast<double>(Rank) / 8.0; };
  for (size_t K : {size_t(1), size_t(3), size_t(8)}) {
    SCOPED_TRACE("K " + std::to_string(K));
    const size_t Far = 8, Near = 2 * K + 8;
    FeatureMatrix Rows(Far + Near, 2);
    Rows.rowPtr(0)[1] = X(K - 1);
    for (size_t I = 1; I < Far; ++I)
      Rows.rowPtr(I)[1] = 9.0 + static_cast<double>(I) / 4.0;
    for (size_t I = 0; I < Near; ++I)
      Rows.rowPtr(Far + I)[0] = X(I < K ? K + I : I < 2 * K ? I - K : I);
    ClusterIndex Index;
    Index.build(Rows, Rows.rows(), /*NumCentroids=*/2, /*Seed=*/5);
    ASSERT_EQ(Index.numLists(), 2u);

    std::vector<double> Query(2, 0.0);
    ClusterScanStats Stats;
    std::vector<std::pair<double, uint32_t>> Got =
        Index.nearestPruned(Query.data(), K, &Stats);
    EXPECT_EQ(Stats.ListsScanned, 2u) << "the far list must be walked";
    ASSERT_EQ(Got.size(), K);
    EXPECT_EQ(Got[K - 1].second, 0u);
    expectSamePairs(Got, fullScanNearest(Rows, Query.data(), K));
  }
}

//===----------------------------------------------------------------------===//
// nearestPrunedBatch: batch-native pruned k-NN
//===----------------------------------------------------------------------===//

TEST(ClusterIndexTest, NearestPrunedBatchMatchesSerialBitForBit) {
  // The binary runs under PROM_THREADS=1/4 and PROM_KERNELS=scalar (ctest
  // registrations), so this also pins the batch fan-out across thread
  // counts and ISAs. Stats equality is part of the contract: the batch
  // walk must make exactly the serial walk's pruning decisions.
  for (uint64_t Seed : {4u, 81u, 733u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    FeatureMatrix Rows = randomRows(2500, 8, R);
    ClusterIndex Index;
    Index.build(Rows, Rows.rows(), /*NumCentroids=*/0, Seed);
    ASSERT_TRUE(Index.valid());

    for (size_t NumQ : {size_t(1), size_t(7), size_t(64)}) {
      SCOPED_TRACE("batch " + std::to_string(NumQ));
      FeatureMatrix Queries = randomRows(NumQ, Rows.dim(), R);
      for (size_t K : {size_t(1), size_t(7), size_t(2500)}) {
        SCOPED_TRACE("K " + std::to_string(K));
        std::vector<ClusterScanStats> BatchStats;
        std::vector<std::vector<std::pair<double, uint32_t>>> Batch =
            Index.nearestPrunedBatch(Queries, K, &BatchStats);
        ASSERT_EQ(Batch.size(), NumQ);
        ASSERT_EQ(BatchStats.size(), NumQ);
        for (size_t Q = 0; Q < NumQ; ++Q) {
          SCOPED_TRACE("query " + std::to_string(Q));
          ClusterScanStats Serial;
          expectSamePairs(Batch[Q],
                          Index.nearestPruned(Queries.rowPtr(Q), K, &Serial));
          expectSamePairs(Batch[Q],
                          fullScanNearest(Rows, Queries.rowPtr(Q), K));
          EXPECT_EQ(BatchStats[Q].ListsTotal, Serial.ListsTotal);
          EXPECT_EQ(BatchStats[Q].ListsScanned, Serial.ListsScanned);
          EXPECT_EQ(BatchStats[Q].RowsTotal, Serial.RowsTotal);
          EXPECT_EQ(BatchStats[Q].RowsScanned, Serial.RowsScanned);
        }
      }
    }
  }
}

TEST(ClusterIndexTest, NearestPrunedBatchTieHeavyGridStaysExact) {
  Rng R(4321);
  FeatureMatrix Rows = gridRows(1800, 5, R);
  ClusterIndex Index;
  Index.build(Rows, Rows.rows(), 24, 99);
  ASSERT_TRUE(Index.valid());

  // Queries from the same grid maximize exact distance ties; the
  // (dist, ascending id) tie-break must survive both the pruning and the
  // batch fan-out.
  FeatureMatrix Queries = gridRows(13, Rows.dim(), R);
  std::vector<std::vector<std::pair<double, uint32_t>>> Batch =
      Index.nearestPrunedBatch(Queries, 64);
  ASSERT_EQ(Batch.size(), Queries.rows());
  for (size_t Q = 0; Q < Queries.rows(); ++Q) {
    SCOPED_TRACE("query " + std::to_string(Q));
    expectSamePairs(Batch[Q], fullScanNearest(Rows, Queries.rowPtr(Q), 64));
  }
}

TEST(ClusterIndexTest, NearestPrunedBatchEmptyAndDegenerateBatches) {
  Rng R(17);
  FeatureMatrix Rows = randomRows(600, 4, R);
  ClusterIndex Index;
  Index.build(Rows, Rows.rows(), 0, 5);
  ASSERT_TRUE(Index.valid());

  // Empty batch: no queries, no stats, no crash.
  FeatureMatrix NoQueries(0, Rows.dim());
  std::vector<ClusterScanStats> Stats;
  EXPECT_TRUE(Index.nearestPrunedBatch(NoQueries, 5, &Stats).empty());
  EXPECT_TRUE(Stats.empty());

  // K = 0 yields empty per-query results; K > N clamps to N.
  FeatureMatrix Queries = randomRows(3, Rows.dim(), R);
  for (const auto &Near : Index.nearestPrunedBatch(Queries, 0))
    EXPECT_TRUE(Near.empty());
  for (const auto &Near : Index.nearestPrunedBatch(Queries, 10000))
    EXPECT_EQ(Near.size(), Rows.rows());

  // Fully degenerate batch: every query identical to every (identical)
  // row — all ties, every query must get ids 0..K-1.
  FeatureMatrix Flat(400, 4);
  for (size_t I = 0; I < Flat.rows(); ++I)
    for (size_t D = 0; D < 4; ++D)
      Flat.rowPtr(I)[D] = 2.5;
  ClusterIndex FlatIndex;
  FlatIndex.build(Flat, Flat.rows(), 0, 11);
  FeatureMatrix FlatQueries(5, 4);
  for (size_t Q = 0; Q < 5; ++Q)
    for (size_t D = 0; D < 4; ++D)
      FlatQueries.rowPtr(Q)[D] = 2.5;
  for (const auto &Near : FlatIndex.nearestPrunedBatch(FlatQueries, 7)) {
    ASSERT_EQ(Near.size(), 7u);
    for (uint32_t I = 0; I < 7; ++I)
      EXPECT_EQ(Near[I].second, I);
  }
}

TEST(ClusterIndexTest, ClusterScanStatsMergeSumsCounters) {
  ClusterScanStats A;
  A.ListsTotal = 10;
  A.ListsScanned = 3;
  A.RowsTotal = 1000;
  A.RowsScanned = 120;
  ClusterScanStats B;
  B.ListsTotal = 8;
  B.ListsScanned = 2;
  B.RowsTotal = 500;
  B.RowsScanned = 40;
  A += B;
  EXPECT_EQ(A.ListsTotal, 18u);
  EXPECT_EQ(A.ListsScanned, 5u);
  EXPECT_EQ(A.RowsTotal, 1500u);
  EXPECT_EQ(A.RowsScanned, 160u);
}

TEST(ClusterIndexTest, ClearAndRebuild) {
  Rng R(21);
  FeatureMatrix Rows = randomRows(300, 3, R);
  ClusterIndex Index;
  EXPECT_FALSE(Index.valid());
  Index.build(Rows, Rows.rows(), 0, 1);
  EXPECT_TRUE(Index.valid());
  Index.clear();
  EXPECT_FALSE(Index.valid());
  EXPECT_EQ(Index.coveredRows(), 0u);
  Index.build(Rows, 100, 0, 2);
  EXPECT_TRUE(Index.valid());
  EXPECT_EQ(Index.coveredRows(), 100u);
  std::vector<double> Query(Rows.dim(), 0.0);
  EXPECT_EQ(Index.nearestPruned(Query.data(), 3).size(), 3u);
}
