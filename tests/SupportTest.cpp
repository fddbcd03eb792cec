//===- tests/SupportTest.cpp - support library tests --------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Distance.h"
#include "support/FeatureMatrix.h"
#include "support/KMeans.h"
#include "support/Kernels.h"
#include "support/Matrix.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

using namespace prom::support;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng R(7);
  double Sum = 0.0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Sum += R.uniform();
  EXPECT_NEAR(Sum / N, 0.5, 0.02);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng R(3);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.bounded(17), 17u);
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng R(3);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.bounded(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RngTest, IntInInclusiveRange) {
  Rng R(5);
  std::set<int> Seen;
  for (int I = 0; I < 500; ++I) {
    int V = R.intIn(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, GaussianMoments) {
  Rng R(11);
  const int N = 50000;
  double Sum = 0.0, Sq = 0.0;
  for (int I = 0; I < N; ++I) {
    double G = R.gaussian();
    Sum += G;
    Sq += G * G;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.03);
  EXPECT_NEAR(Sq / N, 1.0, 0.05);
}

TEST(RngTest, GaussianShiftScale) {
  Rng R(11);
  const int N = 20000;
  double Sum = 0.0;
  for (int I = 0; I < N; ++I)
    Sum += R.gaussian(5.0, 2.0);
  EXPECT_NEAR(Sum / N, 5.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng R(13);
  int Hits = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    if (R.bernoulli(0.3))
      ++Hits;
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.3, 0.02);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng R(17);
  std::vector<double> W = {1.0, 0.0, 3.0};
  int Counts[3] = {0, 0, 0};
  for (int I = 0; I < 8000; ++I)
    ++Counts[R.weightedIndex(W)];
  EXPECT_EQ(Counts[1], 0);
  EXPECT_NEAR(static_cast<double>(Counts[2]) / Counts[0], 3.0, 0.4);
}

TEST(RngTest, WeightedIndexAllZeroFallsBackUniform) {
  Rng R(17);
  std::vector<double> W = {0.0, 0.0};
  int Counts[2] = {0, 0};
  for (int I = 0; I < 2000; ++I)
    ++Counts[R.weightedIndex(W)];
  EXPECT_GT(Counts[0], 500);
  EXPECT_GT(Counts[1], 500);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng R(19);
  std::vector<size_t> P = R.permutation(50);
  std::set<size_t> Seen(P.begin(), P.end());
  EXPECT_EQ(Seen.size(), 50u);
  EXPECT_EQ(*Seen.begin(), 0u);
  EXPECT_EQ(*Seen.rbegin(), 49u);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng A(23);
  Rng B = A.split();
  // The child stream must differ from the parent continuation.
  int Same = 0;
  for (int I = 0; I < 50; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0);
}

//===----------------------------------------------------------------------===//
// Matrix
//===----------------------------------------------------------------------===//

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix M(2, 3, 1.5);
  EXPECT_EQ(M.rows(), 2u);
  EXPECT_EQ(M.cols(), 3u);
  EXPECT_DOUBLE_EQ(M.at(1, 2), 1.5);
  M.at(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(M.at(0, 1), -2.0);
}

TEST(MatrixTest, MatmulKnownValues) {
  Matrix A(2, 2, {1, 2, 3, 4});
  Matrix B(2, 2, {5, 6, 7, 8});
  Matrix C = A.matmul(B);
  EXPECT_DOUBLE_EQ(C.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(C.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(C.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(C.at(1, 1), 50);
}

TEST(MatrixTest, TransposedMatmulMatchesExplicit) {
  Rng R(1);
  Matrix A(3, 4), B(3, 5);
  A.fillGaussian(R, 1.0);
  B.fillGaussian(R, 1.0);
  Matrix Expect = A.transposed().matmul(B);
  Matrix Got = A.transposedMatmul(B);
  ASSERT_EQ(Got.rows(), Expect.rows());
  for (size_t I = 0; I < Got.rows(); ++I)
    for (size_t J = 0; J < Got.cols(); ++J)
      EXPECT_NEAR(Got.at(I, J), Expect.at(I, J), 1e-12);
}

TEST(MatrixTest, MatmulTransposedMatchesExplicit) {
  Rng R(2);
  Matrix A(3, 4), B(5, 4);
  A.fillGaussian(R, 1.0);
  B.fillGaussian(R, 1.0);
  Matrix Expect = A.matmul(B.transposed());
  Matrix Got = A.matmulTransposed(B);
  for (size_t I = 0; I < Got.rows(); ++I)
    for (size_t J = 0; J < Got.cols(); ++J)
      EXPECT_NEAR(Got.at(I, J), Expect.at(I, J), 1e-12);
}

TEST(MatrixTest, AddScaledAndScale) {
  Matrix A(1, 3, {1, 2, 3});
  Matrix B(1, 3, {10, 20, 30});
  A.addScaled(B, 0.1);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 2.0);
  A.scale(2.0);
  EXPECT_DOUBLE_EQ(A.at(0, 2), 12.0);
}

TEST(MatrixTest, RowBroadcastAndColumnSums) {
  Matrix A(2, 2, {1, 2, 3, 4});
  A.addRowBroadcast({10, 20});
  EXPECT_DOUBLE_EQ(A.at(0, 0), 11);
  EXPECT_DOUBLE_EQ(A.at(1, 1), 24);
  std::vector<double> Sums = A.columnSums();
  EXPECT_DOUBLE_EQ(Sums[0], 24);
  EXPECT_DOUBLE_EQ(Sums[1], 46);
}

TEST(MatrixTest, Hadamard) {
  Matrix A(1, 3, {1, 2, 3});
  Matrix B(1, 3, {2, 0.5, -1});
  A.hadamard(B);
  EXPECT_DOUBLE_EQ(A.at(0, 0), 2);
  EXPECT_DOUBLE_EQ(A.at(0, 1), 1);
  EXPECT_DOUBLE_EQ(A.at(0, 2), -3);
}

TEST(MatrixTest, SoftmaxNormalizes) {
  std::vector<double> L = {1.0, 2.0, 3.0};
  softmaxInPlace(L);
  EXPECT_NEAR(L[0] + L[1] + L[2], 1.0, 1e-12);
  EXPECT_GT(L[2], L[1]);
  EXPECT_GT(L[1], L[0]);
}

TEST(MatrixTest, SoftmaxStableForLargeLogits) {
  std::vector<double> L = {1000.0, 1001.0};
  softmaxInPlace(L);
  EXPECT_NEAR(L[0] + L[1], 1.0, 1e-12);
  EXPECT_FALSE(std::isnan(L[0]));
}

TEST(MatrixTest, ArgmaxFirstOnTies) {
  EXPECT_EQ(argmax({1.0, 3.0, 3.0}), 1u);
  EXPECT_EQ(argmax({5.0}), 0u);
}

TEST(MatrixTest, DotAndAxpy) {
  std::vector<double> A = {1, 2, 3}, B = {4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(A, B), 32.0);
  axpy(A, B, 2.0);
  EXPECT_DOUBLE_EQ(A[2], 15.0);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

TEST(StatsTest, MeanVarianceStddev) {
  std::vector<double> V = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(V), 5.0);
  EXPECT_DOUBLE_EQ(variance(V), 4.0);
  EXPECT_DOUBLE_EQ(stddev(V), 2.0);
}

TEST(StatsTest, EmptyInputsAreSafe) {
  std::vector<double> V;
  EXPECT_DOUBLE_EQ(mean(V), 0.0);
  EXPECT_DOUBLE_EQ(variance(V), 0.0);
  EXPECT_DOUBLE_EQ(geomean(V), 0.0);
  Summary S = summarize(V);
  EXPECT_EQ(S.Count, 0u);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> V = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(V, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(V, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(StatsTest, GeomeanKnownValue) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(StatsTest, SummaryOrdering) {
  Rng R(3);
  std::vector<double> V;
  for (int I = 0; I < 500; ++I)
    V.push_back(R.uniform());
  Summary S = summarize(V);
  EXPECT_LE(S.Min, S.Q25);
  EXPECT_LE(S.Q25, S.Median);
  EXPECT_LE(S.Median, S.Q75);
  EXPECT_LE(S.Q75, S.Max);
  EXPECT_EQ(S.Count, 500u);
}

//===----------------------------------------------------------------------===//
// Distance
//===----------------------------------------------------------------------===//

TEST(DistanceTest, EuclideanKnownValues) {
  EXPECT_DOUBLE_EQ(euclidean({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(squaredEuclidean({1, 1}, {1, 1}), 0.0);
}

TEST(DistanceTest, CosineDistance) {
  EXPECT_NEAR(cosineDistance({1, 0}, {0, 1}), 1.0, 1e-12);
  EXPECT_NEAR(cosineDistance({1, 1}, {2, 2}), 0.0, 1e-12);
  EXPECT_NEAR(cosineDistance({1, 0}, {-1, 0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(cosineDistance({0, 0}, {1, 1}), 1.0);
}

TEST(DistanceTest, KNearestOrdersByDistance) {
  FeatureMatrix Points =
      FeatureMatrix::fromRows({{0, 0}, {5, 0}, {1, 0}, {3, 0}});
  std::vector<double> Query = {0.4, 0.0};
  std::vector<size_t> Near = kNearest(Points, Query.data(), 2);
  ASSERT_EQ(Near.size(), 2u);
  EXPECT_EQ(Near[0], 0u);
  EXPECT_EQ(Near[1], 2u);
}

TEST(DistanceTest, KNearestClampsK) {
  FeatureMatrix Points = FeatureMatrix::fromRows({{0, 0}, {1, 1}});
  std::vector<double> Query = {0, 0};
  EXPECT_EQ(kNearest(Points, Query.data(), 10).size(), 2u);
}

TEST(DistanceTest, KNearestBreaksDistanceTiesByAscendingIndex) {
  // Regression test for the nth_element + prefix-sort rewrite: many rows
  // at exactly the same distance must come back in ascending-index order,
  // and the kept set must cut ties at the boundary by index too.
  std::vector<std::vector<double>> Points;
  for (int I = 0; I < 8; ++I)
    Points.push_back({1.0, 0.0}); // All at distance 1 from the origin.
  Points.push_back({0.5, 0.0});   // Index 8: strictly closer.
  FeatureMatrix Flat = FeatureMatrix::fromRows(Points);
  std::vector<double> Query = {0.0, 0.0};
  std::vector<size_t> Near = kNearest(Flat, Query.data(), 4);
  ASSERT_EQ(Near.size(), 4u);
  EXPECT_EQ(Near[0], 8u); // Closest first.
  EXPECT_EQ(Near[1], 0u); // Then tied rows by ascending index.
  EXPECT_EQ(Near[2], 1u);
  EXPECT_EQ(Near[3], 2u);

  EXPECT_EQ(kNearest(Flat, Query.data(), Points.size() + 3).size(),
            Points.size());
  // K = 0 on a non-empty set is well-defined: empty selection.
  EXPECT_TRUE(kNearest(Flat, Query.data(), 0).empty());

  // The batched overload must make the SAME selection per query — the one
  // tie-break rule (distance, then ascending index) is selectNearest(),
  // shared by every path. Regression test: kNearest and the batched k-NN
  // scan may never disagree on duplicate distances.
  std::vector<std::vector<double>> QueryRows = {
      {0.0, 0.0}, {0.0, 0.0}, {2.0, 0.0}};
  FeatureMatrix Queries = FeatureMatrix::fromRows(QueryRows);
  std::vector<std::vector<size_t>> Batched = kNearestBatch(Flat, Queries, 4);
  ASSERT_EQ(Batched.size(), 3u);
  EXPECT_EQ(Batched[0], Near);
  EXPECT_EQ(Batched[1], Near);
  EXPECT_EQ(Batched[2], kNearest(Flat, QueryRows[2].data(), 4));
}

TEST(DistanceTest, SelectNearestIsTheSharedTieBreakRule) {
  // Pin the rule itself: equal values rank by ascending index, the kept
  // prefix is sorted closest-first, and K clamps to N.
  std::vector<double> Dist = {2.0, 1.0, 2.0, 1.0, 0.5};
  std::vector<size_t> Sel = selectNearest(Dist.data(), Dist.size(), 4);
  ASSERT_EQ(Sel.size(), 4u);
  EXPECT_EQ(Sel[0], 4u); // 0.5
  EXPECT_EQ(Sel[1], 1u); // 1.0, lower index first.
  EXPECT_EQ(Sel[2], 3u); // 1.0
  EXPECT_EQ(Sel[3], 0u); // 2.0, lower index wins the boundary tie.
  EXPECT_EQ(selectNearest(Dist.data(), Dist.size(), 99).size(), 5u);
  EXPECT_TRUE(selectNearest(Dist.data(), 0, 3).empty());
}

TEST(DistanceTest, SelectNearestRanksANaNLast) {
  // A NaN compares false both ways, so under a double comparator a NaN at
  // index 0 can stay in the selection. The (bits, index) order ranks it
  // after every number, as the calibration store's cut and the pruned
  // walk do, in both the bounded-buffer path (K <= 64) and the
  // nth_element path.
  std::vector<double> Dist(100);
  Dist[0] = std::numeric_limits<double>::quiet_NaN();
  std::vector<size_t> Finite;
  for (size_t I = 1; I < Dist.size(); ++I) {
    Dist[I] = static_cast<double>(I % 7); // Tie-heavy.
    Finite.push_back(I);
  }
  // The (distance, index) order of the finite entries alone.
  std::stable_sort(Finite.begin(), Finite.end(),
                   [&](size_t A, size_t B) { return Dist[A] < Dist[B]; });
  for (size_t K : {size_t(2), size_t(65)}) {
    SCOPED_TRACE("K " + std::to_string(K));
    EXPECT_EQ(selectNearest(Dist.data(), Dist.size(), K),
              std::vector<size_t>(Finite.begin(),
                                  Finite.begin() + static_cast<long>(K)));
  }
  std::vector<size_t> All =
      selectNearest(Dist.data(), Dist.size(), Dist.size());
  ASSERT_EQ(All.size(), Dist.size());
  EXPECT_EQ(All.back(), 0u);
}

//===----------------------------------------------------------------------===//
// KMeans + gap statistic
//===----------------------------------------------------------------------===//

namespace {

/// Full-range k-means, the regressor's pseudo-label clustering: Lloyd on
/// every row, 50-iteration cap.
KMeansMatrixResult kMeansAll(const FeatureMatrix &Points, size_t K, Rng &R,
                             size_t MaxIters = 50) {
  return kMeansMatrix(Points, 0, Points.rows(), K, R, MaxIters,
                      /*SampleCap=*/Points.rows());
}

} // namespace

TEST(KMeansTest, SeparatesObviousClusters) {
  Rng R(5);
  std::vector<std::vector<double>> Points;
  for (int C = 0; C < 3; ++C)
    for (int I = 0; I < 40; ++I)
      Points.push_back({C * 10.0 + R.gaussian(0.0, 0.3),
                        C * 10.0 + R.gaussian(0.0, 0.3)});
  KMeansMatrixResult Res = kMeansAll(FeatureMatrix::fromRows(Points), 3, R);
  // All members of one true cluster must share an assignment.
  for (int C = 0; C < 3; ++C) {
    uint32_t First = Res.Assignments[static_cast<size_t>(C) * 40];
    for (int I = 0; I < 40; ++I)
      EXPECT_EQ(Res.Assignments[static_cast<size_t>(C) * 40 + I], First);
  }
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  Rng R(6);
  std::vector<std::vector<double>> Rows;
  for (int I = 0; I < 200; ++I)
    Rows.push_back({R.uniform(0, 10), R.uniform(0, 10)});
  FeatureMatrix Points = FeatureMatrix::fromRows(Rows);
  double Prev = kMeansAll(Points, 1, R).Inertia;
  for (size_t K = 2; K <= 8; K += 2) {
    double Cur = kMeansAll(Points, K, R).Inertia;
    EXPECT_LE(Cur, Prev * 1.05); // Allow slight local-minimum noise.
    Prev = Cur;
  }
}

TEST(KMeansTest, KClampedToPointCount) {
  Rng R(7);
  FeatureMatrix Points = FeatureMatrix::fromRows({{0, 0}, {1, 1}});
  KMeansMatrixResult Res = kMeansAll(Points, 10, R);
  EXPECT_LE(Res.Centroids.rows(), 2u);
}

TEST(KMeansTest, EmptyClustersReseedToFarthestPoint) {
  // Quantizer-duty hardening: clusters that empty out during Lloyd
  // iterations must be reseeded (to the farthest unclaimed point) instead
  // of silently keeping a dead centroid. With distinct points and K well
  // below N, every cluster must end up non-empty for any seed.
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    std::vector<std::vector<double>> Points;
    for (int I = 0; I < 40; ++I)
      Points.push_back({static_cast<double>(I) * 1.7,
                        static_cast<double>(I % 5) * 3.1});
    KMeansMatrixResult Res = kMeansAll(FeatureMatrix::fromRows(Points), 20, R);
    ASSERT_EQ(Res.Centroids.rows(), 20u);
    std::vector<int> Counts(20, 0);
    for (uint32_t A : Res.Assignments)
      ++Counts[A];
    for (size_t C = 0; C < 20; ++C)
      EXPECT_GT(Counts[C], 0) << "cluster " << C << " ended empty";
  }
}

TEST(KMeansTest, AssignmentsAreNearestCentroidWhenLloydHitsTheCap) {
  // The regressor labels each calibration entry with its assignment and
  // each test input with nearestCentroid(); the two must agree even when
  // Lloyd stops at its iteration cap with assignments still moving.
  Rng Gen(2024);
  FeatureMatrix Points(3137, 2);
  for (size_t I = 0; I < Points.rows(); ++I)
    for (size_t D = 0; D < 2; ++D)
      Points.rowPtr(I)[D] = Gen.uniform(0.0, 1.0);

  Rng R(1), RLonger(1);
  KMeansMatrixResult Res = kMeansAll(Points, 20, R);
  // The fixture must really stop at the cap: had Lloyd converged within 50
  // iterations, a longer cap would return the same centroids.
  KMeansMatrixResult Longer = kMeansAll(Points, 20, RLonger, 200);
  bool SameCentroids = true;
  for (size_t C = 0; C < 20; ++C)
    for (size_t D = 0; D < 2; ++D)
      SameCentroids &= Res.Centroids.rowPtr(C)[D] ==
                       Longer.Centroids.rowPtr(C)[D];
  ASSERT_FALSE(SameCentroids) << "fixture converged within the cap";

  ASSERT_EQ(Res.Centroids.rows(), 20u);
  ASSERT_EQ(Res.Assignments.size(), Points.rows());
  size_t Stale = 0;
  for (size_t I = 0; I < Points.rows(); ++I) {
    // Reference: per-centroid distances, ties toward the lower index.
    size_t Best = 0;
    double BestDist = 0.0;
    for (size_t C = 0; C < Res.Centroids.rows(); ++C) {
      double D = kernels::l2Sq(Points.rowPtr(I), Res.Centroids.rowPtr(C), 2);
      if (C == 0 || D < BestDist) {
        Best = C;
        BestDist = D;
      }
    }
    if (Res.Assignments[I] != Best)
      ++Stale;
    EXPECT_EQ(nearestCentroid(Res.Centroids, Points.rowPtr(I)), Best);
  }
  EXPECT_EQ(Stale, 0u) << "assignments that are not the nearest centroid";
}

TEST(KMeansTest, NearestCentroidPicksClosest) {
  FeatureMatrix Centroids = FeatureMatrix::fromRows({{0, 0}, {10, 10}});
  std::vector<double> Near0 = {1, 1}, Near1 = {9, 9};
  EXPECT_EQ(nearestCentroid(Centroids, Near0.data()), 0u);
  EXPECT_EQ(nearestCentroid(Centroids, Near1.data()), 1u);
}

TEST(GapStatisticTest, FindsThreeBlobs) {
  Rng R(9);
  std::vector<std::vector<double>> Points;
  for (int C = 0; C < 3; ++C)
    for (int I = 0; I < 50; ++I)
      Points.push_back({C * 20.0 + R.gaussian(0.0, 0.5),
                        R.gaussian(0.0, 0.5)});
  size_t K = gapStatisticK(FeatureMatrix::fromRows(Points), R, 2, 8);
  EXPECT_GE(K, 2u);
  EXPECT_LE(K, 4u);
}

TEST(GapStatisticTest, TinyInputIsSafe) {
  Rng R(10);
  EXPECT_EQ(gapStatisticK(FeatureMatrix::fromRows({{0.0, 0.0}}), R), 1u);
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::percent(0.5, 1), "50.0%");
}

TEST(TableTest, CsvRoundTrip) {
  Table T({"a", "b"});
  T.addRow({"1", "x"});
  T.addRow({"2", "y"});
  std::string Path = ::testing::TempDir() + "/prom_table_test.csv";
  ASSERT_TRUE(T.writeCsv(Path));
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[64];
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), F), nullptr);
  EXPECT_STREQ(Buf, "a,b\n");
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), F), nullptr);
  EXPECT_STREQ(Buf, "1,x\n");
  std::fclose(F);
}

TEST(TableTest, CsvFailsOnBadPath) {
  Table T({"a"});
  EXPECT_FALSE(T.writeCsv("/nonexistent-dir/zzz/file.csv"));
}
