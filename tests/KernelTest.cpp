//===- tests/KernelTest.cpp - kernel bit-identity and semantics -------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The determinism contract of support/Kernels: the dispatched variant
// (AVX2 when the build + CPU provide it, otherwise the scalar reference
// itself) must be bit-identical to the scalar reference on every input —
// odd lengths, tail remainders, zero length, NaN propagation, zero-heavy
// matmul operands, selection keys of every bit class, and every lane
// shape of the Eq. (2) fold. CI runs this suite in both the scalar-only
// and the AVX2 build configuration.
//
//===----------------------------------------------------------------------===//

#include "support/Distance.h"
#include "support/FeatureMatrix.h"
#include "support/Kernels.h"
#include "support/Matrix.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

using namespace prom;
using namespace prom::support;

namespace {

/// Exact bit comparison (EXPECT_EQ treats -0.0 == +0.0 and NaN != NaN;
/// the kernel contract is stronger than numeric equality).
void expectSameBits(double A, double B, const char *What) {
  uint64_t BitsA, BitsB;
  std::memcpy(&BitsA, &A, sizeof(BitsA));
  std::memcpy(&BitsB, &B, sizeof(BitsB));
  EXPECT_EQ(BitsA, BitsB) << What << ": " << A << " vs " << B;
}

std::vector<double> randomVec(size_t N, Rng &R) {
  std::vector<double> V(N);
  for (double &X : V)
    X = R.gaussian(0.0, 3.0);
  return V;
}

} // namespace

TEST(KernelTest, ReportsActiveIsa) {
  // Smoke: the dispatcher settled on one of the two variants.
  const char *Name = kernels::activeIsaName();
  EXPECT_TRUE(std::strcmp(Name, "avx2") == 0 ||
              std::strcmp(Name, "scalar") == 0);
  EXPECT_EQ(kernels::avx2Active(), std::strcmp(Name, "avx2") == 0);
}

TEST(KernelTest, L2SqMatchesScalarOnEveryLengthClass) {
  Rng R(11);
  // 0 (empty), 1..2*lanes (every tail shape), odd primes, and lengths
  // around typical embedding widths.
  for (size_t N : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 13u, 31u, 64u, 67u,
                   127u, 500u}) {
    std::vector<double> A = randomVec(N, R), B = randomVec(N, R);
    expectSameBits(kernels::l2Sq(A.data(), B.data(), N),
                   kernels::scalar::l2Sq(A.data(), B.data(), N), "l2Sq");
  }
  EXPECT_EQ(kernels::l2Sq(nullptr, nullptr, 0), 0.0);
}

TEST(KernelTest, DotMatchesScalarOnEveryLengthClass) {
  Rng R(12);
  for (size_t N : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 33u, 64u, 101u}) {
    std::vector<double> A = randomVec(N, R), B = randomVec(N, R);
    expectSameBits(kernels::dot(A.data(), B.data(), N),
                   kernels::scalar::dot(A.data(), B.data(), N), "dot");
  }
}

TEST(KernelTest, AxpyMatchesScalar) {
  Rng R(13);
  for (size_t N : {0u, 1u, 5u, 8u, 31u, 64u}) {
    std::vector<double> A = randomVec(N, R), B = randomVec(N, R);
    std::vector<double> ADispatch = A, AScalar = A;
    kernels::axpy(ADispatch.data(), B.data(), 1.7, N);
    kernels::scalar::axpy(AScalar.data(), B.data(), 1.7, N);
    for (size_t I = 0; I < N; ++I)
      expectSameBits(ADispatch[I], AScalar[I], "axpy");
  }
}

TEST(KernelTest, NaNPropagatesIdentically) {
  Rng R(14);
  for (size_t Pos : {0u, 3u, 6u}) { // Vector body and tail lanes.
    std::vector<double> A = randomVec(7, R), B = randomVec(7, R);
    A[Pos] = std::numeric_limits<double>::quiet_NaN();
    double D = kernels::l2Sq(A.data(), B.data(), A.size());
    double S = kernels::scalar::l2Sq(A.data(), B.data(), A.size());
    EXPECT_TRUE(std::isnan(D));
    EXPECT_TRUE(std::isnan(S));
    expectSameBits(D, S, "l2Sq NaN");
    expectSameBits(kernels::dot(A.data(), B.data(), A.size()),
                   kernels::scalar::dot(A.data(), B.data(), A.size()),
                   "dot NaN");
  }
}

TEST(KernelTest, BatchedScanMatchesSingleRowCalls) {
  Rng R(15);
  for (size_t Dim : {1u, 4u, 7u, 32u, 65u}) {
    FeatureMatrix M(37, Dim); // Odd row count exercises the 2-row unroll tail.
    for (size_t I = 0; I < M.rows(); ++I) {
      std::vector<double> Row = randomVec(Dim, R);
      M.setRow(I, Row.data());
    }
    std::vector<double> Q = randomVec(Dim, R);
    std::vector<double> Out(M.rows());
    kernels::l2Sq1xN(Q.data(), M.data(), M.rows(), M.dim(), M.stride(),
                     Out.data());
    for (size_t I = 0; I < M.rows(); ++I) {
      expectSameBits(Out[I], kernels::l2Sq(Q.data(), M.rowPtr(I), Dim),
                     "l2Sq1xN vs l2Sq");
      expectSameBits(Out[I],
                     kernels::scalar::l2Sq(Q.data(), M.rowPtr(I), Dim),
                     "l2Sq1xN vs scalar");
    }
  }
}

TEST(KernelTest, BatchedMxNScanMatchesPerQueryScans) {
  // The whole-batch scan behind the batched k-NN forwards: row Q of the
  // output must be bit-identical to a 1xN scan of query Q alone (and to
  // the scalar reference), for odd query counts and lengths.
  Rng R(19);
  for (size_t Dim : {1u, 4u, 7u, 33u}) {
    FeatureMatrix Points(29, Dim);
    for (size_t I = 0; I < Points.rows(); ++I) {
      std::vector<double> Row = randomVec(Dim, R);
      Points.setRow(I, Row.data());
    }
    FeatureMatrix Queries(11, Dim);
    for (size_t Q = 0; Q < Queries.rows(); ++Q) {
      std::vector<double> Row = randomVec(Dim, R);
      Queries.setRow(Q, Row.data());
    }

    std::vector<double> Out(Queries.rows() * Points.rows());
    kernels::l2SqMxN(Queries.data(), Queries.rows(), Queries.stride(),
                     Points.data(), Points.rows(), Points.dim(),
                     Points.stride(), Out.data());
    std::vector<double> ScalarOut(Out.size());
    kernels::scalar::l2SqMxN(Queries.data(), Queries.rows(),
                             Queries.stride(), Points.data(), Points.rows(),
                             Points.dim(), Points.stride(),
                             ScalarOut.data());

    std::vector<double> RowOut(Points.rows());
    for (size_t Q = 0; Q < Queries.rows(); ++Q) {
      kernels::l2Sq1xN(Queries.rowPtr(Q), Points.data(), Points.rows(),
                       Points.dim(), Points.stride(), RowOut.data());
      for (size_t I = 0; I < Points.rows(); ++I) {
        expectSameBits(Out[Q * Points.rows() + I], RowOut[I],
                       "l2SqMxN vs l2Sq1xN");
        expectSameBits(Out[Q * Points.rows() + I],
                       ScalarOut[Q * Points.rows() + I],
                       "l2SqMxN vs scalar");
      }
    }
  }
}

TEST(KernelTest, MatmulMatchesScalarIncludingZeroSkip) {
  Rng R(16);
  // Shapes straddling the lane width and the K tile, with ~40% exact
  // zeros in A to exercise the sparse-activation skip identically.
  struct Shape {
    size_t N, K, M;
  };
  for (Shape S : {Shape{3, 5, 7}, Shape{8, 16, 4}, Shape{5, 300, 9},
                  Shape{17, 64, 33}}) {
    std::vector<double> A = randomVec(S.N * S.K, R);
    for (double &V : A)
      if (R.uniform(0.0, 1.0) < 0.4)
        V = 0.0;
    std::vector<double> B = randomVec(S.K * S.M, R);
    std::vector<double> Bias = randomVec(S.M, R);
    for (const double *BiasPtr :
         {static_cast<const double *>(Bias.data()),
          static_cast<const double *>(nullptr)}) {
      std::vector<double> OutD(S.N * S.M), OutS(S.N * S.M);
      kernels::matmul(A.data(), S.N, S.K, B.data(), S.M, BiasPtr,
                      OutD.data());
      kernels::scalar::matmul(A.data(), S.N, S.K, B.data(), S.M, BiasPtr,
                              OutS.data());
      for (size_t I = 0; I < OutD.size(); ++I)
        expectSameBits(OutD[I], OutS[I], "matmul");
    }
  }
}

TEST(KernelTest, MatmulMatchesPerSampleAffineLoop) {
  // The batched model forwards rely on row I of the kernel matmul being
  // bit-identical to the historic per-sample loop (out = bias; for k:
  // out += a_k * B[k], skipping zero activations).
  Rng R(17);
  size_t N = 6, K = 19, M = 5;
  std::vector<double> A = randomVec(N * K, R);
  for (double &V : A)
    if (R.uniform(0.0, 1.0) < 0.3)
      V = 0.0;
  std::vector<double> B = randomVec(K * M, R);
  std::vector<double> Bias = randomVec(M, R);
  std::vector<double> Out(N * M);
  kernels::matmul(A.data(), N, K, B.data(), M, Bias.data(), Out.data());
  for (size_t I = 0; I < N; ++I) {
    std::vector<double> Ref = Bias;
    for (size_t KK = 0; KK < K; ++KK) {
      double AIK = A[I * K + KK];
      if (AIK == 0.0)
        continue;
      for (size_t J = 0; J < M; ++J)
        Ref[J] += AIK * B[KK * M + J];
    }
    for (size_t J = 0; J < M; ++J)
      expectSameBits(Out[I * M + J], Ref[J], "matmul vs per-sample");
  }
}

TEST(KernelTest, FeatureMatrixPadsRowsToLaneMultiples) {
  FeatureMatrix M(3, 5);
  EXPECT_EQ(M.rows(), 3u);
  EXPECT_EQ(M.dim(), 5u);
  EXPECT_EQ(M.stride() % kernels::KernelLanes, 0u);
  EXPECT_GE(M.stride(), M.dim());

  std::vector<double> Row = {1, 2, 3, 4, 5};
  M.setRow(1, Row.data());
  EXPECT_EQ(M.row(1), Row);
  // Padding stays zero and is never part of a row() copy.
  EXPECT_EQ(M.rowPtr(1)[5], 0.0);

  FeatureMatrix F = FeatureMatrix::fromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(F.rows(), 3u);
  EXPECT_EQ(F.dim(), 2u);
  EXPECT_EQ(F.row(2), (std::vector<double>{5, 6}));
  EXPECT_TRUE(FeatureMatrix::fromRows({}).empty());
}

TEST(KernelTest, DistanceWrappersUseTheKernels) {
  Rng R(18);
  std::vector<double> A = randomVec(11, R), B = randomVec(11, R);
  expectSameBits(squaredEuclidean(A, B),
                 kernels::l2Sq(A.data(), B.data(), A.size()),
                 "squaredEuclidean wrapper");
  expectSameBits(euclidean(A, B),
                 std::sqrt(kernels::l2Sq(A.data(), B.data(), A.size())),
                 "euclidean wrapper");
  expectSameBits(dot(A, B), kernels::dot(A.data(), B.data(), A.size()),
                 "dot wrapper");
}

//===----------------------------------------------------------------------===//
// Selection cut and Eq. (2) fold
//===----------------------------------------------------------------------===//

namespace {

using kernels::SelectKey;

constexpr double Inf = std::numeric_limits<double>::infinity();
constexpr double NaN = std::numeric_limits<double>::quiet_NaN();

/// \p N distances where about a quarter are edge values: both zeros, the
/// smallest subnormals, +inf, NaN of both signs and exact repeats.
std::vector<double> edgeDistances(size_t N, Rng &R) {
  const double Specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             4.9e-320,
                             Inf,
                             NaN,
                             -NaN,
                             1.0,
                             2.25};
  std::vector<double> D(N);
  for (double &X : D)
    X = R.bernoulli(0.25) ? Specials[R.bounded(std::size(Specials))]
                          : R.uniform(0.0, 9.0);
  return D;
}

/// Every key of \p D in the unsigned (bits, id) order.
std::vector<SelectKey> sortedKeys(const std::vector<double> &D) {
  std::vector<SelectKey> Keys;
  for (size_t I = 0; I < D.size(); ++I)
    Keys.push_back({kernels::keyBits(D[I]), static_cast<uint32_t>(I)});
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

/// Runs the scalar and the dispatched cut and checks both against the
/// sorted keys (a full selection's cut is the largest bits with id N - 1):
/// same cut, same smallest bits, same pivot bucket.
void expectCutsAgree(const std::vector<double> &D, size_t Keep) {
  SCOPED_TRACE(::testing::Message() << "N=" << D.size() << " Keep=" << Keep);
  std::vector<SelectKey> ScalarBucket, DispatchedBucket;
  kernels::SelectionCut S =
      kernels::scalar::selectionCut(D.data(), D.size(), Keep, ScalarBucket);
  kernels::SelectionCut V =
      kernels::selectionCut(D.data(), D.size(), Keep, DispatchedBucket);
  std::vector<SelectKey> Keys = sortedKeys(D);
  EXPECT_EQ(S.Cut, Keep == D.size()
                       ? SelectKey(Keys.back().first, Keep - 1)
                       : Keys[Keep - 1]);
  EXPECT_EQ(S.MinBits, Keys.front().first);
  EXPECT_EQ(V.Cut, S.Cut);
  EXPECT_EQ(V.MinBits, S.MinBits);
  EXPECT_EQ(DispatchedBucket, ScalarBucket);
}

/// One fold problem: N entries with edge distances, labels that include
/// out-of-range values, NumExp score columns (every third expert a
/// ScoreScaling lane, every third a discrete one with tie-heavy scores
/// and a NaN), and label-major test scores.
struct FoldFixture {
  static constexpr size_t N = 600;
  static constexpr size_t NumLabels = 5;
  std::vector<double> Dists;
  std::vector<int> Labels;
  std::vector<std::vector<double>> Scores;
  std::vector<const double *> Columns;
  std::vector<uint8_t> Scaling;
  std::vector<double> TestScores;

  FoldFixture(size_t NumExp, Rng &R) : Dists(edgeDistances(N, R)) {
    for (size_t I = 0; I < N; ++I)
      Labels.push_back(R.intIn(-2, static_cast<int>(NumLabels) + 1));
    Scores.resize(NumExp);
    for (size_t E = 0; E < NumExp; ++E) {
      for (size_t I = 0; I < N; ++I) {
        double V = R.uniform(0.0, 1.0);
        Scores[E].push_back(E % 3 == 2 ? std::floor(V * 4.0) / 4.0 : V);
      }
      Scores[E][R.bounded(N)] = NaN;
      Columns.push_back(Scores[E].data());
      Scaling.push_back(E % 3 == 1);
    }
    size_t Stride = kernels::foldStride(NumExp);
    TestScores.assign(NumLabels * Stride, 0.0);
    for (size_t L = 0; L < NumLabels; ++L)
      for (size_t E = 0; E < NumExp; ++E)
        TestScores[L * Stride + E] = E % 3 == 2
                                         ? 0.25 * static_cast<double>(L % 4)
                                         : R.uniform(0.0, 1.0);
  }

  kernels::FoldQuery query(SelectKey Cut) const {
    kernels::FoldQuery Q;
    Q.Dists = Dists.data();
    Q.Cut = Cut;
    Q.Labels = Labels.data();
    Q.NumLabels = NumLabels;
    Q.Columns = Columns.data();
    Q.Scaling = Scaling.data();
    Q.NumExperts = Columns.size();
    Q.TestScores = TestScores.data();
    return Q;
  }
};

/// Folds [Begin, End) with both variants into zeroed buffers and compares
/// every cell, padding lanes included, bit for bit.
void expectFoldsAgree(const kernels::FoldQuery &Q, size_t Begin, size_t End) {
  SCOPED_TRACE(::testing::Message()
               << "experts=" << Q.NumExperts << " [" << Begin << ", " << End
               << ") weighted=" << Q.Weighted << " p=" << Q.NormPower
               << " tau=" << Q.Tau);
  size_t Cells = Q.NumLabels * kernels::foldStride(Q.NumExperts);
  std::vector<double> GES(Cells, 0.0), TotS(Cells, 0.0);
  std::vector<double> CntS(Q.NumLabels, 0.0);
  std::vector<double> GEV = GES, TotV = TotS, CntV = CntS;
  kernels::scalar::foldBlock(Q, Begin, End, GES.data(), TotS.data(),
                             CntS.data());
  kernels::foldBlock(Q, Begin, End, GEV.data(), TotV.data(), CntV.data());
  for (size_t C = 0; C < Cells; ++C) {
    expectSameBits(GEV[C], GES[C], "foldBlock GreaterEq");
    expectSameBits(TotV[C], TotS[C], "foldBlock Total");
  }
  for (size_t L = 0; L < Q.NumLabels; ++L)
    expectSameBits(CntV[L], CntS[L], "foldBlock Counts");
}

} // namespace

TEST(KernelTest, SelectionCutMatchesScalarAndSortedKeys) {
  Rng R(19);
  for (size_t N : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 31u, 256u, 257u, 1000u,
                   4099u}) {
    // Edge values stretch the bit range (the subnormals sit far below the
    // rest), so the pivot bucket holds most keys; plain uniform distances
    // give the usual small bucket.
    std::vector<double> Edge = edgeDistances(N, R);
    std::vector<double> Plain(N);
    for (double &X : Plain)
      X = R.uniform(0.0, 9.0);
    for (size_t Keep : {size_t(1), size_t(2), N / 3, N / 2, N - 1, N}) {
      if (Keep == 0 || Keep > N)
        continue;
      expectCutsAgree(Edge, Keep);
      expectCutsAgree(Plain, Keep);
    }
  }
}

TEST(KernelTest, SelectionCutBreaksEqualKeysById) {
  for (double V : {2.5, 0.0, -0.0, Inf, NaN, -NaN}) {
    std::vector<double> D(37, V);
    for (size_t Keep : {1u, 5u, 36u, 37u}) {
      expectCutsAgree(D, Keep);
      std::vector<SelectKey> Bucket;
      kernels::SelectionCut C =
          kernels::selectionCut(D.data(), D.size(), Keep, Bucket);
      EXPECT_EQ(C.Cut, SelectKey(kernels::keyBits(V), Keep - 1));
      EXPECT_TRUE(Bucket.empty());
    }
  }
  // One entry below a run of equal keys: only the id decides inside it.
  std::vector<double> D(40, 3.0);
  D[17] = 1.0;
  expectCutsAgree(D, 6);
  std::vector<SelectKey> Bucket;
  EXPECT_EQ(kernels::selectionCut(D.data(), D.size(), 6, Bucket).Cut,
            SelectKey(kernels::keyBits(3.0), 4));
}

TEST(KernelTest, FoldBlockMatchesScalarOnEveryLaneShape) {
  Rng R(20);
  for (size_t NumExp = 1; NumExp <= 9; ++NumExp) {
    FoldFixture F(NumExp, R);
    for (size_t Keep : {FoldFixture::N / 2, FoldFixture::N}) {
      std::vector<SelectKey> Bucket;
      kernels::FoldQuery Q = F.query(
          kernels::scalar::selectionCut(F.Dists.data(), FoldFixture::N, Keep,
                                        Bucket)
              .Cut);
      for (bool Weighted : {false, true})
        for (int Power : {1, 2})
          for (double Tau : {0.7, 1e-3}) { // 1e-3 pushes exponents past 746.
            Q.Weighted = Weighted;
            Q.NormPower = Power;
            Q.Tau = Tau;
            Q.Offset = Weighted ? 0.3 : 0.0;
            // Whole blocks, a short last block, unaligned ranges and
            // lengths that are not a multiple of 4, and an empty range.
            const size_t Ranges[][2] = {{0, 256},  {256, 512}, {512, 600},
                                        {3, 40},   {1, 2},     {5, 5},
                                        {0, 600}};
            for (const auto &Range : Ranges)
              expectFoldsAgree(Q, Range[0], Range[1]);
          }
    }
  }
}

TEST(KernelTest, FoldBlockWeighsANaNDistanceOneUnderFullSelection) {
  // std::max(0.0, NaN) is 0.0, so a NaN distance gets exp(-0) = 1; the
  // vector max must return its second operand (zero) for NaN to agree.
  std::vector<double> Dists = {4.0, NaN, 1.0, -NaN, 9.0};
  std::vector<int> Labels = {0, 1, 0, 2, 0};
  std::vector<double> Scores = {0.9, 0.5, 0.1, 0.7, 0.3};
  const double *Columns[] = {Scores.data()};
  uint8_t Scaling[] = {0};
  size_t Stride = kernels::foldStride(1);
  std::vector<double> TestScores(3 * Stride, 0.4);
  std::vector<SelectKey> Bucket;
  kernels::FoldQuery Q;
  Q.Dists = Dists.data();
  Q.Cut = kernels::selectionCut(Dists.data(), Dists.size(), Dists.size(),
                                Bucket)
              .Cut;
  Q.Labels = Labels.data();
  Q.NumLabels = 3;
  Q.Columns = Columns;
  Q.Scaling = Scaling;
  Q.NumExperts = 1;
  Q.TestScores = TestScores.data();
  Q.Weighted = true;
  Q.Offset = 1.0;
  Q.Tau = 2.0;
  expectFoldsAgree(Q, 0, Dists.size());

  std::vector<double> GE(3 * Stride, 0.0), Tot(3 * Stride, 0.0), Cnt(3, 0.0);
  kernels::foldBlock(Q, 0, Dists.size(), GE.data(), Tot.data(), Cnt.data());
  for (size_t L : {1u, 2u}) { // The +NaN and the -NaN entry.
    EXPECT_EQ(Cnt[L], 1.0);
    EXPECT_EQ(Tot[L * Stride], 1.0);
    EXPECT_EQ(GE[L * Stride], 1.0);
  }
}

namespace {

/// Distance in ulps between two non-negative doubles: adjacent
/// non-negative doubles differ by 1 in their bit patterns.
uint64_t ulpDistance(double A, double B) {
  uint64_t BitsA = kernels::keyBits(A), BitsB = kernels::keyBits(B);
  return BitsA > BitsB ? BitsA - BitsB : BitsB - BitsA;
}

/// The arguments of the expNeg sweep, all in [0, 746.5].
std::vector<double> expNegSweep() {
  Rng R(23);
  std::vector<double> X;
  auto Uniform = [&](double Lo, double Hi, size_t N) {
    for (size_t I = 0; I < N; ++I)
      X.push_back(R.uniform(Lo, Hi));
  };
  Uniform(0.0, 0.03, 400000);     // Where the engine's exponents lie.
  Uniform(0.0, 746.0, 300000);    // The whole domain.
  Uniform(708.4, 745.14, 200000); // Subnormal results.
  Uniform(745.5, 746.5, 100000);  // Both sides of the cut.
  // Both sides of every rounding boundary (K + 1/2) ln2/64 of the
  // reduction up to the cut, where |R| is largest.
  const double Step = 0.6931471805599453 / 64.0;
  for (size_t K = 0; (static_cast<double>(K) + 0.5) * Step <= 746.0; ++K) {
    double B = (static_cast<double>(K) + 0.5) * Step;
    X.insert(X.end(), {B, std::nextafter(B, 0.0), std::nextafter(B, Inf)});
  }
  // Every power of two below 1: e^-X rounds to 1 or to its predecessor.
  for (int E = -1074; E < 0; ++E)
    X.push_back(std::ldexp(1.0, E));
  return X;
}

} // namespace

TEST(KernelTest, ExpNegIsWithinOneUlpOfLibmOnAMillionArguments) {
  std::vector<double> X = expNegSweep();
  ASSERT_GE(X.size(), 1000000u);
  uint64_t Worst = 0;
  double WorstArg = 0.0;
  size_t Differ = 0;
  for (double Arg : X) {
    uint64_t Ulps = ulpDistance(kernels::expNeg(Arg), std::exp(-Arg));
    Differ += Ulps != 0;
    if (Ulps > Worst) {
      Worst = Ulps;
      WorstArg = Arg;
    }
  }
  EXPECT_LE(Worst, 1u) << "at X = " << WorstArg;
  // Most results are glibc's bits exactly; the table rounds once at the
  // end, so a differing result sits at a rounding tie of the two.
  EXPECT_LT(Differ, X.size() / 50) << Differ << " of " << X.size();
}

TEST(KernelTest, ExpNegFormsAgreeBitForBitOnEveryArgument) {
  // The sweep plus negative arguments, which lie outside the domain but
  // must still give one result on every form, and arrays of every tail
  // length.
  std::vector<double> X = expNegSweep();
  Rng R(24);
  for (size_t I = 0; I < 20000; ++I)
    X.push_back(R.uniform(-800.0, 0.0));
  X.insert(X.end(), {-Inf, -std::numeric_limits<double>::max(), -1e-300});
  std::vector<double> Out(X.size());
  kernels::expNegArray(X.data(), X.size(), Out.data());
  size_t Mismatches = 0;
  for (size_t I = 0; I < X.size(); ++I)
    if (kernels::keyBits(Out[I]) != kernels::keyBits(kernels::expNeg(X[I])) &&
        ++Mismatches <= 5)
      ADD_FAILURE() << "X = " << X[I] << ": " << Out[I] << " vs "
                    << kernels::expNeg(X[I]);
  EXPECT_EQ(Mismatches, 0u);

  const size_t SubnormalBand = 700000; // The sweep's third block.
  for (size_t N = 0; N <= 9; ++N) {
    std::vector<double> Part(X.begin() + SubnormalBand,
                             X.begin() + SubnormalBand + N);
    std::vector<double> Got(N + 1, -1.0), Want(N + 1, -1.0);
    kernels::expNegArray(Part.data(), N, Got.data());
    kernels::scalar::expNegArray(Part.data(), N, Want.data());
    for (size_t I = 0; I <= N; ++I) // Out[N] stays untouched.
      expectSameBits(Got[I], Want[I], "expNegArray tail");
  }
}

TEST(KernelTest, ExpNegSpecialValues) {
  const double Max = std::numeric_limits<double>::max();
  struct Case {
    double X;
    double Want;
  };
  const Case Cases[] = {{0.0, 1.0},
                        {-0.0, 1.0},
                        {746.0, 0.0},
                        {std::nextafter(746.0, Inf), 0.0},
                        {1000.0, 0.0},
                        {Max, 0.0},
                        {Inf, 0.0}};
  std::vector<double> X;
  for (const Case &C : Cases)
    X.push_back(C.X);
  X.insert(X.end(), {NaN, -NaN});
  std::vector<double> Out(X.size());
  kernels::expNegArray(X.data(), X.size(), Out.data());
  for (size_t I = 0; I < std::size(Cases); ++I) {
    expectSameBits(kernels::expNeg(Cases[I].X), Cases[I].Want, "expNeg");
    expectSameBits(Out[I], Cases[I].Want, "expNegArray");
  }
  for (size_t I = std::size(Cases); I < X.size(); ++I) {
    EXPECT_TRUE(std::isnan(kernels::expNeg(X[I])));
    expectSameBits(Out[I], kernels::expNeg(X[I]), "expNegArray NaN");
  }
}
