//===- support/Kernels.cpp - Scalar kernels + runtime dispatch -------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
// This translation unit must be compiled with FP contraction disabled
// (-ffp-contract=off, set by the build): a compiler-fused mul+add here
// would round differently from the explicit mul/add intrinsics of the
// AVX2 variant and break the cross-ISA bit-identity contract.
//
//===----------------------------------------------------------------------===//

#include "support/Kernels.h"
#include "support/KernelsIsa.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace prom::support;

//===----------------------------------------------------------------------===//
// Scalar reference implementations
//===----------------------------------------------------------------------===//

double kernels::scalar::l2Sq(const double *A, const double *B, size_t N) {
  // Canonical lane fold: element I accumulates into lane I mod KernelLanes,
  // exactly like the SIMD register lanes of the AVX2 variant.
  double Acc[KernelLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t Full = N & ~(KernelLanes - 1);
  for (size_t I = 0; I < Full; I += KernelLanes)
    for (size_t L = 0; L < KernelLanes; ++L) {
      double D = A[I + L] - B[I + L];
      Acc[L] += D * D;
    }
  for (size_t I = Full; I < N; ++I) {
    double D = A[I] - B[I];
    Acc[I & (KernelLanes - 1)] += D * D;
  }
  return ((Acc[0] + Acc[1]) + Acc[2]) + Acc[3];
}

void kernels::scalar::l2Sq1xN(const double *Query, const double *Rows,
                              size_t NumRows, size_t Dim, size_t RowStride,
                              double *Out) {
  for (size_t R = 0; R < NumRows; ++R)
    Out[R] = kernels::scalar::l2Sq(Query, Rows + R * RowStride, Dim);
}

namespace {

/// Row-tile height of the MxN scan: one tile (RowTile x RowStride doubles)
/// stays cache-hot across the whole query batch. 128 rows x 64 padded
/// dims x 8 bytes = 64 KiB worst case for the dims used in this codebase —
/// L2-resident everywhere we run.
constexpr size_t ScanRowTile = 128;

/// Shared tiling skeleton of the scalar and dispatched MxN scans; \p Scan
/// is the 1xN variant to run per (query, tile) pair.
template <typename ScanFn>
void tiledMxN(ScanFn Scan, const double *Queries, size_t NumQueries,
              size_t QueryStride, const double *Rows, size_t NumRows,
              size_t Dim, size_t RowStride, double *Out) {
  for (size_t R0 = 0; R0 < NumRows; R0 += ScanRowTile) {
    size_t R1 = R0 + ScanRowTile < NumRows ? R0 + ScanRowTile : NumRows;
    for (size_t Q = 0; Q < NumQueries; ++Q)
      Scan(Queries + Q * QueryStride, Rows + R0 * RowStride, R1 - R0, Dim,
           RowStride, Out + Q * NumRows + R0);
  }
}

} // namespace

void kernels::scalar::l2SqMxN(const double *Queries, size_t NumQueries,
                              size_t QueryStride, const double *Rows,
                              size_t NumRows, size_t Dim, size_t RowStride,
                              double *Out) {
  tiledMxN(kernels::scalar::l2Sq1xN, Queries, NumQueries, QueryStride, Rows,
           NumRows, Dim, RowStride, Out);
}

double kernels::scalar::dot(const double *A, const double *B, size_t N) {
  double Acc[KernelLanes] = {0.0, 0.0, 0.0, 0.0};
  size_t Full = N & ~(KernelLanes - 1);
  for (size_t I = 0; I < Full; I += KernelLanes)
    for (size_t L = 0; L < KernelLanes; ++L)
      Acc[L] += A[I + L] * B[I + L];
  for (size_t I = Full; I < N; ++I)
    Acc[I & (KernelLanes - 1)] += A[I] * B[I];
  return ((Acc[0] + Acc[1]) + Acc[2]) + Acc[3];
}

void kernels::scalar::axpy(double *A, const double *B, double Alpha,
                           size_t N) {
  for (size_t I = 0; I < N; ++I)
    A[I] += Alpha * B[I];
}

namespace {

/// K-tile height of the blocked matmul: one tile of B (KTile x M doubles)
/// stays cache-hot across all N output rows. Tiling walks k in ascending
/// order inside and across tiles, so it never reorders any element's sum.
constexpr size_t KTile = 256;

} // namespace

void kernels::scalar::matmul(const double *A, size_t N, size_t K,
                             const double *B, size_t M, const double *Bias,
                             double *Out) {
  for (size_t I = 0; I < N; ++I) {
    double *ORow = Out + I * M;
    if (Bias)
      std::memcpy(ORow, Bias, M * sizeof(double));
    else
      std::fill(ORow, ORow + M, 0.0);
  }
  for (size_t K0 = 0; K0 < K; K0 += KTile) {
    size_t K1 = std::min(K, K0 + KTile);
    for (size_t I = 0; I < N; ++I) {
      const double *ARow = A + I * K;
      double *ORow = Out + I * M;
      for (size_t KK = K0; KK < K1; ++KK) {
        double AIK = ARow[KK];
        if (AIK == 0.0)
          continue; // Sparse-activation fast path (see header).
        const double *BRow = B + KK * M;
        for (size_t J = 0; J < M; ++J)
          ORow[J] += AIK * BRow[J];
      }
    }
  }
}

kernels::SelectionCut
kernels::scalar::selectionCut(const double *Dists, size_t N, size_t Keep,
                              std::vector<SelectKey> &Bucket) {
  uint64_t MinBits = ~uint64_t(0), MaxBits = 0;
  for (size_t I = 0; I < N; ++I) {
    MinBits = std::min(MinBits, keyBits(Dists[I]));
    MaxBits = std::max(MaxBits, keyBits(Dists[I]));
  }
  Bucket.clear();
  if (Keep == N || MinBits == MaxBits)
    return {{MaxBits, static_cast<uint32_t>(Keep - 1)}, MinBits};

  int Shift = cutShift(MaxBits - MinBits);
  uint32_t Histogram[CutBuckets] = {0};
  for (size_t I = 0; I < N; ++I)
    ++Histogram[(keyBits(Dists[I]) - MinBits) >> Shift];
  size_t Below = 0;
  size_t Pivot = pivotBucket(Histogram, Keep, Below);
  for (size_t I = 0; I < N; ++I)
    if (((keyBits(Dists[I]) - MinBits) >> Shift) == Pivot)
      Bucket.push_back({keyBits(Dists[I]), static_cast<uint32_t>(I)});
  return {cutInBucket(Bucket, Keep - Below - 1), MinBits};
}

void kernels::scalar::foldBlock(const FoldQuery &Q, size_t Begin, size_t End,
                                double *GreaterEq, double *Total,
                                double *Counts) {
  size_t Stride = foldStride(Q.NumExperts);
  for (size_t I = Begin; I < End; ++I) {
    int Label = Q.Labels[I];
    if (SelectKey(keyBits(Q.Dists[I]), static_cast<uint32_t>(I)) > Q.Cut ||
        Label < 0 || static_cast<size_t>(Label) >= Q.NumLabels)
      continue;
    size_t Row = static_cast<size_t>(Label) * Stride;
    Counts[Label] += 1.0;
    double W = 1.0;
    if (Q.Weighted) {
      double D = std::max(0.0, std::sqrt(Q.Dists[I]) - Q.Offset);
      W = expNeg((Q.NormPower == 2 ? D * D : D) / Q.Tau);
    }
    for (size_t E = 0; E < Q.NumExperts; ++E) {
      double Score = Q.Columns[E][I];
      double Add = Q.Scaling[E] ? 1.0 : W;
      double Compared = Q.Scaling[E] ? W * Score : Score;
      Total[Row + E] += Add;
      GreaterEq[Row + E] += Compared >= Q.TestScores[Row + E] ? Add : 0.0;
    }
  }
}

double kernels::expNeg(double X) {
  if (!(X <= ExpNegCut))
    return X > ExpNegCut ? 0.0 : X;
  // Reduction, polynomial and table as in KernelsIsa.h; the AVX2 form runs
  // these steps in this order, four lanes at a time.
  double KD = X * ExpInvStep + ExpRoundShift;
  uint64_t K = keyBits(KD) - keyBits(ExpRoundShift);
  KD = KD - ExpRoundShift;
  double R = (X - KD * ExpStepHi) - KD * ExpStepLo;
  double P =
      R * (-1.0 +
           R * (ExpC2 + R * (ExpC3 + R * (ExpC4 + R * (ExpC5 + R * ExpC6)))));
  const double *T = ExpTable[K & 63];
  double Y = T[0] + (T[1] + T[0] * P);
  uint64_t M = K >> 6;
  // 2^-E for E in [0, 1022]: the exponent field 1023 - E.
  auto Scale = [](uint64_t E) { return fromKeyBits((1023 - E) << 52); };
  return Y * Scale(M >> 1) * Scale(M - (M >> 1));
}

void kernels::scalar::expNegArray(const double *X, size_t N, double *Out) {
  for (size_t I = 0; I < N; ++I)
    Out[I] = expNeg(X[I]);
}

//===----------------------------------------------------------------------===//
// Runtime dispatch
//===----------------------------------------------------------------------===//

namespace {

struct DispatchTable {
  double (*L2Sq)(const double *, const double *, size_t) =
      kernels::scalar::l2Sq;
  void (*L2Sq1xN)(const double *, const double *, size_t, size_t, size_t,
                  double *) = kernels::scalar::l2Sq1xN;
  double (*Dot)(const double *, const double *, size_t) =
      kernels::scalar::dot;
  void (*Axpy)(double *, const double *, double, size_t) =
      kernels::scalar::axpy;
  void (*Matmul)(const double *, size_t, size_t, const double *, size_t,
                 const double *, double *) = kernels::scalar::matmul;
  kernels::SelectionCut (*Cut)(const double *, size_t, size_t,
                               std::vector<kernels::SelectKey> &) =
      kernels::scalar::selectionCut;
  void (*Fold)(const kernels::FoldQuery &, size_t, size_t, double *,
               double *, double *) = kernels::scalar::foldBlock;
  void (*ExpNeg)(const double *, size_t, double *) =
      kernels::scalar::expNegArray;
  bool Avx2 = false;

  DispatchTable() {
#ifdef PROM_HAVE_AVX2
    // PROM_KERNELS=scalar pins the reference path (bench baselines,
    // debugging); anything else defers to the CPU feature check.
    const char *Env = std::getenv("PROM_KERNELS");
    bool ForceScalar = Env && std::strcmp(Env, "scalar") == 0;
    if (!ForceScalar && __builtin_cpu_supports("avx2")) {
      L2Sq = kernels::avx2::l2Sq;
      L2Sq1xN = kernels::avx2::l2Sq1xN;
      Dot = kernels::avx2::dot;
      Axpy = kernels::avx2::axpy;
      Matmul = kernels::avx2::matmul;
      Cut = kernels::avx2::selectionCut;
      Fold = kernels::avx2::foldBlock;
      ExpNeg = kernels::avx2::expNegArray;
      Avx2 = true;
    }
#endif
  }
};

const DispatchTable &table() {
  static const DispatchTable T;
  return T;
}

} // namespace

bool kernels::avx2Active() { return table().Avx2; }

const char *kernels::activeIsaName() {
  return table().Avx2 ? "avx2" : "scalar";
}

double kernels::l2Sq(const double *A, const double *B, size_t N) {
  return table().L2Sq(A, B, N);
}

void kernels::l2Sq1xN(const double *Query, const double *Rows, size_t NumRows,
                      size_t Dim, size_t RowStride, double *Out) {
  table().L2Sq1xN(Query, Rows, NumRows, Dim, RowStride, Out);
}

void kernels::l2SqMxN(const double *Queries, size_t NumQueries,
                      size_t QueryStride, const double *Rows, size_t NumRows,
                      size_t Dim, size_t RowStride, double *Out) {
  // One dispatch lookup for the whole batch; every (query, tile) pair
  // reuses the batched 1xN scan, so the per-row folds (and their bits)
  // are shared with the per-query path by construction.
  tiledMxN(table().L2Sq1xN, Queries, NumQueries, QueryStride, Rows, NumRows,
           Dim, RowStride, Out);
}

double kernels::dot(const double *A, const double *B, size_t N) {
  return table().Dot(A, B, N);
}

void kernels::axpy(double *A, const double *B, double Alpha, size_t N) {
  table().Axpy(A, B, Alpha, N);
}

void kernels::matmul(const double *A, size_t N, size_t K, const double *B,
                     size_t M, const double *Bias, double *Out) {
  table().Matmul(A, N, K, B, M, Bias, Out);
}

kernels::SelectionCut kernels::selectionCut(const double *Dists, size_t N,
                                            size_t Keep,
                                            std::vector<SelectKey> &Bucket) {
  return table().Cut(Dists, N, Keep, Bucket);
}

void kernels::foldBlock(const FoldQuery &Q, size_t Begin, size_t End,
                        double *GreaterEq, double *Total, double *Counts) {
  table().Fold(Q, Begin, End, GreaterEq, Total, Counts);
}

void kernels::expNegArray(const double *X, size_t N, double *Out) {
  table().ExpNeg(X, N, Out);
}
