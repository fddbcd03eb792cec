//===- support/KernelsAvx2.cpp - AVX2 kernel variants ----------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
// Compiled with -mavx2 -mfma -ffp-contract=off only when the build enables
// PROM_ENABLE_AVX2; Kernels.cpp selects these at runtime behind a cpuid
// check. Every loop mirrors the scalar reference's arithmetic exactly:
//
//  * reductions keep one accumulator per register lane (the canonical
//    lane fold — lane L sums elements I with I mod 4 == L) and fold the
//    lanes in the same fixed scalar order;
//  * the matmul broadcasts A[i][k] and streams mul+add across independent
//    output columns, preserving each element's ascending-k sum;
//  * explicit _mm256_mul_pd/_mm256_add_pd (never FMA intrinsics) match the
//    contraction-disabled scalar mul+add rounding step for step;
//  * the selection cut works on the distances' bit patterns as integers,
//    so its vector min/max and its split histograms count exactly what
//    the scalar passes count;
//  * the Eq. (2) fold gives each register lane one (expert, label) cell
//    and never reduces across lanes; a failed compare adds a masked +0.0,
//    exactly like the scalar reference's `Hit ? Add : 0.0`;
//  * expNeg4 runs the scalar expNeg's float and integer steps in the same
//    order, one argument per lane, and blends in the scalar form's early
//    returns (+0 past the cut, NaN as is).
//
// Hence the bit-identity contract of Kernels.h holds by construction, and
// KernelTest checks it on every run.
//
//===----------------------------------------------------------------------===//

#include "support/Kernels.h"
#include "support/KernelsIsa.h"

#ifdef PROM_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace prom::support;

namespace {

/// Folds the four register lanes in the canonical fixed order
/// ((l0 + l1) + l2) + l3 — identical to the scalar reference's fold.
inline double foldLanes(__m256d Acc) {
  alignas(32) double Lanes[kernels::KernelLanes];
  _mm256_store_pd(Lanes, Acc);
  return ((Lanes[0] + Lanes[1]) + Lanes[2]) + Lanes[3];
}

/// Tail handling shared by the reductions: element I of the remainder
/// belongs to lane I mod 4, so the tail folds into the extracted lane
/// accumulators before the final fold — bit-identical to the scalar loop.
inline double foldLanesWithTail(__m256d Acc, const double *A, const double *B,
                                size_t Full, size_t N, bool Squared) {
  alignas(32) double Lanes[kernels::KernelLanes];
  _mm256_store_pd(Lanes, Acc);
  for (size_t I = Full; I < N; ++I) {
    double V = Squared ? (A[I] - B[I]) * (A[I] - B[I]) : A[I] * B[I];
    Lanes[I & (kernels::KernelLanes - 1)] += V;
  }
  return ((Lanes[0] + Lanes[1]) + Lanes[2]) + Lanes[3];
}

constexpr size_t KTile = 256; // Must match the scalar kernel's tile.

} // namespace

double kernels::avx2::l2Sq(const double *A, const double *B, size_t N) {
  __m256d Acc = _mm256_setzero_pd();
  size_t Full = N & ~(KernelLanes - 1);
  for (size_t I = 0; I < Full; I += KernelLanes) {
    __m256d D = _mm256_sub_pd(_mm256_loadu_pd(A + I), _mm256_loadu_pd(B + I));
    Acc = _mm256_add_pd(Acc, _mm256_mul_pd(D, D));
  }
  return foldLanesWithTail(Acc, A, B, Full, N, /*Squared=*/true);
}

void kernels::avx2::l2Sq1xN(const double *Query, const double *Rows,
                            size_t NumRows, size_t Dim, size_t RowStride,
                            double *Out) {
  // Four rows per iteration: the query loads amortize across the block
  // and four independent accumulator chains hide the FP-add latency.
  // Each row still owns its single 4-lane accumulator, so per-row
  // arithmetic — and therefore every output bit — is untouched.
  size_t Full = Dim & ~(KernelLanes - 1);
  size_t R = 0;
  for (; R + 4 <= NumRows; R += 4) {
    const double *Row0 = Rows + R * RowStride;
    const double *Row1 = Row0 + RowStride;
    const double *Row2 = Row1 + RowStride;
    const double *Row3 = Row2 + RowStride;
    __m256d Acc0 = _mm256_setzero_pd();
    __m256d Acc1 = _mm256_setzero_pd();
    __m256d Acc2 = _mm256_setzero_pd();
    __m256d Acc3 = _mm256_setzero_pd();
    if (R + 8 <= NumRows) {
      // Pull the next row group toward L1 while this one computes; hints
      // never affect results.
      _mm_prefetch(reinterpret_cast<const char *>(Row3 + RowStride),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char *>(Row3 + 2 * RowStride),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char *>(Row3 + 3 * RowStride),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char *>(Row3 + 4 * RowStride),
                   _MM_HINT_T0);
    }
    for (size_t I = 0; I < Full; I += KernelLanes) {
      __m256d Q = _mm256_loadu_pd(Query + I);
      __m256d D0 = _mm256_sub_pd(Q, _mm256_loadu_pd(Row0 + I));
      __m256d D1 = _mm256_sub_pd(Q, _mm256_loadu_pd(Row1 + I));
      __m256d D2 = _mm256_sub_pd(Q, _mm256_loadu_pd(Row2 + I));
      __m256d D3 = _mm256_sub_pd(Q, _mm256_loadu_pd(Row3 + I));
      Acc0 = _mm256_add_pd(Acc0, _mm256_mul_pd(D0, D0));
      Acc1 = _mm256_add_pd(Acc1, _mm256_mul_pd(D1, D1));
      Acc2 = _mm256_add_pd(Acc2, _mm256_mul_pd(D2, D2));
      Acc3 = _mm256_add_pd(Acc3, _mm256_mul_pd(D3, D3));
    }
    Out[R] = foldLanesWithTail(Acc0, Query, Row0, Full, Dim, true);
    Out[R + 1] = foldLanesWithTail(Acc1, Query, Row1, Full, Dim, true);
    Out[R + 2] = foldLanesWithTail(Acc2, Query, Row2, Full, Dim, true);
    Out[R + 3] = foldLanesWithTail(Acc3, Query, Row3, Full, Dim, true);
  }
  for (; R < NumRows; ++R)
    Out[R] = kernels::avx2::l2Sq(Query, Rows + R * RowStride, Dim);
}

double kernels::avx2::dot(const double *A, const double *B, size_t N) {
  __m256d Acc = _mm256_setzero_pd();
  size_t Full = N & ~(KernelLanes - 1);
  for (size_t I = 0; I < Full; I += KernelLanes)
    Acc = _mm256_add_pd(
        Acc, _mm256_mul_pd(_mm256_loadu_pd(A + I), _mm256_loadu_pd(B + I)));
  return foldLanesWithTail(Acc, A, B, Full, N, /*Squared=*/false);
}

void kernels::avx2::axpy(double *A, const double *B, double Alpha, size_t N) {
  __m256d VA = _mm256_set1_pd(Alpha);
  size_t Full = N & ~(KernelLanes - 1);
  for (size_t I = 0; I < Full; I += KernelLanes)
    _mm256_storeu_pd(
        A + I, _mm256_add_pd(_mm256_loadu_pd(A + I),
                             _mm256_mul_pd(VA, _mm256_loadu_pd(B + I))));
  for (size_t I = Full; I < N; ++I)
    A[I] += Alpha * B[I];
}

void kernels::avx2::matmul(const double *A, size_t N, size_t K,
                           const double *B, size_t M, const double *Bias,
                           double *Out) {
  for (size_t I = 0; I < N; ++I) {
    double *ORow = Out + I * M;
    if (Bias)
      std::memcpy(ORow, Bias, M * sizeof(double));
    else
      std::fill(ORow, ORow + M, 0.0);
  }
  size_t MFull = M & ~(KernelLanes - 1);
  for (size_t K0 = 0; K0 < K; K0 += KTile) {
    size_t K1 = std::min(K, K0 + KTile);
    for (size_t I = 0; I < N; ++I) {
      const double *ARow = A + I * K;
      double *ORow = Out + I * M;
      for (size_t KK = K0; KK < K1; ++KK) {
        double AIK = ARow[KK];
        if (AIK == 0.0)
          continue; // Same sparse-activation skip as the scalar kernel.
        const double *BRow = B + KK * M;
        __m256d VA = _mm256_set1_pd(AIK);
        for (size_t J = 0; J < MFull; J += KernelLanes)
          _mm256_storeu_pd(
              ORow + J,
              _mm256_add_pd(_mm256_loadu_pd(ORow + J),
                            _mm256_mul_pd(VA, _mm256_loadu_pd(BRow + J))));
        for (size_t J = MFull; J < M; ++J)
          ORow[J] += AIK * BRow[J];
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Selection cut and Eq. (2) fold
//===----------------------------------------------------------------------===//

namespace {

/// Flipping the sign bit maps the unsigned key order onto the signed order
/// that _mm256_cmpgt_epi64 compares.
inline __m256i flipSign(__m256i V) {
  return _mm256_xor_si256(V, _mm256_set1_epi64x(INT64_MIN));
}

inline __m256i loadBits(const double *P) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(P));
}

/// Left-pack permutations of a 4-lane selection mask M: the set lanes in
/// ascending order first. Words permutes 32-bit lanes, Pairs the 32-bit
/// halves of 64-bit lanes.
struct PackTable {
  alignas(32) uint32_t Pairs[16][8] = {};
  alignas(16) uint32_t Words[16][4] = {};
  uint8_t Count[16] = {};
};

constexpr PackTable makePackTable() {
  PackTable T;
  for (uint32_t M = 0; M < 16; ++M) {
    uint32_t N = 0;
    for (uint32_t L = 0; L < 4; ++L)
      if (M >> L & 1) {
        T.Words[M][N] = L;
        T.Pairs[M][2 * N] = 2 * L;
        T.Pairs[M][2 * N + 1] = 2 * L + 1;
        ++N;
      }
    T.Count[M] = static_cast<uint8_t>(N);
  }
  return T;
}

constexpr PackTable Pack = makePackTable();

/// e^-X in each lane: kernels::expNeg's steps on four arguments at once.
inline __m256d expNeg4(__m256d X) {
  const __m256d Shift = _mm256_set1_pd(kernels::ExpRoundShift);
  __m256d KD = _mm256_add_pd(
      _mm256_mul_pd(X, _mm256_set1_pd(kernels::ExpInvStep)), Shift);
  __m256i K =
      _mm256_sub_epi64(_mm256_castpd_si256(KD), _mm256_castpd_si256(Shift));
  KD = _mm256_sub_pd(KD, Shift);
  __m256d R = _mm256_sub_pd(
      _mm256_sub_pd(X, _mm256_mul_pd(KD, _mm256_set1_pd(kernels::ExpStepHi))),
      _mm256_mul_pd(KD, _mm256_set1_pd(kernels::ExpStepLo)));
  // Horner from the inside out: C + R * P per coefficient, then R * P.
  __m256d P = _mm256_set1_pd(kernels::ExpC6);
  for (double C : {kernels::ExpC5, kernels::ExpC4, kernels::ExpC3,
                   kernels::ExpC2, -1.0})
    P = _mm256_add_pd(_mm256_set1_pd(C), _mm256_mul_pd(R, P));
  P = _mm256_mul_pd(R, P);
  __m256i Row = _mm256_slli_epi64(_mm256_and_si256(K, _mm256_set1_epi64x(63)),
                                  1);
  __m256d Hi = _mm256_i64gather_pd(&kernels::ExpTable[0][0], Row, 8);
  __m256d Lo = _mm256_i64gather_pd(&kernels::ExpTable[0][1], Row, 8);
  __m256d Y = _mm256_add_pd(Hi, _mm256_add_pd(Lo, _mm256_mul_pd(Hi, P)));
  __m256i M = _mm256_srli_epi64(K, 6);
  __m256i M1 = _mm256_srli_epi64(M, 1);
  const __m256i Bias = _mm256_set1_epi64x(1023);
  auto Scale = [&](__m256i E) {
    return _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_sub_epi64(Bias, E), 52));
  };
  Y = _mm256_mul_pd(_mm256_mul_pd(Y, Scale(M1)),
                    Scale(_mm256_sub_epi64(M, M1)));
  const __m256d Cut = _mm256_set1_pd(kernels::ExpNegCut);
  Y = _mm256_andnot_pd(_mm256_cmp_pd(X, Cut, _CMP_GT_OQ), Y);
  return _mm256_blendv_pd(Y, X, _mm256_cmp_pd(X, X, _CMP_UNORD_Q));
}

/// Entries foldBlock() compacts at a time (one canonical accumulation
/// block of the calibration store). Chunking never reorders a cell's sum.
constexpr size_t FoldChunk = 256;

} // namespace

kernels::SelectionCut
kernels::avx2::selectionCut(const double *Dists, size_t N, size_t Keep,
                            std::vector<SelectKey> &Bucket) {
  // Min/max over the sign-flipped bits, two accumulator pairs deep.
  __m256i Lo0 = _mm256_set1_epi64x(INT64_MAX), Lo1 = Lo0;
  __m256i Hi0 = _mm256_set1_epi64x(INT64_MIN), Hi1 = Hi0;
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256i V0 = flipSign(loadBits(Dists + I));
    __m256i V1 = flipSign(loadBits(Dists + I + 4));
    Lo0 = _mm256_blendv_epi8(Lo0, V0, _mm256_cmpgt_epi64(Lo0, V0));
    Lo1 = _mm256_blendv_epi8(Lo1, V1, _mm256_cmpgt_epi64(Lo1, V1));
    Hi0 = _mm256_blendv_epi8(Hi0, V0, _mm256_cmpgt_epi64(V0, Hi0));
    Hi1 = _mm256_blendv_epi8(Hi1, V1, _mm256_cmpgt_epi64(V1, Hi1));
  }
  alignas(32) uint64_t Lanes[4 * KernelLanes];
  _mm256_store_si256(reinterpret_cast<__m256i *>(Lanes), flipSign(Lo0));
  _mm256_store_si256(reinterpret_cast<__m256i *>(Lanes + 4), flipSign(Lo1));
  _mm256_store_si256(reinterpret_cast<__m256i *>(Lanes + 8), flipSign(Hi0));
  _mm256_store_si256(reinterpret_cast<__m256i *>(Lanes + 12), flipSign(Hi1));
  uint64_t MinBits = ~uint64_t(0), MaxBits = 0;
  for (size_t L = 0; L < 8; ++L) {
    MinBits = std::min(MinBits, Lanes[L]);
    MaxBits = std::max(MaxBits, Lanes[8 + L]);
  }
  for (; I < N; ++I) {
    MinBits = std::min(MinBits, keyBits(Dists[I]));
    MaxBits = std::max(MaxBits, keyBits(Dists[I]));
  }
  Bucket.clear();
  if (Keep == N || MinBits == MaxBits)
    return {{MaxBits, static_cast<uint32_t>(Keep - 1)}, MinBits};

  // Histogram: lanes 0/2 and 1/3 count into separate tables so runs of
  // keys in one bucket do not serialize on a single counter.
  int Shift = cutShift(MaxBits - MinBits);
  const __m256i MinV = _mm256_set1_epi64x(static_cast<long long>(MinBits));
  const __m128i ShiftV = _mm_cvtsi32_si128(Shift);
  auto BucketOf = [&](const double *P) {
    return _mm256_srl_epi64(_mm256_sub_epi64(loadBits(P), MinV), ShiftV);
  };
  alignas(32) uint32_t Histogram[2][CutBuckets] = {};
  alignas(32) uint64_t Idx[KernelLanes];
  size_t Full = N & ~(KernelLanes - 1);
  for (I = 0; I < Full; I += KernelLanes) {
    _mm256_store_si256(reinterpret_cast<__m256i *>(Idx), BucketOf(Dists + I));
    ++Histogram[0][Idx[0]];
    ++Histogram[1][Idx[1]];
    ++Histogram[0][Idx[2]];
    ++Histogram[1][Idx[3]];
  }
  for (; I < N; ++I)
    ++Histogram[0][(keyBits(Dists[I]) - MinBits) >> Shift];
  for (size_t B = 0; B < CutBuckets; B += 8) {
    __m256i *H0 = reinterpret_cast<__m256i *>(Histogram[0] + B);
    _mm256_store_si256(
        H0, _mm256_add_epi32(_mm256_load_si256(H0),
                             _mm256_load_si256(reinterpret_cast<__m256i *>(
                                 Histogram[1] + B))));
  }
  size_t Below = 0;
  size_t Pivot = pivotBucket(Histogram[0], Keep, Below);

  // Collect the pivot bucket's keys in id order. Its size is known, so
  // every lane of a hit writes its slot and only the hits advance.
  size_t Count = Histogram[0][Pivot];
  Bucket.resize(Count + 1);
  SelectKey *Out = Bucket.data();
  size_t Found = 0;
  const __m256i PivotV = _mm256_set1_epi64x(static_cast<long long>(Pivot));
  for (I = 0; I < Full; I += KernelLanes) {
    int Hit = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(BucketOf(Dists + I), PivotV)));
    if (Hit == 0)
      continue;
    for (size_t L = 0; L < KernelLanes; ++L) {
      Out[Found] = {keyBits(Dists[I + L]), static_cast<uint32_t>(I + L)};
      Found += static_cast<size_t>(Hit >> L & 1);
    }
  }
  for (; I < N; ++I)
    if (((keyBits(Dists[I]) - MinBits) >> Shift) == Pivot)
      Out[Found++] = {keyBits(Dists[I]), static_cast<uint32_t>(I)};
  assert(Found == Count && "pivot bucket lost a key");
  Bucket.resize(Count);
  return {cutInBucket(Bucket, Keep - Below - 1), MinBits};
}

void kernels::avx2::foldBlock(const FoldQuery &Q, size_t Begin, size_t End,
                              double *GreaterEq, double *Total,
                              double *Counts) {
  size_t Stride = foldStride(Q.NumExperts);
  const __m256i CutBits =
      _mm256_set1_epi64x(static_cast<long long>(Q.Cut.first));
  const __m256i CutBitsFlipped = flipSign(CutBits);
  const __m256i CutId = _mm256_set1_epi64x(Q.Cut.second);
  const __m256i LaneIds = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m128i LaneIds32 = _mm_setr_epi32(0, 1, 2, 3);
  const __m128i NumLabels = _mm_set1_epi32(static_cast<int>(Q.NumLabels));
  const __m128i MinusOne = _mm_set1_epi32(-1);
  const __m256d One = _mm256_set1_pd(1.0);

  // Per chunk: compacted ids, labels and distances (then weights) of the
  // selected in-range entries, padded so every 4-wide access stays inside.
  alignas(32) uint32_t Ids[FoldChunk + KernelLanes];
  alignas(32) int32_t Labels[FoldChunk + KernelLanes];
  alignas(32) double W[FoldChunk + KernelLanes];

  for (size_t C0 = Begin; C0 < End; C0 += FoldChunk) {
    size_t C1 = std::min(End, C0 + FoldChunk);
    size_t N = 0, I = C0;
    for (; I + KernelLanes <= C1; I += KernelLanes) {
      __m256i Bits = loadBits(Q.Dists + I);
      __m256i Id = _mm256_add_epi64(
          _mm256_set1_epi64x(static_cast<long long>(I)), LaneIds);
      __m256i Below = _mm256_cmpgt_epi64(CutBitsFlipped, flipSign(Bits));
      __m256i AtCut = _mm256_andnot_si256(_mm256_cmpgt_epi64(Id, CutId),
                                          _mm256_cmpeq_epi64(Bits, CutBits));
      __m128i Label =
          _mm_loadu_si128(reinterpret_cast<const __m128i *>(Q.Labels + I));
      __m128i InRange = _mm_and_si128(_mm_cmpgt_epi32(Label, MinusOne),
                                      _mm_cmpgt_epi32(NumLabels, Label));
      int M = _mm256_movemask_pd(
                  _mm256_castsi256_pd(_mm256_or_si256(Below, AtCut))) &
              _mm_movemask_ps(_mm_castsi128_ps(InRange));
      __m128i Words =
          _mm_load_si128(reinterpret_cast<const __m128i *>(Pack.Words[M]));
      __m128i Ids4 = _mm_add_epi32(
          _mm_set1_epi32(static_cast<int>(I)), LaneIds32);
      _mm_storeu_si128(reinterpret_cast<__m128i *>(Ids + N),
                       _mm_castps_si128(_mm_permutevar_ps(
                           _mm_castsi128_ps(Ids4), Words)));
      _mm_storeu_si128(reinterpret_cast<__m128i *>(Labels + N),
                       _mm_castps_si128(_mm_permutevar_ps(
                           _mm_castsi128_ps(Label), Words)));
      __m256i Pairs = _mm256_load_si256(
          reinterpret_cast<const __m256i *>(Pack.Pairs[M]));
      _mm256_storeu_pd(W + N, _mm256_castps_pd(_mm256_permutevar8x32_ps(
                                  _mm256_castsi256_ps(Bits), Pairs)));
      N += Pack.Count[M];
    }
    for (; I < C1; ++I) {
      int Label = Q.Labels[I];
      Ids[N] = static_cast<uint32_t>(I);
      Labels[N] = Label;
      W[N] = Q.Dists[I];
      N += SelectKey(keyBits(Q.Dists[I]), static_cast<uint32_t>(I)) <=
                   Q.Cut &&
               Label >= 0 && static_cast<size_t>(Label) < Q.NumLabels
           ? 1
           : 0;
    }
    _mm256_storeu_pd(W + N, _mm256_setzero_pd());

    for (size_t K = 0; K < N; ++K)
      Counts[Labels[K]] += 1.0;

    // Eq. (1) weights as one vector pass over the compacted distances;
    // the (x, zero) operand order makes max return +0.0 for NaN and -0.0,
    // as std::max(0.0, x) does.
    if (Q.Weighted) {
      const __m256d Offset = _mm256_set1_pd(Q.Offset);
      const __m256d Tau = _mm256_set1_pd(Q.Tau);
      for (size_t K = 0; K < N; K += KernelLanes) {
        __m256d D = _mm256_max_pd(
            _mm256_sub_pd(_mm256_sqrt_pd(_mm256_load_pd(W + K)), Offset),
            _mm256_setzero_pd());
        if (Q.NormPower == 2)
          D = _mm256_mul_pd(D, D);
        _mm256_store_pd(W + K, expNeg4(_mm256_div_pd(D, Tau)));
      }
    } else {
      for (size_t K = 0; K < N; K += KernelLanes)
        _mm256_store_pd(W + K, One);
    }

    // One pass per group of four experts. Padding lanes of the last group
    // read a real column and add +0.0.
    for (size_t G = 0; G < Q.NumExperts; G += KernelLanes) {
      size_t Live = std::min(KernelLanes, Q.NumExperts - G);
      const double *Col[KernelLanes];
      alignas(32) int64_t ScaleBits[KernelLanes], LiveBits[KernelLanes];
      for (size_t L = 0; L < KernelLanes; ++L) {
        Col[L] = Q.Columns[G + std::min(L, Live - 1)];
        ScaleBits[L] = L < Live && Q.Scaling[G + L] ? -1 : 0;
        LiveBits[L] = L < Live ? -1 : 0;
      }
      const __m256d Scale = _mm256_castsi256_pd(
          _mm256_load_si256(reinterpret_cast<const __m256i *>(ScaleBits)));
      const __m256d LiveMask = _mm256_castsi256_pd(
          _mm256_load_si256(reinterpret_cast<const __m256i *>(LiveBits)));
      for (size_t K = 0; K < N; ++K) {
        uint32_t Id = Ids[K];
        size_t Row = static_cast<size_t>(Labels[K]) * Stride + G;
        __m256d Wv = _mm256_broadcast_sd(W + K);
        __m256d Score =
            _mm256_set_pd(Col[3][Id], Col[2][Id], Col[1][Id], Col[0][Id]);
        __m256d Add =
            _mm256_and_pd(_mm256_blendv_pd(Wv, One, Scale), LiveMask);
        __m256d Compared =
            _mm256_blendv_pd(Score, _mm256_mul_pd(Wv, Score), Scale);
        __m256d Hit = _mm256_cmp_pd(
            Compared, _mm256_loadu_pd(Q.TestScores + Row), _CMP_GE_OQ);
        _mm256_storeu_pd(Total + Row,
                         _mm256_add_pd(_mm256_loadu_pd(Total + Row), Add));
        _mm256_storeu_pd(GreaterEq + Row,
                         _mm256_add_pd(_mm256_loadu_pd(GreaterEq + Row),
                                       _mm256_and_pd(Hit, Add)));
      }
    }
  }
}

void kernels::avx2::expNegArray(const double *X, size_t N, double *Out) {
  size_t Full = N & ~(KernelLanes - 1);
  for (size_t I = 0; I < Full; I += KernelLanes)
    _mm256_storeu_pd(Out + I, expNeg4(_mm256_loadu_pd(X + I)));
  alignas(32) double Tail[KernelLanes] = {};
  std::copy(X + Full, X + N, Tail);
  _mm256_store_pd(Tail, expNeg4(_mm256_load_pd(Tail)));
  std::copy(Tail, Tail + (N - Full), Out + Full);
}

#endif // PROM_HAVE_AVX2
