//===- support/KernelsIsa.h - ISA-variant kernel declarations ----*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal declarations shared between Kernels.cpp (the dispatcher) and
/// the ISA-specific translation units. Not part of the public API: the
/// AVX2 symbols exist only when the build defines PROM_HAVE_AVX2, so
/// nothing outside the kernel TUs may reference them. The inline helpers
/// and constants are the steps both variants of a kernel share verbatim.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_KERNELSISA_H
#define PROM_SUPPORT_KERNELSISA_H

#include "support/Kernels.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace prom {
namespace support {
namespace kernels {

/// Buckets of selectionCut()'s histogram.
constexpr size_t CutBuckets = 2048;

/// Smallest right shift that maps key offsets in [0, Span] onto
/// CutBuckets buckets.
inline int cutShift(uint64_t Span) {
  int Shift = 0;
  while ((Span >> Shift) >= CutBuckets)
    ++Shift;
  return Shift;
}

/// The bucket where the cumulative count of \p Histogram reaches \p Keep:
/// every key in an earlier bucket is selected, every key in a later one is
/// not. \p Below receives the count of the earlier buckets.
inline size_t pivotBucket(const uint32_t *Histogram, size_t Keep,
                          size_t &Below) {
  size_t Pivot = 0;
  Below = 0;
  while (Below + Histogram[Pivot] < Keep)
    Below += Histogram[Pivot++];
  return Pivot;
}

/// The key of rank \p Rank (0-based) among the pivot bucket's keys.
inline SelectKey cutInBucket(std::vector<SelectKey> &Bucket, size_t Rank) {
  auto Cut = Bucket.begin() + static_cast<long>(Rank);
  std::nth_element(Bucket.begin(), Cut, Bucket.end());
  return *Cut;
}

//===----------------------------------------------------------------------===//
// e^-X (see expNeg() in Kernels.h)
//
// X = K ln2/64 + R with K = round(X * 64/ln2) and |R| <= ln2/128, so
//
//   e^-X = 2^-(K >> 6) * 2^-(K & 63)/64 * e^-R.
//
// K is rounded by adding ExpRoundShift (1.5 * 2^52), which leaves it in the
// low mantissa bits; R is reduced against ln2/64 split into a 33-bit head
// (K * head is exact for every K below the cut's 68881) and a tail. e^-R - 1 is the
// degree-6 Taylor polynomial (truncation error below 2^-64 on |R| <=
// ln2/128), and each table row holds 2^-J/64 as an unevaluated sum Hi + Lo,
// so the result Hi + (Lo + Hi * P) rounds once at the end. The power of two
// is applied as two exact factors 2^-(M >> 1) and 2^-(M - (M >> 1)): the
// product is exact while the result is normal, and in the subnormal band
// (X past 708.4) only the second factor rounds. The constants are
// hex-float literals computed offline to 300 bits; nothing is computed at
// start-up.
//===----------------------------------------------------------------------===//

/// expNeg() returns +0 past this argument. e^-X rounds to +0 once X passes
/// 1075 ln2 ~ 745.13, so the cut changes no result; it keeps larger
/// arguments (+inf included) off the reduction.
constexpr double ExpNegCut = 746.0;
constexpr double ExpInvStep = 0x1.71547652b82fep+6;    ///< 64 / ln2.
constexpr double ExpStepHi = 0x1.62e42fee00000p-7;     ///< ln2/64, head.
constexpr double ExpStepLo = 0x1.a39ef35793c76p-39;    ///< ln2/64 - head.
constexpr double ExpRoundShift = 0x1.8p52;
/// Taylor coefficients of e^-R - 1 past the linear term: +1/2!, -1/3!,
/// +1/4!, -1/5!, +1/6!.
constexpr double ExpC2 = 0x1.0p-1;
constexpr double ExpC3 = -0x1.5555555555555p-3;
constexpr double ExpC4 = 0x1.5555555555555p-5;
constexpr double ExpC5 = -0x1.1111111111111p-7;
constexpr double ExpC6 = 0x1.6c16c16c16c17p-10;

/// Row J: 2^-J/64 = [J][0] + [J][1], the head rounded to nearest.
alignas(64) inline constexpr double ExpTable[64][2] = {
    {0x1.0000000000000p+0, 0.0},
    {0x1.fa7c1819e90d8p-1, 0x1.74853f3a5931ep-56},
    {0x1.f50765b6e4540p-1, 0x1.9d3e12dd8a18bp-55},
    {0x1.efa1bee615a27p-1, 0x1.dc7f486a4b6b0p-55},
    {0x1.ea4afa2a490dap-1, -0x1.e9c23179c2893p-55},
    {0x1.e502ee78b3ff6p-1, 0x1.39e8980a9cc8fp-56},
    {0x1.dfc97337b9b5fp-1, -0x1.1a5cd4f184b5cp-55},
    {0x1.da9e603db3285p-1, 0x1.c2300696db532p-55},
    {0x1.d5818dcfba487p-1, 0x1.2ed02d75b3707p-56},
    {0x1.d072d4a07897cp-1, -0x1.cbc3743797a9cp-55},
    {0x1.cb720dcef9069p-1, 0x1.503cbd1e949dbp-57},
    {0x1.c67f12e57d14bp-1, 0x1.2884dff483cadp-55},
    {0x1.c199bdd85529cp-1, 0x1.11065895048ddp-56},
    {0x1.bcc1e904bc1d2p-1, 0x1.23dd07a2d9e84p-56},
    {0x1.b7f76f2fb5e47p-1, -0x1.5584f7e54ac3bp-57},
    {0x1.b33a2b84f15fbp-1, -0x1.2805e3084d708p-58},
    {0x1.ae89f995ad3adp-1, 0x1.7a1cd345dcc81p-55},
    {0x1.a9e6b5579fdbfp-1, 0x1.0fac90ef7fd31p-55},
    {0x1.a5503b23e255dp-1, -0x1.d2f6edb8d41e1p-55},
    {0x1.a0c667b5de565p-1, -0x1.359495d1cd533p-55},
    {0x1.9c49182a3f090p-1, 0x1.c7c46b071f2bep-57},
    {0x1.97d829fde4e50p-1, -0x1.d185b7c1b85d1p-55},
    {0x1.93737b0cdc5e5p-1, -0x1.75fc781b57ebcp-58},
    {0x1.8f1ae99157736p-1, 0x1.5cc13a2e3976cp-56},
    {0x1.8ace5422aa0dbp-1, 0x1.6e9f156864b27p-55},
    {0x1.868d99b4492edp-1, -0x1.fc6f89bd4f6bap-55},
    {0x1.82589994cce13p-1, -0x1.d4c1dd41532d8p-55},
    {0x1.7e2f336cf4e62p-1, 0x1.05d02ba15797ep-57},
    {0x1.7a11473eb0187p-1, -0x1.41577ee04992fp-56},
    {0x1.75feb564267c9p-1, -0x1.0245957316dd3p-55},
    {0x1.71f75e8ec5f74p-1, -0x1.16e4786887a99p-56},
    {0x1.6dfb23c651a2fp-1, -0x1.bbe3a683c88abp-58},
    {0x1.6a09e667f3bcdp-1, -0x1.bdd3413b26456p-55},
    {0x1.6623882552225p-1, -0x1.bb60987591c34p-55},
    {0x1.6247eb03a5585p-1, -0x1.383c17e40b497p-55},
    {0x1.5e76f15ad2148p-1, 0x1.ba6f93080e65ep-55},
    {0x1.5ab07dd485429p-1, 0x1.6324c054647adp-55},
    {0x1.56f4736b527dap-1, 0x1.9bb2c011d93adp-55},
    {0x1.5342b569d4f82p-1, -0x1.07abe1db13cadp-56},
    {0x1.4f9b2769d2ca7p-1, -0x1.4b309d25957e3p-55},
    {0x1.4bfdad5362a27p-1, 0x1.d4397afec42e2p-57},
    {0x1.486a2b5c13cd0p-1, 0x1.3c1a3b69062f0p-57},
    {0x1.44e086061892dp-1, 0x1.89b7a04ef80d0p-60},
    {0x1.4160a21f72e2ap-1, -0x1.ef3691c309278p-59},
    {0x1.3dea64c123422p-1, 0x1.ada0911f09ebcp-56},
    {0x1.3a7db34e59ff7p-1, -0x1.5e436d661f5e3p-57},
    {0x1.371a7373aa9cbp-1, -0x1.63aeabf42eae2p-55},
    {0x1.33c08b26416ffp-1, 0x1.32721843659a6p-55},
    {0x1.306fe0a31b715p-1, 0x1.6f46ad23182e4p-56},
    {0x1.2d285a6e4030bp-1, 0x1.0024754db41d5p-55},
    {0x1.29e9df51fdee1p-1, 0x1.612e8afad1255p-56},
    {0x1.26b4565e27cddp-1, 0x1.2bd339940e9d9p-56},
    {0x1.2387a6e756238p-1, 0x1.9b07eb6c70573p-55},
    {0x1.2063b88628cd6p-1, 0x1.dc775814a8495p-56},
    {0x1.1d4873168b9aap-1, 0x1.e016e00a2643cp-55},
    {0x1.1a35beb6fcb75p-1, 0x1.e5b4c7b4968e4p-56},
    {0x1.172b83c7d517bp-1, -0x1.19041b9d78a76p-56},
    {0x1.1429aaea92de0p-1, -0x1.32fbf9af1369ep-55},
    {0x1.11301d0125b51p-1, -0x1.6c51039449b3ap-55},
    {0x1.0e3ec32d3d1a2p-1, 0x1.03a1727c57b53p-60},
    {0x1.0b5586cf9890fp-1, 0x1.8a62e4adc610bp-55},
    {0x1.0874518759bc8p-1, 0x1.186be4bb284ffp-58},
    {0x1.059b0d3158574p-1, 0x1.d73e2a475b465p-56},
    {0x1.02c9a3e778061p-1, -0x1.19083535b085dp-57},
};

namespace avx2 {

#ifdef PROM_HAVE_AVX2
double l2Sq(const double *A, const double *B, size_t N);
void l2Sq1xN(const double *Query, const double *Rows, size_t NumRows,
             size_t Dim, size_t RowStride, double *Out);
double dot(const double *A, const double *B, size_t N);
void axpy(double *A, const double *B, double Alpha, size_t N);
void matmul(const double *A, size_t N, size_t K, const double *B, size_t M,
            const double *Bias, double *Out);
SelectionCut selectionCut(const double *Dists, size_t N, size_t Keep,
                          std::vector<SelectKey> &Bucket);
void foldBlock(const FoldQuery &Q, size_t Begin, size_t End,
               double *GreaterEq, double *Total, double *Counts);
void expNegArray(const double *X, size_t N, double *Out);
#endif

} // namespace avx2
} // namespace kernels
} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_KERNELSISA_H
