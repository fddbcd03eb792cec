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
/// are the steps both variants of a kernel share verbatim.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_KERNELSISA_H
#define PROM_SUPPORT_KERNELSISA_H

#include "support/Kernels.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

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

/// Eq. (1) weight from its exponent: std::exp(-X) rounds to +0.0 for every
/// X above 746 (the subnormal range ends at ln 2^-1075 ~ 745.13), so the
/// 0.0 is returned directly — bit-identical, and it keeps far-away entries
/// off the libm underflow path and out of the sums as subnormals.
inline double expWeight(double Exponent) {
  return Exponent > 746.0 ? 0.0 : std::exp(-Exponent);
}

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
#endif

} // namespace avx2
} // namespace kernels
} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_KERNELSISA_H
