//===- support/Kernels.h - Dense numeric inner-loop kernels ------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for the dense numeric inner loops of the
/// assessment hot path: batched one-query-vs-many-rows squared Euclidean
/// distance, dot/axpy, and the blocked row-major matmul behind the batched
/// model forwards. Every entry point has a scalar reference implementation
/// and (when the build enables it) a runtime-dispatched AVX2 variant.
///
/// Determinism contract
/// --------------------
/// The dispatched result is bit-identical to the scalar reference on every
/// ISA, so verdicts never depend on which machine served them:
///
///  * Reductions (l2Sq, dot) accumulate into a canonical fixed-width lane
///    fold: element I lands in accumulator lane I mod KernelLanes, and the
///    lanes are folded in one fixed order at the end — the same scheme for
///    the scalar loop and for the SIMD register lanes (the same trick as
///    CalibrationStore's canonical accumulation blocks, one level down).
///  * The matmul accumulates each output element strictly in ascending-k
///    order; SIMD vectorizes across *independent* output columns, so no
///    sum is ever reassociated.
///  * The kernel translation units are built with FP contraction disabled,
///    so no mul+add pair fuses into an FMA on one ISA but not the other.
///
/// KernelTest enforces the bit-equality; CI builds and tests both the
/// scalar-only and the AVX2 configuration.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_KERNELS_H
#define PROM_SUPPORT_KERNELS_H

#include <cstddef>

namespace prom {
namespace support {
namespace kernels {

/// Width of the canonical lane fold (doubles per AVX2 register). Fixed by
/// the determinism contract — it must not change with the build's ISA.
constexpr size_t KernelLanes = 4;

/// True when the dispatched entry points run the AVX2 variants (the build
/// enabled them, the CPU supports AVX2, and PROM_KERNELS=scalar is not
/// set in the environment).
bool avx2Active();

/// "avx2" or "scalar" — the variant behind the dispatched entry points.
const char *activeIsaName();

//===----------------------------------------------------------------------===//
// Dispatched entry points
//===----------------------------------------------------------------------===//

/// Squared Euclidean distance between A and B (length N). Canonical lane
/// fold; N == 0 returns 0.0; NaNs propagate.
double l2Sq(const double *A, const double *B, size_t N);

/// Out[R] = l2Sq(Query, Rows + R * RowStride, Dim) for R in [0, NumRows):
/// one query against a contiguous block of rows (the calibration distance
/// scan). Each row's fold is independent, so the batch is bit-identical to
/// NumRows single l2Sq calls.
void l2Sq1xN(const double *Query, const double *Rows, size_t NumRows,
             size_t Dim, size_t RowStride, double *Out);

/// Out[Q * NumRows + R] = l2Sq(Queries + Q * QueryStride,
/// Rows + R * RowStride, Dim): a whole query batch against a contiguous
/// block of rows in one call (the batched k-NN scan). The row block is
/// tiled so one tile of rows stays cache-hot across the entire query
/// batch — the point set streams from memory once per tile instead of
/// once per query, which is where the batched k-NN speedup comes from
/// when the training block outgrows the cache. Tiling only reorders
/// *which* (query, row) pair is computed when; every pair's fold is
/// independent, so row Q of Out is bit-identical to l2Sq1xN on query Q
/// alone.
void l2SqMxN(const double *Queries, size_t NumQueries, size_t QueryStride,
             const double *Rows, size_t NumRows, size_t Dim,
             size_t RowStride, double *Out);

/// Dot product of A and B (length N), canonical lane fold.
double dot(const double *A, const double *B, size_t N);

/// A[I] += Alpha * B[I] — elementwise, no reduction, so the SIMD variant
/// is trivially bit-identical.
void axpy(double *A, const double *B, double Alpha, size_t N);

/// Blocked row-major matmul with optional bias broadcast:
///
///   Out(N x M) = A(N x K) * B(K x M) + broadcast(Bias)
///
/// Out rows are seeded from Bias (zeros when null), then accumulated in
/// strictly ascending-k order per output element, skipping A entries that
/// are exactly 0.0 (the historic sparse-activation fast path of the ML
/// substrate — ReLU outputs are zero-heavy). K is tiled so a B tile stays
/// cache-hot across all N rows; tiling never reorders any element's sum.
/// Row I of Out is bit-identical to running the per-sample affine loop
/// (out = bias; for k: out += a_k * B[k]) on row I alone — the batched
/// model forwards rely on exactly that equivalence.
/// Out must not alias A or B.
void matmul(const double *A, size_t N, size_t K, const double *B, size_t M,
            const double *Bias, double *Out);

//===----------------------------------------------------------------------===//
// Scalar reference implementations
//
// Always compiled, ISA-independent: the fallback path of the dispatcher
// and the oracle half of the KernelTest bit-equality checks.
//===----------------------------------------------------------------------===//

namespace scalar {

double l2Sq(const double *A, const double *B, size_t N);
void l2Sq1xN(const double *Query, const double *Rows, size_t NumRows,
             size_t Dim, size_t RowStride, double *Out);
void l2SqMxN(const double *Queries, size_t NumQueries, size_t QueryStride,
             const double *Rows, size_t NumRows, size_t Dim,
             size_t RowStride, double *Out);
double dot(const double *A, const double *B, size_t N);
void axpy(double *A, const double *B, double Alpha, size_t N);
void matmul(const double *A, size_t N, size_t K, const double *B, size_t M,
            const double *Bias, double *Out);

} // namespace scalar

} // namespace kernels
} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_KERNELS_H
