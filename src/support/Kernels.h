//===- support/Kernels.h - Dense numeric inner-loop kernels ------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for the dense numeric inner loops of the
/// assessment hot path: batched one-query-vs-many-rows squared Euclidean
/// distance, dot/axpy, the blocked row-major matmul behind the batched
/// model forwards, the two calibration-store passes that follow the
/// distance scan — the selection cut (selectionCut) and the per-block
/// Eq. (2) fold (foldBlock) — and the guard's own e^-x (expNeg), which
/// gives the Eq. (1) weights and the vote's confidence. Every entry point
/// has a scalar reference implementation and (when the build enables it) a
/// runtime-dispatched AVX2 variant.
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
///  * The selection cut compares integer keys only, so its min/max,
///    histogram and bucket passes are exact in any order.
///  * The fold gives each SIMD lane one (expert, label) cell and never sums
///    across lanes: every step (sqrt, subtract, max, multiply, divide,
///    compare, masked add) is a per-lane IEEE operation, and each cell adds
///    its entries in ascending entry order. No lane-fold rule is needed.
///  * expNeg is mul, add and integer bit steps only, with its table and
///    constants committed as literals: the scalar form and the AVX2
///    four-lane form run the same operations in the same order, so the
///    Eq. (1) weight depends on neither the ISA nor the host's libm.
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
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace prom {
namespace support {
namespace kernels {

/// Width of the canonical lane fold (doubles per AVX2 register). Fixed by
/// the determinism contract — it must not change with the build's ISA.
constexpr size_t KernelLanes = 4;

/// Raw IEEE-754 bit pattern of \p V: the distance half of a SelectKey.
inline uint64_t keyBits(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

/// The double whose bit pattern is \p Bits (the inverse of keyBits).
inline double fromKeyBits(uint64_t Bits) {
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

/// A selection key: (keyBits of an entry's distance, entry id). Keys
/// compare as unsigned integers, so the order is defined for every bit
/// pattern (NaN and -0.0 included); for non-negative distances it is the
/// (distance, id) order.
using SelectKey = std::pair<uint64_t, uint32_t>;

/// Result of selectionCut().
struct SelectionCut {
  SelectKey Cut;        ///< The Keep-th smallest key.
  uint64_t MinBits = 0; ///< Smallest distance bit pattern of the array.
};

/// Inputs of one query's Eq. (2) fold (see foldBlock()). Every pointer is
/// borrowed, and the arrays indexed by entry id cover every id foldBlock()
/// visits.
struct FoldQuery {
  /// Squared distance per entry id.
  const double *Dists = nullptr;
  /// Entry I is selected when (keyBits(Dists[I]), I) <= Cut.
  SelectKey Cut;
  /// Label per entry id; labels outside [0, NumLabels) are skipped.
  const int *Labels = nullptr;
  size_t NumLabels = 0; ///< At most INT32_MAX.
  /// NumExperts score columns, each indexed by entry id.
  const double *const *Columns = nullptr;
  /// Per expert: nonzero for a ScoreScaling lane (see foldBlock()).
  const uint8_t *Scaling = nullptr;
  size_t NumExperts = 0;
  /// NumLabels x foldStride(NumExperts) label-major test scores: row L,
  /// lane E holds expert E's test score for label L.
  const double *TestScores = nullptr;
  bool Weighted = false; ///< Eq. (1) applies; false makes every W 1.
  double Offset = 0.0;   ///< Eq. (1) distance offset.
  double Tau = 1.0;      ///< Eq. (1) temperature.
  int NormPower = 1;     ///< Eq. (1) norm power (2 squares, else 1).
};

/// Accumulator lanes per label row of foldBlock(): the committee size
/// rounded up to whole KernelLanes vectors.
constexpr size_t foldStride(size_t NumExperts) {
  return (NumExperts + KernelLanes - 1) & ~(KernelLanes - 1);
}

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

/// The cut of the Keep smallest of the N keys (keyBits(Dists[I]), I), for
/// 1 <= Keep <= N < 2^32, plus the smallest bit pattern. The cut is the
/// Keep-th smallest key, except that a full selection (Keep == N) takes
/// (largest bits, N - 1), which admits the same keys without a search; an
/// array of equal bit patterns needs no search either. Otherwise a
/// histogram over 2048 range-adapted bit buckets finds the bucket that
/// holds the cut, and only its keys are collected into \p Bucket (in
/// ascending id order) and ordered with nth_element; Bucket is left empty
/// when no search ran. No double is compared, so the result is defined
/// for every bit pattern.
SelectionCut selectionCut(const double *Dists, size_t N, size_t Keep,
                          std::vector<SelectKey> &Bucket);

/// Adds the Eq. (2) partial sums of entries [Begin, End) to the
/// label-major \p GreaterEq and \p Total (NumLabels x
/// foldStride(NumExperts)) and to \p Counts (NumLabels).
///
/// Each selected entry with a label L in range adds 1 to Counts[L] and
/// has the Eq. (1) weight W = expNeg(max(sqrt(d) - Offset, 0)^p / Tau)
/// (W = 1 when not Weighted). The AVX2 variant computes a block's weights
/// in one four-lane pass over its compacted exponents; every variant gives
/// expNeg's bits. Then every expert lane E follows one rule: a Scaling
/// lane adds 1 to Total and compares W * score, every other lane adds W
/// and compares the score; GreaterEq gains the same addend when the
/// compared value is >= TestScores[L][E], and +0.0 otherwise. Padding
/// lanes past NumExperts gain nothing but +0.0 (their test scores are
/// read, never used). Each cell adds its entries in ascending id order.
void foldBlock(const FoldQuery &Q, size_t Begin, size_t End,
               double *GreaterEq, double *Total, double *Counts);

/// e^-X for X >= 0: the Eq. (1) weight and the vote's confidence. One
/// form for every ISA, built from a table reduction by ln2/64 and a fixed
/// polynomial (see KernelsIsa.h); KernelTest holds it within 1 ulp of
/// glibc's exp(-X). +0 and -0 give exactly 1, every X past 746 (+inf
/// included) gives +0, as exp rounds there, and a NaN is returned as is. A
/// negative X is outside the domain: its result is unspecified, but every
/// form gives the same bits for it.
double expNeg(double X);

/// Out[I] = expNeg(X[I]) for I in [0, N), bit for bit: the AVX2 variant
/// runs the four-lane form foldBlock() uses.
void expNegArray(const double *X, size_t N, double *Out);

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
SelectionCut selectionCut(const double *Dists, size_t N, size_t Keep,
                          std::vector<SelectKey> &Bucket);
void foldBlock(const FoldQuery &Q, size_t Begin, size_t End,
               double *GreaterEq, double *Total, double *Counts);
void expNegArray(const double *X, size_t N, double *Out);

} // namespace scalar

} // namespace kernels
} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_KERNELS_H
