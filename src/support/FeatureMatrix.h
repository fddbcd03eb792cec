//===- support/FeatureMatrix.h - Flat row-major feature storage --*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contiguous row-major feature storage (data + stride, no per-row
/// allocation) for the kernel-driven scans of the assessment hot path:
/// the calibration-set distance scan, the regressor's k-NN lookups, and
/// the instance-based ml models all stream rows out of one block instead
/// of chasing vector<vector<double>> pointers. Rows are padded to a
/// multiple of kernels::KernelLanes so every row starts lane-aligned; the
/// kernels only ever read dim() entries, so the padding never enters any
/// sum.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_FEATUREMATRIX_H
#define PROM_SUPPORT_FEATUREMATRIX_H

#include "support/Kernels.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace prom {
namespace support {

/// Flat (rows x dim) feature block with a padded row stride.
class FeatureMatrix {
public:
  FeatureMatrix() = default;
  FeatureMatrix(size_t Rows, size_t Dim) { reset(Rows, Dim); }

  /// Reshapes to Rows x Dim and zero-fills (padding included).
  void reset(size_t Rows, size_t Dim) {
    NumRows = Rows;
    FeatDim = Dim;
    RowStride = (Dim + kernels::KernelLanes - 1) / kernels::KernelLanes *
                kernels::KernelLanes;
    Data.assign(Rows * RowStride, 0.0);
  }

  void clear() {
    NumRows = FeatDim = RowStride = 0;
    Data.clear();
  }

  size_t rows() const { return NumRows; }
  size_t dim() const { return FeatDim; }
  size_t stride() const { return RowStride; }
  bool empty() const { return NumRows == 0; }

  /// Heap bytes held by the flat data block (capacity, not size: the
  /// block is what the allocator actually reserved). The fleet registry's
  /// memory budget sums these estimates.
  size_t memoryBytes() const { return Data.capacity() * sizeof(double); }

  double *rowPtr(size_t R) {
    assert(R < NumRows && "feature row out of range");
    return Data.data() + R * RowStride;
  }
  const double *rowPtr(size_t R) const {
    assert(R < NumRows && "feature row out of range");
    return Data.data() + R * RowStride;
  }

  /// Copies dim() values from \p Src into row \p R.
  void setRow(size_t R, const double *Src) {
    std::copy(Src, Src + FeatDim, rowPtr(R));
  }

  /// Reserves room for \p Rows rows, so appendRow() up to that count never
  /// reallocates (and the block holds no growth slack).
  void reserveRows(size_t Rows) { Data.reserve(Rows * RowStride); }

  /// Appends one row (dim() values from \p Src; padding zero-filled). The
  /// matrix must already have a dimensionality (reset() ran), so appended
  /// rows share the established stride — the incremental-refresh path of
  /// the calibration store grows the block without re-copying it.
  void appendRow(const double *Src) {
    assert(FeatDim > 0 && "appendRow on a shapeless matrix");
    Data.resize((NumRows + 1) * RowStride, 0.0);
    ++NumRows;
    setRow(NumRows - 1, Src);
  }

  /// Erases the first \p K rows in place (one contiguous tail move); the
  /// oldest-first eviction of the calibration store's refresh path.
  void eraseFrontRows(size_t K) {
    assert(K <= NumRows && "eraseFrontRows past the end");
    Data.erase(Data.begin(),
               Data.begin() + static_cast<long>(K * RowStride));
    NumRows -= K;
  }

  /// Copies row \p R into a fresh (unpadded) vector.
  std::vector<double> row(size_t R) const {
    return std::vector<double>(rowPtr(R), rowPtr(R) + FeatDim);
  }

  const double *data() const { return Data.data(); }

  /// Builds a FeatureMatrix from equal-length rows.
  static FeatureMatrix fromRows(const std::vector<std::vector<double>> &Rows) {
    FeatureMatrix M;
    if (Rows.empty())
      return M;
    M.reset(Rows.size(), Rows.front().size());
    for (size_t R = 0; R < Rows.size(); ++R) {
      assert(Rows[R].size() == M.FeatDim && "ragged feature rows");
      M.setRow(R, Rows[R].data());
    }
    return M;
  }

private:
  size_t NumRows = 0;
  size_t FeatDim = 0;
  size_t RowStride = 0;
  std::vector<double> Data;
};

} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_FEATUREMATRIX_H
