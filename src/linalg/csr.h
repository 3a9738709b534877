// Compressed sparse row matrices for the finite-element thermal solver.
//
// The FEA assembly pattern is: accumulate (row, col, value) triplets element
// by element, then compress once. Matrices from Galerkin assembly of the heat
// equation are symmetric positive definite, which the CG solver relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/thread_pool.h"

namespace p3d::linalg {

/// Triplet accumulator with duplicate summing on compression.
class CooBuilder {
 public:
  /// `capacity` reserves room for that many triplets (a hint; Add grows
  /// past it).
  explicit CooBuilder(std::int32_t n, std::size_t capacity = 0) : n_(n) {
    rows_.reserve(capacity);
    cols_.reserve(capacity);
    vals_.reserve(capacity);
  }

  void Add(std::int32_t row, std::int32_t col, double value) {
    rows_.push_back(row);
    cols_.push_back(col);
    vals_.push_back(value);
  }

  std::int32_t Dim() const { return n_; }
  std::size_t NumTriplets() const { return vals_.size(); }

  const std::vector<std::int32_t>& rows() const { return rows_; }
  const std::vector<std::int32_t>& cols() const { return cols_; }
  const std::vector<double>& vals() const { return vals_; }

 private:
  std::int32_t n_;
  std::vector<std::int32_t> rows_;
  std::vector<std::int32_t> cols_;
  std::vector<double> vals_;
};

/// Square CSR matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Compresses a triplet set, summing duplicates: a counting sort by row,
  /// then a stable sort by column within each row (linear in the triplet
  /// count when rows are short, as FEA rows are).
  /// Duplicates of one (row, col) sum in insertion order, so the values are
  /// a pure function of the Add sequence.
  static CsrMatrix FromCoo(const CooBuilder& coo);

  std::int32_t Dim() const { return n_; }
  std::size_t NumNonZeros() const { return vals_.size(); }

  /// y = A * x. x and y must have Dim() entries and must not alias. With a
  /// pool, rows are computed in parallel; each row's dot product stays a
  /// serial left-to-right accumulation into its own output slot, so the
  /// result is bit-identical for any thread count (null pool = serial).
  void Multiply(const std::vector<double>& x, std::vector<double>* y,
                runtime::ThreadPool* pool = nullptr) const;

  /// Returns the diagonal (for Jacobi preconditioning). Missing diagonal
  /// entries are reported as 0.
  std::vector<double> Diagonal() const;

  /// Entry lookup (slow; test/debug only).
  double At(std::int32_t row, std::int32_t col) const;

  /// Max |A_ij - A_ji| (symmetry check; test/debug only).
  double SymmetryError() const;

  const std::vector<std::int32_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::int32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return vals_; }

 private:
  std::int32_t n_ = 0;
  std::vector<std::int32_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  std::vector<double> vals_;
};

}  // namespace p3d::linalg
