#include "linalg/csr.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "runtime/parallel.h"

namespace p3d::linalg {
namespace {

// Rows per parallel chunk. Any value is determinism-safe (per-row outputs);
// this one keeps chunk dispatch overhead far below the row work for the
// FEA-sized matrices (tens of nonzeros per row).
constexpr std::int64_t kSpmvRowGrain = 256;

}  // namespace

CsrMatrix::CsrMatrix(std::int32_t n, std::vector<std::int32_t> row_ptr,
                     std::vector<std::int32_t> col_idx,
                     std::vector<double> values)
    : n_(n),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      vals_(std::move(values)) {
  assert(row_ptr_.size() == static_cast<std::size_t>(n_) + 1 &&
         row_ptr_.front() == 0 &&
         static_cast<std::size_t>(row_ptr_.back()) == col_idx_.size() &&
         col_idx_.size() == vals_.size());
}

CsrMatrix CsrMatrix::FromCoo(const CooBuilder& coo) {
  CsrMatrix m;
  m.n_ = coo.Dim();
  const std::size_t n = static_cast<std::size_t>(m.n_);
  const std::size_t nnz_in = coo.NumTriplets();
  const auto& rows = coo.rows();
  const auto& cols = coo.cols();
  const auto& vals = coo.vals();

  // Counting sort of triplet indices by row; each row keeps insertion order.
  std::vector<std::size_t> row_start(n + 1, 0);
  for (const std::int32_t r : rows) {
    assert(r >= 0 && r < m.n_);
    ++row_start[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t r = 0; r < n; ++r) row_start[r + 1] += row_start[r];
  std::vector<std::uint32_t> order(nnz_in);
  {
    std::vector<std::size_t> next(row_start.begin(), row_start.end() - 1);
    for (std::size_t i = 0; i < nnz_in; ++i) {
      order[next[static_cast<std::size_t>(rows[i])]++] =
          static_cast<std::uint32_t>(i);
    }
  }

  // Stable sort by column within each row puts duplicates side by side, still
  // in insertion order, so each sum below runs in a canonical order.
  m.row_ptr_.assign(n + 1, 0);
  m.col_idx_.reserve(nnz_in);
  m.vals_.reserve(nnz_in);
  for (std::size_t r = 0; r < n; ++r) {
    std::uint32_t* const first = order.data() + row_start[r];
    std::uint32_t* const last = order.data() + row_start[r + 1];
    std::stable_sort(first, last, [&](std::uint32_t a, std::uint32_t b) {
      return cols[a] < cols[b];
    });
    for (const std::uint32_t* it = first; it != last;) {
      const std::int32_t c = cols[*it];
      assert(c >= 0 && c < m.n_);
      double sum = 0.0;
      for (; it != last && cols[*it] == c; ++it) sum += vals[*it];
      m.col_idx_.push_back(c);
      m.vals_.push_back(sum);
    }
    m.row_ptr_[r + 1] = static_cast<std::int32_t>(m.col_idx_.size());
  }
  return m;
}

void CsrMatrix::Multiply(const std::vector<double>& x, std::vector<double>* y,
                         runtime::ThreadPool* pool) const {
  assert(static_cast<std::int32_t>(x.size()) == n_);
  y->resize(static_cast<std::size_t>(n_));
  runtime::ParallelFor(pool, 0, n_, kSpmvRowGrain, [&](std::int64_t r) {
    double acc = 0.0;
    for (std::int32_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      acc += vals_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    (*y)[static_cast<std::size_t>(r)] = acc;
  });
}

std::vector<double> CsrMatrix::Diagonal() const {
  std::vector<double> diag(static_cast<std::size_t>(n_), 0.0);
  for (std::int32_t r = 0; r < n_; ++r) {
    for (std::int32_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      if (col_idx_[static_cast<std::size_t>(k)] == r) {
        diag[static_cast<std::size_t>(r)] = vals_[static_cast<std::size_t>(k)];
        break;
      }
    }
  }
  return diag;
}

double CsrMatrix::At(std::int32_t row, std::int32_t col) const {
  for (std::int32_t k = row_ptr_[static_cast<std::size_t>(row)];
       k < row_ptr_[static_cast<std::size_t>(row) + 1]; ++k) {
    if (col_idx_[static_cast<std::size_t>(k)] == col) {
      return vals_[static_cast<std::size_t>(k)];
    }
  }
  return 0.0;
}

double CsrMatrix::SymmetryError() const {
  double err = 0.0;
  for (std::int32_t r = 0; r < n_; ++r) {
    for (std::int32_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int32_t c = col_idx_[static_cast<std::size_t>(k)];
      err = std::max(err, std::abs(vals_[static_cast<std::size_t>(k)] - At(c, r)));
    }
  }
  return err;
}

}  // namespace p3d::linalg
