// Preconditioned conjugate gradient for symmetric positive-definite systems
// (the FEA thermal matrices).
//
// Three preconditioners are available:
//   * Jacobi    — M = diag(A); free to build, modest iteration savings.
//   * IC(0)     — incomplete Cholesky on the sparsity pattern of A, with an
//     automatic diagonal-shift restart on breakdown. Costs one factorization
//     per matrix, then cuts iteration counts several-fold on the FEA meshes.
//   * Multigrid — one geometric V-cycle per application, against a prebuilt
//     linalg::MultigridHierarchy (BuildMultigrid). Mesh-size-independent
//     iteration counts on the FEA matrices; only reachable through a
//     prebuilt hierarchy — Build(a, kMultigrid) has no grid information and
//     builds IC(0), as thermal::FeaAssembly does on a grid it cannot coarsen.
// A CgPreconditioner can be built once per matrix and reused across solves
// (see thermal::FeaContext), which is where IC(0)'s build cost amortizes.
//
// Determinism: SpMV / dot / axpy run on the deterministic parallel runtime
// (fixed chunking, ordered combination); the preconditioner application is
// serial (Jacobi's scaling loop runs through ParallelFor with fixed chunks,
// IC(0)'s triangular solves are inherently sequential). Every solve is
// bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/csr.h"

namespace p3d::linalg {

class MultigridHierarchy;

enum class PreconditionerKind {
  kJacobi,
  kIc0,
  kMultigrid,
};

/// Returns "jacobi" / "ic0" / "multigrid".
const char* PreconditionerName(PreconditionerKind kind);

struct CgOptions {
  int max_iters = 2000;
  double rel_tolerance = 1e-9;  // on the true residual norm ||b - Ax|| / ||b||
  // Parallel runtime width for SpMV / dot / axpy (0 = all hardware threads).
  // The solve is bit-identical for every value: reductions use fixed
  // chunking with ordered combination (see src/runtime/parallel.h).
  int threads = 1;
  // Preconditioner built internally by SolveCg. Callers that solve the same
  // matrix repeatedly should build a CgPreconditioner once and use
  // SolveCgPreconditioned instead.
  PreconditionerKind preconditioner = PreconditionerKind::kJacobi;

  friend bool operator==(const CgOptions&, const CgOptions&) = default;
};

struct CgResult {
  int iters = 0;
  double residual_norm = 0.0;  // final ||b - Ax|| / ||b||
  bool converged = false;
};

/// A preconditioner prebuilt from one matrix, reusable across any number of
/// solves against that matrix. Movable value type.
class CgPreconditioner {
 public:
  CgPreconditioner() = default;

  /// Factors `a` (Jacobi: inverts the diagonal; IC(0): incomplete Cholesky
  /// with diagonal-shift restart on breakdown — never fails on an SPD-ish
  /// matrix, the shift grows until the factorization completes). kMultigrid
  /// needs grid information a bare matrix does not carry, so this overload
  /// builds IC(0) for it (kind() reports kIc0) — build the hierarchy and use
  /// BuildMultigrid.
  static CgPreconditioner Build(const CsrMatrix& a, PreconditionerKind kind);

  /// Wraps a prebuilt geometric-multigrid hierarchy (one V-cycle per Apply).
  /// The hierarchy's finest matrix must be the matrix later solved with.
  /// Shared ownership: many preconditioners (across threads) may wrap one
  /// hierarchy — Apply is const and allocates its scratch per call.
  static CgPreconditioner BuildMultigrid(
      std::shared_ptr<const MultigridHierarchy> hierarchy);

  /// z = M^-1 r. Deterministic for any thread count; Jacobi / IC(0) ignore
  /// `pool` (serial application), multigrid runs its V-cycle kernels on it.
  void Apply(const std::vector<double>& r, std::vector<double>* z,
             runtime::ThreadPool* pool = nullptr) const;

  PreconditionerKind kind() const { return kind_; }
  bool empty() const {
    return inv_diag_.empty() && ic_vals_.empty() && mg_ == nullptr;
  }
  /// The wrapped hierarchy (null unless built via BuildMultigrid).
  const std::shared_ptr<const MultigridHierarchy>& hierarchy() const {
    return mg_;
  }
  /// Diagonal shift the IC(0) factorization needed (0.0 = clean factor).
  double ic_shift() const { return ic_shift_; }

 private:
  PreconditionerKind kind_ = PreconditionerKind::kJacobi;

  // Jacobi: 1 / diag(A).
  std::vector<double> inv_diag_;

  // IC(0): lower-triangular factor L (pattern of lower(A), diagonal
  // included) in CSR, plus its transpose for the backward solve.
  std::vector<std::int32_t> ic_row_ptr_, ic_col_;
  std::vector<double> ic_vals_;
  std::vector<std::int32_t> icT_row_ptr_, icT_col_;
  std::vector<double> icT_vals_;
  std::vector<double> ic_inv_diag_;  // 1 / L_ii, hoisted out of the solves
  double ic_shift_ = 0.0;

  // Multigrid: shared immutable hierarchy (V-cycle per Apply).
  std::shared_ptr<const MultigridHierarchy> mg_;

  bool BuildIc0(const CsrMatrix& a, double shift);
};

/// Solves A x = b; `x` is used as the initial guess and receives the result.
/// Builds the preconditioner selected by `options` internally.
CgResult SolveCg(const CsrMatrix& a, const std::vector<double>& b,
                 std::vector<double>* x, const CgOptions& options = {});

/// Same solve, but reusing a prebuilt preconditioner (which must have been
/// built from `a`). `options.preconditioner` is ignored.
CgResult SolveCgPreconditioned(const CsrMatrix& a,
                               const CgPreconditioner& precond,
                               const std::vector<double>& b,
                               std::vector<double>* x,
                               const CgOptions& options = {});

}  // namespace p3d::linalg
