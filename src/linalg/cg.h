// Preconditioned conjugate gradient for symmetric positive-definite systems
// (the FEA thermal matrices).
//
// Two preconditioners are available:
//   * Jacobi    — M = diag(A); free to build, modest iteration savings.
//     CgPreconditioner::Build makes it from any matrix, and SolveCg always
//     solves with it.
//   * Multigrid — one geometric V-cycle per application, against a prebuilt
//     linalg::MultigridHierarchy (BuildMultigrid). Mesh-size-independent
//     iteration counts on the FEA matrices; the hierarchy needs the grid
//     the matrix was assembled on, which thermal::FeaSolver supplies.
// A CgPreconditioner can be built once per matrix and reused across solves
// (see thermal::FeaContext), which is where the hierarchy's build cost
// amortizes.
//
// Determinism: SpMV / dot / axpy run on the deterministic parallel runtime
// (fixed chunking, ordered combination); Jacobi's scaling is serial and the
// V-cycle's kernels use the same runtime. Every solve is bit-identical for
// any thread count.
#pragma once

#include <memory>
#include <vector>

#include "linalg/csr.h"

namespace p3d::linalg {

class MultigridHierarchy;

enum class PreconditionerKind {
  kJacobi,
  kMultigrid,
};

struct CgOptions {
  int max_iters = 2000;
  double rel_tolerance = 1e-9;  // on the true residual norm ||b - Ax|| / ||b||
  // Parallel runtime width for SpMV / dot / axpy (0 = all hardware threads).
  // The solve is bit-identical for every value: reductions use fixed
  // chunking with ordered combination (see src/runtime/parallel.h).
  int threads = 1;
  // The preconditioner a caller that owns the grid should build (see
  // thermal::FeaPreconditioner). SolveCg and SolveCgPreconditioned ignore
  // it: the first always solves with Jacobi, the second with the
  // preconditioner it is given.
  PreconditionerKind preconditioner = PreconditionerKind::kJacobi;

  friend bool operator==(const CgOptions&, const CgOptions&) = default;
};

/// Why a CG solve stopped.
enum class CgStop {
  kConverged,  // the relative residual went below the tolerance
  kCap,        // max_iters iterations ran without converging
  kBreakdown,  // p'Ap <= 0 or r'z <= 0: the matrix or the preconditioner
               // is not positive definite (numerically)
};

/// Returns "converged" / "cap" / "breakdown".
const char* CgStopName(CgStop stop);

struct CgResult {
  int iters = 0;
  double residual_norm = 0.0;  // final ||b - Ax|| / ||b||
  bool converged = false;      // stop == CgStop::kConverged
  CgStop stop = CgStop::kCap;
};

/// A preconditioner prebuilt from one matrix, reusable across any number of
/// solves against that matrix. Movable value type.
class CgPreconditioner {
 public:
  CgPreconditioner() = default;

  /// Jacobi: inverts the diagonal of `a` (a zero diagonal entry scales by
  /// 1).
  static CgPreconditioner Build(const CsrMatrix& a);

  /// Wraps a prebuilt geometric-multigrid hierarchy (one V-cycle per Apply).
  /// The hierarchy's finest matrix must be the matrix later solved with.
  /// Shared ownership: many preconditioners (across threads) may wrap one
  /// hierarchy — Apply is const and allocates its scratch per call.
  static CgPreconditioner BuildMultigrid(
      std::shared_ptr<const MultigridHierarchy> hierarchy);

  /// z = M^-1 r. Deterministic for any thread count; Jacobi ignores `pool`
  /// (serial application), multigrid runs its V-cycle kernels on it.
  void Apply(const std::vector<double>& r, std::vector<double>* z,
             runtime::ThreadPool* pool = nullptr) const;

  PreconditionerKind kind() const { return kind_; }
  bool empty() const { return inv_diag_.empty() && mg_ == nullptr; }
  /// The wrapped hierarchy (null unless built via BuildMultigrid).
  const std::shared_ptr<const MultigridHierarchy>& hierarchy() const {
    return mg_;
  }

 private:
  PreconditionerKind kind_ = PreconditionerKind::kJacobi;

  // Jacobi: 1 / diag(A).
  std::vector<double> inv_diag_;

  // Multigrid: shared immutable hierarchy (V-cycle per Apply).
  std::shared_ptr<const MultigridHierarchy> mg_;
};

/// Solves A x = b with Jacobi-preconditioned CG; `x` is used as the initial
/// guess and receives the result. `options.preconditioner` is ignored.
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
