// Geometric multigrid for SPD systems assembled on tensor-product hex grids
// (the FEA thermal matrices).
//
// The hierarchy coarsens the LATERAL grid by 2x per level and keeps every z
// plane: the thermal mesh has few vertical elements (one per device layer /
// interlayer plus a handful through the bulk), and conductivity varies only
// with z, so the coarse trilinear spaces are exactly nested in the fine one.
// With exact 2x2x2 Gauss quadrature that makes the re-assembled coarse
// operators equal the Galerkin triple products P^T A P — variational
// multigrid at assembly cost, without materializing the triple product.
//
// Components per level:
//   * 4-color Z-LINE Gauss-Seidel smoothing: each lateral node column's
//     vertical tridiagonal block is solved exactly (LDL^T, factored once at
//     Build), sweeping the four lateral parity classes (ix%2, iy%2) in a
//     fixed order. The thermal mesh is strongly anisotropic — interlayer
//     elements are ~0.7 um tall under ~40 um lateral spacing — so the thin
//     planes behave like (2D bilinear mass) x (1D vertical stiffness):
//     vertical coupling dominates by orders of magnitude (point Jacobi
//     diverges outright), and the lateral coupling is mass-like, meaning
//     the laterally OSCILLATORY modes carry the SMALLEST eigenvalues.
//     Jacobi-type column smoothing leaves those barely damped and the
//     coarse lateral grids cannot represent them, stalling the V-cycle
//     near a 0.98 contraction factor; Gauss-Seidel across the colors
//     damps them strongly (the mass block is well-conditioned). Lateral
//     couplings only reach +-1 node, so columns within a color are fully
//     decoupled: sweeps parallelize over each color with per-index writes
//     and a fixed color order — bit-identical at any thread count.
//     Post-smoothing runs the colors in REVERSE order, making the V-cycle
//     a symmetric operator, required for use inside CG,
//   * lateral-bilinear prolongation (identity in z) and its exact adjoint as
//     restriction (full weighting up to the nested-space scaling),
//   * a coarsest-grid solve: dense Cholesky when the coarse system is small
//     (the common case — a 24x24 lateral grid bottoms out at 3x3), else a
//     tight-tolerance Jacobi-CG fallback.
//
// V-cycles run as a CG preconditioner (PrecondApply via
// linalg::CgPreconditioner::kMultigrid).
//
// Determinism and sharing: every kernel uses the deterministic parallel
// runtime (fixed chunking, per-index writes, ordered reduction) — results
// are bit-identical for any thread count. All state is immutable after
// Build; scratch vectors live on the caller's stack, so one hierarchy may
// serve any number of concurrent solves (thermal::FeaAssembly shares one
// across jobs through serve::FeaContextCache).
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/cg.h"
#include "linalg/csr.h"

namespace p3d::linalg {

/// One level's tensor-product grid shape: nx x ny lateral elements and
/// nz_nodes horizontal node planes ((nx+1)*(ny+1)*nz_nodes nodes, ordered
/// x-fastest then y then z — thermal::FeaSolver::NodeId's layout).
struct MgGrid {
  int nx = 0;
  int ny = 0;
  int nz_nodes = 0;

  std::int32_t NumNodes() const {
    return static_cast<std::int32_t>((nx + 1) * (ny + 1) * nz_nodes);
  }
  friend bool operator==(const MgGrid&, const MgGrid&) = default;
};

struct MultigridOptions {
  int pre_smooth = 1;   // z-line smoothing sweeps before coarse correction
  int post_smooth = 1;  // ... and after (keep equal: symmetry for CG)
  /// Relaxation factor of the colored z-line Gauss-Seidel smoother (an SSOR
  /// weight: the same value is used forward and reverse, preserving V-cycle
  /// symmetry). 1.0 — plain block Gauss-Seidel — is robust here; values in
  /// (0, 2) remain convergent for SPD operators.
  double sor_weight = 1.0;
  // Coarsening stops when a lateral dimension goes odd or would drop below
  // this many elements, or at max_levels.
  int min_lateral_elems = 2;
  int max_levels = 8;
  // Coarsest-grid systems up to this dimension get a dense Cholesky factor;
  // larger ones fall back to Jacobi-CG at coarse_cg_tolerance.
  std::int32_t coarse_direct_max_dim = 1024;
  double coarse_cg_tolerance = 1e-12;

  friend bool operator==(const MultigridOptions&,
                         const MultigridOptions&) = default;
};

class MultigridHierarchy {
 public:
  MultigridHierarchy() = default;

  /// The level shapes Build expects for a given fine grid: plan[0] is `fine`,
  /// each following level halves nx/ny and keeps nz_nodes. Size 1 means the
  /// grid cannot be coarsened (odd or too-small lateral dimensions) — callers
  /// should fall back to a single-level preconditioner instead of building a
  /// degenerate hierarchy.
  static std::vector<MgGrid> CoarsenPlan(const MgGrid& fine,
                                         const MultigridOptions& options = {});

  /// Builds a hierarchy from per-level operators. `matrices[l]` must be the
  /// (re-assembled or Galerkin) operator on `grids[l]`; grids must follow a
  /// CoarsenPlan-shaped sequence (each level halves nx/ny, same nz_nodes).
  static MultigridHierarchy Build(std::vector<CsrMatrix> matrices,
                                  std::vector<MgGrid> grids,
                                  const MultigridOptions& options = {});

  /// One V-cycle improving `x` (used as the initial iterate) toward
  /// A x = b on the finest level.
  void VCycle(const std::vector<double>& b, std::vector<double>* x,
              runtime::ThreadPool* pool = nullptr) const;

  /// Preconditioner application z = B r (one V-cycle from a zero initial
  /// iterate). Symmetric positive definite for equal pre/post smoothing, so
  /// it is a valid CG preconditioner. Thread-safe on a const hierarchy.
  void PrecondApply(const std::vector<double>& r, std::vector<double>* z,
                    runtime::ThreadPool* pool = nullptr) const;

  bool empty() const { return levels_.empty(); }
  int NumLevels() const { return static_cast<int>(levels_.size()); }
  std::int32_t Dim() const { return levels_.empty() ? 0 : levels_[0].a.Dim(); }
  const CsrMatrix& Matrix(int level) const {
    return levels_[static_cast<std::size_t>(level)].a;
  }
  const MgGrid& Grid(int level) const {
    return levels_[static_cast<std::size_t>(level)].grid;
  }
  /// True when the coarsest level solves through the dense Cholesky factor.
  bool CoarseDirect() const { return !coarse_chol_.empty(); }
  const MultigridOptions& options() const { return options_; }
  /// Operator storage across all levels (reporting).
  std::size_t TotalNonZeros() const;

 private:
  struct Level {
    CsrMatrix a;
    MgGrid grid;
    // LDL^T factors of the per-column vertical tridiagonal blocks, indexed
    // by node id: line_l[n] is the elimination multiplier tying node n to
    // the node one z plane below it (0 on the bottom plane), line_dinv[n]
    // the inverse pivot. Factored once at Build; immutable afterwards.
    std::vector<double> line_l;
    std::vector<double> line_dinv;
  };

  /// Per-call scratch: one set of vectors per level, reused across the
  /// levels of one V-cycle.
  struct Workspace {
    std::vector<std::vector<double>> x, b, tmp;
  };

  /// Extracts and LDL^T-factors the z-line tridiagonal blocks of a freshly
  /// assembled level (Build helper).
  static void FactorLines(Level* lvl);

  Workspace MakeWorkspace() const;
  void VCycleLevel(int level, const std::vector<double>& b,
                   std::vector<double>* x, Workspace* ws,
                   runtime::ThreadPool* pool) const;
  /// One colored z-line Gauss-Seidel sweep; `reverse` flips the color order
  /// (post-smoothing runs reversed so the V-cycle is symmetric).
  void Smooth(const Level& lvl, const std::vector<double>& b,
              std::vector<double>* x, std::vector<double>* tmp, bool reverse,
              runtime::ThreadPool* pool) const;
  void Restrict(int fine_level, const std::vector<double>& fine,
                std::vector<double>* coarse, runtime::ThreadPool* pool) const;
  void ProlongAdd(int fine_level, const std::vector<double>& coarse,
                  std::vector<double>* fine, runtime::ThreadPool* pool) const;
  void CoarseSolve(const std::vector<double>& b, std::vector<double>* x,
                   runtime::ThreadPool* pool) const;

  std::vector<Level> levels_;
  MultigridOptions options_;
  // Dense Cholesky factor of the coarsest operator, lower triangle packed
  // row-major (row i holds i+1 entries). Empty = CG coarse solve.
  std::vector<double> coarse_chol_;
};

}  // namespace p3d::linalg
