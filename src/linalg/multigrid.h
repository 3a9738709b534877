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
// Storage: conductivity varies only with z, so every row of a level's
// operator is fixed by its z plane and its lateral boundary class — first,
// interior or last node in x and in y. Build reads the CSR operator it is
// given into one 27-point stencil row per (plane, class) and keeps no
// per-level matrix; it verifies every row against its class and returns an
// empty hierarchy when any differs (the operator is then no lateral stencil,
// and callers fall back to a single-level preconditioner).
//
// Components per level:
//   * 4-color Z-LINE Gauss-Seidel smoothing: each lateral node column's
//     vertical tridiagonal block is solved exactly (LDL^T, factored once at
//     Build — per plane and class, like the stencil), sweeping the four
//     lateral parity classes (ix%2, iy%2) in a fixed order. The thermal
//     mesh is strongly anisotropic — interlayer elements are ~0.7 um tall
//     under ~40 um lateral spacing — so the thin
//     planes behave like (2D bilinear mass) x (1D vertical stiffness):
//     vertical coupling dominates by orders of magnitude (point Jacobi
//     diverges outright), and the lateral coupling is mass-like, meaning
//     the laterally OSCILLATORY modes carry the SMALLEST eigenvalues.
//     Jacobi-type column smoothing leaves those barely damped and the
//     coarse lateral grids cannot represent them, stalling the V-cycle
//     near a 0.98 contraction factor; Gauss-Seidel across the colors
//     damps them strongly (the mass block is well-conditioned). Lateral
//     couplings only reach +-1 node, so columns within a color are fully
//     decoupled: sweeps parallelize over the y rows of each color (every
//     task walks its row's z lines plane by plane) with per-index writes
//     and a fixed color order — bit-identical at any thread count.
//     Post-smoothing runs the colors in REVERSE order, making the V-cycle
//     a symmetric operator, required for use inside CG,
//   * lateral-bilinear prolongation (identity in z) and its exact adjoint as
//     restriction (full weighting up to the nested-space scaling),
//   * a coarsest-grid solve: dense Cholesky when the coarse system is small
//     (the common case — a 24x24 lateral grid bottoms out at 3x3), else a
//     tight-tolerance Jacobi-CG fallback on the coarsest CSR operator, the
//     only matrix the hierarchy keeps.
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

#include <array>
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

class MultigridHierarchy {
 public:
  MultigridHierarchy() = default;

  /// The level shapes Build expects for a given fine grid: plan[0] is `fine`,
  /// each following level halves nx/ny and keeps nz_nodes, until a lateral
  /// dimension goes odd or would drop below 2 elements, or at 8 levels. Size
  /// 1 means the grid cannot be coarsened — callers should fall back to a
  /// single-level preconditioner instead of building a degenerate hierarchy.
  static std::vector<MgGrid> CoarsenPlan(const MgGrid& fine);

  /// Builds a hierarchy from per-level operators. `matrices[l]` must be the
  /// (re-assembled or Galerkin) operator on `grids[l]`; grids must follow a
  /// CoarsenPlan-shaped sequence (each level halves nx/ny, same nz_nodes).
  /// The coarsest level gets a dense Cholesky factor up to 1,024 nodes and
  /// Jacobi-CG solves above that. Returns an empty hierarchy when a smoothed
  /// level's operator is not a lateral stencil: a row whose columns or
  /// coefficient bits differ from the first row of its plane and boundary
  /// class.
  static MultigridHierarchy Build(std::vector<CsrMatrix> matrices,
                                  std::vector<MgGrid> grids);

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
  std::int32_t Dim() const {
    return levels_.empty() ? 0 : levels_[0].grid.NumNodes();
  }
  const MgGrid& Grid(int level) const {
    return levels_[static_cast<std::size_t>(level)].grid;
  }
  /// True when the coarsest level solves through the dense Cholesky factor.
  bool CoarseDirect() const { return !coarse_chol_.empty(); }

 private:
  /// One operator row in stencil form: its `terms` nonzeros in ascending
  /// column order, each with the neighbour's node-id offset from the row's
  /// own node.
  struct StencilRow {
    int terms = 0;
    std::array<double, 27> coef{};
    std::array<std::int32_t, 27> offset{};
  };

  struct Level {
    MgGrid grid;
    // Indexed by (iz * 3 + cy) * 3 + cx, where cx and cy are the lateral
    // boundary classes (0 first, 1 interior, 2 last).
    // Empty on the coarsest level, which is never smoothed.
    std::vector<StencilRow> rows;
    // LDL^T factors of the z-line tridiagonal blocks, same indexing:
    // line_l is the elimination multiplier tying a node to the node one
    // plane below it (0 on the bottom plane), line_dinv the inverse pivot.
    std::vector<double> line_l;
    std::vector<double> line_dinv;
  };

  /// Per-call scratch: one set of vectors per level, reused across the
  /// levels of one V-cycle.
  struct Workspace {
    std::vector<std::vector<double>> x, b, tmp;
  };

  /// Reads `a` into lvl->rows; false when some row is not its class's.
  static bool ExtractStencil(const CsrMatrix& a, Level* lvl);
  /// LDL^T-factors the z-line tridiagonal blocks of lvl->rows.
  static void FactorLines(Level* lvl);

  /// out[u] = b[u] - (A x)[u] for the nodes x0, x0 + step, ... <= nx of the
  /// row (iy, iz). kGaussSeidel subtracts term by term from b (the
  /// smoother's order); otherwise the product accumulates from 0.0 first
  /// (the SpMV order of the residual restricted to the coarse level).
  template <bool kGaussSeidel>
  static void ResidualRow(const Level& lvl, int iy, int iz, int x0, int step,
                          const double* b, const double* x, double* out);
  /// r = b - A x on a whole level, in the SpMV order.
  void Residual(const Level& lvl, const std::vector<double>& b,
                const std::vector<double>& x, std::vector<double>* r,
                runtime::ThreadPool* pool) const;
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
  // Dense Cholesky factor of the coarsest operator, lower triangle packed
  // row-major (row i holds i+1 entries). Empty = CG coarse solve on
  // coarse_a_, which is kept only then.
  std::vector<double> coarse_chol_;
  CsrMatrix coarse_a_;
};

}  // namespace p3d::linalg
