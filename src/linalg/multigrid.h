// Geometric multigrid for SPD systems assembled on tensor-product hex grids
// (the FEA thermal matrices).
//
// The hierarchy coarsens the LATERAL grid and keeps every z plane: the
// thermal mesh has few vertical elements (one per device layer / interlayer
// plus a handful through the bulk) and conductivity varies only with z.
// Each lateral axis of n elements goes to ceil(n/2): coarse node c sits on
// fine node 2c, except that on an odd axis the last fine node is injected
// into the last coarse node, so the last coarse interval is one fine element
// wide. Prolongation P is lateral-bilinear in index space (every other fine
// node takes 1/2 from each coarse neighbour) and the identity in z;
// restriction is R = P^T. Every coarse operator is the Galerkin product
// P^T A P, so the hierarchy is variational on any lateral size. Coarsening
// stops once both lateral sizes are <= 2 elements; that coarsest level (at
// most 3x3 lateral nodes) is solved exactly by a dense Cholesky factor.
//
// Storage: on every level all lateral intervals but the last have one
// shape, and conductivity varies only with z, so every operator row is fixed
// by its z plane and its lateral boundary class on each axis — first,
// interior, second-to-last or last node. Build reads the fine CSR operator
// into one 27-point stencil row per (plane, class), verifying every row
// against its class: it returns an empty hierarchy when any differs (the
// operator is then no lateral stencil, and callers fall back to a
// single-level preconditioner). Each coarse level's rows are then the
// Galerkin product taken on the finer level's rows — O(planes x classes)
// work, with no sparse matrix product and no per-level matrix.
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
//   * the transfers P and R = P^T above,
//   * the dense Cholesky solve on the coarsest level.
//
// V-cycles run as a CG preconditioner (PrecondApply via
// linalg::CgPreconditioner::BuildMultigrid).
//
// Determinism and sharing: every kernel uses the deterministic parallel
// runtime (fixed chunking, per-index writes, ordered reduction) — results
// are bit-identical for any thread count. All state is immutable after
// Build; scratch vectors live on the caller's stack, so one hierarchy may
// serve any number of concurrent solves (thermal::FeaAssembly shares one
// across jobs through serve::FeaAssemblyCache).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

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

  /// The level shapes Build produces for a given fine grid: plan[0] is
  /// `fine`, each following level takes nx and ny to ceil(n/2) and keeps
  /// nz_nodes, until both lateral sizes are <= 2 elements. Size 1 means
  /// `fine` is itself the coarsest level.
  static std::vector<MgGrid> CoarsenPlan(const MgGrid& fine);

  /// Builds the hierarchy of `fine`, the operator assembled on `grid`: every
  /// CoarsenPlan level after the first is the Galerkin product P^T A P of
  /// the level above it, and the last one gets a dense Cholesky factor.
  /// Returns an empty hierarchy when `fine` is not a lateral stencil (a row
  /// whose columns or coefficient bits differ from the first row of its
  /// plane and boundary class) or its coarsest operator is not positive
  /// definite.
  static MultigridHierarchy Build(const CsrMatrix& fine, const MgGrid& grid);

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
  /// True when the coarsest level solves through the dense Cholesky factor
  /// (on every non-empty hierarchy).
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
    // Indexed by (iz * 4 + cy) * 4 + cx, where cx and cy are the lateral
    // boundary classes (0 first, 1 interior, 2 second-to-last, 3 last).
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
  /// The next coarser level: its rows are the Galerkin product P^T A P
  /// taken on `fine`'s rows, one representative node per class.
  static Level Coarsen(const Level& fine);
  /// Dense Cholesky factor of the level's operator (see coarse_chol_);
  /// empty when the operator is not positive definite.
  static std::vector<double> FactorDense(const Level& lvl);
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
  void CoarseSolve(const std::vector<double>& b, std::vector<double>* x) const;

  std::vector<Level> levels_;
  // Dense Cholesky factor of the coarsest operator, lower triangle packed
  // row-major (row i holds i+1 entries).
  std::vector<double> coarse_chol_;
};

}  // namespace p3d::linalg
