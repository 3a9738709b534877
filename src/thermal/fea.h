// Finite-element steady-state thermal analysis of the 3D-IC stack.
//
// This reproduces the verification tool the paper uses to report
// temperatures ("Temperature results were calculated using Finite Element
// Analysis (FEA) [2] with the bottom of the chip (heat sink) given
// convective boundary conditions").
//
// Discretization: 8-node trilinear hexahedral elements on a tensor-product
// grid. Lateral resolution is uniform (nx x ny); the vertical grid follows
// the physical stack — several bulk elements, then one element per device
// layer and one per interlayer, so every tier has its own element row and
// cell heat loads land exactly in their device layer. Boundary conditions:
// convective (Robin) on the bottom heat-sink face with h_sink, convective
// with h_ambient on the top face, adiabatic sides. The assembled system is
// symmetric positive definite and solved with preconditioned CG, as set by
// FeaOptions::cg.preconditioner: multigrid V-cycles (the placer's default,
// place::RunOptions::preconditioner) on any mesh, or Jacobi (the CgOptions
// default). FeaPreconditioner is the one rule both solve paths follow.
// Placement flows solve through FeaContext, which holds the preconditioner
// for all of a flow's solves and can warm-start each solve from the previous
// field; the one-shot FeaSolver::Solve builds it afresh on every call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/cg.h"
#include "linalg/multigrid.h"
#include "netlist/netlist.h"
#include "thermal/resistance.h"
#include "thermal/stack.h"

namespace p3d::thermal {

struct FeaOptions {
  int nx = 24;         // lateral elements in x
  int ny = 24;         // lateral elements in y
  int bulk_elems = 4;  // vertical elements through the bulk substrate
  /// cg.preconditioner = kMultigrid makes FeaAssembly build a Galerkin mesh
  /// hierarchy (lateral coarsening, z planes kept) and share it.
  linalg::CgOptions cg{.max_iters = 4000, .rel_tolerance = 1e-8};

  friend bool operator==(const FeaOptions&, const FeaOptions&) = default;
};

/// True when FeaAssembly builds from `a` and `b` are interchangeable. Every
/// field takes part except the per-solve CG knobs (threads, tolerance,
/// iteration cap), which shape each FeaContext's own solves and never the
/// assembly. A field added later is compared unless it is blanked here, so
/// forgetting this function costs cache hits, never a wrong assembly.
inline bool SameAssembly(FeaOptions a, FeaOptions b) {
  a.cg.threads = b.cg.threads;
  a.cg.rel_tolerance = b.cg.rel_tolerance;
  a.cg.max_iters = b.cg.max_iters;
  return a == b;
}

struct FeaResult {
  std::vector<double> cell_temp;  // deg C per cell (ambient included)
  double avg_cell_temp = 0.0;
  double max_cell_temp = 0.0;
  std::vector<double> node_temp;  // full temperature field (deg C)
  int cg_iters = 0;
  bool converged = false;
};

class FeaSolver {
 public:
  FeaSolver(const ThermalStack& stack, const ChipExtent& chip,
            const FeaOptions& options = {});

  /// Solves for the temperature field given per-cell powers (W) and cell
  /// placements (center coordinates in metres, layer indices). One-shot:
  /// builds a fresh preconditioner (FeaPreconditioner) and cold-starts CG
  /// every call. Flows that solve repeatedly should go through FeaContext
  /// below.
  FeaResult Solve(const std::vector<double>& x, const std::vector<double>& y,
                  const std::vector<int>& layer,
                  const std::vector<double>& cell_power) const;

  // --- solve building blocks (used by FeaContext) -----------------------
  /// Scatters per-cell powers onto the mesh nodes (trilinear weights at
  /// each cell's device-layer center). This is the only part of a solve
  /// that depends on cell positions.
  std::vector<double> BuildRhs(const std::vector<double>& x,
                               const std::vector<double>& y,
                               const std::vector<int>& layer,
                               const std::vector<double>& cell_power) const;
  /// Samples per-cell temperatures out of a solved node field and fills the
  /// aggregate stats; takes ownership of `node_temp`.
  FeaResult ReadBack(std::vector<double> node_temp,
                     const std::vector<double>& x,
                     const std::vector<double>& y,
                     const std::vector<int>& layer) const;
  /// The assembled (geometry-only) stiffness matrix.
  const linalg::CsrMatrix& matrix() const { return k_matrix_; }
  const FeaOptions& options() const { return options_; }

  // --- grid introspection (tests / reporting) ---------------------------
  int NumNodes() const;
  int NumXElems() const { return nx_; }
  int NumYElems() const { return ny_; }
  int NumZPlanes() const { return static_cast<int>(z_planes_.size()); }
  /// The mesh as the multigrid hierarchy sees it.
  linalg::MgGrid Grid() const { return {nx_, ny_, NumZPlanes()}; }
  const std::vector<double>& ZPlanes() const { return z_planes_; }
  /// Vertical element index of device layer `t`.
  int DeviceElemZ(int t) const { return device_elem_z_[static_cast<std::size_t>(t)]; }
  /// Temperature at an arbitrary point of a solved field.
  double SampleTemp(const std::vector<double>& node_temp, double x, double y,
                    double z) const;

  /// Writes the temperature field of device layer `layer` as CSV (one row
  /// per y sample, columns over x; values in deg C including ambient),
  /// sampled on an `nx x ny` grid at the layer mid-plane. Returns false on
  /// I/O error.
  bool WriteLayerTempCsv(const std::string& path,
                         const std::vector<double>& node_temp,
                         int layer) const;

 private:
  int NodeId(int ix, int iy, int iz) const {
    return ix + (nx_ + 1) * (iy + (ny_ + 1) * iz);
  }
  /// Trilinear weights of point (x, y, z) inside element (ex, ey, ez),
  /// plus the 8 node ids. Returns false if the point is outside the grid.
  bool ElementWeights(double x, double y, double z, int nodes[8],
                      double weights[8]) const;

  ThermalStack stack_;
  ChipExtent chip_;
  FeaOptions options_;
  int nx_ = 0;
  int ny_ = 0;
  double dx_ = 0.0;
  double dy_ = 0.0;
  std::vector<double> z_planes_;     // node z coordinates, ascending from 0
  std::vector<double> elem_k_;       // conductivity per vertical element slab
  std::vector<int> device_elem_z_;   // per tier
  linalg::CsrMatrix k_matrix_;       // assembled once (geometry-only)
};

struct FeaContextOptions {
  FeaOptions fea;
  /// Seed each solve from the previous temperature field. Deterministic:
  /// the warm-start state is a pure function of the solve sequence.
  bool warm_start = true;
};

/// The CG preconditioner FEA solves `matrix`, assembled on `grid`, with:
/// multigrid V-cycles for a kMultigrid request, on every mesh, and Jacobi
/// for a kJacobi request. A matrix that is no lateral stencil on `grid`
/// gets Jacobi, with a warning; kind() names the one built.
linalg::CgPreconditioner FeaPreconditioner(linalg::PreconditionerKind kind,
                                           const linalg::CsrMatrix& matrix,
                                           const linalg::MgGrid& grid);

/// The immutable product of one geometry assembly: the mesh solver (with its
/// stiffness matrix) plus the prebuilt CG preconditioner, tagged with the
/// geometry they were built for. Every member is read-only after
/// construction, so one assembly may back any number of FeaContexts on any
/// number of threads concurrently — this is what the cross-job cache
/// (serve::FeaAssemblyCache) shares between placement jobs with identical
/// stack geometry. Mutable per-flow state (warm-start field, solve stats)
/// stays in the owning FeaContext.
struct FeaAssembly {
  FeaAssembly(const ThermalStack& stack, const ChipExtent& chip,
              const FeaOptions& options);

  const ThermalStack stack;
  const ChipExtent chip;
  const FeaSolver solver;
  const linalg::CgPreconditioner precond;
  /// The Galerkin multigrid hierarchy over the solver's mesh that `precond`
  /// runs V-cycles on; null when `precond` is Jacobi.
  const std::shared_ptr<const linalg::MultigridHierarchy> hierarchy;
};

/// Solver reuse layer of one placement flow: holds a FeaAssembly (FeaSolver
/// + prebuilt CG preconditioner), built here or adopted from a cross-job
/// cache, and keeps it across every solve of the flow. The stiffness matrix
/// and preconditioner are assembled once; per-solve work is only the power
/// RHS rebuild, the (warm-started) CG solve, and the cell-temperature
/// read-back. A context belongs to one flow: its warm-start field and stats
/// describe that flow's solves alone.
class FeaContext {
 public:
  FeaContext(const ThermalStack& stack, const ChipExtent& chip,
             const FeaContextOptions& options = {});

  /// Adopts an assembly built elsewhere (the cross-job cache) instead of
  /// assembling here. Requires `options.fea` to build the same assembly
  /// (SameAssembly). Warm-start state starts empty — a shared assembly never
  /// leaks temperature history between jobs.
  FeaContext(std::shared_ptr<const FeaAssembly> assembly,
             const FeaContextOptions& options = {});

  /// One thermal solve through the cached matrix + preconditioner. Seeds CG
  /// from the previous solution when warm starts are enabled and a previous
  /// field exists; otherwise cold-starts from zeros.
  FeaResult Solve(const std::vector<double>& x, const std::vector<double>& y,
                  const std::vector<int>& layer,
                  const std::vector<double>& cell_power);

  const FeaSolver& solver() const { return assembly_->solver; }
  const linalg::CgPreconditioner& preconditioner() const {
    return assembly_->precond;
  }
  /// The (possibly shared) assembly backing this context.
  const std::shared_ptr<const FeaAssembly>& assembly() const {
    return assembly_;
  }

  /// Cumulative accounting of this context's solves; solves, warm starts
  /// and iterations are mirrored into the metrics registry on every solve.
  struct Stats {
    long long solves = 0;        // total Solve() calls
    long long warm_starts = 0;   // solves seeded from a previous field
    long long iters_total = 0;   // CG iterations across all solves
    long long nonconverged = 0;  // solves that stopped unconverged
    double solve_seconds = 0.0;  // wall time in Solve() (reporting only —
                                 // never enters the metrics registry)
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Drops the warm-start field; the next solve cold-starts.
  void InvalidateWarmStart();

  FeaContextOptions options_;
  std::shared_ptr<const FeaAssembly> assembly_;
  std::vector<double> last_temp_;  // previous node field (warm-start seed)
  bool have_last_ = false;
  Stats stats_;
};

}  // namespace p3d::thermal
