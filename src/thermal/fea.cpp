#include "thermal/fea.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <fstream>
#include <utility>

#include "linalg/multigrid.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "util/log.h"

namespace p3d::thermal {
namespace {

// Local node order of a hex element: bit 0 = x, bit 1 = y, bit 2 = z.
// Node i sits at (xi[i], eta[i], zeta[i]) in [-1,1]^3.
double LocalCoord(int node, int axis) {
  return (node >> axis) & 1 ? 1.0 : -1.0;
}

/// 8x8 conduction stiffness of a box element (hx x hy x hz, conductivity k),
/// integrated with 2x2x2 Gauss quadrature of the trilinear shape gradients.
std::array<std::array<double, 8>, 8> HexStiffness(double hx, double hy,
                                                  double hz, double k) {
  std::array<std::array<double, 8>, 8> ke{};
  const double g = 1.0 / std::sqrt(3.0);
  const double jac[3] = {hx / 2.0, hy / 2.0, hz / 2.0};
  const double det = jac[0] * jac[1] * jac[2];
  for (int gx = 0; gx < 2; ++gx) {
    for (int gy = 0; gy < 2; ++gy) {
      for (int gz = 0; gz < 2; ++gz) {
        const double p[3] = {gx ? g : -g, gy ? g : -g, gz ? g : -g};
        double grad[8][3];
        for (int i = 0; i < 8; ++i) {
          const double xi = LocalCoord(i, 0);
          const double et = LocalCoord(i, 1);
          const double ze = LocalCoord(i, 2);
          // dN/dlocal, then chain rule through the diagonal Jacobian.
          grad[i][0] = 0.125 * xi * (1 + et * p[1]) * (1 + ze * p[2]) / jac[0];
          grad[i][1] = 0.125 * et * (1 + xi * p[0]) * (1 + ze * p[2]) / jac[1];
          grad[i][2] = 0.125 * ze * (1 + xi * p[0]) * (1 + et * p[1]) / jac[2];
        }
        for (int i = 0; i < 8; ++i) {
          for (int j = 0; j < 8; ++j) {
            ke[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
                k * det *
                (grad[i][0] * grad[j][0] + grad[i][1] * grad[j][1] +
                 grad[i][2] * grad[j][2]);
          }
        }
      }
    }
  }
  return ke;
}

/// 4x4 convection "mass" matrix of a rectangular face (area A, coefficient
/// h): h * A/36 * [[4,2,1,2],[2,4,2,1],[1,2,4,2],[1? ...]] with bilinear
/// shape functions; node order (0,0),(1,0),(0,1),(1,1) in face-local bits.
std::array<std::array<double, 4>, 4> FaceConvection(double area, double h) {
  // Entries of integral N_i N_j over the face: corners sharing an edge get
  // 2, opposite corners get 1, diagonal 4 (all times A/36).
  std::array<std::array<double, 4>, 4> m{};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const int dx = ((i ^ j) & 1) ? 1 : 0;
      const int dy = ((i ^ j) & 2) ? 1 : 0;
      const int manhattan = dx + dy;
      const double base = manhattan == 0 ? 4.0 : (manhattan == 1 ? 2.0 : 1.0);
      m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          h * area / 36.0 * base;
    }
  }
  return m;
}

}  // namespace

FeaSolver::FeaSolver(const ThermalStack& stack, const ChipExtent& chip,
                     const FeaOptions& options)
    : stack_(stack), chip_(chip), options_(options) {
  assert(chip.width > 0.0 && chip.height > 0.0);
  nx_ = std::max(options.nx, 2);
  ny_ = std::max(options.ny, 2);
  dx_ = chip_.width / nx_;
  dy_ = chip_.height / ny_;

  // --- vertical grid -----------------------------------------------------
  z_planes_.push_back(0.0);
  const int nb = std::max(options.bulk_elems, 1);
  for (int i = 1; i <= nb; ++i) {
    z_planes_.push_back(stack_.bulk_thickness * i / nb);
    elem_k_.push_back(stack_.k_bulk);
  }
  for (int t = 0; t < stack_.num_layers; ++t) {
    device_elem_z_.push_back(static_cast<int>(elem_k_.size()));
    z_planes_.push_back(z_planes_.back() + stack_.layer_thickness);
    elem_k_.push_back(stack_.k_stack);
    if (t + 1 < stack_.num_layers) {
      z_planes_.push_back(z_planes_.back() + stack_.interlayer_thickness);
      elem_k_.push_back(stack_.k_stack);
    }
  }

  // --- assembly (geometry only; reused across Solve calls) ----------------
  // The sparsity pattern is known up front: node (ix, iy, iz) couples to
  // every node within +-1 on each axis — the 27-point stencil, truncated at
  // the grid boundary — and its columns ascend with dz outermost and dx
  // innermost. Every element and convection-face entry is added straight
  // into its slot in element-loop order, so each slot sums its
  // contributions from 0.0 in exactly the order that compressing the same
  // entries as triplets (CsrMatrix::FromCoo) would.
  const int nzn = NumZPlanes();
  const std::size_t num_nodes = static_cast<std::size_t>(NumNodes());
  // Stencil extent of one axis at index i of [0, last]: its first offset
  // (-1, or 0 on the low boundary) and its number of offsets.
  const auto first = [](int i) { return i > 0 ? -1 : 0; };
  const auto extent = [](int i, int last) {
    return 1 + (i > 0 ? 1 : 0) + (i < last ? 1 : 0);
  };
  std::vector<std::int32_t> row_ptr(num_nodes + 1, 0);
  for (int iz = 0; iz < nzn; ++iz) {
    for (int iy = 0; iy <= ny_; ++iy) {
      for (int ix = 0; ix <= nx_; ++ix) {
        const std::size_t u = static_cast<std::size_t>(NodeId(ix, iy, iz));
        row_ptr[u + 1] = row_ptr[u] + extent(ix, nx_) * extent(iy, ny_) *
                                          extent(iz, nzn - 1);
      }
    }
  }
  std::vector<std::int32_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  for (int iz = 0; iz < nzn; ++iz) {
    for (int iy = 0; iy <= ny_; ++iy) {
      for (int ix = 0; ix <= nx_; ++ix) {
        std::size_t k = static_cast<std::size_t>(
            row_ptr[static_cast<std::size_t>(NodeId(ix, iy, iz))]);
        for (int dz = first(iz); dz <= (iz < nzn - 1 ? 1 : 0); ++dz) {
          for (int dy = first(iy); dy <= (iy < ny_ ? 1 : 0); ++dy) {
            for (int dx = first(ix); dx <= (ix < nx_ ? 1 : 0); ++dx) {
              col_idx[k++] = NodeId(ix + dx, iy + dy, iz + dz);
            }
          }
        }
      }
    }
  }
  std::vector<double> vals(col_idx.size(), 0.0);
  // Adds a local element matrix over `count` nodes with local index bits
  // (bit 0 = x, bit 1 = y, bit 2 = z) offset from node (ex, ey, ez).
  const auto add_local = [&](int ex, int ey, int ez, int count,
                             const auto& local) {
    for (int i = 0; i < count; ++i) {
      const int ix = ex + (i & 1);
      const int iy = ey + ((i >> 1) & 1);
      const int iz = ez + ((i >> 2) & 1);
      // Slot of the coupling to offset (dx, dy, dz) is
      // center + dz * z_stride + dy * y_stride + dx.
      const int y_stride = extent(ix, nx_);
      const int z_stride = y_stride * extent(iy, ny_);
      const std::int32_t center =
          row_ptr[static_cast<std::size_t>(NodeId(ix, iy, iz))] -
          first(iz) * z_stride - first(iy) * y_stride - first(ix);
      const auto& row = local[static_cast<std::size_t>(i)];
      for (int j = 0; j < count; ++j) {
        const int dx = (j & 1) - (i & 1);
        const int dy = ((j >> 1) & 1) - ((i >> 1) & 1);
        const int dz = ((j >> 2) & 1) - ((i >> 2) & 1);
        vals[static_cast<std::size_t>(center + dz * z_stride + dy * y_stride +
                                      dx)] +=
            row[static_cast<std::size_t>(j)];
      }
    }
  };

  for (int ez = 0; ez + 1 < nzn; ++ez) {
    const double hz = z_planes_[static_cast<std::size_t>(ez) + 1] -
                      z_planes_[static_cast<std::size_t>(ez)];
    const auto ke = HexStiffness(dx_, dy_, hz, elem_k_[static_cast<std::size_t>(ez)]);
    for (int ey = 0; ey < ny_; ++ey) {
      for (int ex = 0; ex < nx_; ++ex) add_local(ex, ey, ez, 8, ke);
    }
  }

  // Heat-sink convection on the bottom face (z = 0) and weak natural
  // convection on the top face; sides adiabatic. Face-local node bits are
  // the element's x and y bits, so the face adds at dz = 0.
  const auto add_face = [&](int iz, double h) {
    const auto m = FaceConvection(dx_ * dy_, h);
    for (int ey = 0; ey < ny_; ++ey) {
      for (int ex = 0; ex < nx_; ++ex) add_local(ex, ey, iz, 4, m);
    }
  };
  add_face(0, stack_.h_sink);
  add_face(nzn - 1, stack_.h_ambient);

  k_matrix_ = linalg::CsrMatrix(static_cast<std::int32_t>(num_nodes),
                                std::move(row_ptr), std::move(col_idx),
                                std::move(vals));
}

int FeaSolver::NumNodes() const {
  return (nx_ + 1) * (ny_ + 1) * static_cast<int>(z_planes_.size());
}

bool FeaSolver::ElementWeights(double x, double y, double z, int nodes[8],
                               double weights[8]) const {
  if (x < 0.0 || x > chip_.width || y < 0.0 || y > chip_.height) return false;
  // z outside the stack is rejected like out-of-range x/y (SampleTemp then
  // reports ambient). In-grid callers (BuildRhs / ReadBack / the CSV dump)
  // always pass a clamped layer's LayerCenterZ, which lies inside the grid.
  if (z < 0.0 || z > z_planes_.back()) return false;
  const int ex = std::min(static_cast<int>(x / dx_), nx_ - 1);
  const int ey = std::min(static_cast<int>(y / dy_), ny_ - 1);
  // Locate the vertical element containing z.
  const auto it =
      std::upper_bound(z_planes_.begin(), z_planes_.end(), z);
  int ez = static_cast<int>(it - z_planes_.begin()) - 1;
  ez = std::clamp(ez, 0, static_cast<int>(elem_k_.size()) - 1);
  const double z_lo = z_planes_[static_cast<std::size_t>(ez)];
  const double hz = z_planes_[static_cast<std::size_t>(ez) + 1] - z_lo;
  // Local coordinates in [0, 1].
  const double lx = std::clamp((x - ex * dx_) / dx_, 0.0, 1.0);
  const double ly = std::clamp((y - ey * dy_) / dy_, 0.0, 1.0);
  const double lz = std::clamp((z - z_lo) / hz, 0.0, 1.0);
  for (int i = 0; i < 8; ++i) {
    const int bx = (i >> 0) & 1;
    const int by = (i >> 1) & 1;
    const int bz = (i >> 2) & 1;
    nodes[i] = NodeId(ex + bx, ey + by, ez + bz);
    weights[i] = (bx ? lx : 1.0 - lx) * (by ? ly : 1.0 - ly) *
                 (bz ? lz : 1.0 - lz);
  }
  return true;
}

std::vector<double> FeaSolver::BuildRhs(
    const std::vector<double>& x, const std::vector<double>& y,
    const std::vector<int>& layer, const std::vector<double>& cell_power) const {
  assert(x.size() == y.size() && x.size() == layer.size() &&
         x.size() == cell_power.size());
  std::vector<double> rhs(static_cast<std::size_t>(NumNodes()), 0.0);

  // Distribute each cell's power to the nodes of its device-layer element
  // with trilinear weights at the cell center. (T_amb = 0 C, so convection
  // contributes nothing to the RHS; ambient is added back on readout.)
  const std::size_t num_cells = x.size();
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (cell_power[c] <= 0.0) continue;
    const int t = std::clamp(layer[c], 0, stack_.num_layers - 1);
    const double z = stack_.LayerCenterZ(t);
    const double cx = std::clamp(x[c], 0.0, chip_.width);
    const double cy = std::clamp(y[c], 0.0, chip_.height);
    int nodes[8];
    double w[8];
    if (!ElementWeights(cx, cy, z, nodes, w)) continue;
    for (int i = 0; i < 8; ++i) {
      rhs[static_cast<std::size_t>(nodes[i])] += cell_power[c] * w[i];
    }
  }
  return rhs;
}

FeaResult FeaSolver::ReadBack(std::vector<double> node_temp,
                              const std::vector<double>& x,
                              const std::vector<double>& y,
                              const std::vector<int>& layer) const {
  FeaResult result;
  const std::size_t num_cells = x.size();
  result.cell_temp.assign(num_cells, stack_.ambient_c);
  double sum = 0.0;
  double mx = stack_.ambient_c;
  for (std::size_t c = 0; c < num_cells; ++c) {
    const int t = std::clamp(layer[c], 0, stack_.num_layers - 1);
    const double tc =
        SampleTemp(node_temp, std::clamp(x[c], 0.0, chip_.width),
                   std::clamp(y[c], 0.0, chip_.height), stack_.LayerCenterZ(t)) +
        stack_.ambient_c;
    result.cell_temp[c] = tc;
    sum += tc;
    mx = std::max(mx, tc);
  }
  result.avg_cell_temp = num_cells > 0 ? sum / static_cast<double>(num_cells)
                                       : stack_.ambient_c;
  result.max_cell_temp = mx;
  result.node_temp = std::move(node_temp);
  return result;
}

FeaResult FeaSolver::Solve(const std::vector<double>& x,
                           const std::vector<double>& y,
                           const std::vector<int>& layer,
                           const std::vector<double>& cell_power) const {
  obs::TraceScope trace_solve("fea.solve");
  obs::MetricAdd("fea/solves", 1);
  std::vector<double> rhs = BuildRhs(x, y, layer, cell_power);
  std::vector<double> temp(static_cast<std::size_t>(NumNodes()), 0.0);
  const linalg::CgResult cg = linalg::SolveCgPreconditioned(
      k_matrix_,
      FeaPreconditioner(options_.cg.preconditioner, k_matrix_, Grid()), rhs,
      &temp, options_.cg);
  if (!cg.converged) {
    util::LogWarn("fea: CG did not converge (%s; residual %.3g after %d "
                  "iters)",
                  linalg::CgStopName(cg.stop), cg.residual_norm, cg.iters);
    obs::MetricAdd("fea/nonconverged", 1);
  }
  FeaResult result = ReadBack(std::move(temp), x, y, layer);
  result.cg_iters = cg.iters;
  result.converged = cg.converged;
  return result;
}

bool FeaSolver::WriteLayerTempCsv(const std::string& path,
                                  const std::vector<double>& node_temp,
                                  int layer) const {
  std::ofstream out(path);
  if (!out) {
    util::LogWarn("fea: cannot write %s", path.c_str());
    return false;
  }
  out.precision(8);
  const int t = std::clamp(layer, 0, stack_.num_layers - 1);
  const double z = stack_.LayerCenterZ(t);
  for (int iy = 0; iy <= ny_; ++iy) {
    const double y = iy * dy_;
    for (int ix = 0; ix <= nx_; ++ix) {
      const double x = ix * dx_;
      if (ix > 0) out << ',';
      out << SampleTemp(node_temp, x, y, z) + stack_.ambient_c;
    }
    out << '\n';
  }
  return out.good();
}

double FeaSolver::SampleTemp(const std::vector<double>& node_temp, double x,
                             double y, double z) const {
  int nodes[8];
  double w[8];
  if (!ElementWeights(x, y, z, nodes, w)) return stack_.ambient_c;
  double t = 0.0;
  for (int i = 0; i < 8; ++i) {
    t += w[i] * node_temp[static_cast<std::size_t>(nodes[i])];
  }
  return t;
}

// --- FeaAssembly / FeaContext: assemble once, solve many ---------------------

linalg::CgPreconditioner FeaPreconditioner(linalg::PreconditionerKind kind,
                                           const linalg::CsrMatrix& matrix,
                                           const linalg::MgGrid& grid) {
  if (kind == linalg::PreconditionerKind::kMultigrid) {
    obs::TraceScope trace("fea.mg_build");
    linalg::MultigridHierarchy h =
        linalg::MultigridHierarchy::Build(matrix, grid);
    if (!h.empty()) {
      return linalg::CgPreconditioner::BuildMultigrid(
          std::make_shared<const linalg::MultigridHierarchy>(std::move(h)));
    }
    util::LogWarn(
        "fea: %dx%d stiffness matrix admits no multigrid hierarchy; solving "
        "with Jacobi-preconditioned CG",
        grid.nx, grid.ny);
  }
  return linalg::CgPreconditioner::Build(matrix);
}

FeaAssembly::FeaAssembly(const ThermalStack& stack_in,
                         const ChipExtent& chip_in, const FeaOptions& options)
    : stack(stack_in),
      chip(chip_in),
      solver(stack_in, chip_in, options),
      precond(FeaPreconditioner(options.cg.preconditioner, solver.matrix(),
                                solver.Grid())),
      hierarchy(precond.hierarchy()) {}

FeaContext::FeaContext(const ThermalStack& stack, const ChipExtent& chip,
                       const FeaContextOptions& options)
    : options_(options) {
  obs::TraceScope trace("fea.assemble");
  assembly_ = std::make_shared<const FeaAssembly>(stack, chip, options_.fea);
}

FeaContext::FeaContext(std::shared_ptr<const FeaAssembly> assembly,
                       const FeaContextOptions& options)
    : options_(options), assembly_(std::move(assembly)) {
  assert(assembly_ != nullptr);
  assert(SameAssembly(options_.fea, assembly_->solver.options()) &&
         "adopted assembly was built for a different mesh or preconditioner");
}

void FeaContext::InvalidateWarmStart() {
  last_temp_.clear();
  have_last_ = false;
}

FeaResult FeaContext::Solve(const std::vector<double>& x,
                            const std::vector<double>& y,
                            const std::vector<int>& layer,
                            const std::vector<double>& cell_power) {
  obs::TraceScope trace_solve("fea.context_solve");
  const auto t0 = std::chrono::steady_clock::now();

  const FeaSolver& solver = assembly_->solver;
  std::vector<double> rhs = solver.BuildRhs(x, y, layer, cell_power);

  const std::size_t n = static_cast<std::size_t>(solver.NumNodes());
  const bool warm = options_.warm_start && have_last_ && last_temp_.size() == n;
  std::vector<double> temp;
  if (warm) {
    temp = last_temp_;  // deterministic seed: previous solution, verbatim
  } else {
    temp.assign(n, 0.0);
  }

  // The preconditioner may itself be a V-cycle (see FeaAssembly); either
  // way the result is bit-identical for any thread count.
  const linalg::CgResult cg = linalg::SolveCgPreconditioned(
      solver.matrix(), assembly_->precond, rhs, &temp, options_.fea.cg);
  if (!cg.converged) {
    util::LogWarn("fea: thermal solve did not converge (%s; residual %.3g "
                  "after %d iters)",
                  linalg::CgStopName(cg.stop), cg.residual_norm, cg.iters);
    obs::MetricAdd("fea/nonconverged", 1);
    ++stats_.nonconverged;
  }

  ++stats_.solves;
  stats_.iters_total += cg.iters;
  obs::MetricAdd("fea/solves", 1);
  if (warm) {
    ++stats_.warm_starts;
    obs::MetricAdd("solver/warm_starts", 1);
  }
  obs::MetricObserve("solver/fea_iters_per_solve", cg.iters);

  if (options_.warm_start) {
    if (cg.converged) {
      last_temp_ = temp;
      have_last_ = true;
    } else {
      // A non-converged field would poison every later warm start (each
      // solve would inherit — and possibly keep — the bad iterate). Drop it
      // so the next solve cold-starts from zeros.
      InvalidateWarmStart();
    }
  }

  FeaResult result = solver.ReadBack(std::move(temp), x, y, layer);
  result.cg_iters = cg.iters;
  result.converged = cg.converged;

  stats_.solve_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

}  // namespace p3d::thermal
