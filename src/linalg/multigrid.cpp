#include "linalg/multigrid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace p3d::linalg {
namespace {

// Fixed chunk sizes; constants keep chunk boundaries independent of the
// thread count (determinism).
constexpr std::int64_t kRowGrain = 16;  // plane rows per kernel chunk
constexpr std::int64_t kLineGrain = 2;  // y rows (all planes) per sweep chunk

// Coarsening stops once both lateral sizes are at most this many elements.
constexpr int kCoarsestLateralElems = 2;
// Lateral boundary classes per axis (see BoundaryClass).
constexpr int kClasses = 4;
constexpr int kLateralClasses = kClasses * kClasses;

/// Lateral boundary class of index i on an axis with nodes 0..last:
/// 0 = first, 1 = interior, 2 = second-to-last, 3 = last.
int BoundaryClass(int i, int last) {
  return i == 0 ? 0 : (i == last ? 3 : (i + 1 == last ? 2 : 1));
}

/// A node of class `cls` on an axis with nodes 0..last, or -1 when the
/// class has none.
int ClassRepresentative(int cls, int last) {
  switch (cls) {
    case 0: return 0;
    case 1: return last >= 3 ? 1 : -1;
    case 2: return last >= 2 ? last - 1 : -1;
    default: return last;
  }
}

/// Index of the stencil row of plane iz and lateral classes (cy, cx).
std::size_t ClassIndex(int iz, int cy, int cx) {
  return static_cast<std::size_t>((iz * kClasses + cy) * kClasses + cx);
}

/// One lateral axis of a coarsening step: fine nodes 0..n, coarse nodes
/// 0..m with m = ceil(n/2). Coarse node c sits on fine node Fine(c); the
/// fine nodes between two coarse nodes (odd indices below n) take half of
/// each. On an odd axis fine node n is injected into coarse node m.
struct Axis {
  explicit Axis(int fine) : n(fine), m((fine + 1) / 2) {}
  bool Between(int f) const { return (f & 1) != 0 && f < n; }
  /// The coarse node at f, or the lower of the two f lies between.
  int Below(int f) const { return f == n ? m : f >> 1; }
  int Fine(int c) const { return std::min(2 * c, n); }

  int n;
  int m;
};

/// Calls f(dx, dy, dz) for the boundary-truncated 27-point stencil of node
/// (ix, iy, iz), in ascending column order (dz outermost, dx innermost).
template <typename F>
void ForEachNeighbour(const MgGrid& g, int ix, int iy, int iz, F&& f) {
  for (int dz = iz > 0 ? -1 : 0; dz <= (iz + 1 < g.nz_nodes ? 1 : 0); ++dz) {
    for (int dy = iy > 0 ? -1 : 0; dy <= (iy < g.ny ? 1 : 0); ++dy) {
      for (int dx = ix > 0 ? -1 : 0; dx <= (ix < g.nx ? 1 : 0); ++dx) {
        f(dx, dy, dz);
      }
    }
  }
}

/// out[u] = b[u] - (row . x around u) for the kNodes nodes u = u0, u0 +
/// step, ... that share one stencil row. Each node's sum runs over the
/// row's terms in ascending column order: kGaussSeidel subtracts every term
/// from b in turn (the smoother's order); otherwise the product accumulates
/// from 0.0 and is subtracted once (the SpMV order). A compile-time kTerms
/// (> 0) fully unrolls the interior rows; kTerms = 0 reads `terms`. Blocks of
/// nodes give the independent sums instruction-level parallelism without
/// reordering any one of them.
template <bool kGaussSeidel, int kTerms, int kNodes>
void RowResidual(int terms, const double* coef, const std::int32_t* offset,
                 const double* x, const double* b, double* out,
                 std::size_t u0, std::size_t step) {
  const int n = kTerms > 0 ? kTerms : terms;
  double r[kNodes];
  for (int j = 0; j < kNodes; ++j) {
    r[j] = kGaussSeidel ? b[u0 + static_cast<std::size_t>(j) * step] : 0.0;
  }
  for (int k = 0; k < n; ++k) {
    const double c = coef[k];
    const double* const xk = x + u0 + offset[k];
    for (int j = 0; j < kNodes; ++j) {
      if constexpr (kGaussSeidel) {
        r[j] -= c * xk[static_cast<std::size_t>(j) * step];
      } else {
        r[j] += c * xk[static_cast<std::size_t>(j) * step];
      }
    }
  }
  for (int j = 0; j < kNodes; ++j) {
    const std::size_t u = u0 + static_cast<std::size_t>(j) * step;
    out[u] = kGaussSeidel ? r[j] : b[u] - r[j];
  }
}

/// In-place Cholesky of an n x n lower triangle packed row-major (row i
/// holds i+1 entries). False on breakdown (not positive definite).
bool CholeskyInPlace(std::vector<double>* packed, std::int32_t n) {
  std::vector<double>& l = *packed;
  const auto at = [&](std::int32_t i, std::int32_t j) -> double& {
    return l[static_cast<std::size_t>(i) * (static_cast<std::size_t>(i) + 1) /
                 2 +
             static_cast<std::size_t>(j)];
  };
  for (std::int32_t j = 0; j < n; ++j) {
    double d = at(j, j);
    for (std::int32_t k = 0; k < j; ++k) d -= at(j, k) * at(j, k);
    if (!(d > 0.0)) return false;
    const double ljj = std::sqrt(d);
    at(j, j) = ljj;
    for (std::int32_t i = j + 1; i < n; ++i) {
      double s = at(i, j);
      for (std::int32_t k = 0; k < j; ++k) s -= at(i, k) * at(j, k);
      at(i, j) = s / ljj;
    }
  }
  return true;
}

}  // namespace

std::vector<MgGrid> MultigridHierarchy::CoarsenPlan(const MgGrid& fine) {
  assert(fine.nx >= 1 && fine.ny >= 1);
  std::vector<MgGrid> plan{fine};
  while (plan.back().nx > kCoarsestLateralElems ||
         plan.back().ny > kCoarsestLateralElems) {
    const MgGrid& g = plan.back();
    plan.push_back(MgGrid{(g.nx + 1) / 2, (g.ny + 1) / 2, g.nz_nodes});
  }
  return plan;
}

MultigridHierarchy MultigridHierarchy::Build(const CsrMatrix& fine,
                                             const MgGrid& grid) {
  assert(fine.Dim() == grid.NumNodes());
  Level lvl;
  lvl.grid = grid;
  if (!ExtractStencil(fine, &lvl)) return {};
  const std::vector<MgGrid> plan = CoarsenPlan(grid);
  MultigridHierarchy h;
  h.levels_.reserve(plan.size());
  for (std::size_t l = 1; l < plan.size(); ++l) {
    Level coarse = Coarsen(lvl);
    assert(coarse.grid == plan[l]);
    FactorLines(&lvl);
    h.levels_.push_back(std::move(lvl));
    lvl = std::move(coarse);
  }
  h.coarse_chol_ = FactorDense(lvl);
  if (h.coarse_chol_.empty()) return {};
  lvl.rows = {};
  h.levels_.push_back(std::move(lvl));
  obs::MetricAdd("mg/builds", 1);
  return h;
}

MultigridHierarchy::Workspace MultigridHierarchy::MakeWorkspace() const {
  Workspace ws;
  const std::size_t nl = levels_.size();
  ws.x.resize(nl);
  ws.b.resize(nl);
  ws.tmp.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    const std::size_t n = static_cast<std::size_t>(levels_[l].grid.NumNodes());
    if (l > 0) {
      ws.x[l].resize(n);
      ws.b[l].resize(n);
    }
    ws.tmp[l].resize(n);
  }
  return ws;
}

bool MultigridHierarchy::ExtractStencil(const CsrMatrix& a, Level* lvl) {
  const MgGrid& g = lvl->grid;
  const int xn = g.nx + 1;
  const int yn = g.ny + 1;
  const std::int32_t plane = xn * yn;
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& vals = a.values();
  lvl->rows.assign(static_cast<std::size_t>(g.nz_nodes) * kLateralClasses,
                   StencilRow{});
  std::vector<bool> seen(lvl->rows.size(), false);
  StencilRow row;
  for (int iz = 0; iz < g.nz_nodes; ++iz) {
    for (int iy = 0; iy < yn; ++iy) {
      for (int ix = 0; ix < xn; ++ix) {
        const std::int32_t u = ix + xn * (iy + yn * iz);
        row.terms = 0;
        ForEachNeighbour(g, ix, iy, iz, [&](int dx, int dy, int dz) {
          row.offset[static_cast<std::size_t>(row.terms++)] =
              dx + dy * xn + dz * plane;
        });
        const std::int32_t lo = row_ptr[static_cast<std::size_t>(u)];
        if (row_ptr[static_cast<std::size_t>(u) + 1] - lo != row.terms) {
          return false;
        }
        for (int k = 0; k < row.terms; ++k) {
          const std::size_t slot = static_cast<std::size_t>(lo + k);
          if (col_idx[slot] != u + row.offset[static_cast<std::size_t>(k)]) {
            return false;
          }
          row.coef[static_cast<std::size_t>(k)] = vals[slot];
        }
        const std::size_t cls = ClassIndex(iz, BoundaryClass(iy, g.ny),
                                           BoundaryClass(ix, g.nx));
        StencilRow& want = lvl->rows[cls];
        if (!seen[cls]) {
          want = row;
          seen[cls] = true;
        } else if (std::memcmp(want.coef.data(), row.coef.data(),
                               sizeof(double) *
                                   static_cast<std::size_t>(row.terms)) !=
                   0) {
          return false;
        }
      }
    }
  }
  return true;
}

MultigridHierarchy::Level MultigridHierarchy::Coarsen(const Level& fine) {
  const MgGrid& fg = fine.grid;
  const Axis ax(fg.nx);
  const Axis ay(fg.ny);
  Level lvl;
  lvl.grid = MgGrid{ax.m, ay.m, fg.nz_nodes};
  const MgGrid& g = lvl.grid;
  const std::int32_t xn = g.nx + 1;
  const std::int32_t plane = xn * (g.ny + 1);
  lvl.rows.assign(static_cast<std::size_t>(g.nz_nodes) * kLateralClasses,
                  StencilRow{});
  // Calls fn(coarse node, weight) for the coarse nodes fine node f
  // interpolates from (the nonzeros of row f of P on one axis).
  const auto row_of_p = [](const Axis& axis, int f, auto&& fn) {
    const int c = axis.Below(f);
    if (axis.Between(f)) {
      fn(c, 0.5);
      fn(c + 1, 0.5);
    } else {
      fn(c, 1.0);
    }
  };
  // Calls fn(fine node, weight) for the fine nodes coarse node c restricts
  // from (the nonzeros of column c of P on one axis).
  const auto column_of_p = [](const Axis& axis, int c, auto&& fn) {
    const int f = axis.Fine(c);
    if (f > 0 && axis.Between(f - 1)) fn(f - 1, 0.5);
    fn(f, 1.0);
    if (axis.Between(f + 1)) fn(f + 1, 0.5);
  };
  // Every node of a class shares its row (see the header), so each class's
  // row is the Galerkin row of one representative node (cx, cy, iz):
  // entry (C, C') = sum over fine F, F' of P[F][C] A[F][F'] P[F'][C'],
  // accumulated into the dense 3x3x3 neighbourhood of C, indexed
  // (dz + 1) * 9 + (dy + 1) * 3 + (dx + 1).
  for (int iz = 0; iz < g.nz_nodes; ++iz) {
    for (int ccy = 0; ccy < kClasses; ++ccy) {
      const int cy = ClassRepresentative(ccy, g.ny);
      if (cy < 0) continue;
      for (int ccx = 0; ccx < kClasses; ++ccx) {
        const int cx = ClassRepresentative(ccx, g.nx);
        if (cx < 0) continue;
        std::array<double, 27> dense{};
        column_of_p(ay, cy, [&](int fy, double wy) {
          column_of_p(ax, cx, [&](int fx, double wx) {
            const StencilRow& row = fine.rows[ClassIndex(
                iz, BoundaryClass(fy, fg.ny), BoundaryClass(fx, fg.nx))];
            int k = 0;
            ForEachNeighbour(fg, fx, fy, iz, [&](int dx, int dy, int dz) {
              const double a =
                  wy * wx * row.coef[static_cast<std::size_t>(k++)];
              row_of_p(ay, fy + dy, [&](int ny, double py) {
                row_of_p(ax, fx + dx, [&](int nx, double px) {
                  assert(std::abs(ny - cy) <= 1 && std::abs(nx - cx) <= 1);
                  dense[static_cast<std::size_t>((dz + 1) * 9 +
                                                 (ny - cy + 1) * 3 +
                                                 (nx - cx + 1))] +=
                      a * py * px;
                });
              });
            });
          });
        });
        StencilRow& out = lvl.rows[ClassIndex(iz, ccy, ccx)];
        ForEachNeighbour(g, cx, cy, iz, [&](int dx, int dy, int dz) {
          const std::size_t k = static_cast<std::size_t>(out.terms++);
          out.offset[k] = dx + dy * xn + dz * plane;
          out.coef[k] = dense[static_cast<std::size_t>(
              (dz + 1) * 9 + (dy + 1) * 3 + (dx + 1))];
        });
      }
    }
  }
  return lvl;
}

std::vector<double> MultigridHierarchy::FactorDense(const Level& lvl) {
  const MgGrid& g = lvl.grid;
  const std::int32_t n = g.NumNodes();
  const std::int32_t xn = g.nx + 1;
  const std::int32_t yn = g.ny + 1;
  // Scatter the lower triangle of the level's operator into the packed
  // factor, then factor it in place.
  std::vector<double> l(
      static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) + 1) / 2,
      0.0);
  for (int iz = 0; iz < g.nz_nodes; ++iz) {
    for (int iy = 0; iy < yn; ++iy) {
      for (int ix = 0; ix < xn; ++ix) {
        const std::int32_t u = ix + xn * (iy + yn * iz);
        const StencilRow& row = lvl.rows[ClassIndex(
            iz, BoundaryClass(iy, g.ny), BoundaryClass(ix, g.nx))];
        for (int k = 0; k < row.terms; ++k) {
          const std::int32_t c = u + row.offset[static_cast<std::size_t>(k)];
          if (c > u) break;  // columns ascend
          l[static_cast<std::size_t>(u) * (static_cast<std::size_t>(u) + 1) /
                2 +
            static_cast<std::size_t>(c)] =
              row.coef[static_cast<std::size_t>(k)];
        }
      }
    }
  }
  if (!CholeskyInPlace(&l, n)) return {};
  return l;
}

void MultigridHierarchy::FactorLines(Level* lvl) {
  // Per-column vertical tridiagonal blocks — the exact diagonal blocks of
  // the column partition of A — factored LDL^T. A column's blocks depend
  // only on its lateral class, so the factors are stored per (plane,
  // class). Principal submatrices of an SPD operator, so the pivots stay
  // positive.
  const std::size_t classes = lvl->rows.size();
  lvl->line_l.assign(classes, 0.0);
  lvl->line_dinv.assign(classes, 0.0);
  const std::int32_t plane =
      static_cast<std::int32_t>((lvl->grid.nx + 1) * (lvl->grid.ny + 1));
  // The diagonal and the coupling to the node one plane below.
  const auto entry = [&](std::size_t cls, std::int32_t offset) {
    const StencilRow& row = lvl->rows[cls];
    for (int k = 0; k < row.terms; ++k) {
      if (row.offset[static_cast<std::size_t>(k)] == offset) {
        return row.coef[static_cast<std::size_t>(k)];
      }
    }
    return 0.0;
  };
  constexpr std::size_t kLateral = kLateralClasses;
  for (std::size_t lateral = 0; lateral < kLateral; ++lateral) {
    if (lvl->rows[lateral].terms == 0) continue;  // no node of this class
    double prev_d = 0.0;
    for (std::size_t cls = lateral; cls < classes; cls += kLateral) {
      double d = entry(cls, 0);
      if (cls >= kLateral) {
        const double below = entry(cls, -plane);
        const double l = below / prev_d;
        d -= l * below;
        lvl->line_l[cls] = l;
      }
      assert(d > 0.0);
      prev_d = d;
      lvl->line_dinv[cls] = 1.0 / d;
    }
  }
}

template <bool kGaussSeidel>
void MultigridHierarchy::ResidualRow(const Level& lvl, int iy, int iz, int x0,
                                     int step, const double* b,
                                     const double* x, double* out) {
  const int nx = lvl.grid.nx;
  const std::size_t base = (static_cast<std::size_t>(iz) *
                                  static_cast<std::size_t>(lvl.grid.ny + 1) +
                              static_cast<std::size_t>(iy)) *
                          static_cast<std::size_t>(nx + 1);
  const std::size_t ustep = static_cast<std::size_t>(step);
  const StencilRow* cls =
      &lvl.rows[ClassIndex(iz, BoundaryClass(iy, lvl.grid.ny), 0)];
  const auto one = [&](const StencilRow& row, int ix) {
    RowResidual<kGaussSeidel, 0, 1>(row.terms, row.coef.data(),
                                    row.offset.data(), x, b, out,
                                    base + static_cast<std::size_t>(ix), ustep);
  };
  int ix = x0;
  if (ix == 0) {
    one(cls[0], 0);
    ix += step;
  }
  // Interior x-run, then the second-to-last node, which has as many terms:
  // 3 x-offsets times 3 or 2 y- and z-offsets each.
  const StencilRow& mid = cls[1];
  const StencilRow& penult = cls[2];
  const auto run = [&](auto terms) {
    constexpr int kTerms = decltype(terms)::value;
    const auto block = [&](auto nodes) {
      constexpr int kNodes = decltype(nodes)::value;
      RowResidual<kGaussSeidel, kTerms, kNodes>(
          mid.terms, mid.coef.data(), mid.offset.data(), x, b, out,
          base + static_cast<std::size_t>(ix), ustep);
      ix += kNodes * step;
    };
    while (ix + 7 * step < nx - 1) block(std::integral_constant<int, 8>{});
    // The rest in blocks of 4, 2 and 1, not node by node: a lone node's sum
    // is one serial chain of up to 27 terms, and on a 64-node row each
    // smoother color leaves 7 interior nodes after the blocks of 8.
    if (ix + 3 * step < nx - 1) block(std::integral_constant<int, 4>{});
    if (ix + step < nx - 1) block(std::integral_constant<int, 2>{});
    if (ix < nx - 1) block(std::integral_constant<int, 1>{});
    if (ix == nx - 1) {
      RowResidual<kGaussSeidel, kTerms, 1>(
          penult.terms, penult.coef.data(), penult.offset.data(), x, b, out,
          base + static_cast<std::size_t>(ix), ustep);
      ix += step;
    }
  };
  switch (penult.terms) {
    case 27: run(std::integral_constant<int, 27>{}); break;
    case 18: run(std::integral_constant<int, 18>{}); break;
    case 12: run(std::integral_constant<int, 12>{}); break;
    default: run(std::integral_constant<int, 0>{}); break;
  }
  if (ix == nx) one(cls[3], nx);
}

void MultigridHierarchy::Residual(const Level& lvl,
                                  const std::vector<double>& b,
                                  const std::vector<double>& x,
                                  std::vector<double>* r,
                                  runtime::ThreadPool* pool) const {
  const int yn = lvl.grid.ny + 1;
  runtime::ParallelFor(
      pool, 0, static_cast<std::int64_t>(lvl.grid.nz_nodes) * yn, kRowGrain,
      [&](std::int64_t row) {
        ResidualRow</*kGaussSeidel=*/false>(
            lvl, static_cast<int>(row % yn), static_cast<int>(row / yn), 0, 1,
            b.data(), x.data(), r->data());
      });
}

void MultigridHierarchy::Smooth(const Level& lvl, const std::vector<double>& b,
                                std::vector<double>* x,
                                std::vector<double>* tmp, bool reverse,
                                runtime::ThreadPool* pool) const {
  // Colored z-line Gauss-Seidel: the four lateral parity classes
  // (ix%2, iy%2) in a fixed order (reversed for post-smoothing — the
  // adjoint sweep, keeping the V-cycle symmetric). Lateral couplings reach
  // only +-1 node, so columns within one color are fully decoupled: the
  // per-color ParallelFor over y rows writes disjoint indices against a
  // fixed snapshot of the other colors, which makes the sweep bit-identical
  // at any thread count. Each task computes its columns' current residuals
  // plane by plane (into their own slots of tmp), then solves their
  // tridiagonal blocks exactly through the LDL^T factors, eliminating up
  // the planes and substituting back down.
  const int nx = lvl.grid.nx;
  const int yn = lvl.grid.ny + 1;
  const int nz = lvl.grid.nz_nodes;
  const std::size_t row_len = static_cast<std::size_t>(nx + 1);
  const std::size_t plane = row_len * static_cast<std::size_t>(yn);
  double* const xs = x->data();
  double* const t = tmp->data();
  for (int step = 0; step < 4; ++step) {
    const int color = reverse ? 3 - step : step;
    const int px = color & 1;
    const int py = color >> 1;
    if (px > nx || py >= yn) continue;
    runtime::ParallelFor(
        pool, 0, (yn - py + 1) / 2, kLineGrain, [&](std::int64_t task) {
          const int iy = py + 2 * static_cast<int>(task);
          const int cy = BoundaryClass(iy, yn - 1);
          // Calls f(u, cls) for this color's nodes of row iy in plane iz,
          // cls indexing the per-(plane, class) tables.
          const auto for_row = [&](int iz, auto&& f) {
            const std::size_t base = static_cast<std::size_t>(iz) * plane +
                                     static_cast<std::size_t>(iy) * row_len;
            const std::size_t cls = ClassIndex(iz, cy, 0);
            int ix = px;
            if (ix == 0) {
              f(base, cls);
              ix += 2;
            }
            for (; ix < nx - 1; ix += 2) {
              f(base + static_cast<std::size_t>(ix), cls + 1);
            }
            if (ix == nx - 1) {
              f(base + static_cast<std::size_t>(ix), cls + 2);
              ix += 2;
            }
            if (ix == nx) f(base + static_cast<std::size_t>(ix), cls + 3);
          };
          for (int iz = 0; iz < nz; ++iz) {
            ResidualRow</*kGaussSeidel=*/true>(lvl, iy, iz, px, 2, b.data(),
                                               xs, t);
          }
          for (int iz = 1; iz < nz; ++iz) {
            for_row(iz, [&](std::size_t u, std::size_t cls) {
              t[u] -= lvl.line_l[cls] * t[u - plane];
            });
          }
          for (int iz = nz; iz-- > 0;) {
            const bool top = iz + 1 == nz;
            for_row(iz, [&](std::size_t u, std::size_t cls) {
              const double l_above =
                  top ? 0.0 : lvl.line_l[cls + kLateralClasses];
              const double above = top ? 0.0 : t[u + plane];
              const double z = t[u] * lvl.line_dinv[cls] - l_above * above;
              t[u] = z;
              xs[u] += z;
            });
          }
        });
  }
}

void MultigridHierarchy::Restrict(int fine_level,
                                  const std::vector<double>& fine,
                                  std::vector<double>* coarse,
                                  runtime::ThreadPool* pool) const {
  const MgGrid& fg = levels_[static_cast<std::size_t>(fine_level)].grid;
  const MgGrid& cg = levels_[static_cast<std::size_t>(fine_level) + 1].grid;
  const Axis ax(fg.nx);
  const Axis ay(fg.ny);
  const int fxn = fg.nx + 1;
  const int fyn = fg.ny + 1;
  const int cxn = cg.nx + 1;
  const int cyn = cg.ny + 1;
  coarse->resize(static_cast<std::size_t>(cg.NumNodes()));
  // Gather form of P^T: each coarse node sums the fine node it sits on
  // (weight 1) and the fine nodes between it and its lateral neighbours
  // (1/2 per axis, so 1/4 at corners); z is an identity. One task per
  // coarse row; per-index writes keep the kernel deterministic at any
  // thread count.
  runtime::ParallelFor(
      pool, 0, static_cast<std::int64_t>(cyn) * cg.nz_nodes, kRowGrain,
      [&](std::int64_t row) {
        const int cy = static_cast<int>(row % cyn);
        const std::int64_t iz = row / cyn;
        const double* const f = fine.data() + iz * fxn * fyn;
        double* const out = coarse->data() + row * cxn;
        const int fy = ay.Fine(cy);
        const int dy_lo = fy > 0 && ay.Between(fy - 1) ? -1 : 0;
        const int dy_hi = ay.Between(fy + 1) ? 1 : 0;
        for (int cx = 0; cx < cxn; ++cx) {
          const int fx = ax.Fine(cx);
          const int dx_lo = fx > 0 && ax.Between(fx - 1) ? -1 : 0;
          const int dx_hi = ax.Between(fx + 1) ? 1 : 0;
          double acc = 0.0;
          for (int dy = dy_lo; dy <= dy_hi; ++dy) {
            const double wy = dy == 0 ? 1.0 : 0.5;
            const double* const frow = f + (fy + dy) * fxn + fx;
            for (int dx = dx_lo; dx <= dx_hi; ++dx) {
              const double wx = dx == 0 ? 1.0 : 0.5;
              acc += wx * wy * frow[dx];
            }
          }
          out[cx] = acc;
        }
      });
}

void MultigridHierarchy::ProlongAdd(int fine_level,
                                    const std::vector<double>& coarse,
                                    std::vector<double>* fine,
                                    runtime::ThreadPool* pool) const {
  const MgGrid& fg = levels_[static_cast<std::size_t>(fine_level)].grid;
  const MgGrid& cg = levels_[static_cast<std::size_t>(fine_level) + 1].grid;
  const Axis ay(fg.ny);
  const int fxn = fg.nx + 1;
  const int fyn = fg.ny + 1;
  const int cxn = cg.nx + 1;
  const int cyn = cg.ny + 1;
  // Lateral-bilinear interpolation, identity in z: a fine node on a coarse
  // node copies it, one between two (or, on both axes, four) coarse nodes
  // averages them. Below the last fine node of a row, x index fx lies
  // between two coarse nodes exactly when it is odd; the last one sits on
  // the last coarse node. One task per fine row.
  runtime::ParallelFor(
      pool, 0, static_cast<std::int64_t>(fyn) * fg.nz_nodes, kRowGrain,
      [&](std::int64_t row) {
        const int fy = static_cast<int>(row % fyn);
        const std::int64_t iz = row / fyn;
        const double* const c0 = coarse.data() + (iz * cyn + ay.Below(fy)) * cxn;
        const double* const c1 = c0 + cxn;  // read only between rows
        double* const out = fine->data() + row * fxn;
        const bool odd_y = ay.Between(fy);
        for (int fx = 0; fx < fg.nx; ++fx) {
          const int cx = fx >> 1;
          double v;
          if ((fx & 1) == 0 && !odd_y) {
            v = c0[cx];
          } else if (!odd_y) {
            v = 0.5 * (c0[cx] + c0[cx + 1]);
          } else if ((fx & 1) == 0) {
            v = 0.5 * (c0[cx] + c1[cx]);
          } else {
            v = 0.25 * (c0[cx] + c0[cx + 1] + c1[cx] + c1[cx + 1]);
          }
          out[fx] += v;
        }
        const int last = cg.nx;
        out[fg.nx] += odd_y ? 0.5 * (c0[last] + c1[last]) : c0[last];
      });
}

void MultigridHierarchy::CoarseSolve(const std::vector<double>& b,
                                     std::vector<double>* x) const {
  // Forward L y = b, backward L^T x = y; serial — the coarse grid is tiny.
  const std::int32_t n = levels_.back().grid.NumNodes();
  const auto at = [&](std::int32_t i, std::int32_t j) {
    return coarse_chol_[static_cast<std::size_t>(i) *
                            (static_cast<std::size_t>(i) + 1) / 2 +
                        static_cast<std::size_t>(j)];
  };
  x->resize(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    double acc = b[static_cast<std::size_t>(i)];
    for (std::int32_t j = 0; j < i; ++j) {
      acc -= at(i, j) * (*x)[static_cast<std::size_t>(j)];
    }
    (*x)[static_cast<std::size_t>(i)] = acc / at(i, i);
  }
  for (std::int32_t ii = n; ii-- > 0;) {
    double acc = (*x)[static_cast<std::size_t>(ii)];
    for (std::int32_t j = ii + 1; j < n; ++j) {
      acc -= at(j, ii) * (*x)[static_cast<std::size_t>(j)];
    }
    (*x)[static_cast<std::size_t>(ii)] = acc / at(ii, ii);
  }
}

void MultigridHierarchy::VCycleLevel(int level, const std::vector<double>& b,
                                     std::vector<double>* x, Workspace* ws,
                                     runtime::ThreadPool* pool) const {
  const std::size_t ul = static_cast<std::size_t>(level);
  const Level& lvl = levels_[ul];
  if (level + 1 == NumLevels()) {
    CoarseSolve(b, x);
    return;
  }
  // One pre- and one post-smoothing sweep: equal counts keep the V-cycle
  // symmetric, as CG requires.
  Smooth(lvl, b, x, &ws->tmp[ul], /*reverse=*/false, pool);
  Residual(lvl, b, *x, &ws->tmp[ul], pool);  // reusing tmp as r
  Restrict(level, ws->tmp[ul], &ws->b[ul + 1], pool);
  std::fill(ws->x[ul + 1].begin(), ws->x[ul + 1].end(), 0.0);
  VCycleLevel(level + 1, ws->b[ul + 1], &ws->x[ul + 1], ws, pool);
  ProlongAdd(level, ws->x[ul + 1], x, pool);
  Smooth(lvl, b, x, &ws->tmp[ul], /*reverse=*/true, pool);
}

void MultigridHierarchy::VCycle(const std::vector<double>& b,
                                std::vector<double>* x,
                                runtime::ThreadPool* pool) const {
  assert(!levels_.empty());
  if (x->size() != b.size()) x->assign(b.size(), 0.0);
  Workspace ws = MakeWorkspace();
  VCycleLevel(0, b, x, &ws, pool);
}

void MultigridHierarchy::PrecondApply(const std::vector<double>& r,
                                      std::vector<double>* z,
                                      runtime::ThreadPool* pool) const {
  assert(!levels_.empty());
  z->assign(r.size(), 0.0);
  Workspace ws = MakeWorkspace();
  VCycleLevel(0, r, z, &ws, pool);
}

}  // namespace p3d::linalg
