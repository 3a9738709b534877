#include "linalg/multigrid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/log.h"

namespace p3d::linalg {
namespace {

// Fixed chunk sizes; constants keep chunk boundaries independent of the
// thread count (determinism).
constexpr std::int64_t kRowGrain = 16;  // plane rows per kernel chunk
constexpr std::int64_t kLineGrain = 2;  // y rows (all planes) per sweep chunk

/// Lateral boundary class of index i on an axis with nodes 0..last:
/// 0 = first, 1 = interior, 2 = last.
int BoundaryClass(int i, int last) { return i == 0 ? 0 : (i == last ? 2 : 1); }

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

/// Dense Cholesky of a CSR matrix, lower triangle packed row-major.
/// Returns an empty vector on breakdown (not SPD at this size).
std::vector<double> DenseCholesky(const CsrMatrix& a) {
  const std::int32_t n = a.Dim();
  const std::size_t un = static_cast<std::size_t>(n);
  std::vector<double> l(un * (un + 1) / 2, 0.0);
  const auto at = [&](std::int32_t i, std::int32_t j) -> double& {
    return l[static_cast<std::size_t>(i) * (static_cast<std::size_t>(i) + 1) /
                 2 +
             static_cast<std::size_t>(j)];
  };
  // Scatter the lower triangle of A into the packed factor, then run the
  // factorization in place.
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& vals = a.values();
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int32_t c = col_idx[static_cast<std::size_t>(k)];
      if (c <= i) at(i, c) = vals[static_cast<std::size_t>(k)];
    }
  }
  for (std::int32_t j = 0; j < n; ++j) {
    double d = at(j, j);
    for (std::int32_t k = 0; k < j; ++k) d -= at(j, k) * at(j, k);
    if (!(d > 0.0)) return {};
    const double ljj = std::sqrt(d);
    at(j, j) = ljj;
    for (std::int32_t i = j + 1; i < n; ++i) {
      double s = at(i, j);
      for (std::int32_t k = 0; k < j; ++k) s -= at(i, k) * at(j, k);
      at(i, j) = s / ljj;
    }
  }
  return l;
}

}  // namespace

std::vector<MgGrid> MultigridHierarchy::CoarsenPlan(
    const MgGrid& fine, const MultigridOptions& options) {
  std::vector<MgGrid> plan{fine};
  while (static_cast<int>(plan.size()) < options.max_levels) {
    const MgGrid& g = plan.back();
    if (g.nx % 2 != 0 || g.ny % 2 != 0) break;
    const int cnx = g.nx / 2;
    const int cny = g.ny / 2;
    if (cnx < options.min_lateral_elems || cny < options.min_lateral_elems) {
      break;
    }
    plan.push_back(MgGrid{cnx, cny, g.nz_nodes});
  }
  return plan;
}

MultigridHierarchy MultigridHierarchy::Build(std::vector<CsrMatrix> matrices,
                                             std::vector<MgGrid> grids,
                                             const MultigridOptions& options) {
  assert(!matrices.empty() && matrices.size() == grids.size());
  MultigridHierarchy h;
  h.options_ = options;
  h.levels_.reserve(matrices.size());
  for (std::size_t l = 0; l < matrices.size(); ++l) {
    assert(matrices[l].Dim() == grids[l].NumNodes());
    if (l > 0) {
      assert(grids[l].nx * 2 == grids[l - 1].nx &&
             grids[l].ny * 2 == grids[l - 1].ny &&
             grids[l].nz_nodes == grids[l - 1].nz_nodes);
    }
    Level lvl;
    lvl.grid = grids[l];
    if (l + 1 < matrices.size()) {
      if (!ExtractStencil(matrices[l], &lvl)) return {};
      FactorLines(&lvl);
      matrices[l] = CsrMatrix();
    }
    h.levels_.push_back(std::move(lvl));
  }

  CsrMatrix& coarse = matrices.back();
  if (coarse.Dim() <= options.coarse_direct_max_dim) {
    h.coarse_chol_ = DenseCholesky(coarse);
    if (h.coarse_chol_.empty()) {
      util::LogWarn(
          "multigrid: coarse Cholesky broke down (dim %d); using CG coarse "
          "solves",
          coarse.Dim());
    }
  }
  if (h.coarse_chol_.empty()) h.coarse_a_ = std::move(coarse);
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
  const int nz = g.nz_nodes;
  const std::int32_t plane = xn * yn;
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& vals = a.values();
  lvl->rows.assign(static_cast<std::size_t>(nz) * 9, StencilRow{});
  std::vector<bool> seen(lvl->rows.size(), false);
  StencilRow row;
  for (int iz = 0; iz < nz; ++iz) {
    for (int iy = 0; iy < yn; ++iy) {
      for (int ix = 0; ix < xn; ++ix) {
        const std::int32_t u = ix + xn * (iy + yn * iz);
        // The boundary-truncated 27-point stencil, columns ascending.
        row.terms = 0;
        for (int dz = iz > 0 ? -1 : 0; dz <= (iz + 1 < nz ? 1 : 0); ++dz) {
          for (int dy = iy > 0 ? -1 : 0; dy <= (iy + 1 < yn ? 1 : 0); ++dy) {
            for (int dx = ix > 0 ? -1 : 0; dx <= (ix + 1 < xn ? 1 : 0); ++dx) {
              row.offset[static_cast<std::size_t>(row.terms++)] =
                  dx + dy * xn + dz * plane;
            }
          }
        }
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
        const std::size_t cls = static_cast<std::size_t>(
            (iz * 3 + BoundaryClass(iy, g.ny)) * 3 + BoundaryClass(ix, g.nx));
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
  for (std::size_t lateral = 0; lateral < 9; ++lateral) {
    double prev_d = 0.0;
    for (std::size_t cls = lateral; cls < classes; cls += 9) {
      double d = entry(cls, 0);
      if (cls >= 9) {
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
      &lvl.rows[static_cast<std::size_t>(
          (iz * 3 + BoundaryClass(iy, lvl.grid.ny)) * 3)];
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
  // Interior x-run: 3 x-offsets times 3 or 2 y- and z-offsets each.
  const StencilRow& mid = cls[1];
  const auto run = [&](auto terms) {
    constexpr int kTerms = decltype(terms)::value;
    constexpr int kBlock = 8;
    for (; ix + (kBlock - 1) * step < nx; ix += kBlock * step) {
      RowResidual<kGaussSeidel, kTerms, kBlock>(
          mid.terms, mid.coef.data(), mid.offset.data(), x, b, out,
          base + static_cast<std::size_t>(ix), ustep);
    }
    for (; ix < nx; ix += step) {
      RowResidual<kGaussSeidel, kTerms, 1>(
          mid.terms, mid.coef.data(), mid.offset.data(), x, b, out,
          base + static_cast<std::size_t>(ix), ustep);
    }
  };
  switch (mid.terms) {
    case 27: run(std::integral_constant<int, 27>{}); break;
    case 18: run(std::integral_constant<int, 18>{}); break;
    case 12: run(std::integral_constant<int, 12>{}); break;
    default: run(std::integral_constant<int, 0>{}); break;
  }
  if (ix == nx) one(cls[2], nx);
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
  const double w = options_.sor_weight;
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
            const std::size_t cls = static_cast<std::size_t>((iz * 3 + cy) * 3);
            int ix = px;
            if (ix == 0) {
              f(base, cls);
              ix += 2;
            }
            for (; ix < nx; ix += 2) {
              f(base + static_cast<std::size_t>(ix), cls + 1);
            }
            if (ix == nx) f(base + static_cast<std::size_t>(ix), cls + 2);
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
              const double l_above = top ? 0.0 : lvl.line_l[cls + 9];
              const double above = top ? 0.0 : t[u + plane];
              const double z = t[u] * lvl.line_dinv[cls] - l_above * above;
              t[u] = z;
              xs[u] += w * z;
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
  const int fxn = fg.nx + 1;
  const int fyn = fg.ny + 1;
  const int cxn = cg.nx + 1;
  const int cyn = cg.ny + 1;
  coarse->resize(static_cast<std::size_t>(cg.NumNodes()));
  // Gather form of P^T: each coarse node sums its lateral 3x3 fine-node
  // neighbourhood with bilinear weights (1 at the coincident node, 1/2 at
  // edge neighbours, 1/4 at corners); z is an identity. One task per coarse
  // row; per-index writes keep the kernel deterministic at any thread count.
  runtime::ParallelFor(
      pool, 0, static_cast<std::int64_t>(cyn) * cg.nz_nodes, kRowGrain,
      [&](std::int64_t row) {
        const int cy = static_cast<int>(row % cyn);
        const std::int64_t iz = row / cyn;
        const double* const f = fine.data() + iz * fxn * fyn;
        double* const out = coarse->data() + row * cxn;
        const int dy_lo = cy > 0 ? -1 : 0;
        const int dy_hi = 2 * cy + 1 < fyn ? 1 : 0;
        for (int cx = 0; cx < cxn; ++cx) {
          const int dx_lo = cx > 0 ? -1 : 0;
          const int dx_hi = 2 * cx + 1 < fxn ? 1 : 0;
          double acc = 0.0;
          for (int dy = dy_lo; dy <= dy_hi; ++dy) {
            const double wy = dy == 0 ? 1.0 : 0.5;
            const double* const frow = f + (2 * cy + dy) * fxn + 2 * cx;
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
  const int fxn = fg.nx + 1;
  const int fyn = fg.ny + 1;
  const int cxn = cg.nx + 1;
  const int cyn = cg.ny + 1;
  // Lateral-bilinear interpolation, identity in z: even fine indices copy
  // the coincident coarse node, odd ones average their two (or, on both
  // axes, four) lateral coarse neighbours. One task per fine row.
  runtime::ParallelFor(
      pool, 0, static_cast<std::int64_t>(fyn) * fg.nz_nodes, kRowGrain,
      [&](std::int64_t row) {
        const int fy = static_cast<int>(row % fyn);
        const std::int64_t iz = row / fyn;
        const double* const c0 =
            coarse.data() + (iz * cyn + (fy >> 1)) * cxn;
        const double* const c1 = c0 + cxn;  // read only on odd fy
        double* const out = fine->data() + row * fxn;
        const bool odd_y = (fy & 1) != 0;
        for (int fx = 0; fx < fxn; ++fx) {
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
      });
}

void MultigridHierarchy::CoarseSolve(const std::vector<double>& b,
                                     std::vector<double>* x,
                                     runtime::ThreadPool* pool) const {
  const std::int32_t n = levels_.back().grid.NumNodes();
  if (!coarse_chol_.empty()) {
    // Forward L y = b, backward L^T x = y; serial — the coarse grid is tiny.
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
    return;
  }
  // Fallback: effectively-exact Jacobi-CG on the coarsest operator. Serial
  // (pool unused — the coarse system is small) and deterministic.
  (void)pool;
  CgOptions opts;
  opts.max_iters = std::max(1000, 4 * n);
  opts.rel_tolerance = options_.coarse_cg_tolerance;
  opts.threads = 1;
  opts.preconditioner = PreconditionerKind::kJacobi;
  x->assign(static_cast<std::size_t>(n), 0.0);
  SolveCg(coarse_a_, b, x, opts);
}

void MultigridHierarchy::VCycleLevel(int level, const std::vector<double>& b,
                                     std::vector<double>* x, Workspace* ws,
                                     runtime::ThreadPool* pool) const {
  const std::size_t ul = static_cast<std::size_t>(level);
  const Level& lvl = levels_[ul];
  if (level + 1 == NumLevels()) {
    CoarseSolve(b, x, pool);
    return;
  }
  for (int s = 0; s < options_.pre_smooth; ++s) {
    Smooth(lvl, b, x, &ws->tmp[ul], /*reverse=*/false, pool);
  }
  Residual(lvl, b, *x, &ws->tmp[ul], pool);  // reusing tmp as r
  Restrict(level, ws->tmp[ul], &ws->b[ul + 1], pool);
  std::fill(ws->x[ul + 1].begin(), ws->x[ul + 1].end(), 0.0);
  VCycleLevel(level + 1, ws->b[ul + 1], &ws->x[ul + 1], ws, pool);
  ProlongAdd(level, ws->x[ul + 1], x, pool);
  for (int s = 0; s < options_.post_smooth; ++s) {
    Smooth(lvl, b, x, &ws->tmp[ul], /*reverse=*/true, pool);
  }
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
