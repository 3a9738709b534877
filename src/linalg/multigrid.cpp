#include "linalg/multigrid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "util/log.h"

namespace p3d::linalg {
namespace {

// Fixed chunk sizes for the element-wise kernels and smoother sweeps; constants
// keep chunk boundaries independent of the thread count (determinism).
constexpr std::int64_t kElemGrain = 4096;
constexpr std::int64_t kColGrain = 256;  // z columns per smoother chunk

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
    lvl.a = std::move(matrices[l]);
    lvl.grid = grids[l];
    FactorLines(&lvl);
    h.levels_.push_back(std::move(lvl));
  }

  const CsrMatrix& coarse = h.levels_.back().a;
  if (coarse.Dim() <= options.coarse_direct_max_dim) {
    h.coarse_chol_ = DenseCholesky(coarse);
    if (h.coarse_chol_.empty()) {
      util::LogWarn(
          "multigrid: coarse Cholesky broke down (dim %d); using CG coarse "
          "solves",
          coarse.Dim());
    }
  }
  obs::MetricAdd("mg/builds", 1);
  return h;
}

std::size_t MultigridHierarchy::TotalNonZeros() const {
  std::size_t nnz = 0;
  for (const Level& l : levels_) nnz += l.a.NumNonZeros();
  return nnz;
}

MultigridHierarchy::Workspace MultigridHierarchy::MakeWorkspace() const {
  Workspace ws;
  const std::size_t nl = levels_.size();
  ws.x.resize(nl);
  ws.b.resize(nl);
  ws.tmp.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    const std::size_t n = static_cast<std::size_t>(levels_[l].a.Dim());
    if (l > 0) {
      ws.x[l].resize(n);
      ws.b[l].resize(n);
    }
    ws.tmp[l].resize(n);
  }
  return ws;
}

void MultigridHierarchy::FactorLines(Level* lvl) {
  // Per-column vertical tridiagonal blocks — the exact diagonal blocks of
  // the column partition of A — factored LDL^T per column, stored by node
  // id. Principal submatrices of an SPD operator, so the pivots stay
  // positive.
  const std::int32_t n = lvl->a.Dim();
  const std::size_t un = static_cast<std::size_t>(n);
  const std::int32_t plane =
      static_cast<std::int32_t>((lvl->grid.nx + 1) * (lvl->grid.ny + 1));
  const auto& row_ptr = lvl->a.row_ptr();
  const auto& col_idx = lvl->a.col_idx();
  const auto& vals = lvl->a.values();

  // Pass 1: tridiagonal entries per node — diagonal into line_dinv,
  // coupling to the node one plane below into line_l.
  lvl->line_l.assign(un, 0.0);
  lvl->line_dinv.assign(un, 0.0);
  for (std::int32_t i = 0; i < n; ++i) {
    for (std::int32_t k = row_ptr[static_cast<std::size_t>(i)];
         k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const std::int32_t c = col_idx[static_cast<std::size_t>(k)];
      const double v = vals[static_cast<std::size_t>(k)];
      if (c == i) {
        lvl->line_dinv[static_cast<std::size_t>(i)] = v;
      } else if (c == i - plane) {
        lvl->line_l[static_cast<std::size_t>(i)] = v;
      }
    }
  }
  // Pass 2: LDL^T elimination down each column.
  for (std::int32_t col = 0; col < plane; ++col) {
    double prev_d = 0.0;
    for (std::int32_t node = col; node < n; node += plane) {
      const std::size_t u = static_cast<std::size_t>(node);
      double d = lvl->line_dinv[u];
      if (node >= plane) {
        const double l = lvl->line_l[u] / prev_d;
        d -= l * lvl->line_l[u];
        lvl->line_l[u] = l;
      }
      assert(d > 0.0);
      prev_d = d;
      lvl->line_dinv[u] = 1.0 / d;
    }
  }
}

void MultigridHierarchy::Smooth(const Level& lvl, const std::vector<double>& b,
                                std::vector<double>* x,
                                std::vector<double>* tmp, bool reverse,
                                runtime::ThreadPool* pool) const {
  // Colored z-line Gauss-Seidel: the four lateral parity classes
  // (ix%2, iy%2) in a fixed order (reversed for post-smoothing — the
  // adjoint sweep, keeping the V-cycle symmetric). Lateral couplings reach
  // only +-1 node, so columns within one color are fully decoupled: the
  // per-color ParallelFor writes disjoint indices against a fixed snapshot
  // of the other colors, which makes the sweep bit-identical at any thread
  // count. Each column computes its current residual row-wise (into the
  // column's own slots of tmp), then solves its tridiagonal block exactly
  // through the LDL^T factors.
  const double w = options_.sor_weight;
  const int fxn = lvl.grid.nx + 1;
  const int fyn = lvl.grid.ny + 1;
  const std::int64_t plane = static_cast<std::int64_t>(fxn) * fyn;
  const std::int64_t nz = lvl.grid.nz_nodes;
  const auto& row_ptr = lvl.a.row_ptr();
  const auto& col_idx = lvl.a.col_idx();
  const auto& vals = lvl.a.values();
  for (int step = 0; step < 4; ++step) {
    const int color = reverse ? 3 - step : step;
    const int px = color & 1;
    const int py = color >> 1;
    const std::int64_t ncx = (fxn - px + 1) / 2;
    const std::int64_t ncy = (fyn - py + 1) / 2;
    if (ncx <= 0 || ncy <= 0) continue;
    runtime::ParallelFor(
        pool, 0, ncx * ncy, kColGrain, [&](std::int64_t t) {
          const std::int64_t ix = px + 2 * (t % ncx);
          const std::int64_t iy = py + 2 * (t / ncx);
          const std::int64_t col = iy * fxn + ix;
          for (std::int64_t iz = 0; iz < nz; ++iz) {
            const std::size_t u = static_cast<std::size_t>(col + iz * plane);
            double r = b[u];
            for (std::int32_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
              r -= vals[static_cast<std::size_t>(k)] *
                   (*x)[static_cast<std::size_t>(
                       col_idx[static_cast<std::size_t>(k)])];
            }
            (*tmp)[u] = r;
          }
          for (std::int64_t iz = 1; iz < nz; ++iz) {
            const std::size_t u = static_cast<std::size_t>(col + iz * plane);
            (*tmp)[u] -=
                lvl.line_l[u] * (*tmp)[u - static_cast<std::size_t>(plane)];
          }
          double above = 0.0;
          double l_above = 0.0;
          for (std::int64_t iz = nz; iz-- > 0;) {
            const std::size_t u = static_cast<std::size_t>(col + iz * plane);
            const double z = (*tmp)[u] * lvl.line_dinv[u] - l_above * above;
            (*x)[u] += w * z;
            above = z;
            l_above = lvl.line_l[u];
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
  // edge neighbours, 1/4 at corners); z is an identity. Per-index writes
  // keep the kernel deterministic at any thread count.
  runtime::ParallelFor(
      pool, 0, static_cast<std::int64_t>(cg.NumNodes()), kElemGrain,
      [&](std::int64_t i) {
        const int cx = static_cast<int>(i % cxn);
        const int cy = static_cast<int>((i / cxn) % cyn);
        const int iz = static_cast<int>(i / (cxn * cyn));
        const std::size_t fz_base =
            static_cast<std::size_t>(iz) * static_cast<std::size_t>(fxn * fyn);
        double acc = 0.0;
        for (int dy = -1; dy <= 1; ++dy) {
          const int fy = 2 * cy + dy;
          if (fy < 0 || fy >= fyn) continue;
          const double wy = dy == 0 ? 1.0 : 0.5;
          for (int dx = -1; dx <= 1; ++dx) {
            const int fx = 2 * cx + dx;
            if (fx < 0 || fx >= fxn) continue;
            const double wx = dx == 0 ? 1.0 : 0.5;
            acc += wx * wy *
                   fine[fz_base + static_cast<std::size_t>(fy * fxn + fx)];
          }
        }
        (*coarse)[static_cast<std::size_t>(i)] = acc;
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
  // axes, four) lateral coarse neighbours.
  runtime::ParallelFor(
      pool, 0, static_cast<std::int64_t>(fg.NumNodes()), kElemGrain,
      [&](std::int64_t i) {
        const int fx = static_cast<int>(i % fxn);
        const int fy = static_cast<int>((i / fxn) % fyn);
        const int iz = static_cast<int>(i / (fxn * fyn));
        const std::size_t cz_base =
            static_cast<std::size_t>(iz) * static_cast<std::size_t>(cxn * cyn);
        const auto cval = [&](int cx, int cy) {
          return coarse[cz_base + static_cast<std::size_t>(cy * cxn + cx)];
        };
        const int cx = fx / 2;
        const int cy = fy / 2;
        double v;
        if (fx % 2 == 0 && fy % 2 == 0) {
          v = cval(cx, cy);
        } else if (fy % 2 == 0) {
          v = 0.5 * (cval(cx, cy) + cval(cx + 1, cy));
        } else if (fx % 2 == 0) {
          v = 0.5 * (cval(cx, cy) + cval(cx, cy + 1));
        } else {
          v = 0.25 * (cval(cx, cy) + cval(cx + 1, cy) + cval(cx, cy + 1) +
                      cval(cx + 1, cy + 1));
        }
        (*fine)[static_cast<std::size_t>(i)] += v;
      });
}

void MultigridHierarchy::CoarseSolve(const std::vector<double>& b,
                                     std::vector<double>* x,
                                     runtime::ThreadPool* pool) const {
  const Level& lvl = levels_.back();
  const std::int32_t n = lvl.a.Dim();
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
  SolveCg(lvl.a, b, x, opts);
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
  // Residual r = b - A x (reusing tmp as r).
  lvl.a.Multiply(*x, &ws->tmp[ul], pool);
  const std::int64_t n = static_cast<std::int64_t>(b.size());
  runtime::ParallelFor(pool, 0, n, kElemGrain, [&](std::int64_t i) {
    const std::size_t u = static_cast<std::size_t>(i);
    ws->tmp[ul][u] = b[u] - ws->tmp[ul][u];
  });
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
