#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/cg.h"
#include "linalg/csr.h"
#include "linalg/multigrid.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace p3d::linalg {
namespace {

TEST(Csr, FromCooSumsDuplicates) {
  CooBuilder coo(3);
  coo.Add(0, 0, 1.0);
  coo.Add(0, 0, 2.0);
  coo.Add(1, 2, 5.0);
  coo.Add(2, 1, -1.0);
  const CsrMatrix m = CsrMatrix::FromCoo(coo);
  EXPECT_EQ(m.Dim(), 3);
  EXPECT_EQ(m.NumNonZeros(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);  // absent
}

TEST(Csr, FromCooSumsDuplicatesInInsertionOrder) {
  // 1e16 + 1 rounds back to 1e16, so these sums depend on their order.
  CooBuilder coo(2);
  coo.Add(1, 1, 1e16);
  coo.Add(0, 0, 1e16);
  coo.Add(0, 1, 5.0);
  coo.Add(0, 0, 1.0);
  coo.Add(1, 1, -1e16);
  coo.Add(1, 0, 7.0);
  coo.Add(0, 0, -1e16);
  coo.Add(1, 1, 1.0);
  const CsrMatrix m = CsrMatrix::FromCoo(coo);
  EXPECT_EQ(m.NumNonZeros(), 4u);
  EXPECT_EQ(m.At(0, 0), 0.0);  // (1e16 + 1) - 1e16
  EXPECT_EQ(m.At(1, 1), 1.0);  // (1e16 - 1e16) + 1
  EXPECT_EQ(m.At(0, 1), 5.0);
  EXPECT_EQ(m.At(1, 0), 7.0);

  // Rows long enough that a comparison sort would not keep equal keys in
  // place: every entry must be the left-to-right sum of its triplets.
  constexpr std::int32_t kN = 3;
  constexpr std::int32_t kAdds = 600;
  const double values[] = {1e16, 1.0, -1e16, 0.5, 3.0, -7.25};
  CooBuilder big(kN, kAdds);
  std::vector<double> want(kN * kN, 0.0);
  util::Rng rng(7);
  for (std::int32_t i = 0; i < kAdds; ++i) {
    const std::int32_t r = rng.NextInt(0, kN - 1);
    const std::int32_t c = rng.NextInt(0, kN - 1);
    const double v = values[rng.NextInt(0, 5)];
    big.Add(r, c, v);
    want[static_cast<std::size_t>(r * kN + c)] += v;
  }
  const CsrMatrix b = CsrMatrix::FromCoo(big);
  for (std::int32_t r = 0; r < kN; ++r) {
    for (std::int32_t c = 0; c < kN; ++c) {
      EXPECT_EQ(b.At(r, c), want[static_cast<std::size_t>(r * kN + c)])
          << "entry (" << r << ", " << c << ")";
    }
  }
  const std::vector<std::int32_t> want_row_ptr = {0, 3, 6, 9};
  EXPECT_EQ(b.row_ptr(), want_row_ptr);
}

TEST(Csr, Multiply) {
  CooBuilder coo(2);
  coo.Add(0, 0, 2.0);
  coo.Add(0, 1, 1.0);
  coo.Add(1, 0, 1.0);
  coo.Add(1, 1, 3.0);
  const CsrMatrix m = CsrMatrix::FromCoo(coo);
  std::vector<double> y;
  m.Multiply({1.0, 2.0}, &y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Csr, Diagonal) {
  CooBuilder coo(3);
  coo.Add(0, 0, 4.0);
  coo.Add(2, 2, 9.0);
  coo.Add(0, 1, 7.0);
  const CsrMatrix m = CsrMatrix::FromCoo(coo);
  const auto d = m.Diagonal();
  EXPECT_DOUBLE_EQ(d[0], 4.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 9.0);
}

TEST(Csr, SymmetryError) {
  CooBuilder coo(2);
  coo.Add(0, 1, 1.0);
  coo.Add(1, 0, 1.5);
  const CsrMatrix m = CsrMatrix::FromCoo(coo);
  EXPECT_NEAR(m.SymmetryError(), 0.5, 1e-15);
}

TEST(Cg, SolvesSmallSpdSystem) {
  // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11].
  CooBuilder coo(2);
  coo.Add(0, 0, 4.0);
  coo.Add(0, 1, 1.0);
  coo.Add(1, 0, 1.0);
  coo.Add(1, 1, 3.0);
  const CsrMatrix a = CsrMatrix::FromCoo(coo);
  std::vector<double> x;
  const CgResult r = SolveCg(a, {1.0, 2.0}, &x);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 1.0 / 11.0, 1e-8);
  EXPECT_NEAR(x[1], 7.0 / 11.0, 1e-8);
}

TEST(Cg, ZeroRhsGivesZero) {
  CooBuilder coo(2);
  coo.Add(0, 0, 1.0);
  coo.Add(1, 1, 1.0);
  const CsrMatrix a = CsrMatrix::FromCoo(coo);
  std::vector<double> x = {5.0, -2.0};  // nonzero initial guess
  const CgResult r = SolveCg(a, {0.0, 0.0}, &x);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

/// 1D Laplacian with Dirichlet-like end anchors: classic SPD test with a
/// known solution structure.
TEST(Cg, OneDimensionalLaplacian) {
  const int n = 50;
  CooBuilder coo(n);
  for (int i = 0; i < n; ++i) {
    coo.Add(i, i, 2.0);
    if (i > 0) coo.Add(i, i - 1, -1.0);
    if (i + 1 < n) coo.Add(i, i + 1, -1.0);
  }
  const CsrMatrix a = CsrMatrix::FromCoo(coo);
  // b = A * ones -> solution must be ones.
  std::vector<double> ones(n, 1.0), b;
  a.Multiply(ones, &b);
  std::vector<double> x;
  const CgResult r = SolveCg(a, b, &x, {.max_iters = 500, .rel_tolerance = 1e-10});
  ASSERT_TRUE(r.converged);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], 1.0, 1e-6);
}

class CgRandomSpd : public ::testing::TestWithParam<int> {};

TEST_P(CgRandomSpd, RecoversKnownSolution) {
  const int n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n));
  // SPD by construction: diagonally dominant symmetric matrix.
  CooBuilder coo(n);
  std::vector<double> row_abs(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < std::min(n, i + 4); ++j) {
      const double v = rng.NextDouble(-1.0, 1.0);
      coo.Add(i, j, v);
      coo.Add(j, i, v);
      row_abs[static_cast<std::size_t>(i)] += std::abs(v);
      row_abs[static_cast<std::size_t>(j)] += std::abs(v);
    }
  }
  for (int i = 0; i < n; ++i) {
    coo.Add(i, i, row_abs[static_cast<std::size_t>(i)] + 1.0);
  }
  const CsrMatrix a = CsrMatrix::FromCoo(coo);
  EXPECT_LT(a.SymmetryError(), 1e-14);

  std::vector<double> truth(static_cast<std::size_t>(n));
  for (auto& v : truth) v = rng.NextDouble(-10.0, 10.0);
  std::vector<double> b;
  a.Multiply(truth, &b);
  std::vector<double> x;
  const CgResult r = SolveCg(a, b, &x, {.max_iters = 2000, .rel_tolerance = 1e-12});
  ASSERT_TRUE(r.converged);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                truth[static_cast<std::size_t>(i)], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgRandomSpd, ::testing::Values(5, 20, 100, 400));


/// 2D Laplacian (5-point stencil) on an nx * ny grid, shifted to stay SPD.
CsrMatrix Laplacian2d(int nx, int ny) {
  CooBuilder coo(nx * ny);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const int at = j * nx + i;
      coo.Add(at, at, 4.0 + 1e-3);  // small shift keeps it SPD
      if (i > 0) coo.Add(at, at - 1, -1.0);
      if (i + 1 < nx) coo.Add(at, at + 1, -1.0);
      if (j > 0) coo.Add(at, at - nx, -1.0);
      if (j + 1 < ny) coo.Add(at, at + nx, -1.0);
    }
  }
  return CsrMatrix::FromCoo(coo);
}

TEST(Cg, RecordsWhyItStopped) {
  // Converged, the iteration cap, or a breakdown (p'Ap <= 0 or r'z <= 0),
  // each also counted as a deterministic metric.
  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  const CsrMatrix a = Laplacian2d(12, 12);
  const std::vector<double> b(static_cast<std::size_t>(a.Dim()), 1.0);
  std::vector<double> x;
  const CgResult done = SolveCg(a, b, &x, {.rel_tolerance = 1e-10});
  EXPECT_TRUE(done.converged);
  EXPECT_EQ(done.stop, CgStop::kConverged);

  x.clear();
  const CgResult capped = SolveCg(a, b, &x, {.max_iters = 1});
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.stop, CgStop::kCap);
  EXPECT_EQ(capped.iters, 1);

  // diag(1, -1): the Jacobi-preconditioned r'z of b = (1, 1) is 0.
  CooBuilder coo(2);
  coo.Add(0, 0, 1.0);
  coo.Add(1, 1, -1.0);
  x.clear();
  const CgResult broke = SolveCg(CsrMatrix::FromCoo(coo), {1.0, 1.0}, &x);
  EXPECT_FALSE(broke.converged);
  EXPECT_EQ(broke.stop, CgStop::kBreakdown);
  obs::InstallMetrics(nullptr);

  EXPECT_EQ(registry.Counter("cg/solves"), 3);
  EXPECT_EQ(registry.Counter("cg/stop_cap"), 1);
  EXPECT_EQ(registry.Counter("cg/stop_breakdown"), 1);
  EXPECT_EQ(registry.Counter("cg/unconverged"), 2);
  EXPECT_STREQ(CgStopName(CgStop::kCap), "cap");
  EXPECT_STREQ(CgStopName(CgStop::kBreakdown), "breakdown");
}

// --- geometric multigrid ----------------------------------------------------

/// Trilinear hex-FEM Poisson assembly (unit conductivity, Robin bottom face)
/// on the MgGrid node layout — the same element family the thermal FEA uses,
/// so re-assembling on a 2x-coarser lateral grid produces exactly the
/// Galerkin coarse operator (nested spaces). Domain is 1 x 1 x (nz_elems*hz).
CsrMatrix PoissonHex(const MgGrid& g, double hz) {
  const double hx = 1.0 / g.nx;
  const double hy = 1.0 / g.ny;
  const int nz_elems = g.nz_nodes - 1;
  const auto node = [&](int ix, int iy, int iz) {
    return ix + (g.nx + 1) * (iy + (g.ny + 1) * iz);
  };

  // 8x8 element stiffness by 2x2x2 Gauss quadrature of the trilinear shape
  // gradients (local node order: bit 0 = x, bit 1 = y, bit 2 = z).
  double ke[8][8] = {};
  const double gp = 1.0 / std::sqrt(3.0);
  const double jac[3] = {hx / 2.0, hy / 2.0, hz / 2.0};
  const double det = jac[0] * jac[1] * jac[2];
  for (int q = 0; q < 8; ++q) {
    const double p[3] = {(q & 1) ? gp : -gp, (q & 2) ? gp : -gp,
                         (q & 4) ? gp : -gp};
    double grad[8][3];
    for (int i = 0; i < 8; ++i) {
      const double xi = (i & 1) ? 1.0 : -1.0;
      const double et = (i & 2) ? 1.0 : -1.0;
      const double ze = (i & 4) ? 1.0 : -1.0;
      grad[i][0] = 0.125 * xi * (1 + et * p[1]) * (1 + ze * p[2]) / jac[0];
      grad[i][1] = 0.125 * et * (1 + xi * p[0]) * (1 + ze * p[2]) / jac[1];
      grad[i][2] = 0.125 * ze * (1 + xi * p[0]) * (1 + et * p[1]) / jac[2];
    }
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        ke[i][j] += det * (grad[i][0] * grad[j][0] + grad[i][1] * grad[j][1] +
                           grad[i][2] * grad[j][2]);
      }
    }
  }

  CooBuilder coo(g.NumNodes());
  for (int ez = 0; ez < nz_elems; ++ez) {
    for (int ey = 0; ey < g.ny; ++ey) {
      for (int ex = 0; ex < g.nx; ++ex) {
        int n[8];
        for (int i = 0; i < 8; ++i) {
          n[i] = node(ex + (i & 1), ey + ((i >> 1) & 1), ez + ((i >> 2) & 1));
        }
        for (int i = 0; i < 8; ++i) {
          for (int j = 0; j < 8; ++j) coo.Add(n[i], n[j], ke[i][j]);
        }
      }
    }
  }
  // Robin term on the bottom face (bilinear face mass, h = 5) pins the
  // otherwise-singular pure-Neumann operator; a face integral of nested
  // spaces, so it stays variational under re-assembly.
  const double h_face = 5.0 * (hx * hy) / 36.0;
  for (int ey = 0; ey < g.ny; ++ey) {
    for (int ex = 0; ex < g.nx; ++ex) {
      const int fn[4] = {node(ex, ey, 0), node(ex + 1, ey, 0),
                         node(ex, ey + 1, 0), node(ex + 1, ey + 1, 0)};
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          const int manhattan = (((i ^ j) & 1) ? 1 : 0) + (((i ^ j) & 2) ? 1 : 0);
          const double base =
              manhattan == 0 ? 4.0 : (manhattan == 1 ? 2.0 : 1.0);
          coo.Add(fn[i], fn[j], h_face * base);
        }
      }
    }
  }
  return CsrMatrix::FromCoo(coo);
}

/// A Poisson hierarchy and the fine operator it was built from.
struct PoissonMg {
  CsrMatrix a;
  std::shared_ptr<const MultigridHierarchy> mg;
};

PoissonMg BuildPoissonHierarchy(int nx, int ny, int nz_nodes) {
  const MgGrid grid{nx, ny, nz_nodes};
  PoissonMg p{PoissonHex(grid, 0.25), nullptr};
  p.mg = std::make_shared<const MultigridHierarchy>(
      MultigridHierarchy::Build(p.a, grid));
  return p;
}

/// CG on the fine operator, preconditioned by the hierarchy's V-cycle.
CgResult SolveMgPcg(const PoissonMg& p, const std::vector<double>& b,
                    std::vector<double>* x, int threads = 1) {
  return SolveCgPreconditioned(
      p.a, CgPreconditioner::BuildMultigrid(p.mg), b, x,
      {.max_iters = 50, .rel_tolerance = 1e-10, .threads = threads});
}

TEST(Multigrid, CoarsenPlanHalvesLateralGridAndKeepsZ) {
  const auto plan = MultigridHierarchy::CoarsenPlan({24, 24, 12});
  ASSERT_EQ(plan.size(), 5u);  // 24 -> 12 -> 6 -> 3 -> 2
  EXPECT_EQ(plan[1].nx, 12);
  EXPECT_EQ(plan[3].nx, 3);
  EXPECT_EQ(plan[4].nx, 2);
  EXPECT_EQ(plan[4].ny, 2);
  for (const auto& g : plan) EXPECT_EQ(g.nz_nodes, 12);
  // Odd sizes go to ceil(n/2), each axis on its own.
  const auto odd = MultigridHierarchy::CoarsenPlan({25, 24, 12});
  ASSERT_EQ(odd.size(), 5u);  // x: 25 -> 13 -> 7 -> 4 -> 2
  EXPECT_EQ(odd[1], (MgGrid{13, 12, 12}));
  EXPECT_EQ(odd[2], (MgGrid{7, 6, 12}));
  EXPECT_EQ(odd[3], (MgGrid{4, 3, 12}));
  // Coarsening stops once both lateral sizes are <= 2, however small one
  // of them got...
  const auto flat = MultigridHierarchy::CoarsenPlan({8, 4, 3});
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat.back(), (MgGrid{2, 1, 3}));
  EXPECT_EQ(MultigridHierarchy::CoarsenPlan({2, 2, 5}).size(), 1u);
  // ... and only then: no level cap.
  const auto deep = MultigridHierarchy::CoarsenPlan({512, 512, 2});
  ASSERT_EQ(deep.size(), 9u);
  EXPECT_EQ(deep.back().nx, 2);
}

TEST(Multigrid, PreconditionedSolveConvergesFast) {
  const PoissonMg p = BuildPoissonHierarchy(16, 16, 4);
  ASSERT_EQ(p.mg->NumLevels(), 4);  // 16 -> 8 -> 4 -> 2
  EXPECT_TRUE(p.mg->CoarseDirect());
  util::Rng rng(17);
  std::vector<double> truth(static_cast<std::size_t>(p.mg->Dim()));
  for (auto& v : truth) v = rng.NextDouble(-1.0, 1.0);
  std::vector<double> b;
  p.a.Multiply(truth, &b);
  std::vector<double> x;
  const CgResult r = SolveMgPcg(p, b, &x);
  ASSERT_TRUE(r.converged);
  // Mesh-independent convergence is the whole point: a handful of
  // iterations, not the O(n) an unpreconditioned Krylov method would need.
  EXPECT_LE(r.iters, 25);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(x[i], truth[i], 1e-6);
  }
  // A warm start from the solution early-exits without iterating.
  const CgResult warm = SolveMgPcg(p, b, &x);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(warm.iters, 0);
}

TEST(Multigrid, PreconditionerIsSymmetric) {
  // CG requires a symmetric preconditioner: check <B u, v> == <u, B v> for
  // random vectors (the post-smoothing sweep is the pre-smoothing one's
  // adjoint and R = P^T). The odd grid injects its last fine node on
  // both axes at every level.
  for (const MgGrid g : {MgGrid{8, 8, 3}, MgGrid{9, 7, 3}}) {
    const PoissonMg p = BuildPoissonHierarchy(g.nx, g.ny, g.nz_nodes);
    util::Rng rng(23);
    const std::size_t n = static_cast<std::size_t>(p.mg->Dim());
    std::vector<double> u(n), v(n), bu, bv;
    for (auto& e : u) e = rng.NextDouble(-1.0, 1.0);
    for (auto& e : v) e = rng.NextDouble(-1.0, 1.0);
    p.mg->PrecondApply(u, &bu);
    p.mg->PrecondApply(v, &bv);
    double buv = 0.0, ubv = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      buv += bu[i] * v[i];
      ubv += u[i] * bv[i];
      scale += std::abs(bu[i] * v[i]);
    }
    EXPECT_NEAR(buv, ubv, 1e-10 * scale + 1e-14) << g.nx << "x" << g.ny;
  }
}

TEST(Multigrid, PreconditionedCgMatchesJacobiReference) {
  // Multigrid-preconditioned CG at 1e-10 against a Jacobi-CG reference at
  // 1e-12, on an even and an odd grid.
  for (const MgGrid g : {MgGrid{32, 32, 4}, MgGrid{25, 19, 4}}) {
    const PoissonMg p = BuildPoissonHierarchy(g.nx, g.ny, g.nz_nodes);
    const CsrMatrix& a = p.a;
    util::Rng rng(5);
    std::vector<double> truth(static_cast<std::size_t>(a.Dim()));
    for (auto& v : truth) v = rng.NextDouble(-2.0, 2.0);
    std::vector<double> b;
    a.Multiply(truth, &b);

    std::vector<double> want;
    const CgResult rj =
        SolveCg(a, b, &want, {.max_iters = 20000, .rel_tolerance = 1e-12});

    const CgPreconditioner pmg = CgPreconditioner::BuildMultigrid(p.mg);
    EXPECT_EQ(pmg.kind(), PreconditionerKind::kMultigrid);
    EXPECT_FALSE(pmg.empty());
    std::vector<double> x_mg;
    const CgResult rmg =
        SolveCgPreconditioned(a, pmg, b, &x_mg, {.rel_tolerance = 1e-10});

    ASSERT_TRUE(rj.converged) << g.nx << "x" << g.ny;
    ASSERT_TRUE(rmg.converged) << g.nx << "x" << g.ny;
    EXPECT_LE(rmg.iters, 15) << g.nx << "x" << g.ny;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      EXPECT_NEAR(x_mg[i], want[i], 1e-7) << g.nx << "x" << g.ny;
    }
  }
}

TEST(Multigrid, DeterministicAcrossThreadCounts) {
  // 13x7 coarsens to 7x4, 4x2 and 2x1. Both odd axes inject their last
  // node, and the fine and first coarse levels have first, interior,
  // second-to-last and last nodes on both axes, so all sixteen lateral
  // boundary classes run through the smoother, the residual and the
  // transfers.
  const PoissonMg p = BuildPoissonHierarchy(13, 7, 4);
  ASSERT_EQ(p.mg->NumLevels(), 4);
  EXPECT_EQ(p.mg->Grid(1), (MgGrid{7, 4, 4}));
  util::Rng rng(29);
  std::vector<double> truth(static_cast<std::size_t>(p.mg->Dim()));
  for (auto& v : truth) v = rng.NextDouble(-3.0, 3.0);
  std::vector<double> b;
  p.a.Multiply(truth, &b);

  // One V-cycle and the multigrid-preconditioned CG solve: bitwise-equal
  // at 1, 3 and 8 threads.
  std::vector<double> v1;
  p.mg->VCycle(b, &v1);
  std::vector<double> x1;
  const CgResult r1 = SolveMgPcg(p, b, &x1, /*threads=*/1);
  ASSERT_TRUE(r1.converged);
  for (const int threads : {3, 8}) {
    runtime::ThreadPool pool(threads);
    std::vector<double> v;
    p.mg->VCycle(b, &v, &pool);
    ASSERT_EQ(v.size(), v1.size());
    for (std::size_t i = 0; i < v1.size(); ++i) {
      ASSERT_EQ(v[i], v1[i]) << threads << " threads, node " << i;
    }
    std::vector<double> x;
    const CgResult r = SolveMgPcg(p, b, &x, threads);
    EXPECT_EQ(r.iters, r1.iters) << threads << " threads";
    for (std::size_t i = 0; i < x1.size(); ++i) {
      ASSERT_EQ(x[i], x1[i]) << threads << " threads, node " << i;
    }
  }
}

TEST(Multigrid, NonStencilMatrixYieldsEmptyHierarchy) {
  // Build stores each smoothed level as one row per plane and boundary
  // class; a single row that differs from its class — one coefficient one
  // ulp off, or one column missing — must reject the whole hierarchy
  // instead of smoothing with the wrong operator.
  const MgGrid fine{8, 8, 3};
  const CsrMatrix a = PoissonHex(fine, 0.25);
  EXPECT_FALSE(MultigridHierarchy::Build(a, fine).empty());

  const std::int32_t row = 4 + 9 * (4 + 9 * 1);  // an interior node
  const std::size_t k = static_cast<std::size_t>(a.row_ptr()[row]) + 3;
  for (const bool drop : {false, true}) {
    std::vector<std::int32_t> row_ptr = a.row_ptr();
    std::vector<std::int32_t> cols = a.col_idx();
    std::vector<double> vals = a.values();
    if (drop) {
      cols.erase(cols.begin() + static_cast<std::ptrdiff_t>(k));
      vals.erase(vals.begin() + static_cast<std::ptrdiff_t>(k));
      for (std::size_t r = static_cast<std::size_t>(row) + 1;
           r < row_ptr.size(); ++r) {
        --row_ptr[r];
      }
    } else {
      vals[k] = std::nextafter(vals[k], 1.0);
    }
    const CsrMatrix bad(a.Dim(), std::move(row_ptr), std::move(cols),
                        std::move(vals));
    const MultigridHierarchy h = MultigridHierarchy::Build(bad, fine);
    EXPECT_TRUE(h.empty()) << (drop ? "dropped column" : "perturbed value");
    EXPECT_EQ(h.NumLevels(), 0);
    EXPECT_EQ(h.Dim(), 0);
  }
}

TEST(Multigrid, CoarsestGridSolvesExactly) {
  // A grid already at the coarsest size is one level: the V-cycle is the
  // dense Cholesky solve, and CG converges in one iteration.
  const PoissonMg p = BuildPoissonHierarchy(2, 1, 3);
  ASSERT_EQ(p.mg->NumLevels(), 1);
  EXPECT_TRUE(p.mg->CoarseDirect());
  std::vector<double> truth(static_cast<std::size_t>(p.mg->Dim()));
  util::Rng rng(31);
  for (auto& v : truth) v = rng.NextDouble(-1.0, 1.0);
  std::vector<double> b, x;
  p.a.Multiply(truth, &b);
  p.mg->VCycle(b, &x);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(x[i], truth[i], 1e-9);
  }
  x.clear();
  EXPECT_EQ(SolveMgPcg(p, b, &x).iters, 1);
}

}  // namespace
}  // namespace p3d::linalg
