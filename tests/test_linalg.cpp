#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/cg.h"
#include "linalg/csr.h"
#include "linalg/multigrid.h"
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


/// 2D Laplacian (5-point stencil) on an nx * ny grid: the same structure as
/// the FEA thermal matrices, where IC(0) is meant to earn its keep.
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

TEST(CgIc0, ConvergesAndBeatsJacobiOnLaplacian) {
  const CsrMatrix a = Laplacian2d(24, 24);
  std::vector<double> truth(static_cast<std::size_t>(a.Dim()), 0.0);
  util::Rng rng(7);
  for (auto& v : truth) v = rng.NextDouble(-1.0, 1.0);
  std::vector<double> b;
  a.Multiply(truth, &b);

  CgOptions opt;
  opt.rel_tolerance = 1e-10;
  std::vector<double> x_j;
  opt.preconditioner = PreconditionerKind::kJacobi;
  const CgResult rj = SolveCg(a, b, &x_j, opt);
  std::vector<double> x_ic;
  opt.preconditioner = PreconditionerKind::kIc0;
  const CgResult ric = SolveCg(a, b, &x_ic, opt);

  ASSERT_TRUE(rj.converged);
  ASSERT_TRUE(ric.converged);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(x_j[i], truth[i], 1e-6);
    EXPECT_NEAR(x_ic[i], truth[i], 1e-6);
  }
  // The point of IC(0): materially fewer iterations than Jacobi.
  EXPECT_LT(ric.iters, rj.iters);
}

TEST(CgIc0, CleanFactorNeedsNoShift) {
  const CsrMatrix a = Laplacian2d(8, 8);
  const CgPreconditioner p = CgPreconditioner::Build(a, PreconditionerKind::kIc0);
  EXPECT_EQ(p.kind(), PreconditionerKind::kIc0);
  EXPECT_FALSE(p.empty());
  EXPECT_DOUBLE_EQ(p.ic_shift(), 0.0);
}

TEST(CgIc0, PrebuiltPreconditionerReusesAcrossRhs) {
  const CsrMatrix a = Laplacian2d(16, 16);
  const CgPreconditioner p = CgPreconditioner::Build(a, PreconditionerKind::kIc0);
  util::Rng rng(11);
  CgOptions opt;
  opt.rel_tolerance = 1e-10;
  for (int rhs = 0; rhs < 3; ++rhs) {
    std::vector<double> truth(static_cast<std::size_t>(a.Dim()));
    for (auto& v : truth) v = rng.NextDouble(-5.0, 5.0);
    std::vector<double> b;
    a.Multiply(truth, &b);
    std::vector<double> x;
    const CgResult r = SolveCgPreconditioned(a, p, b, &x, opt);
    ASSERT_TRUE(r.converged) << "rhs " << rhs;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      EXPECT_NEAR(x[i], truth[i], 1e-6);
    }
  }
}

TEST(CgIc0, WarmStartFromSolutionExitsImmediately) {
  const CsrMatrix a = Laplacian2d(12, 12);
  std::vector<double> truth(static_cast<std::size_t>(a.Dim()), 1.0), b;
  a.Multiply(truth, &b);
  CgOptions opt;
  opt.preconditioner = PreconditionerKind::kIc0;
  std::vector<double> x;
  const CgResult cold = SolveCg(a, b, &x, opt);
  ASSERT_TRUE(cold.converged);
  EXPECT_GT(cold.iters, 0);
  // Seeding with the previous solution: the initial residual is already
  // below tolerance, so the solve must early-exit without iterating.
  const CgResult warm = SolveCg(a, b, &x, opt);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(warm.iters, 0);
}

TEST(CgIc0, MatchesJacobiBitwiseAcrossThreadCounts) {
  // The determinism contract: for a fixed preconditioner, the solution bytes
  // do not depend on the thread count.
  const CsrMatrix a = Laplacian2d(10, 14);
  std::vector<double> truth(static_cast<std::size_t>(a.Dim())), b;
  util::Rng rng(3);
  for (auto& v : truth) v = rng.NextDouble(-2.0, 2.0);
  a.Multiply(truth, &b);
  for (const PreconditionerKind kind :
       {PreconditionerKind::kJacobi, PreconditionerKind::kIc0}) {
    CgOptions opt;
    opt.preconditioner = kind;
    opt.threads = 1;
    std::vector<double> x1;
    const CgResult r1 = SolveCg(a, b, &x1, opt);
    opt.threads = 4;
    std::vector<double> x4;
    const CgResult r4 = SolveCg(a, b, &x4, opt);
    ASSERT_TRUE(r1.converged);
    EXPECT_EQ(r1.iters, r4.iters);
    for (std::size_t i = 0; i < x1.size(); ++i) {
      EXPECT_EQ(x1[i], x4[i]) << PreconditionerName(kind) << " row " << i;
    }
  }
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

/// `plan` is a CoarsenPlan or a prefix of one.
PoissonMg BuildPoissonHierarchy(const std::vector<MgGrid>& plan) {
  std::vector<CsrMatrix> mats;
  mats.reserve(plan.size());
  for (const MgGrid& g : plan) mats.push_back(PoissonHex(g, 0.25));
  PoissonMg p{mats.front(), nullptr};
  p.mg = std::make_shared<const MultigridHierarchy>(
      MultigridHierarchy::Build(std::move(mats), plan));
  return p;
}

PoissonMg BuildPoissonHierarchy(int nx, int ny, int nz_nodes) {
  return BuildPoissonHierarchy(
      MultigridHierarchy::CoarsenPlan({nx, ny, nz_nodes}));
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
  ASSERT_EQ(plan.size(), 4u);  // 24 -> 12 -> 6 -> 3 (odd: stop)
  EXPECT_EQ(plan[1].nx, 12);
  EXPECT_EQ(plan[3].nx, 3);
  EXPECT_EQ(plan[3].ny, 3);
  for (const auto& g : plan) EXPECT_EQ(g.nz_nodes, 12);
  // Odd lateral grids cannot be coarsened at all.
  EXPECT_EQ(MultigridHierarchy::CoarsenPlan({25, 24, 12}).size(), 1u);
  // Coarsening stops before a lateral dimension drops below 2 elements...
  EXPECT_EQ(MultigridHierarchy::CoarsenPlan({8, 4, 3}).size(), 2u);
  // ... and at 8 levels.
  const auto deep = MultigridHierarchy::CoarsenPlan({512, 512, 2});
  ASSERT_EQ(deep.size(), 8u);
  EXPECT_EQ(deep.back().nx, 4);
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
  // random vectors (equal pre/post weighted-Jacobi sweeps keep it so).
  const PoissonMg p = BuildPoissonHierarchy(8, 8, 3);
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
  EXPECT_NEAR(buv, ubv, 1e-10 * scale + 1e-14);
}

TEST(Multigrid, PreconditionedCgMatchesIc0AtEqualTolerance) {
  const PoissonMg p = BuildPoissonHierarchy(32, 32, 4);
  const CsrMatrix& a = p.a;
  util::Rng rng(5);
  std::vector<double> truth(static_cast<std::size_t>(a.Dim()));
  for (auto& v : truth) v = rng.NextDouble(-2.0, 2.0);
  std::vector<double> b;
  a.Multiply(truth, &b);

  CgOptions opt;
  opt.rel_tolerance = 1e-10;
  std::vector<double> x_ic;
  opt.preconditioner = PreconditionerKind::kIc0;
  const CgResult ric = SolveCg(a, b, &x_ic, opt);

  const CgPreconditioner pmg = CgPreconditioner::BuildMultigrid(p.mg);
  EXPECT_EQ(pmg.kind(), PreconditionerKind::kMultigrid);
  EXPECT_FALSE(pmg.empty());
  std::vector<double> x_mg;
  const CgResult rmg = SolveCgPreconditioned(a, pmg, b, &x_mg, opt);

  ASSERT_TRUE(ric.converged);
  ASSERT_TRUE(rmg.converged);
  EXPECT_LE(rmg.iters, ric.iters);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(x_mg[i], x_ic[i], 1e-7);
  }
}

TEST(Multigrid, DeterministicAcrossThreadCounts) {
  // 10x6 coarsens once (to 5x3) and has first, interior and last nodes on
  // both lateral axes, so every one of the nine boundary classes runs
  // through the smoother, the residual and the transfers.
  const PoissonMg p = BuildPoissonHierarchy(10, 6, 4);
  ASSERT_EQ(p.mg->NumLevels(), 2);
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
  const std::vector<MgGrid> plan = MultigridHierarchy::CoarsenPlan(fine);
  const auto levels = [&] {
    std::vector<CsrMatrix> mats;
    for (const MgGrid& g : plan) mats.push_back(PoissonHex(g, 0.25));
    return mats;
  };
  EXPECT_FALSE(MultigridHierarchy::Build(levels(), plan).empty());

  const CsrMatrix a = PoissonHex(fine, 0.25);
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
    std::vector<CsrMatrix> mats = levels();
    mats[0] = CsrMatrix(a.Dim(), std::move(row_ptr), std::move(cols),
                        std::move(vals));
    const MultigridHierarchy h =
        MultigridHierarchy::Build(std::move(mats), plan);
    EXPECT_TRUE(h.empty()) << (drop ? "dropped column" : "perturbed value");
    EXPECT_EQ(h.NumLevels(), 0);
    EXPECT_EQ(h.Dim(), 0);
  }
}

TEST(Multigrid, CoarseCgFallbackMatchesDirectSolve) {
  // The full plan of a 40x40 grid bottoms out at 5x5 (180 nodes, dense
  // Cholesky); its two-level prefix stops at 20x20, whose 2,205 nodes are
  // above the 1,024-node limit of the direct coarse solve.
  const std::vector<MgGrid> plan = MultigridHierarchy::CoarsenPlan({40, 40, 5});
  ASSERT_EQ(plan.size(), 4u);
  const PoissonMg direct = BuildPoissonHierarchy(plan);
  const PoissonMg iterative =
      BuildPoissonHierarchy({plan.begin(), plan.begin() + 2});
  EXPECT_TRUE(direct.mg->CoarseDirect());
  EXPECT_FALSE(iterative.mg->CoarseDirect());

  util::Rng rng(31);
  std::vector<double> truth(static_cast<std::size_t>(direct.mg->Dim()));
  for (auto& v : truth) v = rng.NextDouble(-1.0, 1.0);
  std::vector<double> b;
  direct.a.Multiply(truth, &b);
  std::vector<double> xd, xi;
  const CgResult rd = SolveMgPcg(direct, b, &xd);
  const CgResult ri = SolveMgPcg(iterative, b, &xi);
  ASSERT_TRUE(rd.converged);
  ASSERT_TRUE(ri.converged);
  for (std::size_t i = 0; i < xd.size(); ++i) EXPECT_NEAR(xd[i], xi[i], 1e-8);
}

TEST(Multigrid, BareMatrixBuildDegradesToIc0) {
  // Build(a, kMultigrid) has no grid information: it builds IC(0), the
  // preconditioner the FEA runs on a grid it cannot coarsen.
  const CsrMatrix a = Laplacian2d(8, 8);
  const CgPreconditioner p =
      CgPreconditioner::Build(a, PreconditionerKind::kMultigrid);
  EXPECT_EQ(p.kind(), PreconditionerKind::kIc0);
  EXPECT_FALSE(p.empty());
  std::vector<double> truth(static_cast<std::size_t>(a.Dim()), 1.0), b, x;
  a.Multiply(truth, &b);
  const CgResult r = SolveCgPreconditioned(a, p, b, &x, {.rel_tolerance = 1e-10});
  EXPECT_TRUE(r.converged);
  // Bit for bit the solve of an explicit IC(0) request, through SolveCg too.
  std::vector<double> want, got;
  const CgOptions ic0{.rel_tolerance = 1e-10,
                      .preconditioner = PreconditionerKind::kIc0};
  CgOptions mg = ic0;
  mg.preconditioner = PreconditionerKind::kMultigrid;
  const CgResult r_ic0 = SolveCg(a, b, &want, ic0);
  const CgResult r_mg = SolveCg(a, b, &got, mg);
  EXPECT_EQ(r_mg.iters, r_ic0.iters);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got, x);
}

}  // namespace
}  // namespace p3d::linalg
