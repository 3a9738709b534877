#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "linalg/multigrid.h"
#include "thermal/fea.h"
#include "util/log.h"

namespace p3d::thermal {
namespace {

ThermalStack Stack(int layers) {
  ThermalStack s;
  s.num_layers = layers;
  return s;
}

/// A uniform sheet of cells covering the die on one layer.
struct Sheet {
  std::vector<double> x, y, power;
  std::vector<int> layer;
};

Sheet UniformSheet(const ChipExtent& chip, int n, int layer, double total_w) {
  Sheet s;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      s.x.push_back((i + 0.5) * chip.width / n);
      s.y.push_back((j + 0.5) * chip.height / n);
      s.layer.push_back(layer);
      s.power.push_back(total_w / (n * n));
    }
  }
  return s;
}

TEST(Fea, MeshStructure) {
  const ChipExtent chip{1e-3, 1e-3};
  FeaOptions opt;
  opt.nx = 8;
  opt.ny = 8;
  opt.bulk_elems = 3;
  const FeaSolver fea(Stack(4), chip, opt);
  // z planes: 1 + bulk(3) + layers(4) + interlayers(3).
  EXPECT_EQ(fea.NumZPlanes(), 1 + 3 + 4 + 3);
  EXPECT_EQ(fea.NumNodes(), 9 * 9 * 11);
  // Device elements appear in ascending z order, one per tier.
  int prev = -1;
  for (int t = 0; t < 4; ++t) {
    EXPECT_GT(fea.DeviceElemZ(t), prev);
    prev = fea.DeviceElemZ(t);
  }
  // z planes ascend.
  const auto& z = fea.ZPlanes();
  for (std::size_t i = 1; i < z.size(); ++i) EXPECT_GT(z[i], z[i - 1]);
}

TEST(Fea, UniformLoadMatchesOneDimensionalAnalytic) {
  // With power spread uniformly over layer 0, heat flow is essentially 1D:
  // T(layer0) ~ P * (1/(h A) + t_bulk/(k_bulk A) + t_half_layer/(k_stack A)).
  const ChipExtent chip{1e-3, 1e-3};
  const ThermalStack s = Stack(2);
  const FeaSolver fea(s, chip, {.nx = 12, .ny = 12, .bulk_elems = 4});
  const double total_w = 0.1;
  const Sheet sheet = UniformSheet(chip, 10, 0, total_w);
  const FeaResult r = fea.Solve(sheet.x, sheet.y, sheet.layer, sheet.power);
  ASSERT_TRUE(r.converged);

  const double area = chip.width * chip.height;
  const double analytic =
      total_w * (1.0 / (s.h_sink * area) + s.bulk_thickness / (s.k_bulk * area) +
                 0.5 * s.layer_thickness / (s.k_stack * area));
  EXPECT_NEAR(r.avg_cell_temp, analytic, analytic * 0.1);
}

TEST(Fea, UniformLoadMatchesResistanceDownPath) {
  // The same 1-D slab limit, cross-checked against the straight-path
  // resistance model (resistance.h): with power spread uniformly over layer
  // 0 the heat flows straight down through the full die cross-section, so
  // the FEA average rise must match P * DownPath(0, die_area). The models
  // differ only by the half-layer conduction term the down path omits
  // (~5% here), which the tolerance absorbs.
  const ChipExtent chip{1e-3, 1e-3};
  const ThermalStack s = Stack(2);
  const FeaSolver fea(s, chip, {.nx = 12, .ny = 12, .bulk_elems = 4});
  const double total_w = 0.1;
  const Sheet sheet = UniformSheet(chip, 10, 0, total_w);
  const FeaResult r = fea.Solve(sheet.x, sheet.y, sheet.layer, sheet.power);
  ASSERT_TRUE(r.converged);

  const ResistanceModel model(s, chip);
  const double area = chip.width * chip.height;
  const double analytic = total_w * model.DownPath(0, area);
  EXPECT_NEAR(r.avg_cell_temp, analytic, analytic * 0.1);
}

TEST(Fea, SampleTempOutsideStackReturnsAmbient) {
  // Regression: ElementWeights clamped the vertical element index for any z,
  // so a z above the stack top (or below 0) silently extrapolated the top
  // (bottom) element's shape functions far outside [0, 1] instead of being
  // rejected like an out-of-range x or y. SampleTemp must report ambient
  // for such points.
  const ChipExtent chip{0.5e-3, 0.5e-3};
  const ThermalStack s = Stack(2);
  const FeaSolver fea(s, chip, {.nx = 6, .ny = 6, .bulk_elems = 2});
  // Heat the TOP layer so the field near the stack top is far from ambient
  // and an extrapolation there cannot masquerade as the right answer.
  const FeaResult r = fea.Solve({0.25e-3}, {0.25e-3}, {1}, {0.02});
  ASSERT_TRUE(r.converged);

  const double top = s.TotalHeight();
  const double in_range =
      fea.SampleTemp(r.node_temp, 0.25e-3, 0.25e-3, s.LayerCenterZ(1));
  EXPECT_GT(in_range, 0.0);
  // Just outside either face: ambient (0 C rise), not an extrapolation.
  EXPECT_DOUBLE_EQ(
      fea.SampleTemp(r.node_temp, 0.25e-3, 0.25e-3, top + s.LayerPitch()),
      s.ambient_c);
  EXPECT_DOUBLE_EQ(
      fea.SampleTemp(r.node_temp, 0.25e-3, 0.25e-3, -0.1 * s.bulk_thickness),
      s.ambient_c);
  // The boundary faces themselves are still inside the grid.
  EXPECT_GT(fea.SampleTemp(r.node_temp, 0.25e-3, 0.25e-3, top), 0.0);
  EXPECT_GE(fea.SampleTemp(r.node_temp, 0.25e-3, 0.25e-3, 0.0), 0.0);
}

TEST(Fea, LinearInPower) {
  const ChipExtent chip{1e-3, 1e-3};
  const FeaSolver fea(Stack(4), chip, {.nx = 8, .ny = 8, .bulk_elems = 3});
  const Sheet s1 = UniformSheet(chip, 6, 1, 0.05);
  Sheet s2 = s1;
  for (auto& p : s2.power) p *= 3.0;
  const FeaResult r1 = fea.Solve(s1.x, s1.y, s1.layer, s1.power);
  const FeaResult r2 = fea.Solve(s2.x, s2.y, s2.layer, s2.power);
  EXPECT_NEAR(r2.avg_cell_temp, 3.0 * r1.avg_cell_temp,
              std::abs(r1.avg_cell_temp) * 1e-3);
  EXPECT_NEAR(r2.max_cell_temp, 3.0 * r1.max_cell_temp,
              std::abs(r1.max_cell_temp) * 1e-3);
}

TEST(Fea, Superposition) {
  const ChipExtent chip{1e-3, 1e-3};
  const FeaSolver fea(Stack(2), chip, {.nx = 6, .ny = 6, .bulk_elems = 2});
  // Two point loads, solved separately and together.
  const std::vector<double> x = {0.25e-3, 0.75e-3};
  const std::vector<double> y = {0.25e-3, 0.75e-3};
  const std::vector<int> layer = {0, 1};
  const FeaResult both = fea.Solve(x, y, layer, {0.01, 0.02});
  const FeaResult only_a = fea.Solve(x, y, layer, {0.01, 0.0});
  const FeaResult only_b = fea.Solve(x, y, layer, {0.0, 0.02});
  for (std::size_t i = 0; i < both.node_temp.size(); ++i) {
    EXPECT_NEAR(both.node_temp[i],
                only_a.node_temp[i] + only_b.node_temp[i], 1e-6);
  }
}

TEST(Fea, HigherLayerRunsHotter) {
  const ChipExtent chip{0.5e-3, 0.5e-3};
  const int layers = 4;
  const FeaSolver fea(Stack(layers), chip, {.nx = 8, .ny = 8, .bulk_elems = 3});
  double prev = 0.0;
  for (int l = 0; l < layers; ++l) {
    const FeaResult r =
        fea.Solve({0.25e-3}, {0.25e-3}, {l}, {0.01});
    ASSERT_TRUE(r.converged);
    EXPECT_GT(r.max_cell_temp, prev) << "layer " << l;
    prev = r.max_cell_temp;
  }
}

TEST(Fea, LateralSymmetry) {
  const ChipExtent chip{1e-3, 1e-3};
  const FeaSolver fea(Stack(2), chip, {.nx = 8, .ny = 8, .bulk_elems = 2});
  const FeaResult r = fea.Solve({0.5e-3}, {0.5e-3}, {1}, {0.02});
  const double z = Stack(2).LayerCenterZ(1);
  const double left = fea.SampleTemp(r.node_temp, 0.25e-3, 0.5e-3, z);
  const double right = fea.SampleTemp(r.node_temp, 0.75e-3, 0.5e-3, z);
  const double up = fea.SampleTemp(r.node_temp, 0.5e-3, 0.75e-3, z);
  EXPECT_NEAR(left, right, std::abs(left) * 1e-6);
  EXPECT_NEAR(left, up, std::abs(left) * 1e-6);
}

TEST(Fea, TemperatureDecaysAwayFromHotspot) {
  const ChipExtent chip{1e-3, 1e-3};
  const FeaSolver fea(Stack(2), chip, {.nx = 10, .ny = 10, .bulk_elems = 3});
  const FeaResult r = fea.Solve({0.2e-3}, {0.2e-3}, {1}, {0.02});
  const double z = Stack(2).LayerCenterZ(1);
  const double near = fea.SampleTemp(r.node_temp, 0.2e-3, 0.2e-3, z);
  const double far = fea.SampleTemp(r.node_temp, 0.9e-3, 0.9e-3, z);
  EXPECT_GT(near, far);
  EXPECT_GT(far, 0.0);  // everything above ambient
}

TEST(Fea, ZeroPowerGivesAmbient) {
  const ChipExtent chip{0.5e-3, 0.5e-3};
  ThermalStack s = Stack(2);
  s.ambient_c = 25.0;
  const FeaSolver fea(s, chip, {.nx = 4, .ny = 4, .bulk_elems = 2});
  const FeaResult r = fea.Solve({0.1e-3}, {0.1e-3}, {0}, {0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.avg_cell_temp, 25.0);
  EXPECT_DOUBLE_EQ(r.max_cell_temp, 25.0);
}

TEST(Fea, CellsOutsideDieAreClamped) {
  const ChipExtent chip{0.5e-3, 0.5e-3};
  const FeaSolver fea(Stack(2), chip, {.nx = 4, .ny = 4, .bulk_elems = 2});
  // Off-die coordinates and out-of-range layer must not crash or vanish.
  const FeaResult r = fea.Solve({-1.0}, {9.0}, {7}, {0.01});
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.max_cell_temp, 0.0);
}

TEST(Fea, LayerTempCsvExport) {
  const ChipExtent chip{0.5e-3, 0.5e-3};
  const FeaSolver fea(Stack(2), chip, {.nx = 6, .ny = 4, .bulk_elems = 2});
  const FeaResult r = fea.Solve({0.25e-3}, {0.25e-3}, {1}, {0.01});
  const std::string path = ::testing::TempDir() + "p3d_fea_layer1.csv";
  ASSERT_TRUE(fea.WriteLayerTempCsv(path, r.node_temp, 1));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int rows = 0;
  int cols = 0;
  double max_val = -1e30;
  while (std::getline(in, line)) {
    ++rows;
    cols = 1;
    for (const char c : line) cols += c == ',' ? 1 : 0;
    std::stringstream ss(line);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      max_val = std::max(max_val, std::stod(tok));
    }
  }
  EXPECT_EQ(rows, 5);  // ny + 1
  EXPECT_EQ(cols, 7);  // nx + 1
  // The grid max should be close to the solved cell temperature.
  EXPECT_NEAR(max_val, r.max_cell_temp, r.max_cell_temp * 0.2);
}

TEST(Fea, LayerTempCsvBadPathFails) {
  const ChipExtent chip{0.5e-3, 0.5e-3};
  const FeaSolver fea(Stack(2), chip, {.nx = 4, .ny = 4, .bulk_elems = 2});
  const FeaResult r = fea.Solve({0.1e-3}, {0.1e-3}, {0}, {0.01});
  EXPECT_FALSE(fea.WriteLayerTempCsv("/no_such_dir_zz/x.csv", r.node_temp, 0));
}

class FeaMeshRefinement : public ::testing::TestWithParam<int> {};

TEST_P(FeaMeshRefinement, BulkFieldStableUnderRefinement) {
  // Cell temperatures are read back *at* point loads, whose local peak keeps
  // sharpening under refinement (the classic point-source divergence), so we
  // compare the field at probe positions away from the loads: a grid at
  // mid-bulk depth, where the solution is smooth.
  const int nx = GetParam();
  const ChipExtent chip{1e-3, 1e-3};
  const FeaSolver fea(Stack(2), chip,
                      {.nx = nx, .ny = nx, .bulk_elems = 4});
  const Sheet sheet = UniformSheet(chip, 8, 0, 0.05);
  const FeaResult r = fea.Solve(sheet.x, sheet.y, sheet.layer, sheet.power);
  ASSERT_TRUE(r.converged);
  const FeaSolver ref(Stack(2), chip, {.nx = 20, .ny = 20, .bulk_elems = 4});
  const FeaResult rr = ref.Solve(sheet.x, sheet.y, sheet.layer, sheet.power);
  const double z_probe = 250e-6;  // mid-bulk
  for (int i = 1; i < 5; ++i) {
    for (int j = 1; j < 5; ++j) {
      const double x = i * chip.width / 5;
      const double y = j * chip.height / 5;
      const double t = fea.SampleTemp(r.node_temp, x, y, z_probe);
      const double t_ref = ref.SampleTemp(rr.node_temp, x, y, z_probe);
      EXPECT_NEAR(t, t_ref, t_ref * 0.05) << x << "," << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Meshes, FeaMeshRefinement,
                         ::testing::Values(8, 12, 16, 24));

// --- FEA goldens ------------------------------------------------------------
// FNV-1a hashes of the assembled stiffness matrix and of one multigrid
// V-cycle, recorded on x86-64. Any change to the assembly order or the
// V-cycle's floating-point operation order moves a hash; a refactor that
// keeps both bit-identical keeps them all.

std::uint64_t Fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t Fnv1a(const std::vector<T>& v,
                    std::uint64_t h = 1469598103934665603ull) {
  return Fnv1a(v.data(), v.size() * sizeof(T), h);
}

FeaOptions GoldenOptions(int nx, int ny) {
  FeaOptions opt;
  opt.nx = nx;
  opt.ny = ny;
  opt.cg.preconditioner = linalg::PreconditionerKind::kMultigrid;
  return opt;
}

constexpr ChipExtent kGoldenChip{1.2e-3, 0.9e-3};

std::uint64_t MatrixHash(const linalg::CsrMatrix& a) {
  return Fnv1a(a.values(), Fnv1a(a.col_idx(), Fnv1a(a.row_ptr())));
}

TEST(FeaGolden, StiffnessMatrixHashes) {
  struct Case {
    int nx, ny;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {2, 2, 0xc69d1881750d6663ull},   {8, 6, 0x3992b774b341f459ull},
      {24, 24, 0xfe1f37336dffb788ull}, {25, 24, 0x8927187c1e53d75eull},
      {64, 64, 0x751751396c3c09d9ull},
  };
  for (const Case& c : cases) {
    const FeaSolver fea(Stack(4), kGoldenChip, GoldenOptions(c.nx, c.ny));
    EXPECT_EQ(MatrixHash(fea.matrix()), c.hash)
        << c.nx << "x" << c.ny << ": 0x" << std::hex
        << MatrixHash(fea.matrix());
  }
}

TEST(FeaGolden, VCycleHashes) {
  struct Case {
    int nx, ny;
    std::uint64_t hash;
  };
  const Case cases[] = {{8, 6, 0x0ba65e793b077e47ull},
                        {24, 24, 0x9816a657a9f85da1ull},
                        {64, 64, 0x674cbc95da1563ceull}};
  for (const Case& c : cases) {
    const FeaAssembly assembly(Stack(4), kGoldenChip,
                               GoldenOptions(c.nx, c.ny));
    ASSERT_NE(assembly.hierarchy, nullptr) << c.nx << "x" << c.ny;
    const std::size_t n = static_cast<std::size_t>(assembly.solver.NumNodes());
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = static_cast<double>((i * 2654435761u) % 1000u) / 1000.0 - 0.5;
    }
    std::vector<double> x(n, 0.0);
    assembly.hierarchy->VCycle(b, &x);
    EXPECT_EQ(Fnv1a(x), c.hash)
        << c.nx << "x" << c.ny << ": 0x" << std::hex << Fnv1a(x);
  }
}

/// `n` cells spread over the die and the 4 layers by a fixed LCG.
Sheet ScatteredCells(const ChipExtent& chip, int n) {
  Sheet s;
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (int i = 0; i < n; ++i) {
    s.x.push_back(next() * chip.width);
    s.y.push_back(next() * chip.height);
    s.layer.push_back(i % 4);
    s.power.push_back(1e-4 * (0.5 + next()));
  }
  return s;
}

TEST(FeaSelection, MultigridRequestRunsWhatTheGridAllows) {
  // A multigrid request on 4 layers runs V-cycles on every mesh, odd sizes
  // included, down to a coarsest level of at most 3x3 lateral nodes solved
  // by dense Cholesky. A cold solve takes a mesh-independent handful of
  // iterations and reports a tight Jacobi-CG solve's temperatures.
  const std::pair<int, int> meshes[] = {{9, 7},   {24, 24}, {25, 24}, {30, 30},
                                        {36, 36}, {50, 50}, {64, 64}};
  const ChipExtent chip{1e-3, 1e-3};
  const Sheet cells = ScatteredCells(chip, 400);
  for (const auto& [nx, ny] : meshes) {
    FeaContextOptions opt;
    opt.fea = GoldenOptions(nx, ny);
    FeaContext mg(Stack(4), chip, opt);
    EXPECT_EQ(mg.preconditioner().kind(),
              linalg::PreconditionerKind::kMultigrid)
        << nx << "x" << ny;
    const auto& h = mg.assembly()->hierarchy;
    ASSERT_NE(h, nullptr) << nx << "x" << ny;
    EXPECT_TRUE(h->CoarseDirect()) << nx << "x" << ny;
    const linalg::MgGrid& coarsest = h->Grid(h->NumLevels() - 1);
    EXPECT_LE(coarsest.nx, 2) << nx << "x" << ny;
    EXPECT_LE(coarsest.ny, 2) << nx << "x" << ny;

    FeaOptions reference = opt.fea;
    reference.cg = {.max_iters = 50000,
                    .rel_tolerance = 1e-12,
                    .preconditioner = linalg::PreconditionerKind::kJacobi};
    const FeaResult want = FeaSolver(Stack(4), chip, reference)
                               .Solve(cells.x, cells.y, cells.layer,
                                      cells.power);
    const FeaResult got = mg.Solve(cells.x, cells.y, cells.layer, cells.power);
    ASSERT_TRUE(got.converged) << nx << "x" << ny;
    ASSERT_TRUE(want.converged) << nx << "x" << ny;
    EXPECT_LE(got.cg_iters, 15) << nx << "x" << ny;
    ASSERT_EQ(got.cell_temp.size(), want.cell_temp.size());
    for (std::size_t i = 0; i < want.cell_temp.size(); ++i) {
      EXPECT_NEAR(got.cell_temp[i], want.cell_temp[i],
                  1e-6 * std::abs(want.cell_temp[i]))
          << nx << "x" << ny << " cell " << i;
    }
  }
}

TEST(FeaSelection, OneShotSolveRunsTheContextsPreconditioner) {
  // FeaSolver::Solve picks its preconditioner by the same rule as
  // FeaAssembly, so a one-shot solve is bit for bit a fresh context's cold
  // solve, for either request and on an odd mesh too.
  const ChipExtent chip{1e-3, 1e-3};
  const Sheet cells = ScatteredCells(chip, 200);
  for (const auto kind : {linalg::PreconditionerKind::kMultigrid,
                          linalg::PreconditionerKind::kJacobi}) {
    FeaContextOptions opt;
    opt.fea = GoldenOptions(15, 16);
    opt.fea.cg.preconditioner = kind;
    const FeaResult got = FeaSolver(Stack(4), chip, opt.fea)
                              .Solve(cells.x, cells.y, cells.layer,
                                     cells.power);
    FeaContext ctx(Stack(4), chip, opt);
    EXPECT_EQ(ctx.preconditioner().kind(), kind);
    const FeaResult want =
        ctx.Solve(cells.x, cells.y, cells.layer, cells.power);
    ASSERT_TRUE(want.converged) << linalg::PreconditionerName(kind);
    EXPECT_EQ(got.cg_iters, want.cg_iters) << linalg::PreconditionerName(kind);
    EXPECT_EQ(got.node_temp, want.node_temp);
    EXPECT_EQ(got.cell_temp, want.cell_temp);
  }
}

}  // namespace
}  // namespace p3d::thermal
