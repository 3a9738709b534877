// The determinism contract of the solver reuse layer (DESIGN.md §8):
// reuse (one FEA assembly per run or shared across runs, CG warm starts) is
// allowed to change how fast answers arrive, never which placement comes
// out. Placements must be byte-identical with per-pass FEA on vs. off, at
// any thread count, and for any CG preconditioner; each run owns its
// FeaContext and reports its own solves, and the reuse itself is visible as
// fea/ and solver/ metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "io/synthetic.h"
#include "linalg/multigrid.h"
#include "obs/metrics.h"
#include "place/instrument.h"
#include "place/monitor.h"
#include "place/placer.h"
#include "thermal/fea.h"
#include "thermal/power.h"
#include "util/log.h"

namespace p3d {
namespace {

netlist::Netlist Circuit(int cells, std::uint64_t seed) {
  io::SyntheticSpec spec;
  spec.name = "cache";
  spec.num_cells = cells;
  spec.total_area_m2 = cells * 4.9e-12;
  spec.seed = seed;
  return io::Generate(spec);
}

place::PlacerParams ThermalParams() {
  place::PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 5e-6;  // exercise the thermal objective path
  params.partition_starts = 4;
  params.seed = 20260806;
  return params;
}

/// Drops metric lines keyed under cg/, solver/, and fea/ — the solver
/// accounting legitimately differs with per-pass FEA on vs. off; everything
/// else (flow counters, audit counters, objective series) must not.
std::string FilterSolverMetrics(const std::string& dump) {
  std::istringstream in(dump);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("cg/") != std::string::npos) continue;
    if (line.find("solver/") != std::string::npos) continue;
    if (line.find("fea/") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

struct RunOutput {
  place::PlacementResult result;
  std::string metrics_dump;
  std::string filtered_dump;
};

RunOutput RunWith(const netlist::Netlist& nl, const place::PlacerParams& params,
                  const place::RunOptions& opts) {
  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  place::Placer3D placer = *place::Placer3D::Create(nl, params);
  RunOutput out{.result = *placer.Run(opts)};
  obs::InstallMetrics(nullptr);
  out.metrics_dump = registry.DumpDeterministic();
  out.filtered_dump = FilterSolverMetrics(out.metrics_dump);
  return out;
}

void ExpectSamePlacement(const place::PlacementResult& a,
                         const place::PlacementResult& b) {
  EXPECT_EQ(a.placement.x, b.placement.x);
  EXPECT_EQ(a.placement.y, b.placement.y);
  EXPECT_EQ(a.placement.layer, b.placement.layer);
  EXPECT_EQ(a.hpwl_m, b.hpwl_m);
  EXPECT_EQ(a.ilv_count, b.ilv_count);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.legal, b.legal);
}

TEST(SolverCache, PlacementByteIdenticalFeaPerPassOnVsOff) {
  // FEA never steers: re-solving thermal after every legalization pass must
  // leave the placement, its quality metrics and every flow counter alone.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(300, 21);
  place::PlacerParams params = ThermalParams();

  params.fea_per_pass = true;
  const RunOutput per_pass = RunWith(nl, params, {.with_fea = true});
  params.fea_per_pass = false;
  const RunOutput final_only = RunWith(nl, params, {.with_fea = true});

  ExpectSamePlacement(per_pass.result, final_only.result);
  EXPECT_GT(per_pass.result.fea_solves, final_only.result.fea_solves);
  EXPECT_EQ(final_only.result.fea_solves, 1);
  // The per-pass run's final solve is warm-started, so the CG iterates (and
  // the last bits of the temperatures) may differ; the answers agree to
  // solver tolerance.
  EXPECT_NEAR(per_pass.result.avg_temp_c, final_only.result.avg_temp_c, 1e-4);
  EXPECT_NEAR(per_pass.result.max_temp_c, final_only.result.max_temp_c, 1e-4);
  EXPECT_EQ(per_pass.filtered_dump, final_only.filtered_dump);
  EXPECT_FALSE(per_pass.filtered_dump.empty());
}

TEST(SolverCache, ReportSolveMatchesFreshContextBitForBit) {
  // A run without per-pass FEA solves once, cold, through its own context
  // with the default (multigrid) options. Its temperatures, per cell too,
  // are bit for bit the solve of a fresh context built from those options
  // over the final placement.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(200, 28);
  place::PlacerParams params = ThermalParams();
  params.SyncStack();
  place::Placer3D placer = *place::Placer3D::Create(nl, params);
  const place::PlacementResult r = *placer.Run({.with_fea = true});
  ASSERT_TRUE(r.fea_valid);
  EXPECT_EQ(r.fea_solves, 1);
  ASSERT_EQ(r.cell_temp_c.size(), static_cast<std::size_t>(nl.NumCells()));

  const thermal::NetMetrics metrics = thermal::ComputeNetMetrics(
      nl, r.placement.x, r.placement.y, r.placement.layer);
  const thermal::PowerReport power =
      thermal::ComputePower(nl, metrics, params.electrical);
  thermal::FeaContext fresh(
      params.stack,
      thermal::ChipExtent{placer.chip().width(), placer.chip().height()},
      {.fea = place::FeaOptionsFor(params, {})});
  EXPECT_EQ(fresh.preconditioner().kind(),
            linalg::PreconditionerKind::kMultigrid);
  const thermal::FeaResult want = fresh.Solve(
      r.placement.x, r.placement.y, r.placement.layer, power.cell_power);
  EXPECT_EQ(r.cell_temp_c, want.cell_temp);
  EXPECT_EQ(r.avg_temp_c, want.avg_cell_temp);
  EXPECT_EQ(r.max_temp_c, want.max_cell_temp);
  EXPECT_EQ(r.fea_cg_iters, want.cg_iters);
}

TEST(SolverCache, RunReportNamesThePreconditionerThatRan) {
  // The report names the preconditioner the assembly actually built: the
  // multigrid default, on an odd mesh too, and Jacobi on request. A run
  // without FEA names none.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(150, 30);
  const auto report_of = [&](const place::PlacerParams& params,
                             const place::RunOptions& opts) {
    place::Placer3D placer = *place::Placer3D::Create(nl, params);
    const place::PlacementResult r = *placer.Run(opts);
    return place::BuildRunReport(nl, params, r, {}, nullptr).ToJson();
  };
  place::PlacerParams params = ThermalParams();
  params.fea_per_pass = true;

  const obs::JsonValue even = report_of(params, {.with_fea = true});
  ASSERT_NE(even.Find("params")->Find("fea_precond"), nullptr);
  EXPECT_EQ(even.Find("params")->Find("fea_precond")->AsString(), "multigrid");
  const obs::JsonValue& qor = *even.Find("qor");
  EXPECT_GT(qor.Find("fea_solves")->AsNumber(), 1.0);
  EXPECT_GT(qor.Find("fea_cg_iters")->AsNumber(), 0.0);

  params.fea_nx = 25;
  const obs::JsonValue odd = report_of(params, {.with_fea = true});
  ASSERT_NE(odd.Find("params")->Find("fea_precond"), nullptr);
  EXPECT_EQ(odd.Find("params")->Find("fea_precond")->AsString(), "multigrid");
  const obs::JsonValue jacobi = report_of(
      params, {.with_fea = true,
               .preconditioner = linalg::PreconditionerKind::kJacobi});
  EXPECT_EQ(jacobi.Find("params")->Find("fea_precond")->AsString(), "jacobi");

  params.fea_per_pass = false;
  const obs::JsonValue none = report_of(params, {.with_fea = false});
  EXPECT_EQ(none.Find("params")->Find("fea_precond"), nullptr);
  EXPECT_EQ(none.Find("qor")->Find("fea_solves")->AsNumber(), 0.0);
}

TEST(SolverCache, SharedAssemblyRunsReportOwnSolves) {
  // Two runs adopting one assembly each own their context: each reports
  // only its own solves, no warm-start field crosses from one run to the
  // next, and both place and solve exactly like a run that assembles its
  // own.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(150, 29);
  place::PlacerParams params = ThermalParams();
  params.fea_per_pass = true;
  params.SyncStack();
  place::Placer3D first = *place::Placer3D::Create(nl, params);
  const place::Chip& chip = first.chip();
  const auto assembly = std::make_shared<const thermal::FeaAssembly>(
      params.stack, thermal::ChipExtent{chip.width(), chip.height()},
      place::FeaOptionsFor(params, {}));

  const place::RunOptions shared{.with_fea = true, .fea_assembly = assembly};
  const place::PlacementResult r1 = *first.Run(shared);
  place::Placer3D second = *place::Placer3D::Create(nl, params);
  const place::PlacementResult r2 = *second.Run(shared);
  const RunOutput own = RunWith(nl, params, {.with_fea = true});

  EXPECT_GT(own.result.fea_solves, 1);
  for (const place::PlacementResult* r : {&r1, &r2}) {
    ExpectSamePlacement(*r, own.result);
    EXPECT_EQ(r->fea_solves, own.result.fea_solves);
    EXPECT_EQ(r->fea_cg_iters, own.result.fea_cg_iters);
    EXPECT_EQ(r->max_temp_c, own.result.max_temp_c);
    EXPECT_EQ(r->cell_temp_c, own.result.cell_temp_c);
  }
  EXPECT_EQ(assembly.use_count(), 2);  // `shared` and this test's copy
}

TEST(SolverCache, RunRejectsAssemblyBuiltForAnotherGeometry) {
  // An assembly for another layer count, chip extent or mesh cannot back
  // the run's context: Run returns kInvalidArgument and solves nothing.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(100, 31);
  place::PlacerParams params = ThermalParams();
  params.SyncStack();
  place::Placer3D placer = *place::Placer3D::Create(nl, params);
  const thermal::ChipExtent extent{placer.chip().width(),
                                   placer.chip().height()};
  const thermal::FeaOptions fea = place::FeaOptionsFor(params, {});
  thermal::ThermalStack fewer_layers = params.stack;
  fewer_layers.num_layers = 2;
  thermal::FeaOptions coarser = fea;
  coarser.nx = 12;
  const std::shared_ptr<const thermal::FeaAssembly> mismatched[] = {
      std::make_shared<const thermal::FeaAssembly>(fewer_layers, extent, fea),
      std::make_shared<const thermal::FeaAssembly>(
          params.stack, thermal::ChipExtent{2 * extent.width, extent.height},
          fea),
      std::make_shared<const thermal::FeaAssembly>(params.stack, extent,
                                                   coarser),
  };
  for (const auto& assembly : mismatched) {
    obs::MetricsRegistry registry;
    obs::InstallMetrics(&registry);
    const util::StatusOr<place::PlacementResult> r =
        placer.Run({.with_fea = true, .fea_assembly = assembly});
    obs::InstallMetrics(nullptr);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument)
        << r.status().ToString();
    EXPECT_EQ(registry.Counter("fea/solves"), 0);
    EXPECT_EQ(registry.Counter("placer/rounds"), 0);
  }
  EXPECT_TRUE(placer
                  .Run({.with_fea = true,
                        .fea_assembly =
                            std::make_shared<const thermal::FeaAssembly>(
                                params.stack, extent, fea)})
                  .ok());
}

TEST(SolverCache, PlacementByteIdenticalThreads1Vs4WithCache) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(300, 22);
  place::PlacerParams params = ThermalParams();
  params.fea_per_pass = true;

  params.threads = 1;
  const RunOutput r1 = RunWith(nl, params, {.with_fea = true});
  params.threads = 4;
  const RunOutput r4 = RunWith(nl, params, {.with_fea = true});

  ExpectSamePlacement(r1.result, r4.result);
  // The deterministic runtime makes CG bit-identical across thread counts,
  // so even the solver counters (iterations, warm-start savings) agree and
  // the full dumps compare equal.
  EXPECT_EQ(r1.result.avg_temp_c, r4.result.avg_temp_c);
  EXPECT_EQ(r1.result.max_temp_c, r4.result.max_temp_c);
  EXPECT_EQ(r1.result.fea_cg_iters, r4.result.fea_cg_iters);
  EXPECT_EQ(r1.metrics_dump, r4.metrics_dump);
}

TEST(SolverCache, PreconditionerChoiceDoesNotAffectPlacement) {
  // FEA is observational — it never feeds back into move decisions — so
  // switching the CG preconditioner must leave the placement untouched.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(250, 23);
  const place::PlacerParams params = ThermalParams();

  const RunOutput mg = RunWith(
      nl, params,
      {.with_fea = true,
       .preconditioner = linalg::PreconditionerKind::kMultigrid});
  const RunOutput jacobi =
      RunWith(nl, params,
              {.with_fea = true,
               .preconditioner = linalg::PreconditionerKind::kJacobi});

  ExpectSamePlacement(mg.result, jacobi.result);
  ASSERT_TRUE(mg.result.fea_valid);
  ASSERT_TRUE(jacobi.result.fea_valid);
  EXPECT_NEAR(mg.result.avg_temp_c, jacobi.result.avg_temp_c, 1e-4);
  // Multigrid is the one doing less work.
  EXPECT_LT(mg.result.fea_cg_iters, jacobi.result.fea_cg_iters);
}

TEST(SolverCache, ReuseIsVisibleInSolverMetrics) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(200, 24);
  place::PlacerParams params = ThermalParams();
  params.fea_per_pass = true;

  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  place::Placer3D placer = *place::Placer3D::Create(nl, params);
  const place::PlacementResult r = *placer.Run({.with_fea = true});
  obs::InstallMetrics(nullptr);

  ASSERT_TRUE(r.fea_valid);
  EXPECT_GT(r.fea_solves, 1);
  // One assembly, many solves: every solve after the first is
  // warm-started.
  EXPECT_EQ(registry.Counter("fea/solves"), r.fea_solves);
  EXPECT_EQ(registry.Counter("solver/warm_starts"), r.fea_solves - 1);
  EXPECT_GT(registry.Counter("solver/netbox_rescan_evals"), 0);
}

TEST(SolverCache, FeaContextWarmStartConvergesWithEveryPreconditioner) {
  // FeaContext on a thermal fixture: one assembly, warm-started re-solves.
  // Multigrid rides the same contract as Jacobi — here as the CG
  // preconditioner (the 10-elem lateral grid coarsens 10 -> 5 -> 3 -> 2).
  thermal::ThermalStack stack;
  stack.num_layers = 3;
  const thermal::ChipExtent chip{1e-3, 1e-3};

  for (const linalg::PreconditionerKind kind :
       {linalg::PreconditionerKind::kJacobi,
        linalg::PreconditionerKind::kMultigrid}) {
    thermal::FeaContextOptions opt;
    opt.fea.nx = 10;
    opt.fea.ny = 10;
    opt.fea.bulk_elems = 3;
    opt.fea.cg.preconditioner = kind;
    thermal::FeaContext ctx(stack, chip, opt);

    std::vector<double> x{0.3e-3, 0.7e-3}, y{0.4e-3, 0.6e-3};
    std::vector<int> layer{0, 2};
    std::vector<double> power{0.05, 0.08};

    const thermal::FeaResult cold = ctx.Solve(x, y, layer, power);
    ASSERT_TRUE(cold.converged);
    EXPECT_GT(cold.avg_cell_temp, 0.0);

    // Slightly perturbed load: the warm start should not cost more
    // iterations than the cold solve, and the answer must still converge.
    power[0] = 0.06;
    const thermal::FeaResult warm = ctx.Solve(x, y, layer, power);
    ASSERT_TRUE(warm.converged);
    EXPECT_LE(warm.cg_iters, cold.cg_iters);

    EXPECT_EQ(ctx.stats().solves, 2);
    EXPECT_EQ(ctx.stats().warm_starts, 1);
  }
}

TEST(SolverCache, NonConvergedSolveDoesNotPoisonWarmStart) {
  // Regression: FeaContext::Solve used to save the truncated iterate as the
  // warm-start seed even when the solve hit its iteration cap, so the next
  // solve silently continued from garbage. A failed solve must leave the
  // warm-start state empty (and be counted).
  thermal::ThermalStack stack;
  stack.num_layers = 2;
  const thermal::ChipExtent chip{1e-3, 1e-3};
  thermal::FeaContextOptions opt;
  opt.fea.nx = 12;
  opt.fea.ny = 12;
  opt.fea.bulk_elems = 3;
  opt.fea.cg.max_iters = 1;  // force every solve to hit the cap

  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  thermal::FeaContext ctx(stack, chip, opt);
  const std::vector<double> x{0.3e-3}, y{0.4e-3}, power{0.05};
  const std::vector<int> layer{1};

  const thermal::FeaResult r1 = ctx.Solve(x, y, layer, power);
  EXPECT_FALSE(r1.converged);
  const thermal::FeaResult r2 = ctx.Solve(x, y, layer, power);
  EXPECT_FALSE(r2.converged);
  obs::InstallMetrics(nullptr);

  // No warm start was recorded, so the two truncated solves both started
  // cold from zeros and are bit-identical.
  EXPECT_EQ(ctx.stats().warm_starts, 0);
  EXPECT_EQ(r1.node_temp, r2.node_temp);
  EXPECT_EQ(r1.cg_iters, r2.cg_iters);
  // Both failures are visible: per-context stats and the metrics counter
  // the anomaly monitor watches.
  EXPECT_EQ(ctx.stats().nonconverged, 2);
  EXPECT_EQ(registry.Counter("fea/nonconverged"), 2);
}

TEST(SolverCache, AnomalyMonitorFlagsFeaNonconvergence) {
  // The monitor reads the fea/nonconverged counter delta at every phase
  // boundary; any capped solve since the previous boundary flags an anomaly.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(100, 27);
  const place::PlacerParams params = ThermalParams();
  place::Placer3D placer = *place::Placer3D::Create(nl, params);
  place::AnomalyMonitor monitor;

  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  monitor.OnPhase("global", -1, placer.evaluator(), nullptr);
  EXPECT_TRUE(monitor.anomalies().empty());
  obs::MetricAdd("fea/nonconverged", 1);  // what a capped solve records
  monitor.OnPhase("coarse", 0, placer.evaluator(), nullptr);
  obs::InstallMetrics(nullptr);

  ASSERT_EQ(monitor.anomalies().size(), 1u);
  EXPECT_EQ(monitor.anomalies()[0].kind, "fea_nonconverged");
  EXPECT_EQ(monitor.anomalies()[0].phase, "coarse");
  EXPECT_EQ(monitor.anomalies()[0].detail, 1.0);
  EXPECT_EQ(registry.Counter("anomaly/fea_nonconverged"), 1);
}

TEST(SolverCache, MultigridMatchesJacobiReference) {
  // Same FEA system: multigrid-preconditioned CG at the 1e-8 default
  // tolerance must report the temperatures of a Jacobi-CG solve at 1e-12.
  thermal::ThermalStack stack;
  stack.num_layers = 4;
  const thermal::ChipExtent chip{1e-3, 1e-3};
  thermal::FeaContextOptions base;
  base.fea.nx = 24;  // coarsens 24 -> 12 -> 6 -> 3 -> 2
  base.fea.ny = 24;
  base.fea.bulk_elems = 4;

  const std::vector<double> x{0.3e-3, 0.7e-3, 0.5e-3};
  const std::vector<double> y{0.4e-3, 0.6e-3, 0.5e-3};
  const std::vector<int> layer{0, 2, 3};
  const std::vector<double> power{0.05, 0.08, 0.03};

  thermal::FeaContextOptions jacobi = base;
  jacobi.fea.cg = {.max_iters = 50000,
                   .rel_tolerance = 1e-12,
                   .preconditioner = linalg::PreconditionerKind::kJacobi};
  thermal::FeaContext ctx_jacobi(stack, chip, jacobi);
  const thermal::FeaResult want = ctx_jacobi.Solve(x, y, layer, power);
  ASSERT_TRUE(want.converged);

  thermal::FeaContextOptions mgpc = base;
  mgpc.fea.cg.preconditioner = linalg::PreconditionerKind::kMultigrid;
  thermal::FeaContext ctx_mgpc(stack, chip, mgpc);
  ASSERT_NE(ctx_mgpc.assembly()->hierarchy, nullptr);
  EXPECT_EQ(ctx_mgpc.assembly()->hierarchy->NumLevels(), 5);
  const thermal::FeaResult precond = ctx_mgpc.Solve(x, y, layer, power);
  ASSERT_TRUE(precond.converged);
  EXPECT_LE(precond.cg_iters, 15);

  EXPECT_NEAR(precond.avg_cell_temp, want.avg_cell_temp,
              std::abs(want.avg_cell_temp) * 1e-6);
  EXPECT_NEAR(precond.max_cell_temp, want.max_cell_temp,
              std::abs(want.max_cell_temp) * 1e-6);
}

TEST(SolverCache, MultigridFallsBackOnNonStencilMatrix) {
  // The hierarchy stores each level as lateral stencil rows. A stiffness
  // matrix with one row off its stencil yields no hierarchy, and the FEA
  // preconditioner degrades to Jacobi, with a warning.
  thermal::ThermalStack stack;
  stack.num_layers = 2;
  const thermal::ChipExtent chip{1e-3, 1e-3};
  thermal::FeaOptions opt;
  opt.nx = 8;
  opt.ny = 8;
  opt.bulk_elems = 2;
  opt.cg.preconditioner = linalg::PreconditionerKind::kMultigrid;
  const thermal::FeaSolver fine(stack, chip, opt);
  const linalg::MgGrid grid = fine.Grid();
  const linalg::CsrMatrix& a = fine.matrix();
  EXPECT_EQ(thermal::FeaPreconditioner(opt.cg.preconditioner, a, grid).kind(),
            linalg::PreconditionerKind::kMultigrid);

  std::vector<double> vals = a.values();
  const int interior_node = 4 + 9 * (4 + 9 * 3);  // (4, 4) on plane 3
  vals[static_cast<std::size_t>(a.row_ptr()[interior_node])] *= 1.0 + 1e-12;
  const linalg::CsrMatrix bad(a.Dim(), a.row_ptr(), a.col_idx(), vals);
  EXPECT_TRUE(linalg::MultigridHierarchy::Build(bad, grid).empty());
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const linalg::CgPreconditioner precond =
      thermal::FeaPreconditioner(opt.cg.preconditioner, bad, grid);
  EXPECT_EQ(precond.kind(), linalg::PreconditionerKind::kJacobi);
  EXPECT_EQ(precond.hierarchy(), nullptr);
  std::vector<double> b(static_cast<std::size_t>(a.Dim()), 1e-3), x;
  EXPECT_TRUE(
      linalg::SolveCgPreconditioned(bad, precond, b, &x, opt.cg).converged);
}

TEST(SolverCache, RefreshRebuildsMultigridHierarchy) {
  // A context's assembly carries the Galerkin hierarchy its multigrid
  // preconditioner runs on, with the fine level sized to the mesh.
  thermal::ThermalStack stack;
  stack.num_layers = 2;
  const thermal::ChipExtent chip{1e-3, 1e-3};
  thermal::FeaContextOptions opt;
  opt.fea.nx = 12;  // coarsens 12 -> 6 -> 3 -> 2
  opt.fea.ny = 12;
  opt.fea.bulk_elems = 3;
  opt.fea.cg.preconditioner = linalg::PreconditionerKind::kMultigrid;
  thermal::FeaContext ctx(stack, chip, opt);

  const auto h = ctx.assembly()->hierarchy;
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->NumLevels(), 4);
  EXPECT_EQ(h->Dim(), ctx.solver().NumNodes());
  const std::vector<double> x{0.3e-3}, y{0.4e-3}, power{0.05};
  ASSERT_TRUE(ctx.Solve(x, y, {1}, power).converged);
}

TEST(SolverCache, MultigridPerPassByteIdenticalThreads1Vs8) {
  // Per-pass thermal through multigrid-preconditioned CG: placements stay
  // byte-identical at any thread count, and so does every deterministic
  // counter (CG iterations included).
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(300, 26);
  place::PlacerParams params = ThermalParams();
  params.fea_per_pass = true;

  params.threads = 1;
  const RunOutput r1 = RunWith(
      nl, params,
      {.with_fea = true,
       .preconditioner = linalg::PreconditionerKind::kMultigrid});
  params.threads = 8;
  const RunOutput r8 = RunWith(
      nl, params,
      {.with_fea = true,
       .preconditioner = linalg::PreconditionerKind::kMultigrid});

  ExpectSamePlacement(r1.result, r8.result);
  EXPECT_EQ(r1.result.avg_temp_c, r8.result.avg_temp_c);
  EXPECT_EQ(r1.result.max_temp_c, r8.result.max_temp_c);
  EXPECT_EQ(r1.result.fea_cg_iters, r8.result.fea_cg_iters);
  EXPECT_EQ(r1.result.fea_nonconverged, 0);
  EXPECT_EQ(r1.metrics_dump, r8.metrics_dump);
  // The per-pass hooks actually fired.
  EXPECT_NE(r1.metrics_dump.find("fea/pass_solves"), std::string::npos);
  EXPECT_GT(r1.result.fea_solves, 2);
}

}  // namespace
}  // namespace p3d
