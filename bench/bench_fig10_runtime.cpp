// Figure 10 — Runtime analysis of the placement method.
//
// Part 1 places every benchmark circuit with and without thermal
// optimization and prints runtime vs cell count, plus the power-law fit
// t = a * n^b. Expected shape (paper Figure 10): nearly linear scaling (the
// paper fits t = 2e-4 * n^1.19); thermal placement costs a modest constant
// factor.
//
// Part 2 measures the solver reuse layer on the phase-boundary solve
// sequence: a PhaseObserver captures the placement at every phase boundary
// of one run, and the harness evaluates FEA on each captured placement twice
// — with one-shot solves (fresh assembly + Jacobi preconditioner + cold
// start per solve, the pre-cache behavior) and through one FeaContext
// (assembly + the run's default preconditioner, the multigrid hierarchy,
// built once, CG warm-started), both at the same CG tolerance. The same
// circuit is also placed with per-pass FEA on: FEA must never steer, so
// the run exits non-zero if the two placements differ by a byte. The
// cumulative FEA solve-time ratio is the row the CI regression gate watches
// (scripts/check_bench_regression.py, baseline in bench/baselines/).
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "thermal/fea.h"
#include "thermal/power.h"
#include "util/stats.h"
#include "util/timer.h"

namespace {

using p3d::place::Placement;

/// Records the placement at every phase boundary of a run.
class PlacementCapture : public p3d::place::PhaseObserver {
 public:
  void OnPhase(const char*, int, const p3d::place::ObjectiveEvaluator& eval,
               const p3d::place::GlobalPlaceStats*) override {
    placements.push_back(eval.placement());
  }
  std::vector<Placement> placements;
};

/// Cumulative-FEA-time comparison on one circuit; returns false if per-pass
/// FEA changed the placement bytes.
bool SolverCacheSection(p3d::bench::BenchSetup& setup) {
  const auto spec = p3d::bench::Ibm01();
  const p3d::netlist::Netlist nl = p3d::io::Generate(spec);
  p3d::place::PlacerParams params = p3d::bench::BaseParams();
  params.alpha_temp = 5e-6;
  params.SyncStack();

  p3d::place::Placer3D placer = *p3d::place::Placer3D::Create(nl, params);
  PlacementCapture capture;
  placer.AddPhaseObserver(&capture);
  const p3d::place::PlacementResult r_final = *placer.Run({.with_fea = true});
  params.fea_per_pass = true;
  p3d::place::Placer3D per_pass = *p3d::place::Placer3D::Create(nl, params);
  const p3d::place::PlacementResult r_pass = *per_pass.Run({.with_fea = true});
  const bool identical = r_final.placement.x == r_pass.placement.x &&
                         r_final.placement.y == r_pass.placement.y &&
                         r_final.placement.layer == r_pass.placement.layer;

  const p3d::thermal::ChipExtent chip{placer.chip().width(),
                                      placer.chip().height()};
  // The one-shot baseline solves with Jacobi, the cached context with the
  // run default, multigrid; both at the run's mesh and CG tolerance.
  const p3d::thermal::FeaOptions jacobi = p3d::place::FeaOptionsFor(
      params, {.preconditioner = p3d::linalg::PreconditionerKind::kJacobi});
  p3d::thermal::FeaContext ctx(params.stack, chip,
                               {.fea = p3d::place::FeaOptionsFor(params, {})});
  double oneshot_s = 0.0;
  long long oneshot_iters = 0;
  for (const Placement& p : capture.placements) {
    const p3d::thermal::NetMetrics metrics =
        p3d::thermal::ComputeNetMetrics(nl, p.x, p.y, p.layer);
    const std::vector<double> power =
        p3d::thermal::ComputePower(nl, metrics, params.electrical).cell_power;
    const p3d::util::Timer t;
    const p3d::thermal::FeaSolver solver(params.stack, chip, jacobi);
    oneshot_iters += solver.Solve(p.x, p.y, p.layer, power).cg_iters;
    oneshot_s += t.Seconds();
    ctx.Solve(p.x, p.y, p.layer, power);
  }
  const p3d::thermal::FeaContext::Stats& cached = ctx.stats();
  const long long solves = static_cast<long long>(capture.placements.size());
  const double speedup =
      cached.solve_seconds > 0.0 ? oneshot_s / cached.solve_seconds : 0.0;

  std::printf("\n# solver cache (%s, %d cells, %lld phase-boundary solves)\n",
              spec.name.c_str(), nl.NumCells(), solves);
  std::printf("#   one-shot : %.3fs fea, %lld cg iters\n", oneshot_s,
              oneshot_iters);
  std::printf("#   cached   : %.3fs fea, %lld cg iters\n",
              cached.solve_seconds, cached.iters_total);
  std::printf("#   speedup  : %.2fx   placements %s with per-pass FEA\n",
              speedup, identical ? "byte-identical" : "DIFFER (BUG)");
  setup.Row({{"circuit", spec.name},
             {"fea_solves", solves},
             {"fea_oneshot_s", oneshot_s},
             {"fea_oneshot_iters", oneshot_iters},
             {"fea_cached_s", cached.solve_seconds},
             {"fea_cached_iters", cached.iters_total},
             {"fea_speedup", speedup},
             {"placements_identical", identical}});
  return identical;
}

}  // namespace

int main() {
  p3d::bench::BenchSetup setup("fig10_runtime",
                               "Figure 10: runtime vs number of cells");

  std::printf("%-8s %-10s %-14s %-14s\n", "circuit", "cells", "regular_s",
              "thermal_s");
  std::vector<double> cells, t_reg, t_therm;
  for (const auto& spec : p3d::bench::Circuits()) {
    const p3d::netlist::Netlist nl = p3d::io::Generate(spec);

    p3d::place::PlacerParams regular = p3d::bench::BaseParams();
    const auto rr = p3d::bench::RunPlacer(nl, regular, false);

    p3d::place::PlacerParams thermal = p3d::bench::BaseParams();
    thermal.alpha_temp = 5e-6;
    const auto rt = p3d::bench::RunPlacer(nl, thermal, false);

    std::printf("%-8s %-10d %-14.2f %-14.2f\n", spec.name.c_str(),
                nl.NumCells(), rr.t_total, rt.t_total);
    setup.Row({{"circuit", spec.name},
               {"cells", nl.NumCells()},
               {"regular_s", rr.t_total},
               {"thermal_s", rt.t_total}});
    std::fflush(stdout);
    cells.push_back(nl.NumCells());
    t_reg.push_back(std::max(rr.t_total, 1e-3));
    t_therm.push_back(std::max(rt.t_total, 1e-3));
  }

  const auto fit_r = p3d::util::FitPowerLaw(cells, t_reg);
  const auto fit_t = p3d::util::FitPowerLaw(cells, t_therm);
  std::printf("\n# fit regular: t = %.3g * n^%.2f   thermal: t = %.3g * n^%.2f"
              "   (paper: t = 2e-4 * n^1.19)\n",
              fit_r.a, fit_r.b, fit_t.a, fit_t.b);
  setup.Row({{"fit_regular_a", fit_r.a},
             {"fit_regular_b", fit_r.b},
             {"fit_thermal_a", fit_t.a},
             {"fit_thermal_b", fit_t.b}});

  if (!SolverCacheSection(setup)) {
    std::fprintf(stderr, "FAIL: per-pass FEA changed the placement bytes\n");
    return 1;
  }
  return 0;
}
