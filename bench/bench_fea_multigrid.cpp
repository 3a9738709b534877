// Cumulative FEA cost of per-pass thermal: the cached multigrid path vs
// the one-shot solve sequence it replaces.
//
// Models the per-pass thermal loop the multigrid work enables: K
// power/position perturbation steps (placement-like drift, deterministic
// LCG), each evaluated by two solver setups at the same relative
// tolerance:
//
//   oneshot — FeaSolver::Solve per step: fresh Jacobi preconditioner and a
//             cold start every call. This is what evaluating thermal every
//             legalization pass would have cost before the FeaContext +
//             multigrid work, and the baseline the headline speedup is
//             measured against.
//   mg_pcg  — FeaContext (cached assembly, warm starts), CG preconditioned
//             by multigrid V-cycles.
//
// Reports cumulative FEA seconds and iteration counts per setup plus the
// headline fea_mg_speedup = oneshot / mg_pcg, and verifies that the two
// setups — different preconditioners, cold vs warm starts — report the
// same max/avg cell temperatures step by step, exiting non-zero on
// disagreement, so the CI bench-smoke lane gates correctness along with
// the fea_mg_speedup regression check (bench/baselines/fea_multigrid.json).
//
// Tier: scale1-equivalent mesh (96x96 lateral, 4 tiers) by default;
// REPRO_FAST drops to 48x48 and fewer steps for the smoke lane.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "linalg/cg.h"
#include "thermal/fea.h"
#include "thermal/stack.h"

namespace {

using p3d::thermal::ChipExtent;
using p3d::thermal::FeaContext;
using p3d::thermal::FeaContextOptions;
using p3d::thermal::FeaResult;
using p3d::thermal::FeaSolver;
using p3d::thermal::ThermalStack;

// Deterministic LCG (same constants as the synthetic netlist generator).
std::uint64_t Next(std::uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state >> 33;
}

double Uniform(std::uint64_t* state) {
  return static_cast<double>(Next(state) & 0xffffff) / 16777216.0;
}

struct Workload {
  std::vector<double> x, y, power;
  std::vector<int> layer;

  /// Placement-like drift: the same base layout every step, positions and
  /// powers nudged a few percent by a step-seeded stream — so consecutive
  /// solves resemble consecutive legalization passes and every solver setup
  /// sees identical inputs.
  static Workload Step(int cells, int layers, const ChipExtent& chip,
                       int step) {
    Workload w;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    std::uint64_t drift = 1234567ULL + static_cast<std::uint64_t>(step);
    w.x.reserve(static_cast<std::size_t>(cells));
    w.y.reserve(static_cast<std::size_t>(cells));
    w.layer.reserve(static_cast<std::size_t>(cells));
    w.power.reserve(static_cast<std::size_t>(cells));
    for (int c = 0; c < cells; ++c) {
      const double bx = Uniform(&rng) * chip.width;
      const double by = Uniform(&rng) * chip.height;
      const double jx = (Uniform(&drift) - 0.5) * 0.04 * chip.width;
      const double jy = (Uniform(&drift) - 0.5) * 0.04 * chip.height;
      w.x.push_back(std::min(chip.width, std::max(0.0, bx + jx)));
      w.y.push_back(std::min(chip.height, std::max(0.0, by + jy)));
      w.layer.push_back(static_cast<int>(Next(&rng)) % layers);
      const double base = 0.4e-3 + 1.2e-3 * Uniform(&rng);
      w.power.push_back(base * (0.9 + 0.2 * Uniform(&drift)));
    }
    return w;
  }
};

struct SetupRun {
  const char* name;
  double seconds = 0.0;
  long long iters = 0;
  long long warm_starts = 0;
  long long nonconverged = 0;
  std::vector<double> max_temp;  // per step
  std::vector<double> avg_temp;
};

SetupRun RunContext(const char* name, const FeaContextOptions& opt,
                    const ThermalStack& stack, const ChipExtent& chip,
                    int cells, int steps) {
  SetupRun run;
  run.name = name;
  FeaContext ctx(stack, chip, opt);
  for (int s = 0; s < steps; ++s) {
    const Workload w = Workload::Step(cells, stack.num_layers, chip, s);
    const FeaResult r = ctx.Solve(w.x, w.y, w.layer, w.power);
    run.max_temp.push_back(r.max_cell_temp);
    run.avg_temp.push_back(r.avg_cell_temp);
  }
  run.seconds = ctx.stats().solve_seconds;
  run.iters = ctx.stats().iters_total;
  run.warm_starts = ctx.stats().warm_starts;
  run.nonconverged = ctx.stats().nonconverged;
  return run;
}

SetupRun RunOneshot(const FeaContextOptions& opt, const ThermalStack& stack,
                    const ChipExtent& chip, int cells, int steps) {
  SetupRun run;
  run.name = "oneshot";
  const FeaSolver solver(stack, chip, opt.fea);
  for (int s = 0; s < steps; ++s) {
    const Workload w = Workload::Step(cells, stack.num_layers, chip, s);
    const auto t0 = std::chrono::steady_clock::now();
    const FeaResult r = solver.Solve(w.x, w.y, w.layer, w.power);
    run.seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    run.iters += r.cg_iters;
    if (!r.converged) ++run.nonconverged;
    run.max_temp.push_back(r.max_cell_temp);
    run.avg_temp.push_back(r.avg_cell_temp);
  }
  return run;
}

/// Step-wise temperature agreement of two setups: 1e-3 deg C absolute or
/// 1e-4 relative to `ref`, whichever is larger (all solves run to the same
/// 1e-8 relative residual, so real disagreement means a solver bug, not
/// roundoff).
bool Agrees(const SetupRun& ref, const SetupRun& got) {
  if (ref.max_temp.size() != got.max_temp.size()) return false;
  for (std::size_t s = 0; s < ref.max_temp.size(); ++s) {
    const double tol_max = std::max(1e-3, 1e-4 * std::abs(ref.max_temp[s]));
    const double tol_avg = std::max(1e-3, 1e-4 * std::abs(ref.avg_temp[s]));
    if (std::abs(ref.max_temp[s] - got.max_temp[s]) > tol_max) return false;
    if (std::abs(ref.avg_temp[s] - got.avg_temp[s]) > tol_avg) return false;
  }
  return true;
}

}  // namespace

int main() {
  p3d::bench::BenchSetup setup("fea_multigrid",
                               "Per-pass FEA cost: multigrid vs one-shot");
  const bool fast = p3d::bench::Fast();

  ThermalStack stack;
  stack.num_layers = 4;
  const ChipExtent chip{1e-2, 1e-2};  // 1 cm^2 die (scale1 tier)

  FeaContextOptions base;
  base.fea.nx = fast ? 48 : 96;
  base.fea.ny = base.fea.nx;
  base.fea.cg.rel_tolerance = 1e-8;
  const int cells = fast ? 8000 : 20000;
  const int steps = fast ? 6 : 12;

  FeaContextOptions mg_pcg = base;
  mg_pcg.fea.cg.preconditioner = p3d::linalg::PreconditionerKind::kMultigrid;

  std::printf("# mesh %dx%d, %d tiers, %d cells, %d steps, tol %.0e\n",
              base.fea.nx, base.fea.ny, stack.num_layers, cells, steps,
              base.fea.cg.rel_tolerance);
  std::printf("%-10s %10s %8s %6s %8s %10s\n", "setup", "fea_sec", "iters",
              "warm", "noncvg", "max_temp");

  const SetupRun runs[] = {
      RunOneshot(base, stack, chip, cells, steps),
      RunContext("mg_pcg", mg_pcg, stack, chip, cells, steps),
  };
  for (const SetupRun& r : runs) {
    std::printf("%-10s %10.3f %8lld %6lld %8lld %10.3f\n", r.name, r.seconds,
                r.iters, r.warm_starts, r.nonconverged, r.max_temp.back());
    setup.Row({{"setup", r.name},
               {"fea_seconds", r.seconds},
               {"iters_total", r.iters},
               {"warm_starts", r.warm_starts},
               {"nonconverged", r.nonconverged},
               {"max_temp_last", r.max_temp.back()},
               {"avg_temp_last", r.avg_temp.back()}});
  }

  const SetupRun& oneshot = runs[0];
  const SetupRun& pcg = runs[1];
  const bool temps_agree = Agrees(oneshot, pcg);
  const bool all_converged = oneshot.nonconverged == 0 && pcg.nonconverged == 0;
  const double speedup =
      pcg.seconds > 0.0 ? oneshot.seconds / pcg.seconds : 0.0;

  std::printf("fea_mg_speedup: %.2fx  temps_agree: %s\n", speedup,
              temps_agree ? "yes" : "NO");
  setup.Row({{"fea_mg_speedup", speedup},
             {"mg_pcg_iters_per_solve",
              static_cast<double>(pcg.iters) / steps},
             {"oneshot_iters_per_solve",
              static_cast<double>(oneshot.iters) / steps},
             {"temps_agree", temps_agree},
             {"all_converged", all_converged}});
  setup.recorder.Flush();

  if (!temps_agree || !all_converged) {
    std::fprintf(stderr, "bench_fea_multigrid: FAIL: %s\n",
                 !temps_agree
                     ? "multigrid and one-shot temperatures disagree"
                     : "solver(s) hit the iteration cap");
    return 1;
  }
  return 0;
}
