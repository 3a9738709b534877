// Tradeoff explorer: sweeps the interlayer-via coefficient alpha_ILV and
// prints the wirelength / via-count tradeoff curve (the per-circuit view of
// the paper's Figure 3), then sweeps the thermal coefficient alpha_TEMP at a
// fixed alpha_ILV and prints the temperature / wirelength / power response
// (the per-circuit view of Figure 9).
//
// Both sweeps run through serve::RunSweep on a concurrent JobEngine: grid
// points place in parallel on the worker pool while the printed curves stay
// byte-identical to the old serial loop (per-job seeds and the grid order
// are pure functions of the sweep spec). The thermal sweep additionally
// shares one FEA assembly + multigrid hierarchy across all its jobs via the
// engine's FeaAssemblyCache.
//
//   ./tradeoff_explorer [num_cells] [num_layers] [workers]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "io/synthetic.h"
#include "serve/batch.h"
#include "serve/job_engine.h"
#include "util/log.h"

int main(int argc, char** argv) {
  const int num_cells = argc > 1 ? std::atoi(argv[1]) : 1500;
  const int num_layers = argc > 2 ? std::atoi(argv[2]) : 4;
  const int workers = argc > 3 ? std::atoi(argv[3]) : 4;
  p3d::util::SetLogLevel(p3d::util::LogLevel::kWarn);

  p3d::io::SyntheticSpec spec;
  spec.name = "explorer";
  spec.num_cells = num_cells;
  spec.total_area_m2 = num_cells * 4.9e-12;
  spec.seed = 7;
  const p3d::netlist::Netlist nl = p3d::io::Generate(spec);
  std::printf("# circuit: %d cells, %d nets, %d layers (%d workers)\n",
              nl.NumCells(), nl.NumNets(), num_layers, workers);

  p3d::serve::JobEngineOptions engine_opts;
  engine_opts.num_workers = workers;
  p3d::serve::JobEngine engine(engine_opts);

  p3d::serve::SweepSpec base;
  base.netlist = &nl;
  base.circuit = spec.name;
  base.base.num_layers = num_layers;

  std::printf("\n# --- alpha_ILV sweep (alpha_TEMP = 0): WL vs ILV ---\n");
  std::printf("%-12s %-12s %-10s %-14s %s\n", "alpha_ilv", "hpwl_m", "ilv",
              "ilv_density", "runtime_s");
  {
    p3d::serve::SweepSpec sweep = base;
    sweep.base.alpha_temp = 0.0;
    sweep.alpha_ilv = {5e-9, 8e-8, 1.3e-6, 1e-5, 8.2e-5, 6.6e-4, 5.2e-3};
    sweep.options.with_fea = false;
    const auto points = p3d::serve::RunSweep(engine, sweep);
    if (!points.ok()) {
      std::fprintf(stderr, "%s\n", points.status().ToString().c_str());
      return 1;
    }
    for (const p3d::serve::SweepPoint& p : *points) {
      if (!p.result->status.ok()) {
        std::fprintf(stderr, "%s: %s\n", p.name.c_str(),
                     p.result->status.ToString().c_str());
        return 1;
      }
      const auto& r = p.result->placement;
      std::printf("%-12.3g %-12.5g %-10lld %-14.4g %.2f\n", p.alpha_ilv,
                  r.hpwl_m, r.ilv_count, r.ilv_density, r.t_total);
    }
  }

  std::printf("\n# --- alpha_TEMP sweep (alpha_ILV = 1e-5): temp response ---\n");
  std::printf("%-12s %-12s %-10s %-12s %-10s %s\n", "alpha_temp", "hpwl_m",
              "ilv", "power_w", "avg_temp", "max_temp");
  {
    p3d::serve::SweepSpec sweep = base;
    sweep.base.alpha_ilv = 1e-5;
    sweep.alpha_temp = {0.0, 1e-7, 1e-6, 4.1e-5, 6.6e-4};
    sweep.options.with_fea = true;
    const auto points = p3d::serve::RunSweep(engine, sweep);
    if (!points.ok()) {
      std::fprintf(stderr, "%s\n", points.status().ToString().c_str());
      return 1;
    }
    for (const p3d::serve::SweepPoint& p : *points) {
      if (!p.result->status.ok()) {
        std::fprintf(stderr, "%s: %s\n", p.name.c_str(),
                     p.result->status.ToString().c_str());
        return 1;
      }
      const auto& r = p.result->placement;
      std::printf("%-12.3g %-12.5g %-10lld %-12.5g %-10.3f %.3f\n",
                  p.alpha_temp, r.hpwl_m, r.ilv_count, r.total_power_w,
                  r.avg_temp_c, r.max_temp_c);
    }
  }

  const auto stats = engine.GetStats();
  std::printf("\n# engine: %lld jobs, fea cache %lld hits / %lld misses\n",
              stats.completed, stats.fea_cache.hits, stats.fea_cache.misses);
  return 0;
}
