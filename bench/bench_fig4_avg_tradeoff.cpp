// Figure 4 — Average wirelength vs ILV tradeoff for ibm01-ibm18.
//
// For each alpha_ILV, averages the interlayer-via density and the percent
// change of wirelength (relative to the min-wirelength end of the sweep)
// over all circuits. Reproduces the paper's headline: "Wirelength
// reductions within 2% of the maximum can be achieved using 46% fewer
// interlayer vias" — the harness computes the same statistic from its data.
#include <vector>

#include "bench_common.h"
#include "util/stats.h"

int main() {
  p3d::bench::BenchSetup setup("fig4_avg_tradeoff",
                               "Figure 4: average WL vs ILV tradeoff");
  const auto sweep = p3d::bench::IlvSweep();
  const auto circuits = p3d::bench::Circuits();

  // wl[c][k], density[c][k] over circuits c and sweep points k.
  std::vector<std::vector<double>> wl(circuits.size());
  std::vector<std::vector<double>> density(circuits.size());
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const p3d::netlist::Netlist nl = p3d::io::Generate(circuits[c]);
    for (const double alpha : sweep) {
      p3d::place::PlacerParams params = p3d::bench::BaseParams();
      params.alpha_ilv = alpha;
      const auto r = p3d::bench::RunPlacer(nl, params, false);
      wl[c].push_back(r.hpwl_m);
      density[c].push_back(r.ilv_density);
    }
  }

  std::printf("%-12s %-16s %-18s\n", "alpha_ilv", "avg_ilv_density",
              "avg_pct_wl_change");
  std::vector<double> avg_density(sweep.size(), 0.0);
  std::vector<double> avg_pct_wl(sweep.size(), 0.0);
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      // Percent change relative to the shortest wirelength this circuit
      // achieves anywhere in the sweep (the "maximum wirelength reduction").
      double wl_min = wl[c][0];
      for (const double v : wl[c]) wl_min = std::min(wl_min, v);
      avg_density[k] += density[c][k] / static_cast<double>(circuits.size());
      avg_pct_wl[k] += 100.0 * (wl[c][k] - wl_min) / wl_min /
                       static_cast<double>(circuits.size());
    }
    std::printf("%-12.3g %-16.4g %-18.2f\n", sweep[k], avg_density[k],
                avg_pct_wl[k]);
    setup.Row({{"alpha_ilv", sweep[k]},
               {"avg_ilv_density", avg_density[k]},
               {"avg_pct_wl_change", avg_pct_wl[k]}});
  }

  // Headline statistic: largest via saving while staying within 2% of the
  // maximum wirelength reduction.
  const double dens_max = avg_density[0];  // cheapest vias = most vias
  double best_saving = 0.0;
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    if (avg_pct_wl[k] <= 2.0) {
      best_saving =
          std::max(best_saving, 100.0 * (dens_max - avg_density[k]) / dens_max);
    }
  }
  std::printf("\n# headline: %.0f%% fewer interlayer vias within 2%% of the "
              "maximum wirelength reduction (paper: 46%%)\n",
              best_saving);
  setup.Row({{"headline_via_saving_pct", best_saving}});
  return 0;
}
