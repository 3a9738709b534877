// Figure 3 — Tradeoff between wirelength and interlayer via count.
//
// For every benchmark circuit, sweeps alpha_ILV with alpha_TEMP = 0 on a
// 4-layer stack and prints one (wirelength, ILV density per interlayer)
// point per coefficient — the full tradeoff curves of the paper's Figure 3.
// Expected shape: each curve is monotone (via density falls as wirelength
// rises), and larger circuits sit up-right of smaller ones.
#include "bench_common.h"

int main() {
  p3d::bench::BenchSetup setup(
      "fig3_tradeoff_curves",
      "Figure 3: WL vs interlayer-via-density tradeoff curves, ibm01-ibm18");
  const auto sweep = p3d::bench::IlvSweep();

  std::printf("%-8s %-12s %-12s %-14s %-10s\n", "circuit", "alpha_ilv",
              "hpwl_m", "ilv_density", "ilv");
  for (const auto& spec : p3d::bench::Circuits()) {
    const p3d::netlist::Netlist nl = p3d::io::Generate(spec);
    for (const double alpha : sweep) {
      p3d::place::PlacerParams params = p3d::bench::BaseParams();
      params.alpha_ilv = alpha;
      const auto r = p3d::bench::RunPlacer(nl, params, /*with_fea=*/false);
      std::printf("%-8s %-12.3g %-12.5g %-14.4g %-10lld\n", spec.name.c_str(),
                  alpha, r.hpwl_m, r.ilv_density, r.ilv_count);
      setup.Row({{"circuit", spec.name},
                 {"alpha_ilv", alpha},
                 {"hpwl_m", r.hpwl_m},
                 {"ilv_density", r.ilv_density},
                 {"ilv", r.ilv_count}});
      std::fflush(stdout);
    }
  }
  return 0;
}
