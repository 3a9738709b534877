// Quickstart: generate a small 3D circuit, place it on 4 layers with both
// interlayer-via and thermal awareness, and print the quality metrics.
//
//   ./quickstart [num_cells]
#include <cstdio>
#include <cstdlib>

#include "io/synthetic.h"
#include "place/placer.h"
#include "util/log.h"

int main(int argc, char** argv) {
  const int num_cells = argc > 1 ? std::atoi(argv[1]) : 2000;

  // 1. A workload: synthetic circuit with IBM-PLACE-like statistics.
  p3d::io::SyntheticSpec spec;
  spec.name = "quickstart";
  spec.num_cells = num_cells;
  spec.total_area_m2 = num_cells * 4.9e-12;  // ~ibm01 average cell area
  spec.seed = 42;
  const p3d::netlist::Netlist nl = p3d::io::Generate(spec);
  std::printf("circuit: %d cells, %d nets, %d pins\n", nl.NumCells(),
              nl.NumNets(), nl.NumPins());

  // 2. Placer configuration: Table 2 defaults, thermal optimization on.
  p3d::place::PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;   // vias cost ~one average cell pitch of wire
  params.alpha_temp = 1e-5;  // moderate thermal pressure

  // 3. Run the full flow: global -> coarse -> detailed legalization.
  p3d::util::StatusOr<p3d::place::Placer3D> placer =
      p3d::place::Placer3D::Create(nl, params);
  if (!placer.ok()) {
    std::fprintf(stderr, "%s\n", placer.status().ToString().c_str());
    return 1;
  }
  const p3d::place::PlacementResult r = *placer->Run({.with_fea = true});

  // 4. Report.
  std::printf("\n=== placement result ===\n");
  std::printf("legal          : %s (%lld overlaps)\n", r.legal ? "yes" : "NO",
              r.overlaps);
  std::printf("wirelength     : %.4f m\n", r.hpwl_m);
  std::printf("interlayer vias: %lld (%.3g per m^2 per interlayer)\n",
              r.ilv_count, r.ilv_density);
  std::printf("total power    : %.4f W\n", r.total_power_w);
  std::printf("avg/max temp   : %.2f / %.2f C above ambient\n", r.avg_temp_c,
              r.max_temp_c);
  std::printf("objective      : %.6g\n", r.objective);
  std::printf("runtime        : %.2fs (global %.2fs, coarse %.2fs, "
              "detailed %.2fs)\n",
              r.t_total, r.t_global, r.t_coarse, r.t_detailed);
  return r.legal ? 0 : 1;
}
