// Thermal-aware flow: places the same circuit twice — once as a regular
// wirelength/via-driven placement and once with the thermal machinery
// enabled (net weighting + thermal-resistance-reduction nets) — then
// compares FEA temperature fields, power, and the vertical distribution of
// power between the two. This is the paper's core claim in miniature:
// temperatures drop substantially for a small wirelength/via cost.
//
//   ./thermal_aware_flow [num_cells] [alpha_temp]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "io/synthetic.h"
#include "place/placer.h"
#include "thermal/power.h"
#include "util/log.h"

namespace {

struct Outcome {
  p3d::place::PlacementResult result;
  std::vector<double> layer_power;  // W per layer
};

Outcome RunOnce(const p3d::netlist::Netlist& nl, double alpha_temp,
                double scale) {
  p3d::place::PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = alpha_temp;
  p3d::place::CompensateWireCapForScale(&params, scale);
  p3d::place::Placer3D placer = *p3d::place::Placer3D::Create(nl, params);
  Outcome o;
  o.result = *placer.Run({.with_fea = true});
  const auto metrics = p3d::thermal::ComputeNetMetrics(
      nl, o.result.placement.x, o.result.placement.y, o.result.placement.layer);
  const auto power = p3d::thermal::ComputePower(nl, metrics, params.electrical);
  o.layer_power.assign(static_cast<std::size_t>(params.num_layers), 0.0);
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const int l = o.result.placement.layer[static_cast<std::size_t>(c)];
    o.layer_power[static_cast<std::size_t>(l)] +=
        power.cell_power[static_cast<std::size_t>(c)];
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const int num_cells = argc > 1 ? std::atoi(argv[1]) : 2000;
  const double alpha_temp = argc > 2 ? std::atof(argv[2]) : 5e-6;
  p3d::util::SetLogLevel(p3d::util::LogLevel::kWarn);

  const double scale = num_cells / 12282.0;  // relative to ibm01
  p3d::io::SyntheticSpec spec;
  spec.name = "thermal_demo";
  spec.num_cells = num_cells;
  spec.total_area_m2 = num_cells * 4.9e-12;
  spec.seed = 11;
  const p3d::netlist::Netlist nl = p3d::io::Generate(spec);
  std::printf("circuit: %d cells, %d nets; comparing alpha_temp = 0 vs %g\n\n",
              nl.NumCells(), nl.NumNets(), alpha_temp);

  const Outcome base = RunOnce(nl, 0.0, scale);
  const Outcome therm = RunOnce(nl, alpha_temp, scale);

  auto pct = [](double a, double b) { return b != 0.0 ? 100.0 * (a - b) / b : 0.0; };
  std::printf("%-22s %-14s %-14s %s\n", "metric", "regular", "thermal",
              "change");
  std::printf("%-22s %-14.5g %-14.5g %+.1f%%\n", "wirelength (m)",
              base.result.hpwl_m, therm.result.hpwl_m,
              pct(therm.result.hpwl_m, base.result.hpwl_m));
  std::printf("%-22s %-14lld %-14lld %+.1f%%\n", "interlayer vias",
              base.result.ilv_count, therm.result.ilv_count,
              pct(static_cast<double>(therm.result.ilv_count),
                  static_cast<double>(base.result.ilv_count)));
  std::printf("%-22s %-14.5g %-14.5g %+.1f%%\n", "total power (W)",
              base.result.total_power_w, therm.result.total_power_w,
              pct(therm.result.total_power_w, base.result.total_power_w));
  std::printf("%-22s %-14.3f %-14.3f %+.1f%%\n", "avg temperature (C)",
              base.result.avg_temp_c, therm.result.avg_temp_c,
              pct(therm.result.avg_temp_c, base.result.avg_temp_c));
  std::printf("%-22s %-14.3f %-14.3f %+.1f%%\n", "max temperature (C)",
              base.result.max_temp_c, therm.result.max_temp_c,
              pct(therm.result.max_temp_c, base.result.max_temp_c));

  std::printf("\npower by layer (W), layer 0 = nearest heat sink:\n");
  std::printf("%-8s %-14s %s\n", "layer", "regular", "thermal");
  for (std::size_t l = 0; l < base.layer_power.size(); ++l) {
    std::printf("%-8zu %-14.5g %.5g\n", l, base.layer_power[l],
                therm.layer_power[l]);
  }
  const bool cooler = therm.result.avg_temp_c < base.result.avg_temp_c;
  std::printf("\nthermal placement is %s (avg %+.1f%%)\n",
              cooler ? "COOLER" : "NOT cooler",
              pct(therm.result.avg_temp_c, base.result.avg_temp_c));
  return 0;
}
