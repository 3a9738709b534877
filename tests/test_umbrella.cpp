// Compile-level test: the umbrella header is self-contained and the headline
// API is reachable through it alone.
#include "placer3d.h"

#include <gtest/gtest.h>

TEST(Umbrella, EndToEnd) {
  p3d::util::ScopedLogLevel quiet(p3d::util::LogLevel::kWarn);
  p3d::io::SyntheticSpec spec;
  spec.name = "umbrella";
  spec.num_cells = 150;
  spec.total_area_m2 = 150 * 4.9e-12;
  spec.seed = 99;
  const p3d::netlist::Netlist nl = p3d::io::Generate(spec);
  p3d::place::PlacerParams params;
  params.num_layers = 2;
  p3d::place::Placer3D placer = *p3d::place::Placer3D::Create(nl, params);
  const p3d::place::PlacementResult r = *placer.Run({.with_fea = false});
  EXPECT_TRUE(r.legal);
}
