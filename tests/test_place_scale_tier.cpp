// Scale-tier coverage (io::ScaleTierSpecs): the fixed lite/scale1/mega
// presets that back bench_fullflow_scaling. The full-size acceptance runs
// live in that bench; here the contract is
//   * the presets themselves (sizes, ibm18 area density, pad-free RNG
//     stream),
//   * generation determinism of the CI-sized "lite" preset at full size, and
//   * full-flow 1-vs-2-thread byte-identity under a paranoid audit on a
//     proportionally shrunk lite circuit (the flow itself is exercised at
//     full preset size by the bench, not per-commit here).
#include <gtest/gtest.h>

#include <cmath>

#include "check/audit.h"
#include "io/synthetic.h"
#include "place/placer.h"
#include "util/log.h"

namespace p3d {
namespace {

TEST(ScaleTier, PresetsMatchContract) {
  const std::vector<io::SyntheticSpec> specs = io::ScaleTierSpecs();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "lite");
  EXPECT_EQ(specs[0].num_cells, 100000);
  EXPECT_EQ(specs[1].name, "scale1");
  EXPECT_EQ(specs[1].num_cells, 210323);  // ibm18, Table 1
  EXPECT_EQ(specs[2].name, "mega");
  EXPECT_EQ(specs[2].num_cells, 1000000);
  const double ibm18_density = 0.988e-6 / 210323.0;
  for (const io::SyntheticSpec& spec : specs) {
    // Same area per cell across the tier (comparable row geometry).
    EXPECT_NEAR(spec.total_area_m2 / spec.num_cells, ibm18_density,
                ibm18_density * 1e-12)
        << spec.name;
    // num_pads = 0 keeps the generator RNG stream a pure function of the
    // core spec (pads are appended after the core draw).
    EXPECT_EQ(spec.num_pads, 0) << spec.name;
  }
  // scale1 is the ibm18 operating point.
  EXPECT_NEAR(specs[1].total_area_m2, 0.988e-6, 1e-18);
  EXPECT_EQ(io::ScaleTierSpec("mega").num_cells, 1000000);
  EXPECT_THROW(io::ScaleTierSpec("nope"), std::invalid_argument);
}

TEST(ScaleTier, LiteGenerationIsDeterministic) {
  // The full 100k-cell preset, generated twice: identical structure down to
  // every cell footprint and pin. Generation is cheap even at preset size;
  // only placement needs shrinking for CI.
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const io::SyntheticSpec spec = io::ScaleTierSpec("lite");
  const netlist::Netlist a = io::Generate(spec);
  const netlist::Netlist b = io::Generate(spec);
  ASSERT_EQ(a.NumCells(), spec.num_cells);
  ASSERT_EQ(a.NumCells(), b.NumCells());
  ASSERT_EQ(a.NumNets(), b.NumNets());
  ASSERT_EQ(a.NumPins(), b.NumPins());
  EXPECT_EQ(a.NumMovableCells(), a.NumCells());  // pad-free
  EXPECT_NEAR(a.MovableArea(), spec.total_area_m2,
              spec.total_area_m2 * 1e-9);
  for (std::int32_t c = 0; c < a.NumCells(); ++c) {
    ASSERT_EQ(a.CellWidth(c), b.CellWidth(c)) << "cell " << c;
    ASSERT_EQ(a.CellHeight(c), b.CellHeight(c)) << "cell " << c;
  }
  for (std::int32_t p = 0; p < a.NumPins(); ++p) {
    ASSERT_EQ(a.PinCell(p), b.PinCell(p)) << "pin " << p;
    ASSERT_EQ(a.PinNet(p), b.PinNet(p)) << "pin " << p;
  }
  for (std::int32_t n = 0; n < a.NumNets(); ++n) {
    ASSERT_EQ(a.net(n).activity, b.net(n).activity) << "net " << n;
  }
}

TEST(ScaleTier, LiteFullFlowByteIdenticalAcrossThreadsUnderAudit) {
  // The lite preset shrunk 25x (same seed, same area density): the full flow
  // at 1 vs 2 threads must agree to the byte, and the 2-thread run carries a
  // paranoid auditor replaying every commit.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  io::SyntheticSpec spec = io::ScaleTierSpec("lite");
  spec.num_cells /= 25;
  spec.total_area_m2 /= 25.0;
  const netlist::Netlist nl = io::Generate(spec);

  place::PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.partition_starts = 2;
  params.seed = 1801;
  params.threads = 1;
  place::Placer3D p1 = *place::Placer3D::Create(nl, params);
  const place::PlacementResult r1 = *p1.Run({.with_fea = false});
  EXPECT_TRUE(r1.legal);

  params.threads = 2;
  place::Placer3D p2 = *place::Placer3D::Create(nl, params);
  check::PlacementAuditor auditor(nl, check::AuditLevel::kParanoid);
  auditor.Attach(&p2);
  const place::PlacementResult r2 = *p2.Run({.with_fea = false});
  EXPECT_TRUE(auditor.ok()) << auditor.report().Summary();
  EXPECT_GT(auditor.report().replayed_ops, 0u);
  EXPECT_EQ(r1.placement.x, r2.placement.x);
  EXPECT_EQ(r1.placement.y, r2.placement.y);
  EXPECT_EQ(r1.placement.layer, r2.placement.layer);
  EXPECT_EQ(r1.objective, r2.objective);
}

}  // namespace
}  // namespace p3d
