#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "io/synthetic.h"
#include "place/chip.h"
#include "place/placer.h"

namespace p3d::place {
namespace {

netlist::Netlist Circuit(int n = 500) {
  io::SyntheticSpec spec;
  spec.name = "chip";
  spec.num_cells = n;
  spec.total_area_m2 = n * 4.9e-12;
  spec.seed = 3;
  return io::Generate(spec);
}

TEST(Chip, CapacityCoversCellsWithWhitespace) {
  const netlist::Netlist nl = Circuit();
  for (const int layers : {1, 2, 4, 8}) {
    const Chip chip = *Chip::Build(nl, layers, 0.05, 0.25);
    const double capacity = chip.RowAreaPerLayer() * layers;
    EXPECT_GE(capacity, nl.MovableArea() / (1.0 - 0.05) * 0.999)
        << layers << " layers";
    // Upper bound: the whitespace target plus the documented minimum
    // per-row legalization slack (1.2x the widest cell), plus row
    // quantization margin.
    const double slack_floor = layers * chip.num_rows() * 1.2 *
                               nl.MaxCellWidth() * chip.row_height();
    EXPECT_LE(capacity,
              (nl.MovableArea() / (1.0 - 0.05) + slack_floor) * 1.1)
        << layers << " layers";
  }
}

TEST(Chip, RowGeometry) {
  const netlist::Netlist nl = Circuit();
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  EXPECT_DOUBLE_EQ(chip.row_height(), nl.AvgCellHeight());
  EXPECT_DOUBLE_EQ(chip.row_pitch(), nl.AvgCellHeight() * 1.25);
  EXPECT_NEAR(chip.RowFraction(), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(chip.height(), chip.num_rows() * chip.row_pitch());
  EXPECT_DOUBLE_EQ(chip.RowBottomY(0), 0.0);
  EXPECT_DOUBLE_EQ(chip.RowCenterY(1),
                   chip.row_pitch() + chip.row_height() / 2.0);
}

TEST(Chip, NearestRowClamped) {
  const netlist::Netlist nl = Circuit();
  const Chip chip = *Chip::Build(nl, 2, 0.05, 0.25);
  EXPECT_EQ(chip.NearestRow(-1.0), 0);
  EXPECT_EQ(chip.NearestRow(chip.height() * 2), chip.num_rows() - 1);
  EXPECT_EQ(chip.NearestRow(chip.RowBottomY(3) + 0.1 * chip.row_height()), 3);
}

TEST(Chip, MoreLayersShrinkFootprint) {
  const netlist::Netlist nl = Circuit(2000);
  const Chip one = *Chip::Build(nl, 1, 0.05, 0.25);
  const Chip four = *Chip::Build(nl, 4, 0.05, 0.25);
  EXPECT_LT(four.width() * four.height(), one.width() * one.height());
  // Roughly proportional; the per-row slack floor (see Chip::Build) adds
  // overhead that grows with the total row count, so the bound is loose.
  EXPECT_NEAR(four.width() * four.height() * 4,
              one.width() * one.height(), one.width() * one.height() * 0.35);
}

TEST(Chip, RoughlySquare) {
  const netlist::Netlist nl = Circuit(3000);
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  const double aspect = chip.width() / chip.height();
  EXPECT_GT(aspect, 0.5);
  EXPECT_LT(aspect, 2.0);
}

TEST(Chip, FullRegionSpansEverything) {
  const netlist::Netlist nl = Circuit();
  const Chip chip = *Chip::Build(nl, 6, 0.05, 0.25);
  const geom::Region r = chip.FullRegion();
  EXPECT_EQ(r.layer_lo, 0);
  EXPECT_EQ(r.layer_hi, 5);
  EXPECT_DOUBLE_EQ(r.rect.Width(), chip.width());
}

TEST(Chip, RejectsMovableCellWithoutFinitePositiveSize) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> bad[] = {
      {0.0, 1e-6}, {1e-6, 0.0}, {-1e-6, 1e-6}, {nan, 1e-6}, {1e-6, inf}};
  for (const auto& [w, h] : bad) {
    netlist::Netlist nl;
    nl.AddCell("ok", 1e-6, 1e-6);
    nl.AddCell("bad", w, h);
    nl.AddCell("pad", 0.0, 0.0, /*fixed=*/true);  // terminals may be empty
    ASSERT_TRUE(nl.Finalize());
    const auto chip = Chip::Build(nl, 2, 0.05, 0.25);
    ASSERT_FALSE(chip.ok()) << w << " x " << h;
    EXPECT_EQ(chip.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(chip.status().message().find("'bad'"), std::string::npos);
  }
  // A programmatic netlist of zero-size cells fails Placer3D::Create rather
  // than running to a NaN wirelength.
  netlist::Netlist zeros;
  for (int i = 0; i < 20; ++i) zeros.AddCell("z" + std::to_string(i), 0.0, 0.0);
  ASSERT_TRUE(zeros.Finalize());
  const auto placer = Placer3D::Create(zeros, PlacerParams{});
  ASSERT_FALSE(placer.ok());
  EXPECT_EQ(placer.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(Placement, Resize) {
  Placement p;
  p.Resize(7);
  EXPECT_EQ(p.size(), 7u);
  EXPECT_EQ(p.layer[6], 0);
  EXPECT_DOUBLE_EQ(p.x[0], 0.0);
}

}  // namespace
}  // namespace p3d::place
