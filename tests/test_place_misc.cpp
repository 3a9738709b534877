// Tests for the remaining public surface: parameter helpers, run-result
// definitions, and cross-component glue.
#include <gtest/gtest.h>

#include <algorithm>

#include "io/synthetic.h"
#include "place/bins.h"
#include "place/objective.h"
#include "place/placer.h"
#include "util/log.h"

namespace p3d::place {
namespace {

TEST(Params, SyncStackCopiesLayerCount) {
  PlacerParams p;
  p.num_layers = 7;
  p.SyncStack();
  EXPECT_EQ(p.stack.num_layers, 7);
}

TEST(Params, CompensateWireCapForScale) {
  PlacerParams p;
  const double base = p.electrical.c_per_wl;

  PlacerParams full = p;
  CompensateWireCapForScale(&full, 1.0);
  EXPECT_DOUBLE_EQ(full.electrical.c_per_wl, base);  // no-op at full scale

  PlacerParams bigger = p;
  CompensateWireCapForScale(&bigger, 2.0);
  EXPECT_DOUBLE_EQ(bigger.electrical.c_per_wl, base);  // no-op above 1

  PlacerParams scaled = p;
  CompensateWireCapForScale(&scaled, 0.05);
  EXPECT_NEAR(scaled.electrical.c_per_wl, base / std::pow(0.05, 0.75),
              base * 1e-9);
  EXPECT_GT(scaled.electrical.c_per_wl, base);

  PlacerParams degenerate = p;
  CompensateWireCapForScale(&degenerate, 0.0);  // guarded
  EXPECT_DOUBLE_EQ(degenerate.electrical.c_per_wl, base);
}

// A run with a thermal weight but no FEA reports the Eq. 3 objective, HPWL
// and via count that a fresh evaluator computes for its placement.
TEST(Placer3D, RunObjectiveMatchesObjectiveEvaluator) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  io::SyntheticSpec spec;
  spec.name = "misc";
  spec.num_cells = 200;
  spec.total_area_m2 = 200 * 4.9e-12;
  spec.seed = 3;
  const netlist::Netlist nl = io::Generate(spec);
  PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 1e-6;
  Placer3D placer = *Placer3D::Create(nl, params);
  const PlacementResult r = *placer.Run({.with_fea = false});
  EXPECT_FALSE(r.fea_valid);  // FEA was not requested

  params.SyncStack();
  ObjectiveEvaluator eval(nl, placer.chip(), params);
  eval.SetPlacement(r.placement);
  EXPECT_NEAR(r.objective, eval.Total(), eval.Total() * 1e-12);
  EXPECT_NEAR(r.hpwl_m, eval.TotalHpwl(), eval.TotalHpwl() * 1e-12);
  EXPECT_EQ(r.ilv_count, eval.TotalIlv());
}

TEST(Placer3D, IlvDensityDefinition) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  io::SyntheticSpec spec;
  spec.name = "misc2";
  spec.num_cells = 100;
  spec.total_area_m2 = 100 * 4.9e-12;
  spec.seed = 5;
  const netlist::Netlist nl = io::Generate(spec);
  PlacerParams params;
  params.num_layers = 4;
  Placer3D placer = *Placer3D::Create(nl, params);
  const PlacementResult r = *placer.Run({.with_fea = false});
  ASSERT_GT(r.ilv_count, 0);
  // Vias per m^2 per interlayer: count / (area * (layers-1)).
  const Chip& chip = placer.chip();
  EXPECT_NEAR(r.ilv_density,
              static_cast<double>(r.ilv_count) /
                  (chip.width() * chip.height() * 3),
              r.ilv_density * 1e-12);
}

TEST(Placer3D, LeakageEnabledFlowStillLegal) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  io::SyntheticSpec spec;
  spec.name = "leakflow";
  spec.num_cells = 400;
  spec.total_area_m2 = 400 * 4.9e-12;
  spec.seed = 7;
  const netlist::Netlist nl = io::Generate(spec);
  PlacerParams params;
  params.num_layers = 4;
  params.alpha_temp = 5e-6;
  params.electrical.leakage_per_cell_w = 1e-7;
  Placer3D placer = *Placer3D::Create(nl, params);
  const PlacementResult r = *placer.Run({.with_fea = true});
  EXPECT_TRUE(r.legal);
  // Leakage shows up in the reported power: at least leak * movable cells.
  EXPECT_GE(r.total_power_w, 1e-7 * nl.NumMovableCells());
}

TEST(Placer3D, RuntimeBreakdownSums) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  io::SyntheticSpec spec;
  spec.name = "times";
  spec.num_cells = 300;
  spec.total_area_m2 = 300 * 4.9e-12;
  spec.seed = 9;
  const netlist::Netlist nl = io::Generate(spec);
  Placer3D placer = *Placer3D::Create(nl, PlacerParams{});
  const PlacementResult r = *placer.Run({.with_fea = false});
  EXPECT_GE(r.t_total, r.t_global);
  EXPECT_GE(r.t_total + 1e-6,
            r.t_global + r.t_coarse + r.t_detailed - 1e-3);
}

TEST(BinGrid, SingleLayerChipAndBoundaryClamping) {
  io::SyntheticSpec spec;
  spec.name = "bins1l";
  spec.num_cells = 50;
  spec.total_area_m2 = 50 * 4.9e-12;
  spec.seed = 8;
  const netlist::Netlist nl = io::Generate(spec);
  PlacerParams params;
  const Chip chip = *Chip::Build(nl, 1, params.whitespace,
                                params.inter_row_space);
  const BinGrid grid(chip, nl.AvgCellWidth(), nl.AvgCellHeight());
  EXPECT_EQ(1, grid.nz());
  EXPECT_GE(grid.nx(), 1);
  EXPECT_GE(grid.ny(), 1);
  // Out-of-range coordinates and layers clamp to valid bins.
  EXPECT_EQ(0, grid.XIndex(-1.0));
  EXPECT_EQ(grid.nx() - 1, grid.XIndex(2.0 * chip.width()));
  EXPECT_EQ(0, grid.YIndex(-1.0));
  EXPECT_EQ(grid.ny() - 1, grid.YIndex(2.0 * chip.height()));
  const int flat = grid.BinOf(chip.width() / 2.0, chip.height() / 2.0, 99);
  EXPECT_GE(flat, 0);
  EXPECT_LT(flat, grid.NumBins());
}

TEST(BinGrid, RebuildOnEmptyNetlistIsAllZero) {
  netlist::Netlist nl;
  ASSERT_TRUE(nl.Finalize());
  PlacerParams params;
  const Chip chip = *Chip::Build(nl, 2, params.whitespace,
                                params.inter_row_space);
  // No movable cells: average dimensions fall back to the nominal row size.
  BinGrid grid(chip, chip.row_height(), chip.row_height());
  Placement p;  // zero cells
  grid.Rebuild(nl, p);
  EXPECT_EQ(0.0, grid.MaxDensity());
  for (int b = 0; b < grid.NumBins(); ++b) {
    EXPECT_EQ(0.0, grid.Area(b));
    EXPECT_TRUE(grid.Cells(b).empty());
  }
}

TEST(BinGrid, OneCellRowsMoveCellKeepsOccupancyConsistent) {
  // Degenerate rows: one wide cell per row, bins at least as wide as cells.
  netlist::Netlist nl;
  for (int i = 0; i < 3; ++i) {
    nl.AddCell("wide" + std::to_string(i), 4e-6, 1e-6);
  }
  ASSERT_TRUE(nl.Finalize());
  PlacerParams params;
  const Chip chip = *Chip::Build(nl, 2, params.whitespace,
                                params.inter_row_space);
  BinGrid grid(chip, nl.AvgCellWidth(), nl.AvgCellHeight());
  Placement p;
  p.Resize(3);
  for (std::size_t i = 0; i < 3; ++i) {
    p.x[i] = chip.width() / 2.0;
    p.y[i] = chip.RowCenterY(static_cast<int>(i) % chip.num_rows());
    p.layer[i] = 0;
  }
  grid.Rebuild(nl, p);
  double total = 0.0;
  int listed = 0;
  for (int b = 0; b < grid.NumBins(); ++b) {
    total += grid.Area(b);
    listed += static_cast<int>(grid.Cells(b).size());
  }
  EXPECT_DOUBLE_EQ(nl.MovableArea(), total);
  EXPECT_EQ(3, listed);

  // Move cell 0 across the grid; area and membership must follow exactly.
  const int from = grid.BinOf(p.x[0], p.y[0], p.layer[0]);
  const int to = grid.BinOf(p.x[0], p.y[0], chip.num_layers() - 1);
  if (from != to) {
    const double area = nl.cell(0).Area();
    const double area_from = grid.Area(from);
    const double area_to = grid.Area(to);
    grid.MoveCell(0, area, from, to);
    EXPECT_DOUBLE_EQ(area_from - area, grid.Area(from));
    EXPECT_DOUBLE_EQ(area_to + area, grid.Area(to));
    const auto& to_list = grid.Cells(to);
    EXPECT_NE(std::find(to_list.begin(), to_list.end(), 0), to_list.end());
    const auto& from_list = grid.Cells(from);
    EXPECT_EQ(std::find(from_list.begin(), from_list.end(), 0),
              from_list.end());
  }
}

}  // namespace
}  // namespace p3d::place
