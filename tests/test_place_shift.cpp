#include <gtest/gtest.h>

#include <vector>

#include "io/synthetic.h"
#include "obs/metrics.h"
#include "place/bins.h"
#include "place/shift.h"
#include "util/rng.h"
#include "window_tiling.h"

namespace p3d::place {
namespace {

using fixtures::MaxWindowsPerColor;

struct Fixture {
  netlist::Netlist nl;
  Chip chip;
  PlacerParams params;

  explicit Fixture(int cells = 600, int layers = 4) {
    io::SyntheticSpec spec;
    spec.name = "shift";
    spec.num_cells = cells;
    spec.total_area_m2 = cells * 4.9e-12;
    spec.seed = 31;
    nl = io::Generate(spec);
    params.num_layers = layers;
    params.alpha_ilv = 1e-5;
    params.SyncStack();
    chip = *Chip::Build(nl, layers, params.whitespace, params.inter_row_space);
  }
};

TEST(BinGrid, GeometryAndIndexing) {
  Fixture f;
  BinGrid grid(f.chip, f.nl.AvgCellWidth(), f.nl.AvgCellHeight());
  EXPECT_EQ(grid.nz(), 4);
  EXPECT_GT(grid.nx(), 2);
  EXPECT_NEAR(grid.bin_w() * grid.nx(), f.chip.width(), 1e-12);
  EXPECT_EQ(grid.XIndex(-1.0), 0);
  EXPECT_EQ(grid.XIndex(f.chip.width() + 1.0), grid.nx() - 1);
  EXPECT_EQ(grid.BinOf(0.0, 0.0, 0), 0);
  // The flat index is an opaque cache-blocked layout; its contract is that
  // Flat/Decompose are inverse bijections into [0, NumBins()).
  std::vector<char> seen(static_cast<std::size_t>(grid.NumBins()), 0);
  for (int bz = 0; bz < grid.nz(); ++bz) {
    for (int by = 0; by < grid.ny(); ++by) {
      for (int bx = 0; bx < grid.nx(); ++bx) {
        const int flat = grid.Flat(bx, by, bz);
        ASSERT_GE(flat, 0);
        ASSERT_LT(flat, grid.NumBins());
        EXPECT_EQ(seen[static_cast<std::size_t>(flat)], 0)
            << "duplicate flat index " << flat;
        seen[static_cast<std::size_t>(flat)] = 1;
        int dx = -1, dy = -1, dz = -1;
        grid.Decompose(flat, &dx, &dy, &dz);
        EXPECT_EQ(dx, bx);
        EXPECT_EQ(dy, by);
        EXPECT_EQ(dz, bz);
      }
    }
  }
}

TEST(BinGrid, RebuildAndDensity) {
  Fixture f;
  BinGrid grid(f.chip, f.nl.AvgCellWidth(), f.nl.AvgCellHeight());
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  // Everything in one corner bin.
  grid.Rebuild(f.nl, p);
  const int corner = grid.BinOf(0.0, 0.0, 0);
  EXPECT_NEAR(grid.Area(corner), f.nl.MovableArea(), f.nl.MovableArea() * 1e-9);
  EXPECT_GT(grid.Density(corner), 10.0);
  EXPECT_EQ(grid.Cells(corner).size(),
            static_cast<std::size_t>(f.nl.NumCells()));
  EXPECT_DOUBLE_EQ(grid.MaxDensity(), grid.Density(corner));
}

TEST(BinGrid, MoveCellBookkeeping) {
  Fixture f;
  BinGrid grid(f.chip, f.nl.AvgCellWidth(), f.nl.AvgCellHeight());
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  grid.Rebuild(f.nl, p);
  const int from = grid.BinOf(0.0, 0.0, 0);
  const int to = grid.Flat(grid.nx() - 1, grid.ny() - 1, grid.nz() - 1);
  const double a0 = grid.Area(from);
  const double cell_area = f.nl.cell(0).Area();
  grid.MoveCell(0, cell_area, from, to);
  EXPECT_NEAR(grid.Area(from), a0 - cell_area, 1e-20);
  EXPECT_NEAR(grid.Area(to), cell_area, 1e-20);
  EXPECT_EQ(grid.Cells(to).size(), 1u);
}

TEST(CellShifter, SpreadsCenterPileUp) {
  Fixture f(800);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = f.chip.width() / 2;
    p.y[i] = f.chip.height() / 2;
    p.layer[i] = 1;
  }
  eval.SetPlacement(p);
  CellShifter shifter(eval);
  const ShiftStats stats = shifter.Run(60, 1.1);
  // From a single point (density in the hundreds), shifting must come down
  // to near-legal densities. Exact convergence to 1.0 is impossible at this
  // bin granularity (a single 12-site cell exceeds one bin's capacity).
  EXPECT_LT(stats.final_max_density, 2.5);
  EXPECT_GT(stats.iterations, 1);
}

TEST(CellShifter, KeepsCellsInsideChip) {
  Fixture f(500);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  util::Rng rng(8);
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    // Clustered start in one quadrant.
    p.x[i] = rng.NextDouble(0.0, f.chip.width() / 4);
    p.y[i] = rng.NextDouble(0.0, f.chip.height() / 4);
    p.layer[i] = 0;
  }
  eval.SetPlacement(p);
  CellShifter shifter(eval);
  shifter.Run(40, 1.1);
  const Placement& out = eval.placement();
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out.x[i], 0.0);
    EXPECT_LE(out.x[i], f.chip.width());
    EXPECT_GE(out.y[i], 0.0);
    EXPECT_LE(out.y[i], f.chip.height());
    EXPECT_GE(out.layer[i], 0);
    EXPECT_LT(out.layer[i], f.chip.num_layers());
  }
}

TEST(CellShifter, RebalancesOverfullLayer) {
  Fixture f(800);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  util::Rng rng(12);
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    // Everything on layer 0, spread laterally: layer 0 is ~4x over capacity.
    p.x[i] = rng.NextDouble(0.0, f.chip.width());
    p.y[i] = rng.NextDouble(0.0, f.chip.height());
    p.layer[i] = 0;
  }
  eval.SetPlacement(p);
  CellShifter shifter(eval);
  shifter.Run(60, 1.1);
  std::vector<double> area(4, 0.0);
  const Placement& out = eval.placement();
  for (std::int32_t c = 0; c < f.nl.NumCells(); ++c) {
    area[static_cast<std::size_t>(out.layer[static_cast<std::size_t>(c)])] +=
        f.nl.cell(c).Area();
  }
  const double cap = f.chip.RowAreaPerLayer();
  // Layer 0 must have come down to (near) capacity.
  EXPECT_LT(area[0], cap * 1.15);
  // And the other layers absorbed real area.
  EXPECT_GT(area[1] + area[2] + area[3], f.nl.MovableArea() * 0.4);
}

TEST(CellShifter, AlreadyLegalPlacementUntouched) {
  // Density below 1 everywhere: the "sparse rows are never disturbed" rule
  // means no cell may move at all.
  Fixture f(300);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  util::Rng rng(14);
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  // Uniform spread over all layers: density ~0.95 per bin on average, but
  // random placement can spike single bins; use a grid layout instead.
  const int ncols = 32;
  for (std::int32_t c = 0; c < f.nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    p.x[i] = (c % ncols + 0.5) * f.chip.width() / ncols;
    p.y[i] = ((c / ncols) % ncols + 0.5) * f.chip.height() / ncols;
    p.layer[i] = c % 4;
  }
  eval.SetPlacement(p);
  BinGrid grid(f.chip, f.nl.AvgCellWidth(), f.nl.AvgCellHeight());
  grid.Rebuild(f.nl, p);
  if (grid.MaxDensity() <= 1.0) {  // precondition for this property
    CellShifter shifter(eval);
    shifter.Run(10, 1.05);
    const Placement& out = eval.placement();
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_DOUBLE_EQ(out.x[i], p.x[i]);
      EXPECT_DOUBLE_EQ(out.y[i], p.y[i]);
      EXPECT_EQ(out.layer[i], p.layer[i]);
    }
  }
}

TEST(CellShifter, ObjectiveGuardedAgainstBlowup) {
  // Shifting trades objective for density, but the beta retention must keep
  // the damage bounded: spreading a clustered start should not more than
  // double the objective.
  Fixture f(500);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  util::Rng rng(21);
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    // Half-die cluster: meaningful wirelength exists up front.
    p.x[i] = rng.NextDouble(0.0, f.chip.width() / 2);
    p.y[i] = rng.NextDouble(0.0, f.chip.height() / 2);
    p.layer[i] = rng.NextInt(0, 3);
  }
  eval.SetPlacement(p);
  const double before = eval.Total();
  CellShifter shifter(eval);
  shifter.Run(40, 1.1);
  EXPECT_LT(eval.Total(), before * 2.0);
}

TEST(CellShifter, IncrementalConsistencyThroughSweeps) {
  Fixture f(400);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = f.chip.width() / 2;
    p.y[i] = f.chip.height() / 2;
    p.layer[i] = 0;
  }
  eval.SetPlacement(p);
  CellShifter shifter(eval);
  shifter.Run(20, 1.1);
  const double cached = eval.Total();
  EXPECT_NEAR(eval.RecomputeFull(), cached, std::abs(cached) * 1e-9);
}

TEST(CellShifter, ThreadCountDoesNotChangePlacementBytes) {
  // The windowed parallel schedule (DESIGN.md §5) plans row shifts against a
  // density mesh frozen at sweep start and commits in fixed window order, so
  // the shifted placement must be byte-identical at any thread count. 2-bin
  // windows give some color several windows on every sweep axis's cross
  // grid, so windows really plan concurrently.
  Placement reference;
  for (const int threads : {1, 4}) {
    Fixture f(700);
    f.params.threads = threads;
    f.params.legalize_window_bins = 2;
    const BinGrid grid(f.chip, f.nl.AvgCellWidth(), f.nl.AvgCellHeight());
    EXPECT_GE(MaxWindowsPerColor(WindowTiling(grid.ny(), grid.nz(), 2)), 2);
    EXPECT_GE(MaxWindowsPerColor(WindowTiling(grid.nx(), grid.nz(), 2)), 2);
    EXPECT_GE(MaxWindowsPerColor(WindowTiling(grid.nx(), grid.ny(), 2)), 2);
    ObjectiveEvaluator eval(f.nl, f.chip, f.params);
    util::Rng rng(77);
    Placement p;
    p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
    for (std::size_t i = 0; i < p.size(); ++i) {
      // Clustered start: plenty of over-dense rows to shift.
      p.x[i] = rng.NextDouble(0.0, f.chip.width() / 3);
      p.y[i] = rng.NextDouble(0.0, f.chip.height() / 3);
      p.layer[i] = 0;
    }
    eval.SetPlacement(p);
    CellShifter shifter(eval);
    shifter.Run(40, 1.1);
    if (threads == 1) {
      reference = eval.placement();
    } else {
      EXPECT_EQ(reference.x, eval.placement().x) << "threads=" << threads;
      EXPECT_EQ(reference.y, eval.placement().y) << "threads=" << threads;
      EXPECT_EQ(reference.layer, eval.placement().layer)
          << "threads=" << threads;
    }
  }
}

TEST(CellShifter, StopsEarlyWhenTargetReached) {
  Fixture f(400);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  util::Rng rng(15);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = rng.NextDouble(0.0, f.chip.width());
    p.y[i] = rng.NextDouble(0.0, f.chip.height());
    p.layer[i] = rng.NextInt(0, 3);
  }
  eval.SetPlacement(p);
  CellShifter shifter(eval);
  const ShiftStats stats = shifter.Run(40, /*target_density=*/1e9);
  EXPECT_EQ(stats.iterations, 0);  // target trivially met before any sweep
  EXPECT_EQ(stats.stop, ShiftStop::kConverged);
}

TEST(CellShifter, StopsWhenOverflowStalls) {
  // Uniformly random cells: no bin ever gets down to 1.05 at this bin size,
  // but the overflow ratio flattens after a few sweeps, so Run stops on the
  // stall window long before the cap.
  Fixture f(400);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  util::Rng rng(15);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = rng.NextDouble(0.0, f.chip.width());
    p.y[i] = rng.NextDouble(0.0, f.chip.height());
    p.layer[i] = rng.NextInt(0, 3);
  }
  eval.SetPlacement(p);

  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  CellShifter shifter(eval);
  const ShiftStats stats = shifter.Run(40, /*target_density=*/1.05);
  obs::InstallMetrics(nullptr);

  EXPECT_EQ(stats.stop, ShiftStop::kStalled);
  EXPECT_LT(stats.iterations, 40);
  EXPECT_GT(stats.final_max_density, 1.05);
  // The run report carries the curve (entry value + one per iteration), the
  // exit ratio, and exactly one stop counter.
  const std::vector<double>* series = registry.Series("shift/overflow");
  ASSERT_NE(series, nullptr);
  const std::vector<double>& curve = *series;
  ASSERT_EQ(curve.size(), static_cast<std::size_t>(stats.iterations) + 1);
  EXPECT_LT(curve.back(), curve.front());
  EXPECT_EQ(registry.Gauge("shift/final_overflow"), stats.final_overflow);
  EXPECT_EQ(curve.back(), stats.final_overflow);
  EXPECT_EQ(registry.Counter("shift/stop_stalled"), 1);
  EXPECT_EQ(registry.Counter("shift/stop_converged"), 0);
  EXPECT_EQ(registry.Counter("shift/stop_cap"), 0);
}

}  // namespace
}  // namespace p3d::place
