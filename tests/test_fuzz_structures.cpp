// Seeded fuzz cases for the flattened hot structures (ctest -L fuzz):
//
//   * the SoA netlist mirrors must agree bit-for-bit with the authoritative
//     structs on generated circuits of real size;
//   * the cache-blocked BinGrid must keep incremental MoveCell bookkeeping
//     byte-equal to a canonical Rebuild after random churn (ibm18 at scale
//     0.1, ~21k cells — large enough for many blocks per layer);
//   * WindowTiling must tile exactly even when the window edge exceeds the
//     lateral grid, and the windowed engines must stay legal in that
//     degenerate one-window regime.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "io/synthetic.h"
#include "place/bins.h"
#include "place/legalize.h"
#include "place/rowopt.h"
#include "util/rng.h"

namespace p3d::place {
namespace {

// ----- SoA mirrors ----------------------------------------------------------

TEST(FuzzStructures, SoAMirrorsMatchStructsBitwise) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    io::SyntheticSpec spec;
    spec.name = "soa";
    spec.num_cells = 5000;
    spec.total_area_m2 = 5000 * 4.9e-12;
    spec.num_pads = 64;
    spec.seed = seed;
    const netlist::Netlist nl = io::Generate(spec);
    for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
      ASSERT_EQ(nl.CellWidth(c), nl.cell(c).width);
      ASSERT_EQ(nl.CellHeight(c), nl.cell(c).height);
      ASSERT_EQ(nl.CellArea(c), nl.cell(c).Area());
      ASSERT_EQ(nl.CellFixed(c), nl.cell(c).fixed);
    }
    for (std::int32_t p = 0; p < nl.NumPins(); ++p) {
      ASSERT_EQ(nl.PinCell(p), nl.pin(p).cell);
      ASSERT_EQ(nl.PinNet(p), nl.pin(p).net);
      ASSERT_EQ(nl.PinDx(p), nl.pin(p).dx);
      ASSERT_EQ(nl.PinDy(p), nl.pin(p).dy);
    }
    // The arena view: every net's pins are the contiguous slice the Net
    // header describes, and the slices cover the pin array exactly.
    std::int32_t covered = 0;
    for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
      ASSERT_EQ(nl.NetFirstPin(n), nl.net(n).first_pin);
      ASSERT_EQ(nl.NetNumPins(n), nl.net(n).num_pins);
      for (std::int32_t p = nl.NetFirstPin(n);
           p < nl.NetFirstPin(n) + nl.NetNumPins(n); ++p) {
        ASSERT_EQ(nl.PinNet(p), n);
      }
      covered += nl.NetNumPins(n);
    }
    ASSERT_EQ(covered, nl.NumPins());
  }
}

// ----- cache-blocked BinGrid -------------------------------------------------

TEST(FuzzStructures, MoveCellChurnMatchesCanonicalRebuild) {
  // ibm18 at scale 0.1: ~21k cells, dozens of lateral blocks per layer.
  const io::SyntheticSpec spec = io::Table1Spec("ibm18", 0.1);
  const netlist::Netlist nl = io::Generate(spec);
  PlacerParams params;
  params.num_layers = 4;
  params.SyncStack();
  const Chip chip =
      *Chip::Build(nl, 4, params.whitespace, params.inter_row_space);

  util::Rng rng(spec.seed * 977 + 1);
  Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = rng.NextDouble(0.0, chip.width());
    p.y[i] = rng.NextDouble(0.0, chip.height());
    p.layer[i] = rng.NextInt(0, 3);
  }

  BinGrid churned(chip, nl.AvgCellWidth(), nl.AvgCellHeight());
  churned.Rebuild(nl, p);
  BinGrid canonical(chip, nl.AvgCellWidth(), nl.AvgCellHeight());
  canonical.Rebuild(nl, p);

  // Random round-trip churn: kick cells to random (real, non-padded) bins,
  // remember where they belong, then send every displaced cell home. The
  // final occupancy equals the placement's, so after ResyncAreas the area
  // array must reproduce the canonical rebuild TO THE BYTE.
  std::vector<std::pair<std::int32_t, int>> displaced;
  std::vector<char> is_displaced(static_cast<std::size_t>(nl.NumCells()), 0);
  for (int step = 0; step < 30000; ++step) {
    const auto cell = static_cast<std::int32_t>(
        rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
    // Skip cells already displaced (their current bin is no longer home).
    if (nl.CellFixed(cell) || is_displaced[static_cast<std::size_t>(cell)]) {
      continue;
    }
    const std::size_t i = static_cast<std::size_t>(cell);
    const int home = churned.BinOf(p.x[i], p.y[i], p.layer[i]);
    const int bx = rng.NextInt(0, churned.nx() - 1);
    const int by = rng.NextInt(0, churned.ny() - 1);
    const int bz = rng.NextInt(0, churned.nz() - 1);
    const int target = churned.Flat(bx, by, bz);
    if (target == home) continue;
    churned.MoveCell(cell, nl.CellArea(cell), home, target);
    displaced.emplace_back(cell, target);
    is_displaced[i] = 1;
  }
  EXPECT_GT(displaced.size(), 1000u);
  for (const auto& [cell, at] : displaced) {
    const std::size_t i = static_cast<std::size_t>(cell);
    churned.MoveCell(cell, nl.CellArea(cell),
                     at, churned.BinOf(p.x[i], p.y[i], p.layer[i]));
  }
  churned.ResyncAreas(nl);

  ASSERT_EQ(churned.NumBins(), canonical.NumBins());
  for (int b = 0; b < churned.NumBins(); ++b) {
    ASSERT_EQ(churned.Area(b), canonical.Area(b)) << "bin " << b;
    std::vector<std::int32_t> got = churned.Cells(b);
    std::vector<std::int32_t> want = canonical.Cells(b);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "bin " << b;
  }
}

TEST(FuzzStructures, PaddedBinsStayEmptyThroughRebuilds) {
  // The blocked layout pads each layer's flat space up to whole blocks; the
  // padded slots must read as permanently empty zero-area bins.
  const io::SyntheticSpec spec = io::Table1Spec("ibm01", 0.05);
  const netlist::Netlist nl = io::Generate(spec);
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  BinGrid grid(chip, nl.AvgCellWidth(), nl.AvgCellHeight());
  util::Rng rng(3);
  Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = rng.NextDouble(0.0, chip.width());
    p.y[i] = rng.NextDouble(0.0, chip.height());
    p.layer[i] = rng.NextInt(0, 3);
  }
  grid.Rebuild(nl, p);
  std::vector<char> real(static_cast<std::size_t>(grid.NumBins()), 0);
  for (int bz = 0; bz < grid.nz(); ++bz) {
    for (int by = 0; by < grid.ny(); ++by) {
      for (int bx = 0; bx < grid.nx(); ++bx) {
        real[static_cast<std::size_t>(grid.Flat(bx, by, bz))] = 1;
      }
    }
  }
  for (int b = 0; b < grid.NumBins(); ++b) {
    if (real[static_cast<std::size_t>(b)]) continue;
    EXPECT_EQ(grid.Area(b), 0.0) << "padded bin " << b;
    EXPECT_TRUE(grid.Cells(b).empty()) << "padded bin " << b;
  }
}

// ----- WindowTiling edge cases ----------------------------------------------

TEST(FuzzStructures, OversizedWindowTilingDegeneratesToOneWindow) {
  for (const auto& [nx, ny] : std::vector<std::pair<int, int>>{
           {5, 3}, {1, 1}, {16, 1}, {3, 17}}) {
    const WindowTiling tiling(nx, ny, /*window_bins=*/1 << 20);
    ASSERT_EQ(tiling.NumWindows(), 1);
    const BinWindow& win = tiling.window(0);
    EXPECT_EQ(win.x0, 0);
    EXPECT_EQ(win.y0, 0);
    EXPECT_EQ(win.x1, nx);
    EXPECT_EQ(win.y1, ny);
    EXPECT_EQ(tiling.colors()[0], 0);
    for (int by = 0; by < ny; ++by) {
      for (int bx = 0; bx < nx; ++bx) {
        EXPECT_EQ(tiling.WindowOf(bx, by), 0);
      }
    }
  }
}

TEST(FuzzStructures, WindowTilingPartitionsExactlyAtAwkwardSizes) {
  // Window edges that don't divide the grid, including edges larger than one
  // dimension but not the other.
  util::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const int nx = 1 + rng.NextInt(0, 40);
    const int ny = 1 + rng.NextInt(0, 40);
    const int wb = 1 + rng.NextInt(0, 50);
    const WindowTiling tiling(nx, ny, wb);
    std::vector<int> owner(static_cast<std::size_t>(nx * ny), -1);
    for (int w = 0; w < tiling.NumWindows(); ++w) {
      const BinWindow& win = tiling.window(w);
      ASSERT_LE(win.x1, nx);
      ASSERT_LE(win.y1, ny);
      ASSERT_LT(win.x0, win.x1);
      ASSERT_LT(win.y0, win.y1);
      for (int by = win.y0; by < win.y1; ++by) {
        for (int bx = win.x0; bx < win.x1; ++bx) {
          const std::size_t i = static_cast<std::size_t>(by * nx + bx);
          ASSERT_EQ(owner[i], -1) << "bin covered twice";
          owner[i] = w;
          ASSERT_EQ(tiling.WindowOf(bx, by), w);
        }
      }
    }
    for (int by = 0; by < ny; ++by) {
      for (int bx = 0; bx < nx; ++bx) {
        ASSERT_NE(owner[static_cast<std::size_t>(by * nx + bx)], -1)
            << "uncovered bin at (" << bx << ", " << by << ")";
      }
    }
  }
}

TEST(FuzzStructures, OversizedWindowEnginesStayLegal) {
  // legalize_window_rows (and the coarse legalize_window_bins) far beyond
  // the grid reduce every windowed engine to one window; the full detailed
  // stack must still produce a legal placement with threads active.
  io::SyntheticSpec spec;
  spec.name = "onewin";
  spec.num_cells = 600;
  spec.total_area_m2 = 600 * 4.9e-12;
  spec.seed = 29;
  const netlist::Netlist nl = io::Generate(spec);
  PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.threads = 3;
  params.legalize_window_rows = 1 << 24;
  params.legalize_window_bins = 1 << 24;
  params.SyncStack();
  const Chip chip =
      *Chip::Build(nl, 4, params.whitespace, params.inter_row_space);
  ObjectiveEvaluator eval(nl, chip, params);
  util::Rng rng(31);
  Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = rng.NextDouble(0.0, chip.width());
    p.y[i] = rng.NextDouble(0.0, chip.height());
    p.layer[i] = rng.NextInt(0, 3);
  }
  eval.SetPlacement(p);
  DetailedLegalizer legalizer(eval);
  ASSERT_TRUE(legalizer.Run().success);
  RowRefiner refiner(eval, 32);
  refiner.Run(2);
  EXPECT_EQ(DetailedLegalizer::CountOverlaps(nl, eval.placement()), 0);
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    if (nl.CellFixed(c)) continue;
    const int row = chip.NearestRow(eval.placement().y[i]);
    EXPECT_NEAR(eval.placement().y[i], chip.RowCenterY(row), 1e-12);
  }
}

}  // namespace
}  // namespace p3d::place
