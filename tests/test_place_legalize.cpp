#include <gtest/gtest.h>

#include <cmath>

#include "check/replay.h"
#include "io/synthetic.h"
#include "place/legalize.h"
#include "util/rng.h"

namespace p3d::place {
namespace {

struct Fixture {
  netlist::Netlist nl;
  Chip chip;
  PlacerParams params;

  explicit Fixture(int cells = 500, int layers = 4, std::uint64_t seed = 41) {
    io::SyntheticSpec spec;
    spec.name = "leg";
    spec.num_cells = cells;
    spec.total_area_m2 = cells * 4.9e-12;
    spec.seed = seed;
    nl = io::Generate(spec);
    params.num_layers = layers;
    params.alpha_ilv = 1e-5;
    params.SyncStack();
    chip = *Chip::Build(nl, layers, params.whitespace, params.inter_row_space);
  }

  Placement RandomSpread(std::uint64_t seed) const {
    util::Rng rng(seed);
    Placement p;
    p.Resize(static_cast<std::size_t>(nl.NumCells()));
    for (std::size_t i = 0; i < p.size(); ++i) {
      p.x[i] = rng.NextDouble(0.0, chip.width());
      p.y[i] = rng.NextDouble(0.0, chip.height());
      p.layer[i] = rng.NextInt(0, chip.num_layers() - 1);
    }
    return p;
  }
};

void ExpectFullyLegal(const Fixture& f, const Placement& p) {
  // 1. No overlaps.
  EXPECT_EQ(DetailedLegalizer::CountOverlaps(f.nl, p), 0);
  // 2. Every movable cell centred on a row, fully inside the chip.
  for (std::int32_t c = 0; c < f.nl.NumCells(); ++c) {
    if (f.nl.cell(c).fixed) continue;
    const std::size_t i = static_cast<std::size_t>(c);
    const double half_w = f.nl.cell(c).width / 2.0;
    EXPECT_GE(p.x[i] - half_w, -1e-12);
    EXPECT_LE(p.x[i] + half_w, f.chip.width() + 1e-12);
    EXPECT_GE(p.layer[i], 0);
    EXPECT_LT(p.layer[i], f.chip.num_layers());
    const int row = f.chip.NearestRow(p.y[i]);
    EXPECT_NEAR(p.y[i], f.chip.RowCenterY(row), 1e-12) << "cell " << c;
  }
}

TEST(Legalize, FromRandomSpread) {
  Fixture f;
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  eval.SetPlacement(f.RandomSpread(1));
  DetailedLegalizer legalizer(eval);
  const LegalizeStats stats = legalizer.Run();
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.placed, f.nl.NumMovableCells());
  ExpectFullyLegal(f, eval.placement());
}

TEST(Legalize, FromPointPileUpUsesSqueezes) {
  Fixture f(400);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = f.chip.width() / 2;
    p.y[i] = f.chip.height() / 2;
    p.layer[i] = 1;
  }
  eval.SetPlacement(p);
  DetailedLegalizer legalizer(eval);
  const LegalizeStats stats = legalizer.Run();
  EXPECT_TRUE(stats.success);
  ExpectFullyLegal(f, eval.placement());
}

TEST(Legalize, SingleLayer) {
  Fixture f(300, 1);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  eval.SetPlacement(f.RandomSpread(2));
  DetailedLegalizer legalizer(eval);
  EXPECT_TRUE(legalizer.Run().success);
  ExpectFullyLegal(f, eval.placement());
  for (std::size_t i = 0; i < eval.placement().size(); ++i) {
    EXPECT_EQ(eval.placement().layer[i], 0);
  }
}

TEST(Legalize, ObjectiveDegradationBounded) {
  Fixture f(600);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  eval.SetPlacement(f.RandomSpread(3));
  const double before = eval.Total();
  DetailedLegalizer legalizer(eval);
  ASSERT_TRUE(legalizer.Run().success);
  // Legalizing an already spread placement should not blow up the objective.
  EXPECT_LT(eval.Total(), before * 1.5);
}

TEST(Legalize, IncrementalEvaluatorConsistent) {
  Fixture f(300);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  eval.SetPlacement(f.RandomSpread(4));
  DetailedLegalizer legalizer(eval);
  ASSERT_TRUE(legalizer.Run().success);
  const double cached = eval.Total();
  EXPECT_NEAR(eval.RecomputeFull(), cached, std::abs(cached) * 1e-9);
}

TEST(Legalize, CountOverlapsDetectsCollisions) {
  Fixture f(10);
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  // All cells at the exact same spot on the same row/layer.
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = 5e-6;
    p.y[i] = f.chip.RowCenterY(0);
    p.layer[i] = 0;
  }
  EXPECT_GT(DetailedLegalizer::CountOverlaps(f.nl, p), 0);
  // Spread them: no overlaps.
  double cursor = 0.0;
  for (std::int32_t c = 0; c < f.nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    p.x[i] = cursor + f.nl.cell(c).width / 2.0;
    cursor += f.nl.cell(c).width + 1e-9;
  }
  EXPECT_EQ(DetailedLegalizer::CountOverlaps(f.nl, p), 0);
}

TEST(Legalize, RespectsFixedBlockages) {
  // A fixed block covering the middle of every row on layer 0 must not be
  // overlapped by any movable cell.
  netlist::Netlist nl;
  for (int c = 0; c < 60; ++c) {
    nl.AddCell("c" + std::to_string(c), 2e-6, 1.4e-6);
  }
  const std::int32_t blk = nl.AddCell("block", 3e-6, 200e-6, /*fixed=*/true);
  nl.AddNet("n");
  nl.AddPin(0, netlist::PinDir::kOutput);
  nl.AddPin(1, netlist::PinDir::kInput);
  ASSERT_TRUE(nl.Finalize());
  PlacerParams params;
  params.num_layers = 1;
  params.SyncStack();
  params.num_layers = 1;
  const Chip chip = *Chip::Build(nl, 1, 0.40, 0.25);  // extra whitespace
  ObjectiveEvaluator eval(nl, chip, params);
  Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  util::Rng rng(5);
  for (std::int32_t c = 0; c < 60; ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    p.x[i] = rng.NextDouble(0.0, chip.width());
    p.y[i] = rng.NextDouble(0.0, chip.height());
  }
  const std::size_t bi = static_cast<std::size_t>(blk);
  p.x[bi] = chip.width() / 2;
  p.y[bi] = chip.height() / 2;
  eval.SetPlacement(p);
  DetailedLegalizer legalizer(eval);
  ASSERT_TRUE(legalizer.Run().success);
  const Placement& out = eval.placement();
  const double b_lo = out.x[bi] - 1.5e-6, b_hi = out.x[bi] + 1.5e-6;
  for (std::int32_t c = 0; c < 60; ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    const double lo = out.x[i] - nl.cell(c).width / 2.0;
    const double hi = out.x[i] + nl.cell(c).width / 2.0;
    EXPECT_TRUE(hi <= b_lo + 1e-12 || lo >= b_hi - 1e-12)
        << "cell " << c << " overlaps the blockage";
  }
}

// ----- pad-ring walls: degenerate row segments in PlanSqueeze ---------------
//
// Fixed cells become immovable walls in the legalizer's row model. Walls that
// overlap the row start, abut each other, or nest inside a wider wall all
// produce degenerate (zero- or negative-width) free segments; PlanSqueeze
// must skip those instead of squeezing cells into an interval that sits
// inside a fixed obstruction. Each harness pins the chip to one layer, piles
// every movable cell onto one point so rows fill up and the squeeze path is
// exercised, then checks no movable cell overlaps any wall span.
struct WallFixture {
  netlist::Netlist nl;
  PlacerParams params;
  std::vector<std::int32_t> walls;  // fixed cell ids

  // `wall_widths` in metres; placement positions are set later relative to
  // the built chip width.
  explicit WallFixture(int movable, const std::vector<double>& wall_widths) {
    for (int c = 0; c < movable; ++c) {
      // Heterogeneous widths: uniform cells pack with gaps that are either
      // zero or cell-sized, which never exercises the squeeze path.
      const double width = (1.2 + 0.8 * (c % 4)) * 1e-6;
      nl.AddCell("c" + std::to_string(c), width, 1.4e-6);
    }
    for (std::size_t w = 0; w < wall_widths.size(); ++w) {
      // Tall blocks: every row of the (single) layer is walled.
      walls.push_back(nl.AddCell("wall" + std::to_string(w), wall_widths[w],
                                 400e-6, /*fixed=*/true));
    }
    nl.AddNet("n");
    nl.AddPin(0, netlist::PinDir::kOutput);
    nl.AddPin(1, netlist::PinDir::kInput);
    EXPECT_TRUE(nl.Finalize());
    params.num_layers = 1;
    params.SyncStack();
  }
};

void RunWallCase(WallFixture& f, const Chip& chip,
                 const std::vector<double>& wall_x) {
  ObjectiveEvaluator eval(f.nl, chip, f.params);
  Placement p;
  p.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    // Point pile-up at mid-die: rows fill as legalization proceeds, so late
    // cells have no free gap and must go through PlanSqueeze.
    p.x[i] = chip.width() / 2;
    p.y[i] = chip.height() / 2;
    p.layer[i] = 0;
  }
  for (std::size_t w = 0; w < f.walls.size(); ++w) {
    const std::size_t wi = static_cast<std::size_t>(f.walls[w]);
    p.x[wi] = wall_x[w];
    p.y[wi] = chip.height() / 2;
    p.layer[wi] = 0;
  }
  eval.SetPlacement(p);
  DetailedLegalizer legalizer(eval);
  const LegalizeStats stats = legalizer.Run();
  EXPECT_TRUE(stats.success);
  // The point pile-up must actually drive rows through PlanSqueeze — that's
  // the code path whose segment handling these cases pin down.
  EXPECT_GT(stats.squeezes, 0);
  EXPECT_EQ(DetailedLegalizer::CountOverlaps(f.nl, eval.placement()), 0);

  // CountOverlaps skips fixed cells; check movable-vs-wall explicitly.
  const Placement& out = eval.placement();
  for (const std::int32_t wall : f.walls) {
    const std::size_t wi = static_cast<std::size_t>(wall);
    const double w_lo = out.x[wi] - f.nl.cell(wall).width / 2.0;
    const double w_hi = out.x[wi] + f.nl.cell(wall).width / 2.0;
    for (std::int32_t c = 0; c < f.nl.NumCells(); ++c) {
      if (f.nl.cell(c).fixed) continue;
      const std::size_t i = static_cast<std::size_t>(c);
      const double lo = out.x[i] - f.nl.cell(c).width / 2.0;
      const double hi = out.x[i] + f.nl.cell(c).width / 2.0;
      EXPECT_TRUE(hi <= w_lo + 1e-12 || lo >= w_hi - 1e-12)
          << "cell " << c << " [" << lo << ", " << hi << "] overlaps wall "
          << wall << " [" << w_lo << ", " << w_hi << "]";
    }
  }
}

// The die is sized from MOVABLE area only (walls get no capacity of their
// own), so each case budgets ~3e-6 of wall width against 15% whitespace on a
// ~40e-6-wide die: rows end up ~93% full, which both forces the squeeze path
// and stays legalizable.

TEST(Legalize, WallOverlappingRowStart) {
  // A wall clamped to the die edge makes the first free segment degenerate
  // ([0, 0]); the segment builder must drop it.
  WallFixture f(400, {3e-6});
  const Chip chip = *Chip::Build(f.nl, 1, 0.15, 0.25);
  RunWallCase(f, chip, {1e-6});  // span [-0.5e-6, 2.5e-6] clamps at 0
}

TEST(Legalize, AbuttingWallsLeaveNoZeroWidthSegment) {
  // Two walls sharing an edge produce a zero-width segment between them.
  WallFixture f(400, {1.5e-6, 1.5e-6});
  const Chip chip = *Chip::Build(f.nl, 1, 0.15, 0.25);
  const double mid = chip.width() / 3;
  // Spans abut exactly at mid + 0.75e-6.
  RunWallCase(f, chip, {mid, mid + 1.5e-6});
}

TEST(Legalize, NestedWallsNeverSqueezeIntoEncloser) {
  // Walls sorted by lo: a wall nested inside a wider one REGRESSES the
  // running segment start (its hi is below the encloser's hi). Without the
  // monotone seg_lo guard the segment after the nested wall started inside
  // the enclosing wall, and squeezed cells landed on top of it.
  WallFixture f(400, {3e-6, 1e-6});
  const Chip chip = *Chip::Build(f.nl, 1, 0.12, 0.25);
  const double mid = chip.width() / 3;
  // Nested span [mid-1.25e-6, mid-0.25e-6] inside [mid +- 1.5e-6].
  RunWallCase(f, chip, {mid, mid - 0.75e-6});
}

TEST(Legalize, GapTheCellExactlyFillsKeepsUncrossedClampBounds) {
  // The only free gap of every row, [3.088e-6, 1.091e-5] m, passes
  // `g_hi - g_lo >= width` for this 7.818e-6 m cell, yet rounding puts
  // g_lo + w/2 one ulp above g_hi - w/2. Crossed bounds are a std::clamp
  // precondition violation (an abort under _GLIBCXX_ASSERTIONS); the cell
  // must instead land in the gap.
  const double g_lo = 3.0881506130865378e-06;
  const double g_hi = 1.0906397865839079e-05;
  const double width = 7.818247252752542e-06;
  ASSERT_GE(g_hi - g_lo, width);
  ASSERT_GT(g_lo + width / 2.0, g_hi - width / 2.0);

  netlist::Netlist nl;
  const std::int32_t cell = nl.AddCell("c", width, 1.4e-6);
  // Walls as tall as the die: [0, g_lo] and [g_hi, 3 g_hi], the latter
  // clipped to the die. Each centre and half-width makes both edges exact.
  const std::int32_t left = nl.AddCell("left", g_lo, 400e-6, /*fixed=*/true);
  const std::int32_t right =
      nl.AddCell("right", 2.0 * g_hi, 400e-6, /*fixed=*/true);
  ASSERT_TRUE(nl.Finalize());
  PlacerParams params;
  params.num_layers = 1;
  params.SyncStack();
  const Chip chip = *Chip::Build(nl, 1, params.whitespace,
                                 params.inter_row_space);
  ASSERT_GT(chip.width(), g_hi);  // the right wall starts inside the die

  Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  p.x = {chip.width() / 2, g_lo / 2.0, 2.0 * g_hi};
  p.y.assign(3, chip.height() / 2);
  ObjectiveEvaluator eval(nl, chip, params);
  eval.SetPlacement(p);
  DetailedLegalizer legalizer(eval);
  ASSERT_TRUE(legalizer.Run().success);

  const double x = eval.placement().x[static_cast<std::size_t>(cell)];
  EXPECT_GE(x - width / 2.0, g_lo - 1e-18);
  EXPECT_LE(x + width / 2.0, g_hi + 1e-18);
  EXPECT_EQ(eval.placement().x[static_cast<std::size_t>(left)], g_lo / 2.0);
  EXPECT_EQ(eval.placement().x[static_cast<std::size_t>(right)], 2.0 * g_hi);
}

// ----- windowed parallel schedule ------------------------------------------

TEST(Legalize, ThreadCountDoesNotChangePlacementBytes) {
  // The windowed slot-assignment schedule (DESIGN.md §5) screens candidate
  // slots concurrently per row block and replays the chosen candidates
  // serially in ascending window order, so the legalized placement must be
  // byte-identical at any thread count. Small windows force many blocks even
  // on this small die.
  Placement reference;
  LegalizeStats ref_stats;
  for (const int threads : {1, 3, 4}) {
    Fixture f(700);
    f.params.threads = threads;
    f.params.legalize_window_rows = 4;
    ObjectiveEvaluator eval(f.nl, f.chip, f.params);
    eval.SetPlacement(f.RandomSpread(9));
    DetailedLegalizer legalizer(eval);
    const LegalizeStats stats = legalizer.Run();
    ASSERT_TRUE(stats.success);
    if (threads == 1) {
      reference = eval.placement();
      ref_stats = stats;
    } else {
      EXPECT_EQ(reference.x, eval.placement().x) << "threads=" << threads;
      EXPECT_EQ(reference.y, eval.placement().y) << "threads=" << threads;
      EXPECT_EQ(reference.layer, eval.placement().layer)
          << "threads=" << threads;
      // The schedule (not just the result) must match: same work, same stats.
      EXPECT_EQ(stats.placed, ref_stats.placed);
      EXPECT_EQ(stats.squeezes, ref_stats.squeezes);
      EXPECT_EQ(stats.deferred, ref_stats.deferred);
    }
  }
}

TEST(Legalize, OversizedWindowMatchesSerialSchedule) {
  // legalize_window_rows beyond the row count degenerates to one window —
  // the parallel protocol must reduce to the serial schedule exactly.
  Placement reference;
  for (const int window_rows : {1 << 20, 8}) {
    Fixture f(400);
    f.params.threads = 2;
    f.params.legalize_window_rows = window_rows;
    ObjectiveEvaluator eval(f.nl, f.chip, f.params);
    eval.SetPlacement(f.RandomSpread(12));
    DetailedLegalizer legalizer(eval);
    ASSERT_TRUE(legalizer.Run().success);
    ExpectFullyLegal(f, eval.placement());
    if (window_rows == 1 << 20) reference = eval.placement();
  }
  // (Different window sizes may legitimately differ; the loop only checks
  // both extremes stay legal. The 1-window case IS the serial schedule.)
  SUCCEED();
}

TEST(Legalize, ParallelRunReplaysUnderParanoidAudit) {
  // Paranoid audit: record every commit of a 4-thread legalization and
  // replay the full operation sequence on a fresh evaluator — every applied
  // delta must match a freshly computed one and the final placement must
  // reproduce bitwise.
  Fixture f(400);
  f.params.threads = 4;
  f.params.legalize_window_rows = 4;
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  check::MoveLog log;
  eval.AddCommitListener(&log);
  eval.SetPlacement(f.RandomSpread(10));
  DetailedLegalizer legalizer(eval);
  ASSERT_TRUE(legalizer.Run().success);
  ASSERT_TRUE(log.has_start());
  ASSERT_EQ(log.dropped(), 0u);
  const check::ReplayResult result = check::ReplayAndVerify(
      f.nl, f.chip, f.params, log, &eval.placement());
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_GT(result.ops_checked, 0u);
}

class LegalizeSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LegalizeSweep, AlwaysLegal) {
  const auto [cells, layers] = GetParam();
  Fixture f(cells, layers, static_cast<std::uint64_t>(cells + layers));
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  eval.SetPlacement(f.RandomSpread(static_cast<std::uint64_t>(cells)));
  DetailedLegalizer legalizer(eval);
  EXPECT_TRUE(legalizer.Run().success);
  ExpectFullyLegal(f, eval.placement());
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndLayers, LegalizeSweep,
    ::testing::Combine(::testing::Values(100, 400, 1200),
                       ::testing::Values(1, 2, 4, 8)));

}  // namespace
}  // namespace p3d::place
