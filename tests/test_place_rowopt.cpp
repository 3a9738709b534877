#include <gtest/gtest.h>

#include "check/invariants.h"
#include "check/replay.h"
#include "io/synthetic.h"
#include "place/legalize.h"
#include "place/rowopt.h"
#include "util/rng.h"

namespace p3d::place {
namespace {

struct Fixture {
  netlist::Netlist nl;
  Chip chip;
  PlacerParams params;
  ObjectiveEvaluator eval;

  explicit Fixture(int cells = 500, double alpha_temp = 0.0, int threads = 0,
                   int window_rows = 0)
      : nl(MakeNetlist(cells)),
        chip(*Chip::Build(nl, 4, 0.05, 0.25)),
        params(MakeParams(alpha_temp, threads, window_rows)),
        eval(nl, chip, params) {}

  static netlist::Netlist MakeNetlist(int cells) {
    io::SyntheticSpec spec;
    spec.name = "ropt";
    spec.num_cells = cells;
    spec.total_area_m2 = cells * 4.9e-12;
    spec.seed = 61;
    return io::Generate(spec);
  }
  static PlacerParams MakeParams(double alpha_temp, int threads = 0,
                                 int window_rows = 0) {
    PlacerParams p;
    p.num_layers = 4;
    p.alpha_ilv = 1e-5;
    p.alpha_temp = alpha_temp;
    if (threads > 0) p.threads = threads;
    if (window_rows > 0) p.legalize_window_rows = window_rows;
    p.SyncStack();
    return p;
  }

  /// Produces a legal (but unoptimized) placement via the legalizer.
  void LegalStart(std::uint64_t seed) {
    util::Rng rng(seed);
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
  }
};

void ExpectLegal(const Fixture& f) {
  const Placement& p = f.eval.placement();
  EXPECT_EQ(DetailedLegalizer::CountOverlaps(f.nl, p), 0);
  for (std::int32_t c = 0; c < f.nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    const double half_w = f.nl.cell(c).width / 2.0;
    EXPECT_GE(p.x[i] - half_w, -1e-12);
    EXPECT_LE(p.x[i] + half_w, f.chip.width() + 1e-12);
    const int row = f.chip.NearestRow(p.y[i]);
    EXPECT_NEAR(p.y[i], f.chip.RowCenterY(row), 1e-12);
  }
}

TEST(RowRefiner, PreservesLegality) {
  Fixture f;
  f.LegalStart(1);
  RowRefiner refiner(f.eval, 2);
  refiner.Run(3);
  ExpectLegal(f);
}

TEST(RowRefiner, NeverWorsensObjective) {
  Fixture f;
  f.LegalStart(3);
  const double before = f.eval.Total();
  RowRefiner refiner(f.eval, 4);
  const RowOptStats stats = refiner.Run(2);
  EXPECT_LE(f.eval.Total(), before * (1 + 1e-12));
  EXPECT_NEAR(before - f.eval.Total(), stats.gain,
              std::abs(before) * 1e-9);
}

TEST(RowRefiner, ImprovesUnoptimizedLegalPlacement) {
  Fixture f(800);
  f.LegalStart(5);
  const double before = f.eval.Total();
  RowRefiner refiner(f.eval, 6);
  refiner.Run(3);
  // A legalized random placement leaves plenty of slide/reorder gain.
  EXPECT_LT(f.eval.Total(), 0.95 * before);
  ExpectLegal(f);
}

TEST(RowRefiner, IncrementalStateConsistent) {
  Fixture f(300, /*alpha_temp=*/2e-6);
  f.LegalStart(7);
  RowRefiner refiner(f.eval, 8);
  refiner.Run(2);
  const double cached = f.eval.Total();
  EXPECT_NEAR(f.eval.RecomputeFull(), cached, std::abs(cached) * 1e-9);
}

TEST(RowRefiner, ReportsActionCounts) {
  Fixture f;
  f.LegalStart(9);
  RowRefiner refiner(f.eval, 10);
  const RowOptStats stats = refiner.Run(2);
  EXPECT_GT(stats.slides + stats.reorders + stats.layer_swaps, 0);
  EXPECT_GE(stats.gain, 0.0);
}

TEST(RowRefiner, LayerSwapsTradeViasForObjective) {
  // With a strong alpha_ILV, layer swaps that merge net spans are very
  // valuable; the refiner should find at least some on a scrambled start.
  Fixture f(600);
  f.LegalStart(11);
  RowRefiner refiner(f.eval, 12);
  const RowOptStats stats = refiner.Run(3);
  EXPECT_GT(stats.layer_swaps, 0);
}

// ----- windowed parallel schedule ------------------------------------------

TEST(RowRefiner, ThreadCountDoesNotChangePlacementBytes) {
  // All three passes run under the windowed propose/commit protocol
  // (DESIGN.md §5): proposals are screened per row block against the frozen
  // placement, commits replay serially in ascending window order and
  // re-evaluate against the live state. The refined placement must be
  // byte-identical at any thread count; small windows force many blocks.
  Placement reference;
  RowOptStats ref_stats;
  for (const int threads : {1, 3, 4}) {
    Fixture f(800, /*alpha_temp=*/0.0, threads, /*window_rows=*/4);
    f.LegalStart(21);
    RowRefiner refiner(f.eval, 22);
    const RowOptStats stats = refiner.Run(3);
    if (threads == 1) {
      reference = f.eval.placement();
      ref_stats = stats;
    } else {
      EXPECT_EQ(reference.x, f.eval.placement().x) << "threads=" << threads;
      EXPECT_EQ(reference.y, f.eval.placement().y) << "threads=" << threads;
      EXPECT_EQ(reference.layer, f.eval.placement().layer)
          << "threads=" << threads;
      // The schedule itself must match, not just the endpoint.
      EXPECT_EQ(stats.slides, ref_stats.slides);
      EXPECT_EQ(stats.reorders, ref_stats.reorders);
      EXPECT_EQ(stats.layer_swaps, ref_stats.layer_swaps);
      EXPECT_DOUBLE_EQ(stats.gain, ref_stats.gain);
    }
    ExpectLegal(f);
  }
}

TEST(RowRefiner, ParallelRunReplaysUnderParanoidAudit) {
  // Record every commit (including reorder/layer-swap rollback moves) of a
  // 4-thread refinement and replay the sequence on a fresh evaluator: every
  // applied delta must match a freshly computed one and the final placement
  // must reproduce bitwise.
  Fixture f(500, /*alpha_temp=*/0.0, /*threads=*/4, /*window_rows=*/4);
  f.LegalStart(23);
  check::MoveLog log;
  log.Rebase(f.eval.placement());
  f.eval.AddCommitListener(&log);
  RowRefiner refiner(f.eval, 24);
  refiner.Run(2);
  ASSERT_TRUE(log.has_start());
  ASSERT_EQ(log.dropped(), 0u);
  const check::ReplayResult result = check::ReplayAndVerify(
      f.nl, f.chip, f.params, log, &f.eval.placement());
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(RowRefiner, ParallelRefineNeverEntersFixedWalls) {
  // A tall fixed block walls the middle of every row; parallel rowopt must
  // treat it as impenetrable. Verified with the src/check invariant rather
  // than ad-hoc geometry, the same check the paranoid auditor runs.
  netlist::Netlist nl;
  for (int c = 0; c < 120; ++c) {
    nl.AddCell("c" + std::to_string(c), (1.2 + 0.8 * (c % 4)) * 1e-6, 1.4e-6);
  }
  const std::int32_t blk = nl.AddCell("block", 3e-6, 400e-6, /*fixed=*/true);
  nl.AddNet("n");
  nl.AddPin(0, netlist::PinDir::kOutput);
  nl.AddPin(1, netlist::PinDir::kInput);
  ASSERT_TRUE(nl.Finalize());
  PlacerParams params;
  params.num_layers = 1;
  params.threads = 4;
  params.legalize_window_rows = 2;
  params.SyncStack();
  const Chip chip = *Chip::Build(nl, 1, 0.40, 0.25);
  ObjectiveEvaluator eval(nl, chip, params);
  Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  util::Rng rng(25);
  for (std::int32_t c = 0; c < 120; ++c) {
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
  RowRefiner refiner(eval, 26);
  refiner.Run(3);
  std::vector<check::Violation> violations;
  EXPECT_EQ(check::CheckFixedOverlap(nl, eval.placement(), &violations), 0)
      << (violations.empty() ? "" : violations.front().message);
  EXPECT_EQ(DetailedLegalizer::CountOverlaps(nl, eval.placement()), 0);
}

// ----- detailed-placement golden bytes ---------------------------------------
// FNV-1a hash of the placement after DetailedLegalizer::Run and then
// RowRefiner::Run(2), recorded on x86-64. The fixtures put fixed walls in the
// rows: walls crossing the left and right die edges, a wall nested inside a
// wider one, and two abutting walls, on both layers, so both engines build,
// search and refine rows bounded by every wall shape. Any change to how the
// row model is built or searched moves a hash; a refactor that keeps both
// engines' placements bit-identical keeps them all, at any thread count.
// The hashes pin the bytes as they are, so they assert no wall contract:
// next to the nested wall, rowopt bounds a cell's free span by the nested
// wall's right edge, not the encloser's, and slides cells into the encloser.

std::uint64_t PlacementHash(const Placement& p) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  mix(p.x.data(), p.x.size() * sizeof(double));
  mix(p.y.data(), p.y.size() * sizeof(double));
  mix(p.layer.data(), p.layer.size() * sizeof(int));
  return h;
}

struct GoldenWall {
  double width;
  double x_frac;     // center as a fraction of the die width
  double x_offset;   // plus this many metres
  double height;
  double y_frac;     // center as a fraction of the die height
  int layer;
};

/// Legalizes and refines `movable` heterogeneous cells (half piled up at
/// mid-die so the squeeze path runs, half spread at random) around `walls`
/// on a two-layer die; returns the final placement's hash.
std::uint64_t GoldenWallRun(int threads, const std::vector<GoldenWall>& walls,
                            int movable, std::uint64_t seed) {
  netlist::Netlist nl;
  for (int c = 0; c < movable; ++c) {
    nl.AddCell("c" + std::to_string(c), (1.2 + 0.8 * (c % 4)) * 1e-6, 1.4e-6);
  }
  std::vector<std::int32_t> wall_ids;
  for (std::size_t w = 0; w < walls.size(); ++w) {
    wall_ids.push_back(nl.AddCell("wall" + std::to_string(w), walls[w].width,
                                  walls[w].height, /*fixed=*/true));
  }
  util::Rng net_rng(seed + 1);
  for (int n = 0; n < movable; ++n) {
    nl.AddNet("n" + std::to_string(n));
    nl.AddPin(n, netlist::PinDir::kOutput);
    for (int k = 0; k < 2; ++k) {
      nl.AddPin(static_cast<std::int32_t>(
                    net_rng.NextBounded(static_cast<std::uint64_t>(movable))),
                netlist::PinDir::kInput);
    }
  }
  EXPECT_TRUE(nl.Finalize());
  PlacerParams params;
  params.num_layers = 2;
  params.alpha_ilv = 1e-5;
  params.threads = threads;
  params.legalize_window_rows = 2;
  params.SyncStack();
  const Chip chip = *Chip::Build(nl, 2, 0.30, 0.25);
  ObjectiveEvaluator eval(nl, chip, params);
  Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  util::Rng rng(seed);
  for (int c = 0; c < movable; ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    if (c % 2 == 0) {
      p.x[i] = chip.width() / 2;
      p.y[i] = chip.height() / 2;
    } else {
      p.x[i] = rng.NextDouble(0.0, chip.width());
      p.y[i] = rng.NextDouble(0.0, chip.height());
    }
    p.layer[i] = rng.NextInt(0, 1);
  }
  for (std::size_t w = 0; w < walls.size(); ++w) {
    const std::size_t i = static_cast<std::size_t>(wall_ids[w]);
    p.x[i] = walls[w].x_frac * chip.width() + walls[w].x_offset;
    p.y[i] = walls[w].y_frac * chip.height();
    p.layer[i] = walls[w].layer;
  }
  eval.SetPlacement(p);
  DetailedLegalizer legalizer(eval);
  const LegalizeStats leg = legalizer.Run();
  EXPECT_TRUE(leg.success);
  EXPECT_GT(leg.squeezes, 0);
  RowRefiner refiner(eval, 7);
  const RowOptStats opt = refiner.Run(2);
  EXPECT_GT(opt.slides, 0);
  EXPECT_GT(opt.layer_swaps, 0);
  EXPECT_EQ(DetailedLegalizer::CountOverlaps(nl, eval.placement()), 0);
  return PlacementHash(eval.placement());
}

TEST(DetailedGolden, WallBoundedRowsPlacementHash) {
  const std::vector<GoldenWall> walls = {
      // Crossing the left and right die edges in the upper rows of layer 0.
      {3e-6, 0.0, 0.5e-6, 12e-6, 0.75, 0},
      {3e-6, 1.0, -0.5e-6, 12e-6, 0.75, 0},
      // A 1 um wall nested inside a 3 um one, every row of layer 0.
      {3e-6, 1.0 / 3, 0.0, 400e-6, 0.5, 0},
      {1e-6, 1.0 / 3, -0.75e-6, 400e-6, 0.5, 0},
      // Two walls sharing an edge.
      {1.5e-6, 2.0 / 3, 0.0, 400e-6, 0.5, 0},
      {1.5e-6, 2.0 / 3, 1.5e-6, 400e-6, 0.5, 0},
      // Mostly outside both die edges in the lower rows of layer 1: clipped
      // to the die, their centers would move inside it, where rowopt's
      // layer-swap partner lookup from layer 0 reads them.
      {8e-6, 0.0, -2e-6, 12e-6, 0.25, 1},
      {8e-6, 1.0, 2e-6, 12e-6, 0.25, 1},
  };
  for (const int threads : {1, 3}) {
    EXPECT_EQ(GoldenWallRun(threads, walls, 320, 91), 11044138885465616887ull)
        << "threads=" << threads;
  }
}

TEST(DetailedGolden, CenteredWallPlacementHash) {
  // The fixture of RowRefiner.ParallelRefineNeverEntersFixedWalls.
  for (const int threads : {1, 3}) {
    EXPECT_EQ(GoldenWallRun(threads, {{3e-6, 0.5, 0.0, 400e-6, 0.5, 0}}, 120, 25),
              13202859961314920529ull)
        << "threads=" << threads;
  }
}

class RowRefinerSweep : public ::testing::TestWithParam<int> {};

TEST_P(RowRefinerSweep, LegalAndMonotoneAcrossSizes) {
  Fixture f(GetParam());
  f.LegalStart(static_cast<std::uint64_t>(GetParam()));
  const double before = f.eval.Total();
  RowRefiner refiner(f.eval, 13);
  refiner.Run(2);
  EXPECT_LE(f.eval.Total(), before * (1 + 1e-12));
  ExpectLegal(f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RowRefinerSweep,
                         ::testing::Values(100, 300, 900));

}  // namespace
}  // namespace p3d::place
