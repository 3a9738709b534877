#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "io/synthetic.h"
#include "place/objective.h"
#include "util/rng.h"

namespace p3d::place {
namespace {

netlist::Netlist TinyCircuit() {
  netlist::Netlist nl;
  nl.AddCell("a", 2e-6, 1e-6);
  nl.AddCell("b", 2e-6, 1e-6);
  nl.AddCell("c", 2e-6, 1e-6);
  nl.AddNet("n0", 0.2);
  nl.AddPin(0, netlist::PinDir::kOutput);
  nl.AddPin(1, netlist::PinDir::kInput);
  nl.AddNet("n1", 0.4);
  nl.AddPin(1, netlist::PinDir::kOutput);
  nl.AddPin(2, netlist::PinDir::kInput);
  EXPECT_TRUE(nl.Finalize());
  return nl;
}

Placement TinyPlacement() {
  Placement p;
  p.Resize(3);
  p.x = {1e-6, 5e-6, 9e-6};
  p.y = {1e-6, 3e-6, 1e-6};
  p.layer = {0, 1, 1};
  return p;
}

TEST(Objective, WirelengthAndIlvOnly) {
  const netlist::Netlist nl = TinyCircuit();
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 0.0;
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);
  eval.SetPlacement(TinyPlacement());

  // n0: |5-1| + |3-1| = 6u, span 1; n1: 4 + 2 = 6u, span 0.
  EXPECT_NEAR(eval.NetHpwl(0), 6e-6, 1e-15);
  EXPECT_EQ(eval.NetSpan(0), 1);
  EXPECT_NEAR(eval.NetHpwl(1), 6e-6, 1e-15);
  EXPECT_EQ(eval.NetSpan(1), 0);
  EXPECT_NEAR(eval.TotalHpwl(), 12e-6, 1e-15);
  EXPECT_EQ(eval.TotalIlv(), 1);
  EXPECT_NEAR(eval.Total(), 12e-6 + 1e-5 * 1, 1e-15);
  // Incremental bookkeeping may leave sub-femto float residue.
  EXPECT_NEAR(eval.ThermalCost(), 0.0, 1e-18);
}

TEST(Objective, ThermalTermMatchesHandComputation) {
  const netlist::Netlist nl = TinyCircuit();
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 2e-6;
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);
  const Placement p = TinyPlacement();
  eval.SetPlacement(p);

  // Thermal cost = alpha_temp * sum_nets R_driver * (s_wl WL + s_ilv ILV + s_pin).
  double expected = 0.0;
  const thermal::ResistanceModel& rm = eval.resistance_model();
  for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
    const std::int32_t d = nl.DriverCell(n);
    const std::size_t di = static_cast<std::size_t>(d);
    const double r =
        rm.CellToAmbient(p.x[di], p.y[di], p.layer[di], nl.cell(d).Area());
    expected += params.alpha_temp * r *
                (eval.SWl(n) * eval.NetHpwl(n) + eval.SIlv(n) * eval.NetSpan(n) +
                 eval.SPinTerm(n));
  }
  EXPECT_NEAR(eval.ThermalCost(), expected, expected * 1e-9);
  EXPECT_NEAR(eval.Total(), eval.TotalHpwl() + 1e-5 * eval.TotalIlv() + expected,
              eval.Total() * 1e-12);
}

TEST(Objective, SCoefficientsMatchEq8) {
  const netlist::Netlist nl = TinyCircuit();
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  PlacerParams params;
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);
  const auto& e = params.electrical;
  // One output pin on n0, activity 0.2.
  EXPECT_NEAR(eval.SWl(0), e.Prefactor() * 0.2 * e.c_per_wl, 1e-18);
  EXPECT_NEAR(eval.SIlv(0), e.Prefactor() * 0.2 * e.CPerIlv(), 1e-18);
  EXPECT_NEAR(eval.SPinTerm(0), e.Prefactor() * 0.2 * e.c_per_pin * 1, 1e-18);
}

TEST(Objective, MoveDeltaMatchesRecompute) {
  const netlist::Netlist nl = TinyCircuit();
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  PlacerParams params;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 1e-6;
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);
  eval.SetPlacement(TinyPlacement());
  DeltaView view(&eval);

  const double before = eval.Total();
  const double delta = view.MoveDelta(1, 2e-6, 2e-6, 3);
  eval.CommitMove(1, 2e-6, 2e-6, 3);
  const double after_incremental = eval.Total();
  const double after_full = eval.RecomputeFull();
  EXPECT_NEAR(after_incremental, before + delta, std::abs(before) * 1e-12);
  EXPECT_NEAR(after_incremental, after_full, std::abs(after_full) * 1e-12);
}

TEST(Objective, SwapDeltaMatchesRecompute) {
  const netlist::Netlist nl = TinyCircuit();
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  PlacerParams params;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 1e-6;
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);
  eval.SetPlacement(TinyPlacement());
  DeltaView view(&eval);

  const double before = eval.Total();
  const double delta = view.SwapDelta(0, 2);
  eval.CommitSwap(0, 2);
  EXPECT_NEAR(eval.Total(), before + delta, std::abs(before) * 1e-12);
  EXPECT_NEAR(eval.Total(), eval.RecomputeFull(), std::abs(before) * 1e-12);
  // Positions actually exchanged.
  EXPECT_DOUBLE_EQ(eval.placement().x[0], 9e-6);
  EXPECT_DOUBLE_EQ(eval.placement().x[2], 1e-6);
  EXPECT_EQ(eval.placement().layer[0], 1);
}

// Property test: a long random sequence of moves and swaps keeps the
// incremental caches exactly in sync with a full recomputation.
class ObjectiveIncrementalConsistency
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObjectiveIncrementalConsistency, RandomWalkStaysConsistent) {
  io::SyntheticSpec spec;
  spec.name = "obj";
  spec.num_cells = 200;
  spec.total_area_m2 = 200 * 4.9e-12;
  spec.seed = GetParam();
  const netlist::Netlist nl = io::Generate(spec);
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 5e-6;
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);

  util::Rng rng(GetParam() * 7 + 1);
  Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = rng.NextDouble(0.0, chip.width());
    p.y[i] = rng.NextDouble(0.0, chip.height());
    p.layer[i] = rng.NextInt(0, 3);
  }
  eval.SetPlacement(p);
  DeltaView view(&eval);

  double running = eval.Total();
  for (int step = 0; step < 300; ++step) {
    if (rng.NextBool()) {
      const auto c = static_cast<std::int32_t>(
          rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
      const double nx = rng.NextDouble(0.0, chip.width());
      const double ny = rng.NextDouble(0.0, chip.height());
      const int nlayer = rng.NextInt(0, 3);
      running += view.MoveDelta(c, nx, ny, nlayer);
      eval.CommitMove(c, nx, ny, nlayer);
    } else {
      const auto a = static_cast<std::int32_t>(
          rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
      const auto b = static_cast<std::int32_t>(
          rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
      if (a == b) continue;
      running += view.SwapDelta(a, b);
      eval.CommitSwap(a, b);
    }
    ASSERT_NEAR(eval.Total(), running, std::abs(running) * 1e-9) << step;
  }
  const double full = eval.RecomputeFull();
  EXPECT_NEAR(full, running, std::abs(full) * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectiveIncrementalConsistency,
                         ::testing::Values(1u, 2u, 3u));

TEST(Objective, LeakagePowerEntersThermalTerm) {
  const netlist::Netlist nl = TinyCircuit();
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 2e-6;
  params.electrical.leakage_per_cell_w = 1e-7;
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);
  const Placement p = TinyPlacement();
  eval.SetPlacement(p);

  // The leakage contribution is alpha_temp * leak * sum_j R_j.
  PlacerParams no_leak = params;
  no_leak.electrical.leakage_per_cell_w = 0.0;
  ObjectiveEvaluator base(nl, chip, no_leak);
  base.SetPlacement(p);
  double r_sum = 0.0;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    r_sum += eval.CellResistance(c);
  }
  EXPECT_NEAR(eval.Total() - base.Total(),
              params.alpha_temp * 1e-7 * r_sum,
              eval.Total() * 1e-9);
}

TEST(Objective, LeakageIncrementalConsistency) {
  io::SyntheticSpec spec;
  spec.name = "leak";
  spec.num_cells = 150;
  spec.total_area_m2 = 150 * 4.9e-12;
  spec.seed = 77;
  const netlist::Netlist nl = io::Generate(spec);
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 5e-6;
  params.electrical.leakage_per_cell_w = 2e-7;
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);
  util::Rng rng(9);
  Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = rng.NextDouble(0.0, chip.width());
    p.y[i] = rng.NextDouble(0.0, chip.height());
    p.layer[i] = rng.NextInt(0, 3);
  }
  eval.SetPlacement(p);
  DeltaView view(&eval);
  double running = eval.Total();
  for (int step = 0; step < 150; ++step) {
    if (rng.NextBool()) {
      const auto c = static_cast<std::int32_t>(
          rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
      const double nx = rng.NextDouble(0.0, chip.width());
      const double ny = rng.NextDouble(0.0, chip.height());
      const int nlayer = rng.NextInt(0, 3);
      running += view.MoveDelta(c, nx, ny, nlayer);
      eval.CommitMove(c, nx, ny, nlayer);
    } else {
      const auto a = static_cast<std::int32_t>(
          rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
      const auto b = static_cast<std::int32_t>(
          rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
      if (a == b) continue;
      running += view.SwapDelta(a, b);
      eval.CommitSwap(a, b);
    }
  }
  ASSERT_NEAR(eval.Total(), running, std::abs(running) * 1e-9);
  EXPECT_NEAR(eval.RecomputeFull(), running, std::abs(running) * 1e-9);
}

TEST(Objective, LeakagePrefersLowerLayers) {
  // For a cell with no nets, only the leakage term reacts to a layer move —
  // and a lower layer strictly reduces it through R_j.
  netlist::Netlist nl;
  nl.AddCell("a", 2e-6, 1e-6);
  nl.AddCell("b", 2e-6, 1e-6);
  nl.AddCell("lonely", 2e-6, 1e-6);  // no pins
  nl.AddNet("n", 0.2);
  nl.AddPin(0, netlist::PinDir::kOutput);
  nl.AddPin(1, netlist::PinDir::kInput);
  ASSERT_TRUE(nl.Finalize());
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  PlacerParams params;
  params.num_layers = 4;
  params.alpha_temp = 1e-5;
  params.electrical.leakage_per_cell_w = 1e-6;
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);
  Placement p;
  p.Resize(3);
  p.layer = {3, 3, 3};
  eval.SetPlacement(p);
  DeltaView view(&eval);
  EXPECT_LT(view.MoveDelta(2, p.x[2], p.y[2], 0), 0.0);
  EXPECT_DOUBLE_EQ(view.MoveDelta(2, p.x[2], p.y[2], 3), 0.0);
}

TEST(Objective, DriverlessNetHasNoThermalCost) {
  netlist::Netlist nl;
  nl.AddCell("a", 1e-6, 1e-6);
  nl.AddCell("b", 1e-6, 1e-6);
  nl.AddNet("n", 0.9);
  nl.AddPin(0, netlist::PinDir::kInput);
  nl.AddPin(1, netlist::PinDir::kInput);
  ASSERT_TRUE(nl.Finalize());
  const Chip chip = *Chip::Build(nl, 2, 0.05, 0.25);
  PlacerParams params;
  params.num_layers = 2;
  params.alpha_temp = 1e-5;
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);
  Placement p;
  p.Resize(2);
  p.x = {0.0, 5e-6};
  eval.SetPlacement(p);
  EXPECT_DOUBLE_EQ(eval.ThermalCost(), 0.0);
  EXPECT_GT(eval.TotalHpwl(), 0.0);
}

// A random netlist with every shape a view's cell context must handle:
// cells holding two pins of one net, nets on a single cell (one pin, or two
// pins of the same cell), driverless nets, and nets of random size whose
// pins sit at random offsets. The first kRingCells cells form a ring where
// each cell has exactly four pins, on four distinct two-pin nets, one shared
// with each ring cell at most two steps away.
constexpr int kRingCells = 1200;

netlist::Netlist ContextNetlist(std::uint64_t seed) {
  util::Rng rng(seed);
  constexpr int kCells = 2600;
  netlist::Netlist nl;
  for (int c = 0; c < kCells; ++c) {
    nl.AddCell("c" + std::to_string(c), 2e-6, 1e-6);
  }
  const auto offset = [&] { return rng.NextDouble(-1e-6, 1e-6); };
  int net = 0;
  const auto add_net = [&] { nl.AddNet("n" + std::to_string(net++), 0.3); };
  for (int i = 0; i < kRingCells; ++i) {
    for (const int step : {1, 2}) {
      add_net();
      nl.AddPin(i, netlist::PinDir::kOutput, offset(), offset());
      nl.AddPin((i + step) % kRingCells, netlist::PinDir::kInput, offset(),
                offset());
    }
  }
  for (int k = 0; k < 3000; ++k) {
    add_net();
    const int pins = rng.NextInt(2, 6);
    for (int p = 0; p < pins; ++p) {
      // Cells may repeat within a net: a cell with two pins on it.
      const int c = rng.NextInt(kRingCells, kCells - 1);
      const bool driver = p == 0 && k % 10 != 0;  // every tenth driverless
      nl.AddPin(c, driver ? netlist::PinDir::kOutput : netlist::PinDir::kInput,
                offset(), offset());
    }
  }
  for (int k = 0; k < 60; ++k) {
    add_net();
    const int c = rng.NextInt(kRingCells, kCells - 1);
    nl.AddPin(c, netlist::PinDir::kOutput, offset(), offset());
    if (k % 2 == 0) nl.AddPin(c, netlist::PinDir::kInput, offset(), offset());
  }
  EXPECT_TRUE(nl.Finalize());
  return nl;
}

// Long-lived views must price exactly like a cold view, whatever commits,
// placement installs and cache flushes came between, and a delta's per-net
// terms must equal what a commit's pin scan writes into the net caches.
TEST(Objective, CachedContextsPriceLikeAColdView) {
  const netlist::Netlist nl = ContextNetlist(5);
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 5e-6;  // moved drivers pay the thermal term
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);
  util::Rng rng(17);
  const auto random_placement = [&] {
    Placement p;
    p.Resize(static_cast<std::size_t>(nl.NumCells()));
    for (std::size_t i = 0; i < p.size(); ++i) {
      p.x[i] = rng.NextDouble(0.0, chip.width());
      p.y[i] = rng.NextDouble(0.0, chip.height());
      p.layer[i] = rng.NextInt(0, 3);
    }
    return p;
  };
  eval.SetPlacement(random_placement());

  DeltaView views[2] = {DeltaView(&eval), DeltaView(&eval)};
  long long checks = 0;
  const auto price_move = [&](DeltaView& view, std::int32_t c, double x,
                              double y, int layer) {
    const double d = view.MoveDelta(c, x, y, layer);
    DeltaView cold(&eval);
    EXPECT_EQ(d, cold.MoveDelta(c, x, y, layer)) << "move of " << c;
    ++checks;
    return d;
  };
  const auto price_swap = [&](DeltaView& view, std::int32_t a,
                              std::int32_t b) {
    const double d = view.SwapDelta(a, b);
    DeltaView cold(&eval);
    EXPECT_EQ(d, cold.SwapDelta(a, b)) << "swap of " << a << ", " << b;
    ++checks;
    return d;
  };
  // Distinct nets of a, then of b, in pin order: the order a delta sums.
  const auto nets_of = [&](std::int32_t a, std::int32_t b) {
    std::vector<std::int32_t> nets;
    for (const std::int32_t c : {a, b}) {
      if (c < 0) continue;
      for (const std::int32_t p : nl.CellPinIds(c)) {
        const std::int32_t n = nl.PinNet(p);
        bool seen = false;
        for (const std::int32_t m : nets) seen = seen || m == n;
        if (!seen) nets.push_back(n);
      }
    }
    return nets;
  };
  // Commits a priced action and checks its delta against the commit's scan
  // (without leakage the delta is exactly the sum of per-net changes).
  const auto commit = [&](double delta, std::int32_t a, std::int32_t b,
                          double x, double y, int layer) {
    const std::vector<std::int32_t> nets = nets_of(a, b);
    std::vector<double> before;
    for (const std::int32_t n : nets) before.push_back(eval.NetCost(n));
    if (b < 0) {
      eval.CommitMove(a, x, y, layer);
    } else {
      eval.CommitSwap(a, b);
    }
    double scanned = 0.0;
    for (std::size_t k = 0; k < nets.size(); ++k) {
      scanned += eval.NetCost(nets[k]) - before[k];
    }
    EXPECT_EQ(delta, scanned) << "commit of " << a << ", " << b;
  };
  // A cell on one of `c`'s nets (c itself when it has none).
  const auto neighbour = [&](std::int32_t c) {
    const auto pins = nl.CellPinIds(c);
    if (pins.empty()) return c;
    const std::int32_t n = nl.PinNet(pins[rng.NextBounded(pins.size())]);
    return nl.PinCell(nl.NetFirstPin(n) +
                      static_cast<std::int32_t>(rng.NextBounded(
                          static_cast<std::uint64_t>(nl.NetNumPins(n)))));
  };
  const auto any_cell = [&] {
    return static_cast<std::int32_t>(
        rng.NextBounded(static_cast<std::uint64_t>(nl.NumCells())));
  };

  for (int round = 0; round < 40; ++round) {
    // A cluster of connected cells, priced on both views, then changed
    // under them by commits of cluster members.
    std::vector<std::int32_t> cluster = {any_cell()};
    while (cluster.size() < 8) cluster.push_back(neighbour(cluster.back()));
    for (int step = 0; step < 40; ++step) {
      DeltaView& view = views[rng.NextBounded(2)];
      const std::int32_t a = cluster[rng.NextBounded(cluster.size())];
      const std::int32_t b = neighbour(a);
      const double x = rng.NextDouble(0.0, chip.width());
      const double y = rng.NextDouble(0.0, chip.height());
      const int layer = rng.NextInt(0, 3);
      switch (rng.NextBounded(5)) {
        case 0:
          commit(price_move(view, a, x, y, layer), a, -1, x, y, layer);
          break;
        case 1:
          if (a != b) commit(price_swap(view, a, b), a, b, 0.0, 0.0, 0);
          break;
        case 2:
          if (a != b) price_swap(view, a, b);
          break;
        default:
          price_move(view, a, x, y, layer);
          break;
      }
    }
    if (round % 8 == 3) {
      // A placement install changes every box without a commit.
      for (DeltaView& view : views) {
        for (const std::int32_t c : cluster) price_move(view, c, 1e-6, 1e-6, 0);
      }
      eval.SetPlacement(random_placement());
      for (DeltaView& view : views) {
        for (const std::int32_t c : cluster) price_move(view, c, 1e-6, 1e-6, 0);
      }
    }
    if (round % 8 == 5) {
      // Overflow: every ring pair swapped after a commit emptied the cache.
      // Each swap needs eight entries, so a run of them lands exactly on
      // any entry bound that is a multiple of eight.
      const std::int32_t c = any_cell();
      commit(price_move(views[0], c, 2e-6, 2e-6, 1), c, -1, 2e-6, 2e-6, 1);
      for (std::int32_t i = 0; i + 1 < kRingCells; i += 2) {
        price_swap(views[0], i, i + 1);
      }
      // And every cell moved once, past any bound on the context count.
      for (std::int32_t i = 0; i < nl.NumCells(); ++i) {
        price_move(views[1], i, 3e-6, 1e-6, 2);
      }
    }
  }
  EXPECT_GT(checks, 10000);
}

}  // namespace
}  // namespace p3d::place
