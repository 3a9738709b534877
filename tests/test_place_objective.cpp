#include <gtest/gtest.h>

#include <cmath>

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

}  // namespace
}  // namespace p3d::place
