// Integration tests: the full Placer3D flow end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "io/synthetic.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "util/rng.h"
#include "place/legalize.h"
#include "place/monitor.h"
#include "place/placer.h"
#include "thermal/power.h"
#include "util/log.h"

namespace p3d::place {
namespace {

netlist::Netlist Circuit(int cells, std::uint64_t seed = 51) {
  io::SyntheticSpec spec;
  spec.name = "placer";
  spec.num_cells = cells;
  spec.total_area_m2 = cells * 4.9e-12;
  spec.seed = seed;
  return io::Generate(spec);
}

PlacerParams Params(int layers, double alpha_ilv = 1e-5,
                    double alpha_temp = 0.0) {
  PlacerParams p;
  p.num_layers = layers;
  p.alpha_ilv = alpha_ilv;
  p.alpha_temp = alpha_temp;
  return p;
}

/// A finalized netlist of `cells` (width, height) movable cells chained by
/// two-pin nets, plus `fixed` fixed 1 um pads.
netlist::Netlist Handmade(const std::vector<std::pair<double, double>>& cells,
                          int fixed = 0) {
  netlist::Netlist nl;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    nl.AddCell("c" + std::to_string(c), cells[c].first, cells[c].second);
  }
  for (int p = 0; p < fixed; ++p) {
    nl.AddCell("pad" + std::to_string(p), 1e-6, 1e-6, /*fixed=*/true);
  }
  const std::int32_t n = nl.NumCells();
  for (std::int32_t c = 0; c + 1 < n; ++c) {
    nl.AddNet("n" + std::to_string(c));
    nl.AddPin(c, netlist::PinDir::kOutput);
    nl.AddPin(c + 1, netlist::PinDir::kInput);
  }
  nl.Finalize();
  return nl;
}

TEST(Placer3D, CreateRejectsBadFloorplansWithStatus) {
  const netlist::Netlist nl = Circuit(50);
  netlist::Netlist unfinalized;
  unfinalized.AddCell("c", 1e-6, 1e-6);
  // Zero-area dies: no movable area to size the die by, or positive cell
  // sizes whose areas underflow.
  const netlist::Netlist no_cells = Handmade({});
  const netlist::Netlist only_fixed = Handmade({}, /*fixed=*/3);
  const netlist::Netlist zero_area =
      Handmade({{1e-200, 1e-200}, {1e-200, 1e-200}});
  struct Case {
    const char* name;
    const netlist::Netlist* netlist;
    void (*edit)(PlacerParams*);
    util::StatusCode want;
  };
  const Case cases[] = {
      {"zero layers", &nl, [](PlacerParams* p) { p->num_layers = 0; },
       util::StatusCode::kInvalidArgument},
      {"no row capacity", &nl, [](PlacerParams* p) { p->whitespace = 1.0; },
       util::StatusCode::kInvalidArgument},
      {"negative row space", &nl,
       [](PlacerParams* p) { p->inter_row_space = -0.1; },
       util::StatusCode::kInvalidArgument},
      {"NaN row space", &nl,
       [](PlacerParams* p) { p->inter_row_space = std::nan(""); },
       util::StatusCode::kInvalidArgument},
      {"unfinalized netlist", &unfinalized, [](PlacerParams*) {},
       util::StatusCode::kFailedPrecondition},
      {"no cells", &no_cells, [](PlacerParams*) {},
       util::StatusCode::kInvalidArgument},
      {"only fixed cells", &only_fixed, [](PlacerParams*) {},
       util::StatusCode::kInvalidArgument},
      {"underflowing cell areas", &zero_area, [](PlacerParams*) {},
       util::StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    PlacerParams params = Params(4);
    c.edit(&params);
    const util::StatusOr<Placer3D> placer =
        Placer3D::Create(*c.netlist, params);
    ASSERT_FALSE(placer.ok()) << c.name;
    EXPECT_EQ(placer.status().code(), c.want)
        << c.name << ": " << placer.status().ToString();
  }

  // Degenerate but valid floorplans run the full flow, FEA included, to a
  // legal placement.
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  // Three 0.1 x 1 um cells on one layer: the square die is one row tall.
  const netlist::Netlist one_row =
      Handmade({{0.1e-6, 1e-6}, {0.1e-6, 1e-6}, {0.1e-6, 1e-6}});
  const netlist::Netlist three_cells = Circuit(3);
  // One 400 um cell among 1 um ones, wider than the rows of a die sized by
  // area alone; Chip::Build reserves 1.2x the widest cell in every row.
  std::vector<std::pair<double, double>> cells(40, {1e-6, 1e-6});
  cells[7] = {400e-6, 1e-6};
  const netlist::Netlist wide_cell = Handmade(cells);
  struct Placeable {
    const char* name;
    const netlist::Netlist* netlist;
    int layers;
  };
  const Placeable placeable[] = {
      {"one row", &one_row, 1},
      {"more layers than cells", &three_cells, 8},
      {"cell wider than an area-sized row", &wide_cell, 2},
  };
  for (const Placeable& c : placeable) {
    util::StatusOr<Placer3D> placer =
        Placer3D::Create(*c.netlist, Params(c.layers));
    ASSERT_TRUE(placer.ok()) << c.name << ": " << placer.status().ToString();
    const util::StatusOr<PlacementResult> r = placer->Run({.with_fea = true});
    ASSERT_TRUE(r.ok()) << c.name << ": " << r.status().ToString();
    EXPECT_TRUE(r->legal) << c.name;
    EXPECT_EQ(r->overlaps, 0) << c.name;
    EXPECT_TRUE(r->fea_valid) << c.name;
  }
  EXPECT_EQ(Placer3D::Create(one_row, Params(1))->chip().num_rows(), 1);
  EXPECT_GE(Placer3D::Create(wide_cell, Params(2))->chip().width(),
            1.2 * 400e-6);
}

TEST(Placer3D, FullFlowProducesLegalPlacement) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(800);
  Placer3D placer = *Placer3D::Create(nl, Params(4));
  const PlacementResult r = *placer.Run({.with_fea = true});
  EXPECT_TRUE(r.legal);
  EXPECT_EQ(r.overlaps, 0);
  EXPECT_GT(r.hpwl_m, 0.0);
  EXPECT_GT(r.ilv_count, 0);
  EXPECT_GT(r.total_power_w, 0.0);
  EXPECT_TRUE(r.fea_valid);
  EXPECT_GT(r.avg_temp_c, 0.0);
  EXPECT_GE(r.max_temp_c, r.avg_temp_c);
  EXPECT_GT(r.t_total, 0.0);
}

TEST(Placer3D, MetricsConsistentWithEvaluate) {
  // Run's QoR matches a from-scratch recompute of its placement: a fresh
  // evaluator for Eq. 3, the per-net metrics and Eq. 4-5 power.
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(400);
  PlacerParams params = Params(4, 1e-5, /*alpha_temp=*/1e-6);
  Placer3D placer = *Placer3D::Create(nl, params);
  const PlacementResult r = *placer.Run({.with_fea = false});
  EXPECT_FALSE(r.fea_valid);  // FEA was not requested
  EXPECT_TRUE(r.cell_temp_c.empty());

  params.SyncStack();
  ObjectiveEvaluator eval(nl, placer.chip(), params);
  eval.SetPlacement(r.placement);
  EXPECT_NEAR(eval.Total(), r.objective, r.objective * 1e-9);
  EXPECT_NEAR(eval.TotalHpwl(), r.hpwl_m, r.hpwl_m * 1e-12);
  EXPECT_EQ(eval.TotalIlv(), r.ilv_count);
  const thermal::NetMetrics metrics = thermal::ComputeNetMetrics(
      nl, r.placement.x, r.placement.y, r.placement.layer);
  EXPECT_NEAR(metrics.total_hpwl, r.hpwl_m, r.hpwl_m * 1e-12);
  EXPECT_EQ(metrics.total_ilv, r.ilv_count);
  EXPECT_NEAR(thermal::ComputePower(nl, metrics, params.electrical).total,
              r.total_power_w, r.total_power_w * 1e-12);
}

// A shifting run that hits shift_max_iters is an iteration_cap anomaly; a
// default flow stops on its stall window and raises none, and a zero budget
// turns shifting off, which is configuration, not a capped loop.
int IterationCapAnomalies(int shift_max_iters) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(400);
  PlacerParams params = Params(4);
  params.shift_max_iters = shift_max_iters;
  Placer3D placer = *Placer3D::Create(nl, params);
  AnomalyMonitor monitor;
  placer.AddPhaseObserver(&monitor);
  obs::MetricsRegistry registry;
  obs::InstallMetrics(&registry);
  const bool ok = placer.Run({.with_fea = false}).ok();
  obs::InstallMetrics(nullptr);
  EXPECT_TRUE(ok);
  int flagged = 0;
  for (const AnomalyMonitor::Anomaly& a : monitor.anomalies()) {
    if (a.kind == "iteration_cap") {
      EXPECT_EQ(a.phase, "coarse");
      ++flagged;
    }
  }
  EXPECT_EQ(registry.Counter("anomaly/iteration_cap"), flagged);
  EXPECT_EQ(registry.Counter("shift/stop_cap"), flagged);
  return flagged;
}

TEST(Placer3D, ShiftIterationCapIsAnAnomaly) {
  EXPECT_EQ(IterationCapAnomalies(/*shift_max_iters=*/2), 1);
  EXPECT_EQ(IterationCapAnomalies(PlacerParams{}.shift_max_iters), 0);
  EXPECT_EQ(IterationCapAnomalies(/*shift_max_iters=*/0), 0);
}

TEST(Placer3D, AnomalyReachesTheBlackBoxOnce) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  const netlist::Netlist nl = Circuit(400);
  PlacerParams params = Params(4);
  params.shift_max_iters = 2;
  Placer3D placer = *Placer3D::Create(nl, params);
  AnomalyMonitor monitor;
  placer.AddPhaseObserver(&monitor);
  obs::MetricsRegistry registry;  // the monitor reads shift/stop_cap here
  obs::InstallMetrics(&registry);
  // Large enough that the rest of the flow never wraps the ring.
  obs::RingRecorder ring(obs::RingOptions{.capacity_per_thread = 1 << 16});
  obs::InstallRingRecorder(&ring);
  const bool ok = placer.Run({.with_fea = false}).ok();
  obs::InstallRingRecorder(nullptr);
  obs::InstallMetrics(nullptr);
  ASSERT_TRUE(ok);
  int instants = 0;
  for (const obs::RingRecorder::EventView& e : ring.Snapshot()) {
    if (e.kind != obs::RingRecorder::Kind::kInstant ||
        std::strcmp(e.name, "anomaly/iteration_cap") != 0) {
      continue;
    }
    ++instants;
    EXPECT_EQ(e.value, 0);  // the round the cap fired in
  }
  EXPECT_EQ(instants, 1);
}

/// The kinds the monitor flags when it sees `totals` as consecutive
/// phase-boundary Eq. 3 totals.
std::vector<std::string> ReplayTotals(const std::vector<double>& totals) {
  util::ScopedLogLevel quiet(util::LogLevel::kError);
  AnomalyMonitor monitor;
  int round = 0;
  for (const double t : totals) monitor.ObserveTotal("replay", round++, t);
  std::vector<std::string> kinds;
  for (const AnomalyMonitor::Anomaly& a : monitor.anomalies()) {
    kinds.push_back(a.kind);
  }
  return kinds;
}

TEST(AnomalyMonitor, OscillationIgnoresRoundingNoise) {
  // The reference flow's phase totals: the final re-sum lands 1e-15 above
  // the refine sample. That step is rounding noise, not a direction change.
  EXPECT_TRUE(
      ReplayTotals({0.2880, 0.3342, 0.3535, 0.3100, 0.3100 + 1e-15}).empty());
  // A genuine down-up-down swing still flags.
  const std::vector<std::string> kinds =
      ReplayTotals({0.288, 0.220, 0.302, 0.274});
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), "oscillation"), kinds.end());
}

TEST(Placer3D, DeterministicForFixedSeed) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(400);
  PlacerParams params = Params(4);
  params.seed = 777;
  Placer3D a = *Placer3D::Create(nl, params);
  Placer3D b = *Placer3D::Create(nl, params);
  const PlacementResult ra = *a.Run({.with_fea = false});
  const PlacementResult rb = *b.Run({.with_fea = false});
  EXPECT_DOUBLE_EQ(ra.hpwl_m, rb.hpwl_m);
  EXPECT_EQ(ra.ilv_count, rb.ilv_count);
  for (std::size_t i = 0; i < ra.placement.size(); ++i) {
    ASSERT_DOUBLE_EQ(ra.placement.x[i], rb.placement.x[i]);
    ASSERT_EQ(ra.placement.layer[i], rb.placement.layer[i]);
  }
}

TEST(Placer3D, TwoDimensionalModeWorks) {
  // The paper claims effectiveness "not only with 3D ICs, but also with 2D
  // ICs" — 1 layer must run and produce zero vias.
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(400);
  Placer3D placer = *Placer3D::Create(nl, Params(1));
  const PlacementResult r = *placer.Run({.with_fea = false});
  EXPECT_TRUE(r.legal);
  EXPECT_EQ(r.ilv_count, 0);
  EXPECT_DOUBLE_EQ(r.ilv_density, 0.0);
}

TEST(Placer3D, ManyLayersWork) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(600);
  Placer3D placer = *Placer3D::Create(nl, Params(10));
  const PlacementResult r = *placer.Run({.with_fea = false});
  EXPECT_TRUE(r.legal);
  int max_layer = 0;
  for (const int l : r.placement.layer) max_layer = std::max(max_layer, l);
  EXPECT_GT(max_layer, 5);  // actually uses the stack
}

TEST(Placer3D, MoreLayersReduceWirelength) {
  // Paper Figure 5: tradeoff curves shift to shorter wirelengths as the
  // number of layers increases.
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(1000);
  Placer3D one = *Placer3D::Create(nl, Params(1));
  Placer3D four = *Placer3D::Create(nl, Params(4));
  const double wl1 = one.Run({.with_fea = false})->hpwl_m;
  const double wl4 = four.Run({.with_fea = false})->hpwl_m;
  EXPECT_LT(wl4, wl1);
}

TEST(Placer3D, IlvCoefficientControlsViaCount) {
  // Paper Figure 3: interlayer via counts decrease and wirelengths increase
  // as alpha_ILV increases.
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(800);
  Placer3D cheap = *Placer3D::Create(nl, Params(4, 5e-9));
  Placer3D costly = *Placer3D::Create(nl, Params(4, 1e-3));
  const PlacementResult rc = *cheap.Run({.with_fea = false});
  const PlacementResult re = *costly.Run({.with_fea = false});
  EXPECT_GT(rc.ilv_count, 2 * re.ilv_count);
  EXPECT_LT(rc.hpwl_m, re.hpwl_m);
}

TEST(Placer3D, LegalizationRepeatsImproveObjective) {
  // Paper Section 7: repeating coarse+detailed legalization improves the
  // objective (at a runtime cost).
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(500);
  PlacerParams p1 = Params(4);
  PlacerParams p3 = Params(4);
  p3.legalization_repeats = 3;
  Placer3D once = *Placer3D::Create(nl, p1);
  Placer3D thrice = *Placer3D::Create(nl, p3);
  const PlacementResult r1 = *once.Run({.with_fea = false});
  const PlacementResult r3 = *thrice.Run({.with_fea = false});
  EXPECT_TRUE(r3.legal);
  EXPECT_LE(r3.objective, r1.objective * 1.02);  // not worse (usually better)
}

TEST(Placer3D, ResultPlacementMatchesEvaluatorState) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const netlist::Netlist nl = Circuit(300);
  Placer3D placer = *Placer3D::Create(nl, Params(2));
  const PlacementResult r = *placer.Run({.with_fea = false});
  const Placement& internal = placer.evaluator().placement();
  for (std::size_t i = 0; i < r.placement.size(); ++i) {
    ASSERT_DOUBLE_EQ(r.placement.x[i], internal.x[i]);
    ASSERT_EQ(r.placement.layer[i], internal.layer[i]);
  }
}

TEST(Placer3D, TinyCircuits) {
  // Degenerate sizes must not crash and must stay legal.
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  for (const int cells : {2, 3, 5, 9, 17}) {
    netlist::Netlist nl;
    for (int c = 0; c < cells; ++c) {
      nl.AddCell("c" + std::to_string(c), 2e-6, 1.4e-6);
    }
    nl.AddNet("n", 0.2);
    nl.AddPin(0, netlist::PinDir::kOutput);
    nl.AddPin(cells - 1, netlist::PinDir::kInput);
    ASSERT_TRUE(nl.Finalize());
    Placer3D placer = *Placer3D::Create(nl, Params(2));
    const PlacementResult r = *placer.Run({.with_fea = false});
    EXPECT_TRUE(r.legal) << cells << " cells";
  }
}

TEST(Placer3D, MixedCellSizes) {
  // A few huge macros among small cells: legalization must still succeed.
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  netlist::Netlist nl;
  for (int c = 0; c < 300; ++c) {
    nl.AddCell("c" + std::to_string(c), 2e-6, 1.4e-6);
  }
  for (int m = 0; m < 4; ++m) {
    nl.AddCell("macro" + std::to_string(m), 30e-6, 1.4e-6);  // 15x wider
  }
  util::Rng rng(77);
  for (int n = 0; n < 320; ++n) {
    nl.AddNet("n" + std::to_string(n), 0.1);
    nl.AddPin(static_cast<std::int32_t>(rng.NextBounded(304)),
              netlist::PinDir::kOutput);
    nl.AddPin(static_cast<std::int32_t>(rng.NextBounded(304)),
              netlist::PinDir::kInput);
  }
  ASSERT_TRUE(nl.Finalize());
  Placer3D placer = *Placer3D::Create(nl, Params(4));
  const PlacementResult r = *placer.Run({.with_fea = false});
  EXPECT_TRUE(r.legal);
  EXPECT_EQ(DetailedLegalizer::CountOverlaps(nl, r.placement), 0);
}

TEST(Placer3D, HighFanoutNet) {
  // One net touching a third of all cells (clock-like) must not break the
  // partitioner or the evaluator.
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  io::SyntheticSpec spec;
  spec.name = "fanout";
  spec.num_cells = 300;
  spec.total_area_m2 = 300 * 4.9e-12;
  spec.seed = 13;
  netlist::Netlist base = io::Generate(spec);
  netlist::Netlist nl;
  for (std::int32_t c = 0; c < base.NumCells(); ++c) {
    nl.AddCell(base.cell(c).name, base.cell(c).width, base.cell(c).height);
  }
  for (std::int32_t n = 0; n < base.NumNets(); ++n) {
    nl.AddNet(base.net(n).name, base.net(n).activity);
    for (const auto& pin : base.NetPins(n)) {
      nl.AddPin(pin.cell, pin.dir, pin.dx, pin.dy);
    }
  }
  nl.AddNet("clk", 0.5);
  nl.AddPin(0, netlist::PinDir::kOutput);
  for (int c = 1; c < 100; ++c) nl.AddPin(c, netlist::PinDir::kInput);
  ASSERT_TRUE(nl.Finalize());
  Placer3D placer = *Placer3D::Create(nl, Params(4, 1e-5, 2e-6));
  const PlacementResult r = *placer.Run({.with_fea = false});
  EXPECT_TRUE(r.legal);
}

class PlacerLayerSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlacerLayerSweep, LegalAcrossLayerCounts) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  const int layers = GetParam();
  const netlist::Netlist nl = Circuit(400, static_cast<std::uint64_t>(layers));
  Placer3D placer = *Placer3D::Create(nl, Params(layers));
  const PlacementResult r = *placer.Run({.with_fea = false});
  EXPECT_TRUE(r.legal) << layers << " layers";
  EXPECT_EQ(DetailedLegalizer::CountOverlaps(nl, r.placement), 0);
}

INSTANTIATE_TEST_SUITE_P(Layers, PlacerLayerSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 10));

}  // namespace
}  // namespace p3d::place
