#include <gtest/gtest.h>

#include <cstring>

#include "check/audit.h"
#include "io/synthetic.h"
#include "place/global.h"
#include "place/placer.h"
#include "util/log.h"
#include "util/rng.h"

namespace p3d::place {
namespace {

struct Fixture {
  netlist::Netlist nl;
  Chip chip;
  PlacerParams params;

  Fixture(int cells, int layers, double alpha_ilv, double alpha_temp,
          std::uint64_t seed = 21) {
    io::SyntheticSpec spec;
    spec.name = "gp";
    spec.num_cells = cells;
    spec.total_area_m2 = cells * 4.9e-12;
    spec.seed = seed;
    nl = io::Generate(spec);
    params.num_layers = layers;
    params.alpha_ilv = alpha_ilv;
    params.alpha_temp = alpha_temp;
    params.SyncStack();
    chip = *Chip::Build(nl, layers, params.whitespace, params.inter_row_space);
  }

  Placement Run() {
    ObjectiveEvaluator eval(nl, chip, params);
    GlobalPlacer gp(eval);
    Placement init;
    init.Resize(static_cast<std::size_t>(nl.NumCells()));
    return *gp.Run(init);
  }
};

TEST(GlobalPlacer, AllCellsInsideChip) {
  Fixture f(600, 4, 1e-5, 0.0);
  const Placement p = f.Run();
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_GE(p.x[i], 0.0);
    EXPECT_LE(p.x[i], f.chip.width());
    EXPECT_GE(p.y[i], 0.0);
    EXPECT_LE(p.y[i], f.chip.height());
    EXPECT_GE(p.layer[i], 0);
    EXPECT_LT(p.layer[i], 4);
  }
}

TEST(GlobalPlacer, BeatsRandomPlacementOnWirelength) {
  Fixture f(800, 4, 1e-5, 0.0);
  const Placement p = f.Run();
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  eval.SetPlacement(p);
  const double placed_hpwl = eval.TotalHpwl();

  util::Rng rng(99);
  Placement random;
  random.Resize(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    random.x[i] = rng.NextDouble(0.0, f.chip.width());
    random.y[i] = rng.NextDouble(0.0, f.chip.height());
    random.layer[i] = rng.NextInt(0, 3);
  }
  eval.SetPlacement(random);
  EXPECT_LT(placed_hpwl, 0.6 * eval.TotalHpwl());
}

TEST(GlobalPlacer, HighIlvCoefficientCutsFewerVias) {
  Fixture cheap(800, 4, 5e-9, 0.0);
  Fixture costly(800, 4, 1e-3, 0.0);
  ObjectiveEvaluator ev_cheap(cheap.nl, cheap.chip, cheap.params);
  ev_cheap.SetPlacement(cheap.Run());
  ObjectiveEvaluator ev_costly(costly.nl, costly.chip, costly.params);
  ev_costly.SetPlacement(costly.Run());
  // The paper's Figure 3 monotonicity, at the two extremes.
  EXPECT_LT(ev_costly.TotalIlv(), ev_cheap.TotalIlv() / 2);
  EXPECT_GT(ev_costly.TotalHpwl(), ev_cheap.TotalHpwl());
}

TEST(GlobalPlacer, SingleLayerNeverUsesVias) {
  Fixture f(400, 1, 1e-5, 0.0);
  const Placement p = f.Run();
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  eval.SetPlacement(p);
  EXPECT_EQ(eval.TotalIlv(), 0);
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p.layer[i], 0);
}

TEST(GlobalPlacer, UsesAllLayers) {
  Fixture f(800, 4, 1e-5, 0.0);
  const Placement p = f.Run();
  std::vector<int> count(4, 0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    count[static_cast<std::size_t>(p.layer[i])] += 1;
  }
  for (int l = 0; l < 4; ++l) {
    EXPECT_GT(count[static_cast<std::size_t>(l)], 800 / 8) << "layer " << l;
  }
}

TEST(GlobalPlacer, LayerAreasRoughlyBalanced) {
  Fixture f(1000, 4, 1e-5, 0.0);
  const Placement p = f.Run();
  std::vector<double> area(4, 0.0);
  for (std::int32_t c = 0; c < f.nl.NumCells(); ++c) {
    area[static_cast<std::size_t>(p.layer[static_cast<std::size_t>(c)])] +=
        f.nl.cell(c).Area();
  }
  const double per_layer = f.nl.MovableArea() / 4;
  for (int l = 0; l < 4; ++l) {
    EXPECT_NEAR(area[static_cast<std::size_t>(l)], per_layer, per_layer * 0.2)
        << "layer " << l;
  }
}

TEST(GlobalPlacer, DeterministicForFixedSeed) {
  Fixture a(500, 4, 1e-5, 1e-6, 5);
  Fixture b(500, 4, 1e-5, 1e-6, 5);
  const Placement pa = a.Run();
  const Placement pb = b.Run();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa.x[i], pb.x[i]);
    EXPECT_EQ(pa.layer[i], pb.layer[i]);
  }
}

TEST(GlobalPlacer, ThermalPullsPowerTowardHeatSink) {
  // Compare the power-weighted mean layer with and without a strong
  // thermal coefficient; the TRR nets must bias power downward. A single
  // run is one random trajectory and too noisy to test the mechanism, so
  // average over a few placer seeds.
  Fixture base(1000, 4, 1e-5, 0.0, 33);
  Fixture therm(1000, 4, 1e-5, 1e-4, 33);
  auto mean_layer = [](Fixture& f, const Placement& p) {
    ObjectiveEvaluator eval(f.nl, f.chip, f.params);
    eval.SetPlacement(p);
    const PekoFloors floors = ComputePekoFloors(f.nl, f.params.alpha_ilv);
    const auto power = ComputeCellPowerWithFloors(eval, floors);
    double ws = 0, ls = 0;
    for (std::int32_t c = 0; c < f.nl.NumCells(); ++c) {
      ws += power[static_cast<std::size_t>(c)];
      ls += power[static_cast<std::size_t>(c)] *
            p.layer[static_cast<std::size_t>(c)];
    }
    return ls / ws;
  };
  double m_base = 0.0, m_therm = 0.0;
  for (const std::uint64_t seed : {1, 2, 3}) {
    base.params.seed = seed;
    therm.params.seed = seed;
    m_base += mean_layer(base, base.Run());
    m_therm += mean_layer(therm, therm.Run());
  }
  EXPECT_LT(m_therm, m_base);
}

TEST(GlobalPlacer, StatsPopulated) {
  Fixture f(300, 2, 1e-5, 0.0);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  GlobalPlacer gp(eval);
  Placement init;
  init.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  ASSERT_TRUE(gp.Run(init).ok());
  EXPECT_GT(gp.stats().bisection.levels, 3);
  EXPECT_GT(gp.stats().bisection.partitions, 50);
  EXPECT_GT(gp.stats().bisection.partitioned_cells, 300);
}

TEST(GlobalPlacer, PartitionsAlmostAlwaysFeasible) {
  // Regression guard for partitioner balance quality: with healthy FM and
  // repair, only a handful of tiny end-game regions may miss their window.
  Fixture f(1000, 4, 1e-5, 0.0);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  GlobalPlacer gp(eval);
  Placement init;
  init.Resize(static_cast<std::size_t>(f.nl.NumCells()));
  ASSERT_TRUE(gp.Run(init).ok());
  EXPECT_LT(gp.stats().bisection.infeasible_partitions,
            std::max(2, gp.stats().bisection.partitions / 20));
}

TEST(GlobalPlacer, ZeroIlvCoefficientTreatsLayersAsFreeArea) {
  // With alpha_ILV = 0, z-cuts have zero weighted depth and never win, so
  // leftover multi-layer regions round-robin their layers — maximal via use,
  // minimal wirelength (the left end of the paper's Figure 3 curves).
  Fixture free_vias(600, 4, 0.0, 0.0);
  Fixture costly(600, 4, 1e-3, 0.0);
  ObjectiveEvaluator ef(free_vias.nl, free_vias.chip, free_vias.params);
  ef.SetPlacement(free_vias.Run());
  ObjectiveEvaluator ec(costly.nl, costly.chip, costly.params);
  ec.SetPlacement(costly.Run());
  EXPECT_GT(ef.TotalIlv(), 4 * ec.TotalIlv());
  EXPECT_LT(ef.TotalHpwl(), ec.TotalHpwl());
  // Still uses every layer and stays inside the chip.
  const Placement& p = ef.placement();
  std::vector<int> count(4, 0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    ASSERT_GE(p.layer[i], 0);
    ASSERT_LT(p.layer[i], 4);
    count[static_cast<std::size_t>(p.layer[i])] += 1;
  }
  for (int l = 0; l < 4; ++l) EXPECT_GT(count[static_cast<std::size_t>(l)], 0);
}

TEST(GlobalPlacer, FixedCellsUntouched) {
  Fixture f(300, 4, 1e-5, 0.0);
  // Rebuild the netlist with an extra fixed pad.
  netlist::Netlist nl2;
  for (std::int32_t c = 0; c < f.nl.NumCells(); ++c) {
    nl2.AddCell(f.nl.cell(c).name, f.nl.cell(c).width, f.nl.cell(c).height);
  }
  const std::int32_t pad = nl2.AddCell("pad", 1e-6, 1e-6, /*fixed=*/true);
  for (std::int32_t n = 0; n < f.nl.NumNets(); ++n) {
    nl2.AddNet(f.nl.net(n).name, f.nl.net(n).activity);
    for (const auto& pin : f.nl.NetPins(n)) {
      nl2.AddPin(pin.cell, pin.dir, pin.dx, pin.dy);
    }
  }
  ASSERT_TRUE(nl2.Finalize());
  const Chip chip = *Chip::Build(nl2, 4, 0.05, 0.25);
  ObjectiveEvaluator eval(nl2, chip, f.params);
  GlobalPlacer gp(eval);
  Placement init;
  init.Resize(static_cast<std::size_t>(nl2.NumCells()));
  init.x[static_cast<std::size_t>(pad)] = 123e-6;
  init.y[static_cast<std::size_t>(pad)] = 45e-6;
  init.layer[static_cast<std::size_t>(pad)] = 2;
  const Placement p = *gp.Run(init);
  EXPECT_DOUBLE_EQ(p.x[static_cast<std::size_t>(pad)], 123e-6);
  EXPECT_DOUBLE_EQ(p.y[static_cast<std::size_t>(pad)], 45e-6);
  EXPECT_EQ(p.layer[static_cast<std::size_t>(pad)], 2);
}

TEST(GlobalPlacer, MismatchedInitialIsInvalidArgument) {
  Fixture f(100, 2, 1e-5, 0.0);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  GlobalPlacer gp(eval);
  Placement init;
  init.Resize(static_cast<std::size_t>(f.nl.NumCells()) + 7);
  const auto r = gp.Run(init);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

bool BytesEqual(const Placement& a, const Placement& b) {
  return a.size() == b.size() &&
         std::memcmp(a.x.data(), b.x.data(), a.size() * sizeof(double)) == 0 &&
         std::memcmp(a.y.data(), b.y.data(), a.size() * sizeof(double)) == 0 &&
         std::memcmp(a.layer.data(), b.layer.data(),
                     a.size() * sizeof(int)) == 0;
}

/// Runs the full flow at `threads` under a paranoid audit; fails the test on
/// any audit violation.
Placement RunAuditedFlow(const Fixture& f, int threads) {
  PlacerParams params = f.params;
  params.threads = threads;
  auto placer = Placer3D::Create(f.nl, params);
  EXPECT_TRUE(placer.ok());
  check::PlacementAuditor auditor(f.nl, check::AuditLevel::kParanoid);
  auditor.Attach(&*placer);
  RunOptions opts;
  opts.with_fea = false;
  const auto r = placer->Run(opts);
  auditor.Detach(&*placer);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(auditor.ok()) << auditor.report().Summary();
  return r->placement;
}

TEST(GlobalPlacer, FullFlowByteIdenticalUnderParanoidAudit) {
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  Fixture f(500, 4, 1e-5, 1e-6);
  const Placement p1 = RunAuditedFlow(f, 1);
  const Placement p8 = RunAuditedFlow(f, 8);
  EXPECT_TRUE(BytesEqual(p1, p8)) << "the flow is thread-count sensitive";
}

}  // namespace
}  // namespace p3d::place
