#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "geom/geometry.h"
#include "io/synthetic.h"
#include "place/netweight.h"
#include "util/rng.h"

namespace p3d::place {
namespace {

struct Fixture {
  netlist::Netlist nl;
  Chip chip;
  PlacerParams params;

  explicit Fixture(double alpha_temp, double alpha_ilv = 1e-5) {
    io::SyntheticSpec spec;
    spec.name = "nw";
    spec.num_cells = 150;
    spec.total_area_m2 = 150 * 4.9e-12;
    spec.seed = 9;
    nl = io::Generate(spec);
    chip = *Chip::Build(nl, 4, 0.05, 0.25);
    params.num_layers = 4;
    params.alpha_ilv = alpha_ilv;
    params.alpha_temp = alpha_temp;
    params.SyncStack();
  }
};

Placement CenterPlacement(const netlist::Netlist& nl, const Chip& chip) {
  Placement p;
  p.Resize(static_cast<std::size_t>(nl.NumCells()));
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = chip.width() / 2;
    p.y[i] = chip.height() / 2;
    p.layer[i] = 1;
  }
  return p;
}

TEST(NetWeights, AllOnesWithoutThermal) {
  Fixture f(0.0);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  eval.SetPlacement(CenterPlacement(f.nl, f.chip));
  const NetWeights w = ComputeNetWeights(eval);
  for (std::int32_t n = 0; n < f.nl.NumNets(); ++n) {
    EXPECT_DOUBLE_EQ(w.lateral[static_cast<std::size_t>(n)], 1.0);
    EXPECT_DOUBLE_EQ(w.vertical[static_cast<std::size_t>(n)], 1.0);
  }
}

TEST(NetWeights, MatchEquation8) {
  Fixture f(3e-6);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  eval.SetPlacement(CenterPlacement(f.nl, f.chip));
  const NetWeights w = ComputeNetWeights(eval);
  for (std::int32_t n = 0; n < std::min(f.nl.NumNets(), 30); ++n) {
    const std::int32_t d = f.nl.DriverCell(n);
    ASSERT_GE(d, 0);
    const double r = eval.CellResistance(d);
    const std::size_t i = static_cast<std::size_t>(n);
    EXPECT_NEAR(w.lateral[i], 1.0 + f.params.alpha_temp * r * eval.SWl(n),
                1e-12 + w.lateral[i] * 1e-12);
    EXPECT_NEAR(w.vertical[i],
                1.0 + f.params.alpha_temp * r * eval.SIlv(n) / f.params.alpha_ilv,
                1e-12 + w.vertical[i] * 1e-12);
    EXPECT_GE(w.lateral[i], 1.0);
    EXPECT_GE(w.vertical[i], 1.0);
  }
}

TEST(NetWeights, HotterNetsWeighHeavier) {
  Fixture f(3e-6);
  // Give net 0 the max activity and net 1 the min, same driver resistance
  // by placing everything identically.
  f.nl.SetNetActivity(0, 0.5);
  f.nl.SetNetActivity(1, 0.01);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  eval.SetPlacement(CenterPlacement(f.nl, f.chip));
  const NetWeights w = ComputeNetWeights(eval);
  EXPECT_GT(w.lateral[0], w.lateral[1]);
}

TEST(NetWeights, ZeroAlphaIlvKeepsVerticalFinite) {
  Fixture f(3e-6, /*alpha_ilv=*/0.0);
  ObjectiveEvaluator eval(f.nl, f.chip, f.params);
  eval.SetPlacement(CenterPlacement(f.nl, f.chip));
  const NetWeights w = ComputeNetWeights(eval);
  for (std::int32_t n = 0; n < f.nl.NumNets(); ++n) {
    EXPECT_DOUBLE_EQ(w.vertical[static_cast<std::size_t>(n)], 1.0);
  }
}

TEST(PekoFloors, MatchEquations13To15) {
  Fixture f(0.0);
  const double a = 1e-5;
  const PekoFloors floors = ComputePekoFloors(f.nl, a);
  for (std::int32_t n = 0; n < std::min(f.nl.NumNets(), 30); ++n) {
    const auto pins = f.nl.NetPins(n);
    double w_sum = 0, h_sum = 0;
    for (const auto& pin : pins) {
      w_sum += f.nl.cell(pin.cell).width;
      h_sum += f.nl.cell(pin.cell).height;
    }
    const double w_ave = w_sum / static_cast<double>(pins.size());
    const double h_ave = h_sum / static_cast<double>(pins.size());
    const double np = static_cast<double>(pins.size());
    const std::size_t i = static_cast<std::size_t>(n);
    EXPECT_NEAR(floors.wl_x[i],
                std::max(0.0, std::cbrt(a * w_ave * h_ave * np) - w_ave), 1e-15);
    EXPECT_NEAR(floors.wl_y[i],
                std::max(0.0, std::cbrt(a * w_ave * h_ave * np) - h_ave), 1e-15);
    EXPECT_NEAR(floors.ilv[i],
                std::max(0.0, std::cbrt(w_ave * h_ave * np / (a * a)) - 1.0),
                1e-9);
  }
}

TEST(PekoFloors, NonNegativeAndMonotoneInPins) {
  Fixture f(0.0);
  const PekoFloors floors = ComputePekoFloors(f.nl, 1e-5);
  for (std::int32_t n = 0; n < f.nl.NumNets(); ++n) {
    const std::size_t i = static_cast<std::size_t>(n);
    EXPECT_GE(floors.wl_x[i], 0.0);
    EXPECT_GE(floors.wl_y[i], 0.0);
    EXPECT_GE(floors.ilv[i], 0.0);
  }
}

TEST(PekoFloors, TwoDimensionalDegenerateCase) {
  Fixture f(0.0);
  const PekoFloors floors = ComputePekoFloors(f.nl, 0.0);
  for (std::int32_t n = 0; n < f.nl.NumNets(); ++n) {
    EXPECT_DOUBLE_EQ(floors.ilv[static_cast<std::size_t>(n)], 0.0);
    EXPECT_GE(floors.wl_x[static_cast<std::size_t>(n)], 0.0);
  }
}

// The optimal lateral position computed by scanning, for every pin of the
// cell, the pins of its net on other cells: the definition the cached
// per-view contexts must reproduce bit for bit.
void ScannedOptimalPosition(const ObjectiveEvaluator& eval, std::int32_t cell,
                            double* x, double* y) {
  const netlist::Netlist& nl = eval.netlist();
  const Placement& p = eval.placement();
  std::vector<std::pair<double, double>> xs, ys;
  for (const std::int32_t pid : nl.CellPinIds(cell)) {
    const std::int32_t n = nl.pin(pid).net;
    geom::BBox3 box;
    for (const netlist::Pin& pin : nl.NetPins(n)) {
      if (pin.cell == cell) continue;
      const std::size_t c = static_cast<std::size_t>(pin.cell);
      box.Add(geom::Point3{p.x[c] + pin.dx, p.y[c] + pin.dy, p.layer[c]});
    }
    if (box.Empty()) continue;
    double w = 1.0;
    const std::int32_t driver = nl.DriverCell(n);
    if (eval.params().alpha_temp > 0.0 && driver >= 0) {
      w = 1.0 + eval.params().alpha_temp * eval.CellResistance(driver) *
                    eval.SWl(n);
    }
    xs.emplace_back(box.LateralRect().x_lo, w);
    xs.emplace_back(box.LateralRect().x_hi, w);
    ys.emplace_back(box.LateralRect().y_lo, w);
    ys.emplace_back(box.LateralRect().y_hi, w);
  }
  const auto median = [](std::vector<std::pair<double, double>>& pts) {
    double total = 0.0;
    for (const auto& [v, w] : pts) total += w;
    std::sort(pts.begin(), pts.end());
    double acc = 0.0;
    for (const auto& [v, w] : pts) {
      acc += w;
      if (acc >= total / 2.0) return v;
    }
    return pts.back().first;
  };
  const std::size_t i = static_cast<std::size_t>(cell);
  *x = xs.empty() ? p.x[i] : median(xs);
  *y = ys.empty() ? p.y[i] : median(ys);
}

TEST(OptimalLateralPosition, MatchesScanOfOtherPinsThroughOneView) {
  // Random nets with pin offsets; cells may repeat within a net (two pins
  // of one cell on one net weigh twice), and some nets hold one cell only.
  util::Rng rng(3);
  netlist::Netlist nl;
  constexpr int kCells = 300;
  for (int c = 0; c < kCells; ++c) {
    nl.AddCell("c" + std::to_string(c), 2e-6, 1e-6);
  }
  for (int k = 0; k < 500; ++k) {
    nl.AddNet("n" + std::to_string(k), 0.2);
    const int pins = k % 25 == 0 ? 2 : rng.NextInt(2, 5);
    const int single = rng.NextInt(0, kCells - 1);
    for (int p = 0; p < pins; ++p) {
      const int c = k % 25 == 0 ? single : rng.NextInt(0, kCells - 1);
      nl.AddPin(c, p == 0 ? netlist::PinDir::kOutput : netlist::PinDir::kInput,
                rng.NextDouble(-1e-6, 1e-6), rng.NextDouble(-1e-6, 1e-6));
    }
  }
  ASSERT_TRUE(nl.Finalize());
  const Chip chip = *Chip::Build(nl, 4, 0.05, 0.25);
  PlacerParams params;
  params.num_layers = 4;
  params.alpha_ilv = 1e-5;
  params.alpha_temp = 4e-6;
  params.SyncStack();
  ObjectiveEvaluator eval(nl, chip, params);
  Placement p;
  p.Resize(kCells);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p.x[i] = rng.NextDouble(0.0, chip.width());
    p.y[i] = rng.NextDouble(0.0, chip.height());
    p.layer[i] = rng.NextInt(0, 3);
  }
  eval.SetPlacement(p);

  // One long-lived view, as the engines use it: each position is followed
  // by pricing the cell, and commits move cells in between.
  DeltaView view(&eval);
  for (int step = 0; step < 3000; ++step) {
    const auto cell = static_cast<std::int32_t>(rng.NextInt(0, kCells - 1));
    double x = 0.0, y = 0.0, rx = 0.0, ry = 0.0;
    OptimalLateralPosition(view, cell, &x, &y);
    ScannedOptimalPosition(eval, cell, &rx, &ry);
    ASSERT_EQ(x, rx) << "step " << step;
    ASSERT_EQ(y, ry) << "step " << step;
    const double delta = view.MoveDelta(cell, x, y, rng.NextInt(0, 3));
    if (step % 3 == 0 && delta < 0.0) eval.CommitMove(cell, x, y, 0);
  }
}

}  // namespace
}  // namespace p3d::place
