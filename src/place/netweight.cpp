#include "place/netweight.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

namespace p3d::place {
namespace {

/// Weighted median of interval endpoints: any point where the cumulative
/// endpoint weight crosses half the total minimizes sum w * dist(x, [lo,hi]).
double WeightedMedian(std::vector<std::pair<double, double>>& pts) {
  if (pts.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [v, w] : pts) total += w;
  std::sort(pts.begin(), pts.end());
  double acc = 0.0;
  for (const auto& [v, w] : pts) {
    acc += w;
    if (acc >= total / 2.0) return v;
  }
  return pts.back().first;
}

}  // namespace

NetWeights ComputeNetWeights(const ObjectiveEvaluator& eval) {
  const netlist::Netlist& nl = eval.netlist();
  const PlacerParams& params = eval.params();
  NetWeights w;
  const std::size_t nn = static_cast<std::size_t>(nl.NumNets());
  w.lateral.assign(nn, 1.0);
  w.vertical.assign(nn, 1.0);
  if (params.alpha_temp <= 0.0) return w;
  for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
    const std::int32_t driver = nl.DriverCell(n);
    if (driver < 0) continue;
    // R_net_i: sum over driver cells; this netlist model has one driver.
    const double r_net = eval.CellResistance(driver);
    const std::size_t i = static_cast<std::size_t>(n);
    w.lateral[i] = 1.0 + params.alpha_temp * r_net * eval.SWl(n);
    if (params.alpha_ilv > 0.0) {
      w.vertical[i] =
          1.0 + params.alpha_temp * r_net * eval.SIlv(n) / params.alpha_ilv;
    }
    // alpha_ILV = 0: z-cuts have zero weighted depth and are never selected,
    // so the vertical weight is irrelevant; keep it at 1.
  }
  return w;
}

PekoFloors ComputePekoFloors(const netlist::Netlist& nl, double alpha_ilv) {
  PekoFloors f;
  const std::size_t nn = static_cast<std::size_t>(nl.NumNets());
  f.wl_x.assign(nn, 0.0);
  f.wl_y.assign(nn, 0.0);
  f.ilv.assign(nn, 0.0);
  for (std::int32_t n = 0; n < nl.NumNets(); ++n) {
    const auto pins = nl.NetPins(n);
    if (pins.size() < 2) continue;
    double w_sum = 0.0, h_sum = 0.0;
    for (const netlist::Pin& pin : pins) {
      w_sum += nl.cell(pin.cell).width;
      h_sum += nl.cell(pin.cell).height;
    }
    const double w_ave = w_sum / static_cast<double>(pins.size());
    const double h_ave = h_sum / static_cast<double>(pins.size());
    const double n_pins = static_cast<double>(pins.size());
    const std::size_t i = static_cast<std::size_t>(n);
    if (alpha_ilv > 0.0) {
      // Eq. 13-15: the optimal packing of n_pins cells of footprint
      // w_ave x h_ave x alpha_ilv is a cube of that volume.
      const double cube = std::cbrt(alpha_ilv * w_ave * h_ave * n_pins);
      f.wl_x[i] = std::max(0.0, cube - w_ave);
      f.wl_y[i] = std::max(0.0, cube - h_ave);
      f.ilv[i] = std::max(
          0.0, std::cbrt(w_ave * h_ave * n_pins / (alpha_ilv * alpha_ilv)) - 1.0);
    } else {
      // 2D degenerate case: minimal enclosing square of the pin cells.
      const double square = std::sqrt(w_ave * h_ave * n_pins);
      f.wl_x[i] = std::max(0.0, square - w_ave);
      f.wl_y[i] = std::max(0.0, square - h_ave);
      f.ilv[i] = 0.0;
    }
  }
  return f;
}

void OptimalLateralPosition(DeltaView& view, std::int32_t cell, double* x,
                            double* y) {
  const ObjectiveEvaluator& eval = *view.eval_;
  const netlist::Netlist& nl = eval.netlist();
  const PlacerParams& params = eval.params();
  view.Admit(cell, -1);
  const DeltaView::Slot ctx = view.ContextOf(cell);
  const auto net_box = [&](std::int32_t k) -> const DeltaView::ContextNet& {
    return view.entries_[static_cast<std::size_t>(ctx.first + k)];
  };
  std::vector<std::pair<double, double>>& xs = view.xs_;
  std::vector<std::pair<double, double>>& ys = view.ys_;
  xs.clear();
  ys.clear();
  // Per pin, so a net the cell holds twice weighs twice. The context lists
  // the nets in first-pin order; a repeated net is found among the earlier.
  std::int32_t next = 0;
  for (const std::int32_t pid : nl.CellPinIds(cell)) {
    const std::int32_t n = nl.PinNet(pid);
    std::int32_t k = 0;
    if (next < ctx.count && net_box(next).net == n) {
      k = next++;
    } else {
      while (net_box(k).net != n) ++k;
    }
    // Bounding box of the net's *other* pins.
    const DeltaView::ContextNet& e = net_box(k);
    if (!e.HasOthers()) continue;
    double w = 1.0;
    const std::int32_t driver = nl.DriverCell(n);
    if (params.alpha_temp > 0.0 && driver >= 0) {
      w = 1.0 + params.alpha_temp * eval.CellResistance(driver) * eval.SWl(n);
    }
    xs.emplace_back(e.ox_lo, w);
    xs.emplace_back(e.ox_hi, w);
    ys.emplace_back(e.oy_lo, w);
    ys.emplace_back(e.oy_hi, w);
  }
  const std::size_t i = static_cast<std::size_t>(cell);
  if (xs.empty()) {
    *x = eval.placement().x[i];
    *y = eval.placement().y[i];
    return;
  }
  *x = WeightedMedian(xs);
  *y = WeightedMedian(ys);
}

}  // namespace p3d::place
