#include "check/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "place/legalize.h"

namespace p3d::check {
namespace {

// Geometric slack for boundary/overlap comparisons. Cell dimensions are
// ~1e-6 m, so 1e-12 m is far below any real placement step but far above
// double rounding at these magnitudes.
constexpr double kGeomEps = 1e-12;

std::string Format(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

void Append(std::vector<Violation>* out, const char* check, std::int32_t cell,
            std::int32_t net, std::string message) {
  Violation v;
  v.check = check;
  v.cell = cell;
  v.net = net;
  v.message = std::move(message);
  out->push_back(std::move(v));
}

}  // namespace

std::string DescribeCell(const netlist::Netlist& nl,
                         const place::Placement& p, std::int32_t cell) {
  const std::size_t i = static_cast<std::size_t>(cell);
  return Format("cell %d '%s' at (%.6g, %.6g, layer %d)", cell,
                nl.cell(cell).name.c_str(), p.x[i], p.y[i], p.layer[i]);
}

int CheckFinite(const netlist::Netlist& nl, const place::Placement& p,
                std::vector<Violation>* out) {
  int n = 0;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    if (!std::isfinite(p.x[i]) || !std::isfinite(p.y[i])) {
      Append(out, "finite", c, -1,
             Format("cell %d '%s' has non-finite coordinates (%g, %g)", c,
                    nl.cell(c).name.c_str(), p.x[i], p.y[i]));
      ++n;
    }
  }
  return n;
}

int CheckLayers(const netlist::Netlist& nl, const place::Placement& p,
                int num_layers, std::vector<Violation>* out) {
  int n = 0;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    const int layer = p.layer[static_cast<std::size_t>(c)];
    if (layer < 0 || layer >= num_layers) {
      Append(out, "layer", c, -1,
             Format("%s: layer outside [0, %d)",
                    DescribeCell(nl, p, c).c_str(), num_layers));
      ++n;
    }
  }
  return n;
}

int CheckBounds(const netlist::Netlist& nl, const place::Chip& chip,
                const place::Placement& p, bool extents,
                std::vector<Violation>* out) {
  int n = 0;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (nl.cell(c).fixed) continue;  // pads legitimately ring the outline
    const std::size_t i = static_cast<std::size_t>(c);
    const double hw = extents ? nl.cell(c).width / 2.0 : 0.0;
    const double hh = extents ? nl.cell(c).height / 2.0 : 0.0;
    if (p.x[i] - hw < -kGeomEps || p.x[i] + hw > chip.width() + kGeomEps ||
        p.y[i] - hh < -kGeomEps || p.y[i] + hh > chip.height() + kGeomEps) {
      Append(out, "bounds", c, -1,
             Format("%s: %s outside die [0, %.6g] x [0, %.6g]",
                    DescribeCell(nl, p, c).c_str(),
                    extents ? "footprint" : "center", chip.width(),
                    chip.height()));
      ++n;
    }
  }
  return n;
}

int CheckRowAlignment(const netlist::Netlist& nl, const place::Chip& chip,
                      const place::Placement& p, std::vector<Violation>* out) {
  int n = 0;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (nl.cell(c).fixed) continue;
    const std::size_t i = static_cast<std::size_t>(c);
    const int row = chip.NearestRow(p.y[i]);
    if (std::abs(p.y[i] - chip.RowCenterY(row)) > kGeomEps) {
      Append(out, "row-align", c, -1,
             Format("%s: off row center %.6g (row %d)",
                    DescribeCell(nl, p, c).c_str(), chip.RowCenterY(row),
                    row));
      ++n;
    }
  }
  return n;
}

long long CountOverlapsSweep(const netlist::Netlist& nl,
                             const place::Placement& p, Violation* first) {
  std::pair<std::int32_t, std::int32_t> pair;
  const long long overlaps =
      place::DetailedLegalizer::CountOverlaps(nl, p, &pair);
  if (overlaps != 0 && first != nullptr) {
    *first = {"overlap", "",
              Format("overlap on layer %d: %s and %s",
                     p.layer[static_cast<std::size_t>(pair.second)],
                     DescribeCell(nl, p, pair.first).c_str(),
                     DescribeCell(nl, p, pair.second).c_str()),
              pair.first, -1};
  }
  return overlaps;
}

int CheckNoOverlap(const netlist::Netlist& nl, const place::Placement& p,
                   std::vector<Violation>* out) {
  Violation first;
  const long long overlaps = CountOverlapsSweep(nl, p, &first);
  if (overlaps == 0) return 0;
  first.message = Format("%lld overlapping pairs; first: %s", overlaps,
                         first.message.c_str());
  out->push_back(std::move(first));
  return 1;
}

int CheckFixedUntouched(const netlist::Netlist& nl,
                        const place::Placement& baseline,
                        const place::Placement& p,
                        std::vector<Violation>* out) {
  int n = 0;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (!nl.cell(c).fixed) continue;
    const std::size_t i = static_cast<std::size_t>(c);
    if (p.x[i] != baseline.x[i] || p.y[i] != baseline.y[i] ||
        p.layer[i] != baseline.layer[i]) {
      Append(out, "fixed", c, -1,
             Format("fixed %s moved from (%.6g, %.6g, layer %d)",
                    DescribeCell(nl, p, c).c_str(), baseline.x[i],
                    baseline.y[i], baseline.layer[i]));
      ++n;
    }
  }
  return n;
}

int CheckFixedOverlap(const netlist::Netlist& nl, const place::Placement& p,
                      std::vector<Violation>* out) {
  struct Rect {
    double xlo, xhi, ylo, yhi;
    std::int32_t cell;
  };
  // Per-layer x-sorted fixed rectangles; each movable scans forward from the
  // first fixed rect that could still reach it.
  std::vector<std::vector<Rect>> fixed_by_layer;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (!nl.cell(c).fixed) continue;
    const std::size_t i = static_cast<std::size_t>(c);
    const int layer = p.layer[i];
    if (layer < 0) continue;
    if (static_cast<std::size_t>(layer) >= fixed_by_layer.size()) {
      fixed_by_layer.resize(static_cast<std::size_t>(layer) + 1);
    }
    fixed_by_layer[static_cast<std::size_t>(layer)].push_back(
        {p.x[i] - nl.cell(c).width / 2.0, p.x[i] + nl.cell(c).width / 2.0,
         p.y[i] - nl.cell(c).height / 2.0, p.y[i] + nl.cell(c).height / 2.0,
         c});
  }
  for (auto& rects : fixed_by_layer) {
    std::sort(rects.begin(), rects.end(),
              [](const Rect& a, const Rect& b) { return a.xlo < b.xlo; });
  }
  int n = 0;
  for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
    if (nl.cell(c).fixed) continue;
    const std::size_t i = static_cast<std::size_t>(c);
    const int layer = p.layer[i];
    if (layer < 0 || static_cast<std::size_t>(layer) >= fixed_by_layer.size()) {
      continue;
    }
    const auto& rects = fixed_by_layer[static_cast<std::size_t>(layer)];
    const double xlo = p.x[i] - nl.cell(c).width / 2.0;
    const double xhi = p.x[i] + nl.cell(c).width / 2.0;
    const double ylo = p.y[i] - nl.cell(c).height / 2.0;
    const double yhi = p.y[i] + nl.cell(c).height / 2.0;
    for (const Rect& f : rects) {
      if (f.xlo >= xhi - kGeomEps) break;  // sorted: nothing further can hit
      if (f.xhi <= xlo + kGeomEps) continue;
      if (f.ylo < yhi - kGeomEps && ylo < f.yhi - kGeomEps) {
        Append(out, "fixed-overlap", c, -1,
               Format("%s overlaps fixed %s", DescribeCell(nl, p, c).c_str(),
                      DescribeCell(nl, p, f.cell).c_str()));
        ++n;
        break;  // one violation per movable cell is enough to act on
      }
    }
  }
  return n;
}

ConservationSnapshot ConservationSnapshot::Of(const netlist::Netlist& nl) {
  ConservationSnapshot s;
  s.cells = nl.NumCells();
  s.nets = nl.NumNets();
  s.pins = nl.NumPins();
  s.movable = nl.NumMovableCells();
  s.movable_area = nl.MovableArea();
  // FNV-1a over the structural identity of every pin, in order.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (std::int32_t p = 0; p < nl.NumPins(); ++p) {
    const netlist::Pin& pin = nl.pin(p);
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(pin.cell)));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(pin.net)));
    mix(static_cast<std::uint64_t>(pin.dir == netlist::PinDir::kOutput));
  }
  s.pin_checksum = h;
  return s;
}

int CheckConservation(const netlist::Netlist& nl,
                      const ConservationSnapshot& snapshot,
                      const place::Placement& p, std::vector<Violation>* out) {
  const ConservationSnapshot now = ConservationSnapshot::Of(nl);
  int n = 0;
  if (now.cells != snapshot.cells || now.nets != snapshot.nets ||
      now.pins != snapshot.pins || now.movable != snapshot.movable) {
    Append(out, "conservation", -1, -1,
           Format("netlist size changed: cells %d->%d nets %d->%d pins "
                  "%d->%d movable %d->%d",
                  snapshot.cells, now.cells, snapshot.nets, now.nets,
                  snapshot.pins, now.pins, snapshot.movable, now.movable));
    ++n;
  }
  if (now.movable_area != snapshot.movable_area) {
    Append(out, "conservation", -1, -1,
           Format("movable area changed: %.9g -> %.9g m^2",
                  snapshot.movable_area, now.movable_area));
    ++n;
  }
  if (now.pin_checksum != snapshot.pin_checksum) {
    Append(out, "conservation", -1, -1,
           "net pin membership changed (pin checksum mismatch)");
    ++n;
  }
  if (p.size() != static_cast<std::size_t>(snapshot.cells) ||
      p.y.size() != p.size() || p.layer.size() != p.size()) {
    Append(out, "conservation", -1, -1,
           Format("placement sized %zu/%zu/%zu for %d cells", p.x.size(),
                  p.y.size(), p.layer.size(), snapshot.cells));
    ++n;
  }
  return n;
}

int CheckObjectiveConsistency(const place::ObjectiveEvaluator& eval,
                              const ObjectiveTolerance& tol,
                              std::vector<Violation>* out) {
  // A fresh evaluator recomputes every cache from the geometry alone; the
  // live evaluator's totals were maintained move-by-move across the flow.
  place::ObjectiveEvaluator fresh(eval.netlist(), eval.chip(), eval.params());
  fresh.SetPlacement(eval.placement());
  int n = 0;
  auto check = [&](const char* what, double incremental, double recomputed) {
    const double lim =
        tol.abs + tol.rel * std::max(std::abs(recomputed), 1.0);
    if (std::abs(incremental - recomputed) > lim) {
      Append(out, "objective", -1, -1,
             Format("%s drifted: incremental %.17g vs recomputed %.17g "
                    "(err %.3g, tol %.3g)",
                    what, incremental, recomputed,
                    std::abs(incremental - recomputed), lim));
      ++n;
    }
  };
  check("objective", eval.Total(), fresh.Total());
  check("hpwl", eval.TotalHpwl(), fresh.TotalHpwl());
  check("thermal", eval.ThermalCost(), fresh.ThermalCost());
  if (eval.TotalIlv() != fresh.TotalIlv()) {
    Append(out, "objective", -1, -1,
           Format("ilv drifted: incremental %lld vs recomputed %lld",
                  static_cast<long long>(eval.TotalIlv()),
                  static_cast<long long>(fresh.TotalIlv())));
    ++n;
  }
  return n;
}

}  // namespace p3d::check
