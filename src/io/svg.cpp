#include "io/svg.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/log.h"

namespace p3d::io {
namespace {

constexpr double kPanelPx = 360.0;  // pixel width of each layer panel
constexpr double kMarginPx = 24.0;  // spacing around and between panels

/// Layer tints (structure view): distinguishable, print-safe.
const char* kLayerFill[] = {"#4e79a7", "#f28e2b", "#59a14f", "#e15759",
                            "#76b7b2", "#edc948", "#b07aa1", "#9c755f",
                            "#bab0ac", "#ff9da7"};

/// Blue -> red ramp for scalar (thermal) views, t in [0, 1].
std::string RampColor(double t) {
  t = std::clamp(t, 0.0, 1.0);
  const int r = static_cast<int>(40 + 215 * t);
  const int g = static_cast<int>(60 + 80 * (1.0 - std::abs(2 * t - 1.0)));
  const int b = static_cast<int>(255 - 215 * t);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "#%02x%02x%02x", r, g, b);
  return buf;
}

}  // namespace

std::string RenderPlacementSvg(const netlist::Netlist& nl,
                               const place::Chip& chip,
                               const place::Placement& placement,
                               const SvgOptions& options) {
  const int layers = chip.num_layers();
  const double scale = kPanelPx / chip.width();
  const double panel_h = chip.height() * scale;
  const double title_h = options.title.empty() ? 0.0 : 20.0;
  const double total_w =
      kMarginPx + layers * (kPanelPx + kMarginPx);
  const double total_h = title_h + panel_h + 2 * kMarginPx + 16.0;

  const bool scalar_view =
      options.cell_scalar.size() == static_cast<std::size_t>(nl.NumCells());
  double s_lo = 0.0, s_hi = 1.0;
  if (scalar_view) {
    s_lo = *std::min_element(options.cell_scalar.begin(),
                             options.cell_scalar.end());
    s_hi = *std::max_element(options.cell_scalar.begin(),
                             options.cell_scalar.end());
    if (s_hi <= s_lo) s_hi = s_lo + 1.0;
  }

  std::ostringstream svg;
  svg << "<svg xmlns='http://www.w3.org/2000/svg' width='" << total_w
      << "' height='" << total_h << "' viewBox='0 0 " << total_w << " "
      << total_h << "'>\n";
  svg << "<rect width='100%' height='100%' fill='white'/>\n";
  if (!options.title.empty()) {
    svg << "<text x='" << kMarginPx << "' y='16' font-family='monospace'"
        << " font-size='13'>" << options.title << "</text>\n";
  }

  for (int l = 0; l < layers; ++l) {
    const double ox =
        kMarginPx + l * (kPanelPx + kMarginPx);
    const double oy = title_h + kMarginPx;
    svg << "<g transform='translate(" << ox << "," << oy << ")'>\n";
    svg << "<rect x='0' y='0' width='" << kPanelPx << "' height='"
        << panel_h << "' fill='#f7f7f7' stroke='#888'/>\n";
    // Light horizontal row bands.
    for (int r = 0; r < chip.num_rows(); ++r) {
      // y axis flipped: SVG origin is top-left, die origin bottom-left.
      const double y =
          panel_h - (chip.RowBottomY(r) + chip.row_height()) * scale;
      svg << "<rect x='0' y='" << y << "' width='" << kPanelPx
          << "' height='" << chip.row_height() * scale
          << "' fill='#ececec'/>\n";
    }
    for (std::int32_t c = 0; c < nl.NumCells(); ++c) {
      const std::size_t i = static_cast<std::size_t>(c);
      if (placement.layer[i] != l) continue;
      const auto& cell = nl.cell(c);
      const double x = (placement.x[i] - cell.width / 2.0) * scale;
      const double y =
          panel_h - (placement.y[i] + cell.height / 2.0) * scale;
      std::string fill;
      if (scalar_view) {
        fill = RampColor((options.cell_scalar[i] - s_lo) / (s_hi - s_lo));
      } else if (cell.fixed) {
        fill = "#444444";
      } else {
        fill = kLayerFill[static_cast<std::size_t>(l) % std::size(kLayerFill)];
      }
      svg << "<rect x='" << x << "' y='" << y << "' width='"
          << cell.width * scale << "' height='" << cell.height * scale
          << "' fill='" << fill << "' fill-opacity='0.85'/>\n";
    }
    svg << "<text x='2' y='" << panel_h + 13
        << "' font-family='monospace' font-size='11'>layer " << l
        << (l == 0 ? " (heat sink side)" : "") << "</text>\n";
    svg << "</g>\n";
  }
  svg << "</svg>\n";
  return svg.str();
}

bool WritePlacementSvg(const std::string& path, const netlist::Netlist& nl,
                       const place::Chip& chip,
                       const place::Placement& placement,
                       const SvgOptions& options) {
  std::ofstream out(path);
  if (!out) {
    util::LogError("svg: cannot write %s", path.c_str());
    return false;
  }
  out << RenderPlacementSvg(nl, chip, placement, options);
  return out.good();
}

}  // namespace p3d::io
