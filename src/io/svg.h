// SVG export of 3D placements — one panel per layer, cells colored either
// by layer (structure view) or by temperature (thermal view). Intended for
// quick visual inspection of placer output; no external dependencies.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "place/chip.h"

namespace p3d::io {

struct SvgOptions {
  // Optional per-cell scalar (e.g. temperature or power). When non-empty it
  // drives a blue->red color ramp; otherwise cells are tinted per layer.
  std::vector<double> cell_scalar;
  std::string title;
};

/// Renders the placement to an SVG string.
std::string RenderPlacementSvg(const netlist::Netlist& nl,
                               const place::Chip& chip,
                               const place::Placement& placement,
                               const SvgOptions& options = {});

/// Convenience: renders and writes to a file. Returns false on I/O error.
bool WritePlacementSvg(const std::string& path, const netlist::Netlist& nl,
                       const place::Chip& chip,
                       const place::Placement& placement,
                       const SvgOptions& options = {});

}  // namespace p3d::io
