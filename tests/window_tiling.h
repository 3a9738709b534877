// Window-tiling helpers shared by the tests of the windowed legalization
// engines (moveswap, cell shifting).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "place/bins.h"

namespace p3d::place::fixtures {

/// The most windows any one color of `tiling` holds. A thread-count test
/// only exercises concurrent proposals when this is at least 2.
inline int MaxWindowsPerColor(const WindowTiling& tiling) {
  std::vector<int> per_color(WindowTiling::kNumColors, 0);
  for (const int c : tiling.colors()) ++per_color[static_cast<std::size_t>(c)];
  return *std::max_element(per_color.begin(), per_color.end());
}

}  // namespace p3d::place::fixtures
