// A hypergraph shaped like one region of the placer's recursive bisection,
// shared by the partition tests and the FM micro-benchmark.
//
// The global placer bisects regions of a few dozen cells far more often
// than large ones: on ibm10 at 15% size the average FM call sees ~25 free
// vertices, ~34 nets and ~97 pins. Every region also carries two zero-weight
// fixed terminals (one per side, standing in for the pins outside the
// region) that sit on most nets, and its net weights span the whole
// quantization range, down to weights that quantize to 0.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "partition/hypergraph.h"
#include "util/rng.h"

namespace p3d::partition::fixtures {

/// Builds a finalized region-shaped hypergraph: `free_verts` movable cells
/// (ids 0..free_verts-1), then a side-0 and a side-1 fixed terminal. Each
/// net carries each terminal with probability `terminal_prob`; the random
/// draws do not depend on it, so only terminal membership changes with it.
/// At the default 0.8 about 64% of the nets carry both terminals, are cut
/// by every partition, and dominate the cut. Each net draws between
/// `min_net_cells` and `max_net_cells` cells (duplicates merge) from a
/// window of 3 * max_net_cells consecutive ids; the default 1..2 keeps the
/// draws of the fixture's first version.
inline Hypergraph RegionHypergraph(std::uint64_t seed, int free_verts = 25,
                                   double terminal_prob = 0.8,
                                   int min_net_cells = 1,
                                   int max_net_cells = 2) {
  util::Rng rng(seed);
  Hypergraph hg;
  for (int i = 0; i < free_verts; ++i) hg.AddVertex(1.0 + 2.0 * rng.NextDouble());
  const std::int32_t t0 = hg.AddVertex(0.0, FixedSide::kPart0);
  const std::int32_t t1 = hg.AddVertex(0.0, FixedSide::kPart1);
  const int nets = free_verts * 34 / 25;
  std::vector<std::int32_t> verts;
  for (int n = 0; n < nets; ++n) {
    verts.clear();
    // Cells close in id order (regions are spatially local).
    const int base = rng.NextInt(0, free_verts - 1);
    const int cells = rng.NextInt(min_net_cells, max_net_cells);
    for (int d = 0; d < cells; ++d) {
      verts.push_back((base + rng.NextInt(0, 3 * max_net_cells - 1)) %
                      free_verts);
    }
    if (rng.NextDouble() < terminal_prob) verts.push_back(t0);
    if (rng.NextDouble() < terminal_prob) verts.push_back(t1);
    // Log-uniform over five decades: the heaviest net quantizes to ~2048,
    // and roughly the lightest quarter quantize to 0.
    const double weight = std::pow(10.0, -5.0 * rng.NextDouble());
    hg.AddNet(weight, verts);
  }
  hg.Finalize();
  return hg;
}

}  // namespace p3d::partition::fixtures
