// Fiduccia–Mattheyses bipartition refinement.
//
// Operates on quantized weights so gains are integers. Each side keeps its
// free vertices in a max-heap on (gain, stamp): among equal gains the vertex
// inserted or updated last moves first, the LIFO order of the classic FM
// gain-bucket list, in memory proportional to the vertex count.
//
// Balance is expressed as an allowed interval for part 0's quantized weight;
// the refiner also repairs infeasible starting partitions by preferring
// balance-restoring moves while infeasible.
#pragma once

#include <cstdint>
#include <vector>

#include "partition/hypergraph.h"
#include "util/rng.h"

namespace p3d::partition {

struct FmOptions {
  std::int64_t min_part0_weight_q = 0;  // inclusive lower bound on part 0
  std::int64_t max_part0_weight_q = 0;  // inclusive upper bound on part 0
  int max_passes = 8;
};

/// Why RefineFm stopped.
enum class FmStop : std::int8_t {
  kConverged,  // a pass found no improving prefix
  kCap,        // ran FmOptions::max_passes passes
};

struct FmStats {
  int passes = 0;
  FmStop stop = FmStop::kConverged;
  std::int64_t initial_cut_q = 0;
  std::int64_t final_cut_q = 0;
  bool feasible = false;  // final balance within bounds
};

/// Refines `side` (0/1 per vertex; fixed vertices must already match their
/// fixed side) in place. Returns pass statistics.
FmStats RefineFm(const Hypergraph& hg, std::vector<std::int8_t>* side,
                 const FmOptions& options, util::Rng& rng);

}  // namespace p3d::partition
