// Legality-preserving detailed-placement refinement.
//
// The paper's Section 4/5 notes that "the coarse legalization methods can
// also be used in conjunction with detailed legalization to iteratively
// improve an existing placement during a post-optimization phase of detailed
// placement". This component is that phase: it improves a *legal* placement
// without ever breaking legality, using the full objective (Eq. 3) for every
// decision:
//
//   * slide — move a cell within its free span in the row toward the
//     weighted-median optimum of its nets;
//   * reorder — exchange the order of two adjacent cells in a row (repacked
//     inside their combined extent, so no overlap can appear);
//   * layer swap — exchange two cells on different layers when each fits in
//     the other's free span (trades vias for wirelength under Eq. 3).
//
// All three passes run under the windowed propose/commit protocol
// (DESIGN.md §5): row indices are tiled into blocks of
// `legalize_window_rows` rows spanning all layers, 2-colored by block
// parity. Every rowopt action is confined to a single row index (slides and
// reorders are intra-row; a layer swap exchanges cells between adjacent
// layers of the SAME row index), so same-color blocks touch disjoint rows
// and can screen proposals concurrently against the frozen placement.
// Commits replay serially in ascending window order and re-evaluate every
// action against the live evaluator before applying it, so the placement is
// byte-identical for any thread count.
#pragma once

#include <cstdint>

#include "place/objective.h"

namespace p3d::place {

struct RowOptStats {
  long long slides = 0;
  long long reorders = 0;
  long long layer_swaps = 0;
  double gain = 0.0;  // objective reduction (positive = improved)
};

class RowRefiner {
 public:
  /// `seed` is unused: every decision is deterministic. The parameter stays
  /// because the end-to-end benchmark constructs the refiner with it.
  RowRefiner(ObjectiveEvaluator& eval, std::uint64_t seed);

  /// Runs `passes` refinement passes over all rows. The placement must be
  /// legal (row-aligned, overlap-free); it stays legal.
  RowOptStats Run(int passes);

 private:
  ObjectiveEvaluator& eval_;
  Chip chip_;
};

}  // namespace p3d::place
