// Cell shifting (paper Section 4.1) — the spreading engine of coarse
// legalization.
//
// A uniform density mesh covers the chip (bins = 2 cell widths x 2 cell
// heights x 1 layer). Per iteration and per direction, every row of bins is
// re-spaced: bin widths are remapped through the piecewise curve of Eq. 16
// (expansion for density > 1, contraction for density < 1) and cells are
// mapped into the new bin extents with Eq. 17.
//
// Run stops at the first of three conditions, reported as ShiftStats::stop:
//   * converged — the densest bin is at or below the target density. At the
//     2x2-cell bin size even a legal placement reads ~2.3, so the default
//     target (1.05) is out of reach on a flow's placement;
//   * stalled   — five consecutive iterations each failed to lower the
//     overflow ratio (ePlace-3D's tau: sum over bins of the area above
//     capacity, over the movable area) by 1% below the best value seen,
//     the entry value included. Sweeps past that point cost Eq. 3 without
//     spreading further; the detailed legalizer removes what overlap is left;
//   * cap       — the iteration limit was reached first.
//
// The two FastPlace [13] defects the paper fixes are handled the same way:
//   * boundary cross-over: all boundaries in a row are recomputed together
//     from positive widths and renormalized to the row extent, so ordering
//     is preserved by construction;
//   * needless spreading: a row whose bins are all at density <= 1 is left
//     untouched — sparse bins contract only to make room for over-congested
//     bins in the *same row*.
//
// The movement-retention factor beta_p (Eq. 17) is chosen per cell from a
// small candidate set to minimize objective degradation, evaluated through
// the shared ObjectiveEvaluator.
//
// Parallel schedule (DESIGN.md §5): one sweep's rows are independent work
// units — the density mesh is frozen at sweep start and every cell occupies
// exactly one bin of one row, so no two rows ever touch the same cell. Rows
// are grouped by the 4-colored window tiling of the cross grid; windows of a
// color plan their shifts concurrently against the frozen placement through
// thread-slot-local DeltaViews, then the planned moves commit serially in
// fixed window order — byte-identical placements for any thread count.
#pragma once

#include "place/bins.h"
#include "place/objective.h"

namespace p3d::place {

enum class ShiftStop { kConverged, kStalled, kCap };

struct ShiftStats {
  int iterations = 0;
  double final_max_density = 0.0;
  double final_overflow = 0.0;  // overflow area / movable area at exit
  ShiftStop stop = ShiftStop::kCap;
};

class CellShifter {
 public:
  explicit CellShifter(ObjectiveEvaluator& eval);

  /// Iterates x/y/z shifting sweeps until the max bin density is at most
  /// `target_density` (converged), the overflow ratio stalls (stalled), or
  /// `max_iters` sweeps ran (cap); see the header comment. Mutates the
  /// evaluator's placement. Records the overflow ratio on entry and after
  /// every iteration as the `shift/overflow` series, the exit ratio as the
  /// `shift/final_overflow` gauge, and one `shift/stop_<reason>` counter.
  /// `max_iters <= 0` disables shifting: Run returns zeroed stats at once,
  /// leaving the placement and every metric untouched.
  ShiftStats Run(int max_iters, double target_density);

 private:
  /// One shifting sweep along one axis (0 = x, 1 = y, 2 = z/layers).
  void SweepAxis(BinGrid& grid, int axis);

  /// Eq. 16 width curve.
  double WidthFactor(double density) const;

  /// Plans Eq. 17 for one cell along one axis with the best beta from
  /// {1, 0.5, 0.25} (or beta = 1 when retention is disallowed, i.e. the
  /// source bin is badly congested), evaluating candidates through `view`
  /// (read-only). Returns true and the target coordinates when the best
  /// candidate actually moves the cell; the windowed commit phase applies it.
  bool PlanCellShift(DeltaView& view, std::int32_t cell, int axis,
                     double new_coord, bool allow_retention, double* out_x,
                     double* out_y, int* out_layer) const;

  ObjectiveEvaluator& eval_;
  int chip_layers_;
  double a_lower_;
  double a_upper_;
  double b_;
};

}  // namespace p3d::place
