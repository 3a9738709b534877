// Detailed legalization (paper Section 5).
//
// Produces a fully overlap-free, row-aligned 3D placement. The cell
// distribution is assumed pre-evened by coarse legalization, so search is
// local:
//   * a fine density mesh (bins ~ one average cell) identifies over-full
//     bins; the processing order follows a BFS layering of the supply/demand
//     DAG (cells in over-full bins first, then outward), tie-broken by the
//     objective sensitivity of each cell's nets — the paper's DAG +
//     sensitivity ordering;
//   * each cell is placed into the best position within an expanding target
//     region of rows (its own layer first, then adjacent layers), choosing
//     the candidate that least degrades the objective (Eq. 3) via the shared
//     evaluator;
//   * a position may require already-placed cells to be *shifted aside*;
//     the objective cost of those shifts is included in the candidate's cost
//     (paper: "If already-processed cells need to be moved apart to legally
//     place the cell, the effect of their movement on the objective function
//     is included in the cost");
//   * fixed cells pre-block row spans and act as immovable walls.
//
// The slot-assignment pass runs under the windowed propose/commit protocol
// (DESIGN.md §5): row indices are tiled into `legalize_window_rows`-row
// blocks spanning all layers, 2-colored by block parity. A cell belongs to
// the block holding its home row; its candidate search is restricted to
// that block's rows, and proposals are screened concurrently against a
// per-window simulation of the block's rows. Commits replay the chosen
// candidates serially in ascending window order — exact, because only the
// owning window ever mutates its rows, so the live rows evolve identically
// to the simulation. Cells whose window has no feasible slot fall through
// to a serial full-radius pass, keeping the global priority order. The
// placement is byte-identical for any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "place/objective.h"
#include "place/rows.h"

namespace p3d::place {

struct LegalizeStats {
  long long placed = 0;
  long long squeezes = 0;           // placements that shifted neighbours
  long long deferred = 0;           // cells sent to the serial overflow pass
  double total_displacement = 0.0;  // sum of |move| during legalization, m
  int max_radius_rows = 0;          // largest row search radius needed
  bool success = true;              // every cell found a legal slot
};

class DetailedLegalizer {
 public:
  explicit DetailedLegalizer(ObjectiveEvaluator& eval);

  /// Legalizes the evaluator's current placement in place.
  LegalizeStats Run();

  /// Exact count of overlapping pairs of movable cells on each layer (an x
  /// sweep; touching edges do not overlap). Zero after a successful Run().
  static long long CountOverlaps(const netlist::Netlist& nl,
                                 const Placement& p);
  /// As above; `first` receives the first offending pair found.
  static long long CountOverlaps(const netlist::Netlist& nl,
                                 const Placement& p,
                                 std::pair<std::int32_t, std::int32_t>* first);

 private:
  /// A candidate placement: target position plus any neighbour shifts needed
  /// to make room, with the combined objective delta.
  struct Candidate {
    double x = 0.0;
    int layer = 0;
    int row = 0;
    double delta = 0.0;
    std::vector<std::pair<std::int32_t, double>> shifts;  // cell -> new lo
  };

  /// Evaluates up to two gap candidates and (if no gap fits) one squeeze
  /// candidate for `cell` in `row` = rows(layer, r); appends to `out`.
  /// Deltas go through `view` so concurrent window proposals never share
  /// evaluator scratch.
  void CandidatesInRow(DeltaView& view, const Row& row, std::int32_t cell,
                       double width, double desired_x, int layer, int r,
                       std::vector<Candidate>* out) const;

  /// Plans a squeeze insertion into the free-space segment of the row
  /// nearest `desired_x`. Returns nullopt when no segment has `width` of
  /// slack.
  std::optional<Candidate> PlanSqueeze(DeltaView& view, const Row& row,
                                       std::int32_t cell, double width,
                                       double desired_x, int layer,
                                       int r) const;

  /// The cheapest slot for `cell` within the row range of `rows`, by an
  /// expanding-radius search around its current position (home layer
  /// first, then adjacent layers); nullopt when no row in range has room.
  /// `*radius` receives the largest radius at which a layer first yielded
  /// candidates. Shared by the windowed pass (a window's simulated rows)
  /// and the serial overflow pass (the live rows).
  std::optional<Candidate> BestCandidate(RowBlock& rows, DeltaView& view,
                                         std::int32_t cell, int* radius,
                                         std::vector<Candidate>* cands) const;

  /// Applies the candidate's neighbour shifts and the cell's insertion to
  /// `row` — geometry only. Shared by the window simulations and the live
  /// commit so both evolve the row bytes identically.
  void ApplyCandidateToRow(Row& row, std::int32_t cell,
                           const Candidate& cand) const;

  void CommitCandidate(RowBlock& rows, std::int32_t cell,
                       const Candidate& cand, LegalizeStats* stats);

  ObjectiveEvaluator& eval_;
  const netlist::Netlist& nl_;
  Chip chip_;
};

}  // namespace p3d::place
