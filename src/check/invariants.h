// Pure placement invariant checks — the primitives of the audit subsystem.
//
// Every placement phase of the paper's flow hands the next phase a placement
// that must satisfy a contract: cells inside the die, valid layer indices,
// fixed pads untouched, (after detailed legalization) row alignment and zero
// pairwise overlap, and a netlist that nothing mutated along the way. These
// functions verify one contract each, from scratch, sharing no bookkeeping
// with the phases they check; PlacementAuditor sequences them per phase.
//
// All checkers append human-actionable Violations (first offending cell/net
// with coordinates) and return the number appended.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "place/chip.h"
#include "place/objective.h"

namespace p3d::check {

struct Violation {
  std::string check;    // which invariant: "bounds", "overlap", ...
  std::string phase;    // flow phase (filled by the auditor)
  std::string message;  // offending element with coordinates
  std::int32_t cell = -1;
  std::int32_t net = -1;
};

/// Formats "cell 12 'name' at (x, y, layer 2)" for messages.
std::string DescribeCell(const netlist::Netlist& nl,
                         const place::Placement& p, std::int32_t cell);

// ----- legality ------------------------------------------------------------

/// Every coordinate is finite (no NaN/inf escaped a phase).
int CheckFinite(const netlist::Netlist& nl, const place::Placement& p,
                std::vector<Violation>* out);

/// Every cell's layer index lies in [0, num_layers).
int CheckLayers(const netlist::Netlist& nl, const place::Placement& p,
                int num_layers, std::vector<Violation>* out);

/// Movable cells inside the die outline. `extents` = false checks cell
/// centers only (coarse phases place centers, edges may graze the boundary);
/// true checks the full footprint (the detailed-placement contract).
int CheckBounds(const netlist::Netlist& nl, const place::Chip& chip,
                const place::Placement& p, bool extents,
                std::vector<Violation>* out);

/// Movable cells sit exactly on a row center line.
int CheckRowAlignment(const netlist::Netlist& nl, const place::Chip& chip,
                      const place::Placement& p, std::vector<Violation>* out);

/// Exact pairwise overlap count among movable cells on each layer: the
/// placer's own counter, DetailedLegalizer::CountOverlaps (a plane sweep
/// over x with an active set). Touching edges do not overlap. If `first` is
/// non-null, it receives the first offending pair.
long long CountOverlapsSweep(const netlist::Netlist& nl,
                             const place::Placement& p, Violation* first);

/// Zero-overlap contract: appends one violation naming the first pair.
int CheckNoOverlap(const netlist::Netlist& nl, const place::Placement& p,
                   std::vector<Violation>* out);

/// Fixed cells (pads) occupy exactly their baseline positions.
int CheckFixedUntouched(const netlist::Netlist& nl,
                        const place::Placement& baseline,
                        const place::Placement& p,
                        std::vector<Violation>* out);

/// No movable cell's footprint intersects a fixed cell's footprint on the
/// same layer (the pad-ring / blockage wall contract of detailed placement:
/// legalization and rowopt must treat fixed cells as impenetrable). Touching
/// edges do not overlap. Appends one violation per offending movable cell.
int CheckFixedOverlap(const netlist::Netlist& nl, const place::Placement& p,
                      std::vector<Violation>* out);

// ----- conservation --------------------------------------------------------

/// Fingerprint of everything a placement phase must NOT change: element
/// counts, movable area, and the full pin membership (cell/net/direction of
/// every pin, order-sensitive).
struct ConservationSnapshot {
  std::int32_t cells = 0;
  std::int32_t nets = 0;
  std::int32_t pins = 0;
  std::int32_t movable = 0;
  double movable_area = 0.0;
  std::uint64_t pin_checksum = 0;

  static ConservationSnapshot Of(const netlist::Netlist& nl);
};

/// The netlist still matches the snapshot and the placement is sized to it.
int CheckConservation(const netlist::Netlist& nl,
                      const ConservationSnapshot& snapshot,
                      const place::Placement& p, std::vector<Violation>* out);

// ----- objective consistency ----------------------------------------------

struct ObjectiveTolerance {
  double rel = 1e-9;    // of the total's magnitude
  double abs = 1e-12;
};

/// The evaluator's incrementally maintained totals (objective, HPWL, ILV,
/// thermal term) match a from-scratch recomputation by a fresh evaluator
/// over the same placement. ILV is integral and must match exactly.
int CheckObjectiveConsistency(const place::ObjectiveEvaluator& eval,
                              const ObjectiveTolerance& tol,
                              std::vector<Violation>* out);

}  // namespace p3d::check
