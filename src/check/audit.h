// PlacementAuditor — end-to-end verification of the placement flow.
//
// The paper's flow is a chain of phases, each relying on contracts the
// previous phase must have established (see DESIGN.md "Placement audit
// subsystem"). The auditor attaches to Placer3D's phase hooks and verifies,
// at every boundary:
//
//   legality      cells in the die, valid layers, fixed pads untouched;
//                 after detailed legalization also row/site alignment and
//                 zero pairwise overlap (independent sweep-line);
//   objective     the incrementally maintained Eq. 3 totals match a
//                 from-scratch recomputation; in paranoid mode every
//                 committed MoveDelta/SwapDelta is replayed and re-verified;
//   conservation  cell count, movable area, and net pin membership
//                 unchanged across phases;
//   balance       bisection feasibility counters surface as warnings.
//
// Auditing is read-only and must not perturb the flow: the determinism suite
// asserts byte-identical placements with auditing on and off.
#pragma once

#include <string>
#include <vector>

#include "check/invariants.h"
#include "check/replay.h"
#include "place/placer.h"

namespace p3d::check {

struct AuditReport {
  std::vector<Violation> violations;
  std::vector<std::string> warnings;  // suspicious but legal (e.g. balance)
  int phases_audited = 0;
  long long checks_run = 0;
  std::size_t replayed_ops = 0;

  bool ok() const { return violations.empty(); }
  /// One line per violation/warning plus a totals line.
  std::string Summary() const;
};

/// How much of the audit runs during a flow (see DESIGN.md "Placement audit
/// subsystem").
enum class AuditLevel {
  kOff,       // OnPhase checks nothing
  kPhase,     // legality + conservation + objective recompute per phase
  kParanoid,  // kPhase plus commit recording and per-op delta replay
};

class PlacementAuditor final : public place::PhaseObserver {
 public:
  PlacementAuditor(const netlist::Netlist& nl, AuditLevel level);

  /// Wires this auditor into a placer: phase observer, plus the evaluator's
  /// commit listener when the level is paranoid. Call before Run(). Also
  /// snapshots the conservation baseline. Attaching ADDS observers (other
  /// observers, e.g. the metrics sampler, stay attached); undo with Detach.
  void Attach(place::Placer3D* placer);

  /// Unhooks this auditor (phase observer and commit listener) from a placer
  /// previously passed to Attach. No-op if not attached.
  void Detach(place::Placer3D* placer);

  /// Baseline for the fixed-pads-untouched invariant. Optional: without it,
  /// fixed positions are captured at the first phase boundary (which would
  /// mask a global-placement bug that moves a pad).
  void SetFixedBaseline(const place::Placement& initial);

  void OnPhase(const char* phase, int round,
               const place::ObjectiveEvaluator& eval,
               const place::GlobalPlaceStats* global_stats) override;

  /// One-shot audit of an arbitrary evaluator state under `phase`'s
  /// contract; used by tests and by the CLI for the post-flow check.
  void AuditNow(const char* phase, const place::ObjectiveEvaluator& eval);

  const AuditReport& report() const { return report_; }
  bool ok() const { return report_.ok(); }
  AuditLevel level() const { return level_; }

 private:
  void RunChecks(const char* phase, int round,
                 const place::ObjectiveEvaluator& eval,
                 const place::GlobalPlaceStats* global_stats);

  const netlist::Netlist& nl_;
  AuditLevel level_;
  ConservationSnapshot snapshot_;
  place::Placement fixed_baseline_;
  bool have_fixed_baseline_ = false;
  MoveLog log_;
  AuditReport report_;
};

}  // namespace p3d::check
