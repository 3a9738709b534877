// GlobalPlacerBackend — the engine-agnostic interface of the global-placement
// phase.
//
// Placer3D::Run drives whichever backend PlacerParams::global_backend selects
// through this interface; the backends are
//   * GlobalPlacer (place/global.h): 3D recursive bisection, the paper's
//     Section 3 engine;
//   * AnalyticPlacer (place/global_analytic.h): quadratic-wirelength B2B
//     analytical placement with 3D density spreading (ePlace-3D style).
// Both honor the library-wide determinism contract: same seed + same inputs
// produce a byte-identical placement at ANY thread count (DESIGN.md §5), so a
// backend is a pure function of (netlist, chip, params, initial).
//
// GlobalPlaceStats is the backend-agnostic phase summary handed to
// PhaseObserver::OnPhase at the "global" boundary. The shared core (backend
// name, iteration count, cells placed) is meaningful for every engine; the
// per-backend detail payloads carry what only one engine can report
// (partition feasibility, CG iteration counts). Exactly the payload matching
// `backend` is populated.
#pragma once

#include <memory>
#include <string_view>

#include "place/chip.h"
#include "place/params.h"
#include "util/status.h"

namespace p3d::place {

class ObjectiveEvaluator;

/// Detail payload of the recursive-bisection backend.
struct BisectionDetail {
  int levels = 0;
  int partitions = 0;
  int infeasible_partitions = 0;  // balance bounds missed (diagnostic)
  long long partitioned_cells = 0;
};

/// Detail payload of the analytic backend.
struct AnalyticDetail {
  int iterations = 0;         // outer B2B/density iterations run
  int solves = 0;             // per-axis CG solves across all iterations
  long long cg_iters = 0;     // CG iterations across those solves
  double final_overflow = 0.0;  // max bin density / target at exit
};

/// Backend-agnostic global-placement statistics with per-backend detail.
struct GlobalPlaceStats {
  const char* backend = "";    // GlobalBackendName of the engine that ran
  int iterations = 0;          // bisection levels / analytic outer iterations
  long long cells_placed = 0;  // movable cells the backend positioned

  BisectionDetail bisection;   // populated when backend == "bisection"
  AnalyticDetail analytic;     // populated when backend == "analytic"
};

/// One global-placement engine. Stateless across Run calls except for stats()
/// (which reports the most recent Run). Implementations read netlist, chip,
/// params, and the Eq. 8 power-rate coefficients from the evaluator passed at
/// construction; they never mutate its placement state.
class GlobalPlacerBackend {
 public:
  virtual ~GlobalPlacerBackend() = default;

  /// The backend's registry name ("bisection", "analytic").
  virtual const char* name() const = 0;

  /// Runs global placement. `initial` provides positions for fixed cells
  /// (movable entries are re-initialized by the backend, as in the paper);
  /// size 0 means an all-zero initial. Errors with kInvalidArgument when a
  /// non-empty initial does not match the netlist.
  virtual util::StatusOr<Placement> Run(const Placement& initial) = 0;

  /// Statistics of the most recent Run (zeroed before it).
  virtual const GlobalPlaceStats& stats() const = 0;
};

/// Returns "bisection" / "analytic".
const char* GlobalBackendName(GlobalBackend kind);

/// Parses a backend name as spelled by --global-backend / the jobs manifest.
/// Unknown names error with kInvalidArgument listing the valid spellings.
util::StatusOr<GlobalBackend> ParseGlobalBackend(std::string_view name);

/// Constructs the backend `kind` over `eval` (which must outlive it). Errors
/// with kInvalidArgument on an out-of-range enum value (e.g. a cast from a
/// corrupted manifest).
util::StatusOr<std::unique_ptr<GlobalPlacerBackend>> MakeGlobalPlacerBackend(
    GlobalBackend kind, const ObjectiveEvaluator& eval);

/// Convenience: the backend selected by eval.params().global_backend.
util::StatusOr<std::unique_ptr<GlobalPlacerBackend>> MakeGlobalPlacerBackend(
    const ObjectiveEvaluator& eval);

}  // namespace p3d::place
