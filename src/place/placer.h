// Placer3D — the public entry point of the library.
//
// Runs the paper's full flow (Section 6):
//   1. global placement: 3D recursive bisection with thermal net weighting
//      and thermal-resistance-reduction nets;
//   2. coarse legalization: global then local moves/swaps interleaved with
//      cell shifting until the density mesh is nearly legal;
//   3. detailed legalization: overlap-free row placement driven by the
//      objective;
//   4. (optionally repeated coarse+detailed post-optimization rounds);
//   5. reporting: wirelength, interlayer vias, power (Eq. 4-5), and FEA
//      temperatures — exactly the metrics of the paper's Section 7.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "linalg/cg.h"
#include "netlist/netlist.h"
#include "place/chip.h"
#include "place/objective.h"
#include "place/params.h"
#include "util/status.h"

namespace p3d::thermal {
struct FeaAssembly;
struct FeaOptions;
}  // namespace p3d::thermal

namespace p3d::place {

struct GlobalPlaceStats;

/// Observer of flow phase boundaries, called by Placer3D::Run whenever at
/// least one observer is attached. `phase` is one of "global", "coarse",
/// "detailed", "refine", "final"; `round` is the legalization-repeat index
/// (0-based; -1 for "global"/"final"). `global_stats` is non-null only for
/// the "global" phase and carries the recursive-bisection partition counters
/// (place/global.h). The evaluator is const: observers verify or
/// record, they never steer. The audit subsystem (check::PlacementAuditor),
/// the metrics sampler (place::PhaseMetricsSampler), the anomaly monitor,
/// and the serve heartbeats all implement this one signature.
class PhaseObserver {
 public:
  virtual ~PhaseObserver() = default;
  virtual void OnPhase(const char* phase, int round,
                       const ObjectiveEvaluator& eval,
                       const GlobalPlaceStats* global_stats) = 0;
};

struct PlacementResult {
  Placement placement;

  // Quality metrics.
  double hpwl_m = 0.0;           // total lateral half-perimeter wirelength
  long long ilv_count = 0;       // total interlayer vias (sum of net spans)
  double ilv_density = 0.0;      // vias per m^2 per interlayer (paper Fig. 3)
  double objective = 0.0;        // Eq. 3 value
  double total_power_w = 0.0;    // Eq. 4-5 over all nets
  double avg_temp_c = 0.0;       // FEA average cell temperature
  double max_temp_c = 0.0;       // FEA maximum cell temperature
  bool fea_valid = false;
  /// Per-cell temperatures (deg C) of the final report solve; empty when
  /// the run solved no report FEA.
  std::vector<double> cell_temp_c;

  // Health.
  bool legal = false;            // no overlaps, cells in rows
  long long overlaps = 0;

  // Phase runtimes, seconds (paper Fig. 10).
  double t_global = 0.0;
  double t_coarse = 0.0;
  double t_detailed = 0.0;
  double t_fea = 0.0;            // FEA (RHS + CG + readback) time
  double t_total = 0.0;

  // The run's thermal::FeaContext::Stats.
  long long fea_solves = 0;        // thermal solves run during the flow
  long long fea_cg_iters = 0;      // CG iterations across them
  long long fea_nonconverged = 0;  // solves that stopped unconverged
                                   // (also surfaced as fea/nonconverged in
                                   // the metrics registry and run-report QoR)
};

/// Everything a Placer3D::Run invocation can be configured with (the single
/// entry point — the pre-Status Run(bool) / Run(initial, bool) shims were
/// removed after one deprecation release).
struct RunOptions {
  /// Starting placement. Empty (size 0) means an all-zero initial; otherwise
  /// the size must match the netlist and the fixed-cell entries position the
  /// pads/terminals (movable entries are re-initialized by global placement,
  /// as in the paper).
  Placement initial;

  /// Run the report-only FEA temperature solve at the end of the flow.
  /// PlacerParams::fea_per_pass adds observational solves after every
  /// legalization pass; every solve of a run goes through the run's one
  /// thermal::FeaContext (assembly + preconditioner built once).
  bool with_fea = true;

  /// Every FEA solve of a run is seeded from the previous temperature
  /// field and preconditioned with multigrid V-cycles, which run on any
  /// mesh. Constants, not options: no caller turns them.
  static constexpr bool warm_start = true;
  static constexpr linalg::PreconditionerKind preconditioner =
      linalg::PreconditionerKind::kMultigrid;

  // ----- serving hooks (src/serve) ----------------------------------------
  /// Cooperative cancellation flag, polled at the same phase boundaries
  /// where PhaseObserver fires. When it reads true, Run returns kCancelled
  /// within one phase; the partial placement is discarded. Null = never
  /// cancelled. The pointee must outlive the Run call.
  const std::atomic<bool>* cancel = nullptr;

  /// A prebuilt FEA assembly for the run's own thermal::FeaContext to adopt
  /// instead of assembling one — the serve engine shares one across jobs
  /// with identical stack geometry. It must have been built for this run's
  /// stack, chip extent and FeaOptionsFor (thermal::SameAssembly);
  /// otherwise Run returns kInvalidArgument. Null = the run assembles its
  /// own.
  std::shared_ptr<const thermal::FeaAssembly> fea_assembly;
};

class Placer3D {
 public:
  /// The only way to build a placer: checks the netlist is finalized and
  /// the floorplan parameters are in range, then builds the die. The
  /// netlist must outlive the placer.
  static util::StatusOr<Placer3D> Create(const netlist::Netlist& nl,
                                         const PlacerParams& params);

  /// Runs the full flow as configured by `options`.
  util::StatusOr<PlacementResult> Run(const RunOptions& options);

  /// Attaches a phase observer (the auditor and the metrics sampler coexist
  /// this way). Observers are notified in attachment order.
  void AddPhaseObserver(PhaseObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }
  /// Detaches one previously attached observer (no-op if absent).
  void RemovePhaseObserver(PhaseObserver* observer);

  const Chip& chip() const { return chip_; }
  /// The evaluator after Run() holds the final placement and caches.
  const ObjectiveEvaluator& evaluator() const { return *eval_; }
  /// Mutable access, for attaching a CommitListener before Run().
  ObjectiveEvaluator* mutable_evaluator() { return eval_.get(); }

 private:
  Placer3D(const netlist::Netlist& nl, const PlacerParams& params, Chip chip);

  void NotifyPhase(const char* phase, int round,
                   const GlobalPlaceStats* global_stats = nullptr);

  const netlist::Netlist& nl_;
  PlacerParams params_;
  Chip chip_;
  std::unique_ptr<ObjectiveEvaluator> eval_;
  std::vector<PhaseObserver*> observers_;
};

/// True when a run with these parameters and options solves FEA at all
/// (the final report solve or the per-pass solves). The serve engine asks
/// this before acquiring a shared FEA assembly for a job.
bool RunSolvesFea(const PlacerParams& params, const RunOptions& options);

/// The FEA mesh and CG options every solve of a run with these parameters
/// uses. Options with the same mesh and preconditioner
/// (thermal::SameAssembly) mean interchangeable FEA assemblies
/// (serve::FeaKeyFor).
thermal::FeaOptions FeaOptionsFor(const PlacerParams& params);

}  // namespace p3d::place
