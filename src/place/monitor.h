// AnomalyMonitor — convergence watchdog riding the PhaseObserver chain
// (DESIGN.md §7, "obs v2").
//
// The placer's objective trajectory is sampled at every phase boundary by
// PhaseMetricsSampler; this monitor looks at the same boundaries and flags
// the patterns that historically meant "this run is going wrong" long before
// the final QoR shows it:
//
//   * divergence   — the Eq. 3 total rose more than `divergence_factor`
//                    above the best value seen so far;
//   * oscillation  — the total alternated direction across the last
//                    `oscillation_window` samples with relative amplitude
//                    above `oscillation_rel_amplitude` (a classic sign of a
//                    mistuned alpha or a legalize/refine tug-of-war); a step
//                    within 1e-9 of the window's largest |total| counts as
//                    no change, so a re-summed equal total (rounding noise)
//                    neither starts nor continues an alternation;
//   * cg_blowup    — the CG iterations spent since the previous boundary
//                    exceeded `cg_blowup_factor` times the trailing mean
//                    (thermal solve struggling to converge);
//   * reject_spike — committed-move rejects since the previous boundary
//                    exceeded `reject_spike_ratio` of proposals (move engine
//                    thrashing);
//   * fea_nonconverged — one or more thermal solves since the previous
//                    boundary hit their iteration cap (the deterministic
//                    fea/nonconverged counter moved), so the reported
//                    temperatures for that stretch are untrusted;
//   * iteration_cap — a cell-shifting run since the previous boundary hit
//                    its iteration cap instead of converging or stalling
//                    (the shift/stop_cap counter moved).
//
// Detection is passive and deterministic: the monitor only reads the
// evaluator and the thread's CurrentMetrics() counters, never steers the
// flow. Each anomaly increments an "anomaly/<kind>" counter, drops an
// instant event into the trace and the black-box ring, and logs one warning;
// the full list is kept for the run/batch reports.
#pragma once

#include <string>
#include <vector>

#include "place/placer.h"

namespace p3d::place {

struct AnomalyOptions {
  /// Total objective more than this factor above the best-seen flags
  /// divergence.
  double divergence_factor = 1.25;
  /// Samples examined for oscillation; < 3 disables the check.
  int oscillation_window = 4;
  /// Minimum relative swing (peak-to-trough over mean) for oscillation.
  double oscillation_rel_amplitude = 0.01;
  /// Per-phase CG iterations above this multiple of the trailing mean flag
  /// a blow-up.
  double cg_blowup_factor = 4.0;
  /// Rejected / proposed moves above this ratio flags a reject spike.
  double reject_spike_ratio = 0.5;
};

class AnomalyMonitor : public PhaseObserver {
 public:
  explicit AnomalyMonitor(const AnomalyOptions& options);
  AnomalyMonitor();

  void OnPhase(const char* phase, int round, const ObjectiveEvaluator& eval,
               const GlobalPlaceStats* global_stats) override;

  /// The objective-trajectory checks (divergence, oscillation) on one
  /// boundary's Eq. 3 total; OnPhase runs them on eval.Total(). Callable
  /// directly to replay a recorded series.
  void ObserveTotal(const char* phase, int round, double total);

  struct Anomaly {
    std::string kind;   // "divergence", "oscillation", "cg_blowup", ...
    std::string phase;  // phase boundary where it fired
    int round = -1;
    double detail = 0.0;  // kind-specific magnitude (ratio, amplitude, ...)
  };
  const std::vector<Anomaly>& anomalies() const { return anomalies_; }

 private:
  void Flag(const char* kind, const char* counter, const char* phase,
            int round, double detail);

  AnomalyOptions options_;
  std::vector<Anomaly> anomalies_;
  std::vector<double> totals_;        // objective history, one per boundary
  double best_total_ = 0.0;           // best (lowest) total seen
  bool has_best_ = false;
  std::int64_t last_cg_iters_ = 0;    // counter values at the last boundary
  std::int64_t last_proposals_ = 0;
  std::int64_t last_rejects_ = 0;
  std::int64_t last_fea_nonconverged_ = 0;
  std::int64_t last_shift_capped_ = 0;
  std::vector<double> cg_deltas_;     // per-boundary CG iteration deltas
};

}  // namespace p3d::place
