// PhaseMetricsSampler — the bridge between the placer's observer hooks and
// the flight recorder (src/obs).
//
// The placer core stays observer-clean: it exposes phase boundaries through
// PhaseObserver and committed moves through the evaluator's CommitCount().
// This sampler rides those hooks and, at every phase boundary, captures one
// obs::PhaseSample with the Eq. 3 objective decomposition (WL, alpha_ILV*ILV,
// alpha_TEMP*thermal), the raw via count, the commits since the previous
// sample, and the wall-clock offset from attach. The samples become the
// `phases` array of the run report; the deterministic values (everything but
// t_s) are also appended as series to the installed MetricsRegistry, keyed
// "phase/...".
//
// Attach with AddPhaseObserver so the sampler coexists with the audit
// subsystem:
//
//   PhaseMetricsSampler sampler;
//   placer.AddPhaseObserver(&sampler);
//   auto result = placer.Run(options);
//   auto report = BuildRunReport(nl, params, *result, sampler.samples(),
//                                &registry);
//
// BuildRunReport is the one report builder of the CLI and the serve layer.
#pragma once

#include <vector>

#include "obs/report.h"
#include "place/placer.h"
#include "util/timer.h"

namespace p3d::place {

class PhaseMetricsSampler : public PhaseObserver {
 public:
  PhaseMetricsSampler() = default;

  void OnPhase(const char* phase, int round, const ObjectiveEvaluator& eval,
               const GlobalPlaceStats* global_stats) override;

  const std::vector<obs::PhaseSample>& samples() const { return samples_; }

 private:
  std::vector<obs::PhaseSample> samples_;
  util::Timer timer_;  // starts at construction = just before Run()
  long long last_commits_ = 0;
};

/// The run report of one finished flow: the netlist's size, the parameters
/// that shaped the run, `phases` (PhaseMetricsSampler::samples()), the final
/// QoR, the phase timings and the optional `metrics` snapshot. The caller
/// sets `circuit` and, for a generated circuit, appends its "scale" param.
obs::RunReport BuildRunReport(const netlist::Netlist& nl,
                              const PlacerParams& params,
                              const PlacementResult& result,
                              std::vector<obs::PhaseSample> phases,
                              const obs::MetricsRegistry* metrics);

}  // namespace p3d::place
