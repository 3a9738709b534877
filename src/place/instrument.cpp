#include "place/instrument.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/ring.h"

namespace p3d::place {

void PhaseMetricsSampler::OnPhase(const char* phase, int round,
                                  const ObjectiveEvaluator& eval,
                                  const GlobalPlaceStats* /*global_stats*/) {
  obs::TraceInstant("placer.phase");

  const ObjectiveEvaluator::Components c = eval.GetComponents();
  obs::PhaseSample s;
  s.phase = phase;
  s.round = round;
  s.wl_m = c.wl;
  s.ilv_cost_m = c.ilv;
  s.thermal_cost_m = c.thermal;
  s.total_m = c.total;
  s.ilv = c.ilv_count;
  s.commits = eval.CommitCount() - last_commits_;
  s.t_s = timer_.Seconds();
  last_commits_ = eval.CommitCount();
  samples_.push_back(s);

  // Phase boundaries are serial contexts, so order-sensitive series are safe
  // here. t_s deliberately stays out of the registry: wall-clock values would
  // break the thread-count determinism of DumpDeterministic().
  obs::MetricAppend("phase/wl_m", c.wl);
  obs::MetricAppend("phase/ilv_cost_m", c.ilv);
  obs::MetricAppend("phase/thermal_cost_m", c.thermal);
  obs::MetricAppend("phase/total_m", c.total);
  obs::MetricAppend("phase/ilv", static_cast<double>(c.ilv_count));
  obs::MetricAppend("phase/commits", static_cast<double>(s.commits));
}

obs::RunReport BuildRunReport(const netlist::Netlist& nl,
                              const PlacerParams& params,
                              const PlacementResult& r,
                              std::vector<obs::PhaseSample> phases,
                              const obs::MetricsRegistry* metrics) {
  obs::RunReport report;
  report.cells = nl.NumCells();
  report.nets = nl.NumNets();
  report.pins = nl.NumPins();
  report.params.emplace_back("layers", params.num_layers);
  report.params.emplace_back("alpha_ilv", params.alpha_ilv);
  report.params.emplace_back("alpha_temp", params.alpha_temp);
  report.params.emplace_back("seed", params.seed);
  report.params.emplace_back("threads", params.threads);
  report.params.emplace_back("fea_per_pass", params.fea_per_pass);
  report.phases = std::move(phases);
  report.qor.emplace_back("hpwl_m", r.hpwl_m);
  report.qor.emplace_back("ilv", r.ilv_count);
  report.qor.emplace_back("ilv_density_per_m2", r.ilv_density);
  report.qor.emplace_back("objective", r.objective);
  report.qor.emplace_back("power_w", r.total_power_w);
  report.qor.emplace_back("legal", r.legal);
  report.qor.emplace_back("overlaps", r.overlaps);
  report.qor.emplace_back("fea_solves", r.fea_solves);
  report.qor.emplace_back("fea_cg_iters", r.fea_cg_iters);
  report.qor.emplace_back("fea_nonconverged", r.fea_nonconverged);
  if (r.fea_valid) {
    report.qor.emplace_back("avg_temp_c", r.avg_temp_c);
    report.qor.emplace_back("max_temp_c", r.max_temp_c);
  }
  report.timings.emplace_back("global_s", r.t_global);
  report.timings.emplace_back("coarse_s", r.t_coarse);
  report.timings.emplace_back("detailed_s", r.t_detailed);
  report.timings.emplace_back("fea_s", r.t_fea);
  report.timings.emplace_back("total_s", r.t_total);
  report.metrics = metrics;
  return report;
}

}  // namespace p3d::place
