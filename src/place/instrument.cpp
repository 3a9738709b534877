#include "place/instrument.h"

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

}  // namespace p3d::place
