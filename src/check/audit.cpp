#include "check/audit.h"

#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "obs/ring.h"
#include "place/global.h"
#include "util/log.h"

namespace p3d::check {

std::string AuditReport::Summary() const {
  std::string s;
  char buf[160];
  for (const Violation& v : violations) {
    s += "VIOLATION [" + v.phase + "/" + v.check + "] " + v.message + "\n";
  }
  for (const std::string& w : warnings) {
    s += "warning: " + w + "\n";
  }
  std::snprintf(buf, sizeof buf,
                "audit: %zu violations, %zu warnings over %d phases "
                "(%lld checks, %zu ops replayed)\n",
                violations.size(), warnings.size(), phases_audited,
                checks_run, replayed_ops);
  s += buf;
  return s;
}

PlacementAuditor::PlacementAuditor(const netlist::Netlist& nl,
                                   AuditLevel level)
    : nl_(nl), level_(level) {
  snapshot_ = ConservationSnapshot::Of(nl_);
}

void PlacementAuditor::Attach(place::Placer3D* placer) {
  placer->AddPhaseObserver(this);
  if (level_ == AuditLevel::kParanoid) {
    placer->mutable_evaluator()->AddCommitListener(&log_);
  }
}

void PlacementAuditor::Detach(place::Placer3D* placer) {
  placer->RemovePhaseObserver(this);
  placer->mutable_evaluator()->RemoveCommitListener(&log_);
}

void PlacementAuditor::SetFixedBaseline(const place::Placement& initial) {
  fixed_baseline_ = initial;
  have_fixed_baseline_ = true;
}

void PlacementAuditor::OnPhase(const char* phase, int round,
                               const place::ObjectiveEvaluator& eval,
                               const place::GlobalPlaceStats* global_stats) {
  if (level_ == AuditLevel::kOff) return;
  RunChecks(phase, round, eval, global_stats);
  if (level_ == AuditLevel::kParanoid) {
    // Replay the commit history accumulated since the previous boundary
    // against from-scratch evaluations, then re-anchor for the next phase.
    if (log_.has_start() && !log_.ops().empty()) {
      const ReplayResult r = ReplayAndVerify(nl_, eval.chip(), eval.params(),
                                             log_, &eval.placement());
      report_.replayed_ops += r.ops_checked;
      ++report_.checks_run;
      if (!r.ok) {
        Violation v;
        v.check = "replay";
        v.phase = phase;
        v.message = r.message;
        report_.violations.push_back(std::move(v));
      }
      if (log_.dropped() > 0) {
        report_.warnings.push_back(
            std::string(phase) + ": move log capped, " +
            std::to_string(log_.dropped()) + " ops not replayed");
      }
    }
    log_.Rebase(eval.placement());
  }
}

void PlacementAuditor::AuditNow(const char* phase,
                                const place::ObjectiveEvaluator& eval) {
  RunChecks(phase, -1, eval, nullptr);
}

void PlacementAuditor::RunChecks(const char* phase, int round,
                                 const place::ObjectiveEvaluator& eval,
                                 const place::GlobalPlaceStats* global_stats) {
  const place::Placement& p = eval.placement();
  const place::Chip& chip = eval.chip();
  const std::size_t before = report_.violations.size();
  std::vector<Violation>* out = &report_.violations;

  // Contracts common to every boundary.
  report_.checks_run += 4;
  CheckConservation(nl_, snapshot_, p, out);
  CheckFinite(nl_, p, out);
  CheckLayers(nl_, p, chip.num_layers(), out);
  if (!have_fixed_baseline_ && nl_.NumMovableCells() < nl_.NumCells()) {
    // No caller-provided pad baseline: anchor on the first boundary seen.
    fixed_baseline_ = p;
    have_fixed_baseline_ = true;
  }
  if (have_fixed_baseline_) {
    ++report_.checks_run;
    CheckFixedUntouched(nl_, fixed_baseline_, p, out);
  }

  // Detailed placement must be row-aligned and overlap-free; coarse phases
  // only promise centers inside the die.
  const bool detailed = std::strcmp(phase, "detailed") == 0 ||
                        std::strcmp(phase, "refine") == 0 ||
                        std::strcmp(phase, "final") == 0;
  report_.checks_run += detailed ? 4 : 1;
  CheckBounds(nl_, chip, p, /*extents=*/detailed, out);
  if (detailed) {
    CheckRowAlignment(nl_, chip, p, out);
    CheckNoOverlap(nl_, p, out);
    CheckFixedOverlap(nl_, p, out);
  }

  // Objective consistency: incremental totals vs from-scratch recompute.
  ++report_.checks_run;
  CheckObjectiveConsistency(eval, ObjectiveTolerance{}, out);

  if (global_stats != nullptr &&
      global_stats->bisection.infeasible_partitions > 0) {
    report_.warnings.push_back(
        std::string(phase) + ": " +
        std::to_string(global_stats->bisection.infeasible_partitions) +
        " of " + std::to_string(global_stats->bisection.partitions) +
        " bisections missed balance bounds");
  }

  ++report_.phases_audited;
  obs::MetricAdd("audit/phases", 1);
  obs::MetricAdd("audit/violations",
                 static_cast<std::int64_t>(report_.violations.size() - before));
  for (std::size_t i = before; i < report_.violations.size(); ++i) {
    report_.violations[i].phase =
        round >= 0 ? std::string(phase) + "#" + std::to_string(round) : phase;
    util::LogWarn("audit: [%s/%s] %s", report_.violations[i].phase.c_str(),
                  report_.violations[i].check.c_str(),
                  report_.violations[i].message.c_str());
  }
  // A violation is a black-box trigger: capture the final moments of every
  // thread while the bad state is still live (no-op when no ring/path set).
  if (report_.violations.size() > before) {
    obs::DumpBlackBox("audit_violation");
  }
}

}  // namespace p3d::check
