#include "place/monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/ring.h"
#include "place/objective.h"
#include "util/log.h"

namespace p3d::place {
namespace {

/// Total objective more than this factor above the best-seen flags
/// divergence.
constexpr double kDivergenceFactor = 1.25;
/// Samples examined for oscillation.
constexpr int kOscillationWindow = 4;
/// Minimum relative swing (peak-to-trough over mean) for oscillation.
constexpr double kOscillationRelAmplitude = 0.01;
/// Per-phase CG iterations above this multiple of the trailing mean flag a
/// blow-up.
constexpr double kCgBlowupFactor = 4.0;
/// Rejected / proposed moves above this ratio flags a reject spike.
constexpr double kRejectSpikeRatio = 0.5;
/// Oscillation's sign test treats a step of at most this fraction of the
/// window's largest |total| as no change (rounding noise between re-sums).
constexpr double kSignDeadZone = 1e-9;

std::int64_t CounterOrZero(const char* name) {
  const obs::MetricsRegistry* m = obs::CurrentMetrics();
  return m != nullptr ? m->Counter(name) : 0;
}

}  // namespace

void AnomalyMonitor::Flag(const char* kind, const char* counter,
                          const char* phase, int round, double detail) {
  anomalies_.push_back(Anomaly{kind, phase, round, detail});
  obs::MetricAdd(counter, 1);
  obs::TraceInstant(counter, round);
  util::LogWarn("anomaly: %s at phase %s round %d (%.4g)", kind, phase, round,
                detail);
}

void AnomalyMonitor::OnPhase(const char* phase, int round,
                             const ObjectiveEvaluator& eval,
                             const GlobalPlaceStats* /*global_stats*/) {
  ObserveTotal(phase, round, eval.Total());

  // CG blow-up: iterations spent since the previous boundary vs the trailing
  // mean of earlier boundary-to-boundary deltas.
  const std::int64_t cg_iters = CounterOrZero("cg/iters");
  const double cg_delta = static_cast<double>(cg_iters - last_cg_iters_);
  last_cg_iters_ = cg_iters;
  if (cg_delta > 0.0) {
    if (!cg_deltas_.empty()) {
      double mean = 0.0;
      for (const double d : cg_deltas_) mean += d;
      mean /= static_cast<double>(cg_deltas_.size());
      if (mean > 0.0 && cg_delta > kCgBlowupFactor * mean) {
        Flag("cg_blowup", "anomaly/cg_blowup", phase, round, cg_delta / mean);
      }
    }
    cg_deltas_.push_back(cg_delta);
  }

  // Reject spike: fraction of proposals rejected since the last boundary.
  const std::int64_t proposals = CounterOrZero("moveswap/proposals");
  const std::int64_t rejects = CounterOrZero("moveswap/commit_rejects");
  const std::int64_t dp = proposals - last_proposals_;
  const std::int64_t dr = rejects - last_rejects_;
  last_proposals_ = proposals;
  last_rejects_ = rejects;
  if (dp > 0 && dr > 0) {
    const double ratio = static_cast<double>(dr) / static_cast<double>(dp);
    if (ratio > kRejectSpikeRatio) {
      Flag("reject_spike", "anomaly/reject_spike", phase, round, ratio);
    }
  }

  // FEA non-convergence: any thermal solve since the last boundary that hit
  // its iteration cap (deterministic fea/nonconverged counter delta). The
  // temperatures reported over that stretch are untrusted.
  const std::int64_t fea_bad = CounterOrZero("fea/nonconverged");
  const std::int64_t df = fea_bad - last_fea_nonconverged_;
  last_fea_nonconverged_ = fea_bad;
  if (df > 0) {
    Flag("fea_nonconverged", "anomaly/fea_nonconverged", phase, round,
         static_cast<double>(df));
  }

  // Iteration cap: a cell-shifting run since the last boundary neither
  // converged nor stalled but ran out of iterations (shift/stop_cap moved),
  // so its stop rule never fired and the spreading was cut off.
  const std::int64_t capped = CounterOrZero("shift/stop_cap");
  const std::int64_t dc = capped - last_shift_capped_;
  last_shift_capped_ = capped;
  if (dc > 0) {
    Flag("iteration_cap", "anomaly/iteration_cap", phase, round,
         static_cast<double>(dc));
  }
}

void AnomalyMonitor::ObserveTotal(const char* phase, int round, double total) {
  totals_.push_back(total);

  // Divergence: the objective climbed well above the best value seen. Only
  // meaningful once a baseline exists, and only for a finite, positive one.
  if (has_best_ && best_total_ > 0.0 &&
      total > kDivergenceFactor * best_total_) {
    Flag("divergence", "anomaly/divergence", phase, round,
         total / best_total_);
  }
  if (!has_best_ || total < best_total_) {
    best_total_ = total;
    has_best_ = true;
  }

  // Oscillation: direction alternated across the whole window and the swing
  // is a meaningful fraction of the mean level.
  const int w = kOscillationWindow;
  if (static_cast<int>(totals_.size()) >= w) {
    const std::size_t n = totals_.size();
    const std::size_t first = n - static_cast<std::size_t>(w);
    double lo = totals_[first];
    double hi = lo;
    double mean = 0.0;
    double scale = 0.0;
    for (std::size_t i = first; i < n; ++i) {
      lo = std::min(lo, totals_[i]);
      hi = std::max(hi, totals_[i]);
      mean += totals_[i];
      scale = std::max(scale, std::abs(totals_[i]));
    }
    bool alternating = true;
    int prev_sign = 0;
    for (std::size_t i = first + 1; i < n; ++i) {
      const double d = totals_[i] - totals_[i - 1];
      const int sign = std::abs(d) <= kSignDeadZone * scale ? 0
                       : d > 0.0                           ? 1
                                                           : -1;
      if (sign == 0 || sign == prev_sign) alternating = false;
      prev_sign = sign;
    }
    mean /= static_cast<double>(w);
    const double amplitude = mean > 0.0 ? (hi - lo) / mean : 0.0;
    if (alternating && amplitude > kOscillationRelAmplitude) {
      Flag("oscillation", "anomaly/oscillation", phase, round, amplitude);
    }
  }
}

}  // namespace p3d::place
