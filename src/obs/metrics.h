// MetricsRegistry — named counters, gauges, histograms, and series for the
// flight recorder (DESIGN.md "Observability").
//
// The registry is the metrics half of `src/obs`: subsystems record through
// the inline `MetricAdd`/`MetricObserve`/... helpers below, which are no-ops
// (one relaxed atomic load) unless a registry is installed. The placer core
// itself stays observer-clean: objective-trajectory sampling rides on the
// PhaseObserver/CommitListener hooks (see place/instrument.h), while
// subsystem statistics (FM passes, CG iterations, legalizer stats) are
// recorded at the call sites that already aggregate them.
//
// Determinism contract (mirrors the runtime policy of DESIGN.md §5): with a
// deterministic flow, every metric value is identical for any thread count.
// The rules that guarantee it:
//   * counters and histograms take integer values and are *commutative* —
//     they may be recorded from parallel workers in any order;
//   * gauges, accumulators (double), and series are order-sensitive and must
//     only be recorded from serial contexts (phase boundaries, post-pass
//     aggregation on the dispatching thread);
//   * wall-clock values never enter the registry — timings live in the trace
//     and the run report's `timings` section only.
// `DumpDeterministic()` serializes the registry sorted by name and is what
// tests/test_obs compares across thread counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace p3d::obs {

class MetricsRegistry {
 public:
  /// Power-of-two-bucket histogram of non-negative integer samples.
  struct Histogram {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    // buckets[i] counts samples in [2^(i-1), 2^i); buckets[0] counts 0.
    std::vector<std::int64_t> buckets;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- recording (see determinism rules in the file comment) --------------
  /// Adds `delta` to counter `name`. Thread-safe, commutative.
  void Add(const std::string& name, std::int64_t delta);
  /// Records one histogram sample (negative values clamp to 0). Thread-safe.
  void Observe(const std::string& name, std::int64_t value);
  /// Sets gauge `name` (last write wins). Serial contexts only.
  void Set(const std::string& name, double value);
  /// Adds `delta` to double accumulator `name`. Serial contexts only.
  void Accumulate(const std::string& name, double delta);
  /// Appends one sample to series `name`. Serial contexts only.
  void Append(const std::string& name, double value);

  // --- reading -------------------------------------------------------------
  std::int64_t Counter(const std::string& name) const;
  double Gauge(const std::string& name) const;
  const std::vector<double>* Series(const std::string& name) const;
  const Histogram* Hist(const std::string& name) const;

  /// Visits every counter, then every gauge and accumulator, then every
  /// histogram — name-sorted, under one lock, so renderers (Prometheus
  /// exposition, dumps) see a consistent snapshot. Callbacks must not
  /// reenter the registry. Null callbacks skip their section.
  void ForEach(
      const std::function<void(const std::string&, std::int64_t)>& counter,
      const std::function<void(const std::string&, double)>& gauge,
      const std::function<void(const std::string&, const Histogram&)>& hist)
      const;

  /// Sorted, text-serialized snapshot of every deterministic value. Two runs
  /// of the same flow at different thread counts must produce equal dumps.
  std::string DumpDeterministic() const;

  /// Full JSON snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}, "series": {...}}.
  JsonValue ToJson() const;

  void Clear();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, double> accumulators_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::vector<double>> series_;
};

/// Deterministic quantile estimate (q in [0, 1]) from a pow2 histogram:
/// finds the bucket holding the q-th rank and linearly interpolates inside
/// its value range, clamped to the observed [min, max]. A pure function of
/// the (thread-count-invariant) buckets, so p50/p95/p99 lines are safe in
/// DumpDeterministic.
double HistogramQuantile(const MetricsRegistry::Histogram& h, double q);

/// Prometheus text exposition (format 0.0.4) of the registry: counters map
/// to counter families, gauges and accumulators to gauge families, pow2
/// histograms to summaries with p50/p95/p99 quantiles plus _sum/_count.
/// Series are omitted (unbounded). Names are sanitized to [a-zA-Z0-9_] and
/// prefixed "placer3d_" ("cg/iters" -> "placer3d_cg_iters"). This is what
/// the telemetry server's /metrics endpoint returns.
std::string RenderPrometheus(const MetricsRegistry& registry);

/// Installs `registry` as the process-wide metrics destination (nullptr
/// disables recording). Returns the previous registry. Like the recorder:
/// swap between parallel regions, not during one.
MetricsRegistry* InstallMetrics(MetricsRegistry* registry);

/// The calling thread's metrics destination: its thread-local override when
/// a ScopedThreadMetrics is active, the process-wide registry otherwise.
MetricsRegistry* CurrentMetrics();

/// RAII thread-local metrics override. A scheduler running several jobs
/// concurrently gives each worker its own registry so jobs' metrics never
/// interleave; the process-wide registry stays untouched for other threads.
/// The override does not propagate into ThreadPool workers — complete
/// per-job capture therefore requires the job to run with an inner thread
/// budget of 1, which is the serve engine's concurrent default (DESIGN.md
/// §5/§9). Passing nullptr silences recording on this thread.
class ScopedThreadMetrics {
 public:
  explicit ScopedThreadMetrics(MetricsRegistry* registry);
  ~ScopedThreadMetrics();

  ScopedThreadMetrics(const ScopedThreadMetrics&) = delete;
  ScopedThreadMetrics& operator=(const ScopedThreadMetrics&) = delete;

 private:
  MetricsRegistry* previous_;
  bool previous_active_;
};

#if defined(P3D_OBS_DISABLED)
inline void MetricAdd(const char*, std::int64_t) {}
inline void MetricObserve(const char*, std::int64_t) {}
inline void MetricSet(const char*, double) {}
inline void MetricAccumulate(const char*, double) {}
inline void MetricAppend(const char*, double) {}
#else
inline void MetricAdd(const char* name, std::int64_t delta) {
  if (MetricsRegistry* m = CurrentMetrics()) m->Add(name, delta);
}
inline void MetricObserve(const char* name, std::int64_t value) {
  if (MetricsRegistry* m = CurrentMetrics()) m->Observe(name, value);
}
inline void MetricSet(const char* name, double value) {
  if (MetricsRegistry* m = CurrentMetrics()) m->Set(name, value);
}
inline void MetricAccumulate(const char* name, double delta) {
  if (MetricsRegistry* m = CurrentMetrics()) m->Accumulate(name, delta);
}
inline void MetricAppend(const char* name, double value) {
  if (MetricsRegistry* m = CurrentMetrics()) m->Append(name, value);
}
#endif  // P3D_OBS_DISABLED

}  // namespace p3d::obs
