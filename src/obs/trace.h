// Thread-aware hierarchical scope tracer with Chrome trace-event output.
//
// The flight recorder's tracing half (DESIGN.md "Observability"): RAII
// `TraceScope` spans and `TraceCounter` samples are buffered per thread and
// serialized as Chrome trace-event JSON ("traceEvents" array of ph="X"/"C"
// records) that loads directly in Perfetto / chrome://tracing.
//
// Overhead policy:
//   * disabled (no sink installed, the default): every entry point is an
//     inline check of one relaxed atomic load — no allocation, no lock, no
//     clock read. Compiling with -DP3D_OBS_DISABLED removes even that load
//     (TraceScope becomes an empty literal type).
//   * enabled: events append to a per-thread buffer (amortized O(1), no
//     lock after a thread's first event); timestamps come from one
//     steady_clock read per scope edge. Instrumentation sits at phase /
//     level / pass / solve granularity, never inside per-cell inner loops,
//     which keeps the enabled overhead under the 5% budget.
//
// Determinism: tracing is observation only — it never draws RNG, never
// touches placement state, and placement bytes are identical with tracing
// on or off (tests/test_obs pins this). Trace *content* (timestamps, thread
// ids) naturally varies run to run; nothing downstream consumes it.
//
// Event names must be string literals (or otherwise outlive the sink): the
// buffers store the pointer, not a copy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/ring.h"

namespace p3d::obs {

class TraceSink;

/// Installs `sink` as the process-wide trace destination (nullptr disables
/// tracing). Returns the previously installed sink. Not synchronized with
/// in-flight events: install/uninstall between parallel regions (e.g. around
/// a whole placer run), not during one.
TraceSink* InstallTraceSink(TraceSink* sink);

/// The currently installed sink, or nullptr when tracing is disabled.
TraceSink* CurrentTraceSink();

class TraceSink {
 public:
  TraceSink();
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Nanoseconds since this sink was constructed (steady clock).
  std::uint64_t NowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Records a completed span [start_ns, start_ns + dur_ns). Thread-safe.
  void RecordSpan(const char* name, std::uint64_t start_ns,
                  std::uint64_t dur_ns);
  /// Records a counter sample (rendered as a track in Perfetto). Thread-safe.
  void RecordCounter(const char* name, std::int64_t value);
  /// Records an instant event. Thread-safe.
  void RecordInstant(const char* name);

  /// Total events across all thread buffers. Call when no writers are active.
  std::size_t NumEvents() const;

  /// Serializes everything recorded so far as a Chrome trace-event JSON
  /// document. Call when no writers are active (e.g. after the placer run).
  std::string SerializeChromeJson() const;

  /// SerializeChromeJson straight to a file; false on I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  enum class Kind : std::uint8_t { kSpan, kCounter, kInstant };
  struct Event {
    const char* name;
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;  // spans only
    std::int64_t value;    // counters only
    Kind kind;
  };
  struct Buffer {
    std::vector<Event> events;
    int tid = 0;
  };

  Buffer* ThreadBuffer();

  const std::uint64_t id_;  // process-unique, guards thread-local caches
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards buffers_ vector growth
  std::vector<std::unique_ptr<Buffer>> buffers_;

  friend class TraceScope;
};

#if defined(P3D_OBS_DISABLED)

/// Compile-time no-op variant: an empty literal type the optimizer deletes.
class TraceScope {
 public:
  explicit TraceScope(const char*) {}
};
inline void TraceCounter(const char*, std::int64_t) {}
inline void TraceInstant(const char*, std::int64_t = 0) {}

#else

/// RAII span: records [construction, destruction) under `name` on the
/// current thread's track. `name` must be a string literal. Every span is
/// mirrored into the always-on ring recorder (obs/ring.h) when one is
/// installed, so the black box sees the same phase/pass/solve taxonomy the
/// full trace does — at two relaxed loads per scope when both are off.
class TraceScope {
 public:
  explicit TraceScope(const char* name)
      : sink_(CurrentTraceSink()), ring_(CurrentRingRecorder()), name_(name) {
    if (sink_ != nullptr) start_ns_ = sink_->NowNs();
    if (ring_ != nullptr) ring_start_ns_ = ring_->NowNs();
  }
  ~TraceScope() {
    if (sink_ != nullptr) {
      sink_->RecordSpan(name_, start_ns_, sink_->NowNs() - start_ns_);
    }
    if (ring_ != nullptr) {
      const std::uint64_t end_ns = ring_->NowNs();
      ring_->RecordSpan(name_, end_ns, end_ns - ring_start_ns_);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceSink* const sink_;
  RingRecorder* const ring_;
  const char* const name_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t ring_start_ns_ = 0;
};

inline void TraceCounter(const char* name, std::int64_t value) {
  if (TraceSink* sink = CurrentTraceSink()) sink->RecordCounter(name, value);
  if (RingRecorder* ring = CurrentRingRecorder()) {
    ring->RecordCounter(name, value);
  }
}

/// Instant marker into the trace and the black-box ring; `value` (e.g. a
/// round or job id) is kept by the ring only.
inline void TraceInstant(const char* name, std::int64_t value = 0) {
  if (TraceSink* sink = CurrentTraceSink()) sink->RecordInstant(name);
  if (RingRecorder* ring = CurrentRingRecorder()) {
    ring->RecordInstant(name, value);
  }
}

#endif  // P3D_OBS_DISABLED

}  // namespace p3d::obs
