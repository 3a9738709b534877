// RingRecorder — the flight recorder's one event recorder (DESIGN.md §7,
// "Observability"), and the TraceScope / TraceCounter / TraceInstant
// instrumentation points that feed it.
//
// Each thread appends spans, counter samples and instant markers to its own
// buffer. Two modes, chosen by RingOptions::capacity_per_thread:
//   * bounded (the default, 4096): a fixed ring of the last N events per
//     thread. Meant to run for the whole life of the process as the black
//     box: when something goes wrong — an audit violation, a fatal signal, a
//     cancelled job, a watchdog-detected stall — the final moments of every
//     thread are dumped as a Chrome-trace snapshot with zero setup.
//   * unbounded (0): every event is kept, in per-thread blocks of
//     kBlockEvents. This is the full trace `placer3d_cli --trace` writes; it
//     is that run's black box at the same time.
// DumpToFd is the one Chrome trace-event serializer for both; the file loads
// directly in Perfetto / chrome://tracing.
//
// A span takes its slot when its scope opens and gets its duration when the
// scope closes. A dump therefore lists a parent span before its children
// without sorting, and a span still open at the dump is written with its
// duration up to the dump — the black box shows the phase a crash happened
// in. A bounded ring drops a span whose slot was reused before it closed.
//
// Guarantees:
//   * lock-free recording: one relaxed load of the installed-recorder
//     pointer, a TLS lookup and five relaxed stores per event. No lock ever
//     on the record path, no clock read beyond one steady_clock sample per
//     event or scope edge. A bounded ring allocates only on a thread's first
//     event; unbounded mode allocates one block per kBlockEvents events.
//   * disabled (no recorder installed): every entry point is one relaxed
//     load and a branch. Compiling with -DP3D_OBS_DISABLED removes even that
//     (TraceScope becomes an empty literal type).
//   * observation only: recording never draws RNG and never touches
//     placement state — placements are byte-identical with the recorder
//     installed or not (tests/test_obs pins this).
//   * async-signal-safe dumping: DumpToFd formats with local integer/string
//     helpers (no malloc, no stdio locks) and emits through write(2), so a
//     fatal-signal handler may call it. InstallCrashHandler wires exactly
//     that for SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT.
//   * racy-but-defined reads: slots are relaxed atomics, so a dump that
//     races a writer sees a torn *ring* (some slots old, some new) but
//     never torn fields and never undefined behavior; the black box is
//     best-effort forensics, not an exact log.
//
// Event names must be string literals (or otherwise outlive the recorder):
// slots store the pointer, not a copy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace p3d::obs {

class RingRecorder;

/// Installs `recorder` as the process-wide recorder (nullptr disables).
/// Returns the previously installed recorder. Swap outside parallel regions
/// (e.g. around a whole placer run); recording threads cache per-recorder
/// state.
RingRecorder* InstallRingRecorder(RingRecorder* recorder);

/// The currently installed recorder, or nullptr when none.
RingRecorder* CurrentRingRecorder();

struct RingOptions {
  /// Events retained per thread; rounded up to a power of two, min 64.
  /// 0 keeps every event.
  std::size_t capacity_per_thread = 4096;
};

class RingRecorder {
  // One event. Fields are relaxed atomics so a dump racing a writer reads
  // torn rings, never torn values (and stays TSan-clean).
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> dur_ns{0};
    std::atomic<std::int64_t> value{0};
    std::atomic<std::uint8_t> kind{0};
  };
  // A run of slots: the whole ring when bounded, one link of the chain when
  // unbounded.
  struct Block {
    explicit Block(std::size_t n) : slots(n) {}
    std::vector<Slot> slots;
    Block* next = nullptr;  // written before `head` publishes its slots
  };
  // Per-thread buffer, linked into a lock-free list (push-only; nodes live
  // until the recorder dies, so the dump path never touches a lock).
  struct Ring {
    explicit Ring(std::size_t block_events) : first(block_events) {}
    Block first;
    Block* tail = &first;                // owner-only: the block being filled
    std::atomic<std::uint64_t> head{0};  // events ever recorded
    int tid = 0;
    Ring* next = nullptr;  // immutable after publication
  };

 public:
  enum class Kind : std::uint8_t { kSpan = 0, kCounter = 1, kInstant = 2 };

  using Options = RingOptions;

  /// Slots per block in unbounded mode.
  static constexpr std::size_t kBlockEvents = 4096;

  explicit RingRecorder(const Options& options = {});
  ~RingRecorder();
  RingRecorder(const RingRecorder&) = delete;
  RingRecorder& operator=(const RingRecorder&) = delete;

  /// Nanoseconds since this recorder was constructed (steady clock).
  std::uint64_t NowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// A span whose slot is taken; pass it back to EndSpan on the same thread.
  struct OpenSpan {
    Ring* ring = nullptr;
    Slot* slot = nullptr;
    std::uint64_t seq = 0;
    std::uint64_t start_ns = 0;
  };
  /// Opens a span starting now.
  OpenSpan BeginSpan(const char* name) {
    OpenSpan span;
    span.ring = ThreadRing();
    span.seq = span.ring->head.load(std::memory_order_relaxed);
    span.start_ns = NowNs();
    span.slot = &Append(*span.ring, name, Kind::kSpan, span.start_ns,
                        kOpenDuration, 0);
    return span;
  }
  /// Writes the span's duration, unless a bounded ring reused its slot.
  void EndSpan(const OpenSpan& span) {
    if (capacity_ != 0 &&
        span.ring->head.load(std::memory_order_relaxed) - span.seq >
            capacity_) {
      return;
    }
    span.slot->dur_ns.store(NowNs() - span.start_ns, std::memory_order_relaxed);
  }
  /// Records a counter sample.
  void RecordCounter(const char* name, std::int64_t value) {
    Append(*ThreadRing(), name, Kind::kCounter, NowNs(), 0, value);
  }
  /// Records an instant marker with an optional value.
  void RecordInstant(const char* name, std::int64_t value = 0) {
    Append(*ThreadRing(), name, Kind::kInstant, NowNs(), 0, value);
  }

  /// Events kept per thread; 0 when every event is kept.
  std::size_t capacity_per_thread() const { return capacity_; }
  /// Threads that have recorded at least one event so far.
  std::size_t NumThreads() const;
  /// Events currently retained across all threads.
  std::size_t NumEvents() const;

  /// One decoded slot, for tests and non-signal-path consumers.
  struct EventView {
    const char* name;
    Kind kind;
    std::uint64_t ts_ns;   // spans: start time
    std::uint64_t dur_ns;  // spans only; an open span's runs up to now
    std::int64_t value;    // counters / instants
    std::uint64_t seq;     // per-thread sequence number (0-based)
    int tid;
  };
  /// Decodes every thread's events, oldest first per thread. Not
  /// signal-safe (allocates); safe to call while writers are active
  /// (relaxed reads).
  std::vector<EventView> Snapshot() const;

  /// Serializes the retained events as Chrome trace-event JSON through
  /// write(2), formatting into a fixed stack buffer — async-signal-safe.
  /// `reason` (a short literal, may be nullptr) is recorded as metadata.
  /// Returns false when any write failed.
  bool DumpToFd(int fd, const char* reason) const;

  /// Opens `path` (O_CREAT|O_TRUNC) and DumpToFd's into it. Also
  /// async-signal-safe (open/close are on the signal-safe list).
  bool DumpToFile(const char* path, const char* reason) const;

 private:
  // dur_ns of a span whose scope is still open.
  static constexpr std::uint64_t kOpenDuration = ~std::uint64_t{0};

  Slot& Append(Ring& ring, const char* name, Kind kind, std::uint64_t ts_ns,
               std::uint64_t dur_ns, std::int64_t value) {
    const std::uint64_t seq = ring.head.load(std::memory_order_relaxed);
    const std::size_t offset =
        static_cast<std::size_t>(seq & (block_events_ - 1));
    if (capacity_ == 0 && offset == 0 && seq != 0) {
      ring.tail = ring.tail->next = new Block(block_events_);
    }
    Slot& slot = ring.tail->slots[offset];
    slot.name.store(name, std::memory_order_relaxed);
    slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
    slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
    slot.value.store(value, std::memory_order_relaxed);
    slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
    ring.head.store(seq + 1, std::memory_order_release);
    return slot;
  }

  Ring* ThreadRing();

  /// Calls fn(slot, seq) for each retained slot of `ring`, oldest first.
  template <typename Fn>
  void ForEachSlot(const Ring& ring, Fn fn) const;

  const std::uint64_t id_;          // process-unique, guards thread caches
  const std::size_t capacity_;      // power of two, or 0 (unbounded)
  const std::size_t block_events_;  // power of two
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<Ring*> rings_{nullptr};  // lock-free push-only list
  std::atomic<int> next_tid_{0};
};

// ----- black-box plumbing ---------------------------------------------------
//
// The auto-dump triggers (audit violation, fatal signal, job cancellation,
// watchdog stall) all funnel through DumpBlackBox: it writes the installed
// recorder's snapshot to the configured path and is a no-op when either is
// missing, so subsystems call it unconditionally.

/// Sets the file the black box dumps to. The path is copied into a fixed
/// internal buffer (so the dump path stays signal-safe); paths longer than
/// 3975 bytes are rejected (returns false). Empty disables auto-dumps.
bool SetBlackBoxPath(const std::string& path);

/// The configured dump path ("" when unset).
const char* BlackBoxPath();

/// Dumps the installed recorder to the configured path, recording `reason`
/// (a short literal) in the snapshot. Async-signal-safe. Returns true only
/// when a recorder and a path were configured and every write succeeded.
/// Each dump overwrites the previous one — last anomaly wins, matching the
/// "final moments" semantics of a black box.
bool DumpBlackBox(const char* reason);

/// Total successful DumpBlackBox calls (tests, telemetry).
std::int64_t BlackBoxDumps();

/// Installs fatal-signal handlers (SIGSEGV, SIGBUS, SIGFPE, SIGILL,
/// SIGABRT) that DumpBlackBox("fatal_signal") and then re-raise with the
/// default disposition, so exit codes and core dumps are unchanged.
/// Idempotent; call once from a tool's main().
void InstallCrashHandler();

// ----- instrumentation points ----------------------------------------------
//
// Instrumentation sits at phase / level / pass / solve granularity, never
// inside per-cell inner loops.

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
/// current thread's track of the installed recorder. `name` must be a
/// string literal.
class TraceScope {
 public:
  explicit TraceScope(const char* name) : ring_(CurrentRingRecorder()) {
    if (ring_ != nullptr) span_ = ring_->BeginSpan(name);
  }
  ~TraceScope() {
    if (ring_ != nullptr) ring_->EndSpan(span_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  RingRecorder* const ring_;
  RingRecorder::OpenSpan span_;
};

/// Counter sample (rendered as a track in Perfetto).
inline void TraceCounter(const char* name, std::int64_t value) {
  if (RingRecorder* ring = CurrentRingRecorder()) {
    ring->RecordCounter(name, value);
  }
}

/// Instant marker; `value` is e.g. a round or job id.
inline void TraceInstant(const char* name, std::int64_t value = 0) {
  if (RingRecorder* ring = CurrentRingRecorder()) {
    ring->RecordInstant(name, value);
  }
}

#endif  // P3D_OBS_DISABLED

}  // namespace p3d::obs
