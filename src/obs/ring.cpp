#include "obs/ring.h"

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstring>

namespace p3d::obs {
namespace {

std::atomic<RingRecorder*> g_ring{nullptr};
std::atomic<std::uint64_t> g_next_ring_id{1};

// Per-thread cache of the ring registered with the current recorder. The id
// check makes a stale cache impossible to hit: ids are never reused.
struct ThreadCache {
  std::uint64_t ring_id = 0;
  void* ring = nullptr;
};
thread_local ThreadCache t_cache;

// Black-box dump destination. Written by SetBlackBoxPath (startup, serial),
// read by the (possibly signal-context) dump path: the length store/load
// pair orders the bytes.
char g_path[4000] = {0};
std::atomic<std::size_t> g_path_len{0};
std::atomic<std::int64_t> g_dumps{0};
std::atomic<bool> g_crash_handler_installed{false};

std::size_t RoundUpPow2(std::size_t v) {
  if (v == 0) return 0;  // unbounded
  std::size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

// ----- async-signal-safe formatting ----------------------------------------
// A tiny append-only writer over a caller-owned buffer that flushes through
// write(2). No allocation, no stdio, no locale — usable from a handler.

struct FdWriter {
  int fd;
  char buf[1024];
  std::size_t len = 0;
  bool ok = true;

  void Flush() {
    std::size_t off = 0;
    while (ok && off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n < 0) {
        ok = false;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }
  void Char(char c) {
    if (len == sizeof buf) Flush();
    buf[len++] = c;
  }
  void Raw(const char* s) {
    for (; *s != '\0'; ++s) Char(*s);
  }
  /// Quoted JSON string; non-printable / quote / backslash become '_'
  /// (names are our own literals, so nothing of value is lost).
  void Str(const char* s) {
    Char('"');
    for (; s != nullptr && *s != '\0'; ++s) {
      const char c = *s;
      Char(c >= 0x20 && c != '"' && c != '\\' && c != 0x7f ? c : '_');
    }
    Char('"');
  }
  void U64(std::uint64_t v) {
    char tmp[20];
    int n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) Char(tmp[--n]);
  }
  void I64(std::int64_t v) {
    if (v < 0) {
      Char('-');
      U64(static_cast<std::uint64_t>(-(v + 1)) + 1);
    } else {
      U64(static_cast<std::uint64_t>(v));
    }
  }
  /// Nanoseconds as fractional microseconds ("123.456") — trace-event `ts`
  /// units with full resolution, integer math only.
  void NsAsUs(std::uint64_t ns) {
    U64(ns / 1000);
    Char('.');
    const std::uint64_t frac = ns % 1000;
    Char(static_cast<char>('0' + frac / 100));
    Char(static_cast<char>('0' + frac / 10 % 10));
    Char(static_cast<char>('0' + frac % 10));
  }
};

void CrashHandler(int sig) {
  DumpBlackBox("fatal_signal");
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

RingRecorder* InstallRingRecorder(RingRecorder* recorder) {
  return g_ring.exchange(recorder, std::memory_order_acq_rel);
}

RingRecorder* CurrentRingRecorder() {
  return g_ring.load(std::memory_order_acquire);
}

RingRecorder::RingRecorder(const Options& options)
    : id_(g_next_ring_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(RoundUpPow2(options.capacity_per_thread)),
      block_events_(capacity_ != 0 ? capacity_ : kBlockEvents),
      epoch_(std::chrono::steady_clock::now()) {}

RingRecorder::~RingRecorder() {
  // Never leave a dangling global: uninstall if still installed.
  RingRecorder* expected = this;
  g_ring.compare_exchange_strong(expected, nullptr,
                                 std::memory_order_acq_rel);
  Ring* ring = rings_.load(std::memory_order_acquire);
  while (ring != nullptr) {
    Block* block = ring->first.next;
    while (block != nullptr) {
      Block* next = block->next;
      delete block;
      block = next;
    }
    Ring* next = ring->next;
    delete ring;
    ring = next;
  }
}

RingRecorder::Ring* RingRecorder::ThreadRing() {
  if (t_cache.ring_id == id_) {
    return static_cast<Ring*>(t_cache.ring);
  }
  Ring* ring = new Ring(block_events_);
  ring->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  // Lock-free push onto the list; publication (release) makes the ring's
  // immutable fields visible to dumpers.
  Ring* head = rings_.load(std::memory_order_relaxed);
  do {
    ring->next = head;
  } while (!rings_.compare_exchange_weak(head, ring,
                                         std::memory_order_release,
                                         std::memory_order_relaxed));
  t_cache.ring_id = id_;
  t_cache.ring = ring;
  return ring;
}

std::size_t RingRecorder::NumThreads() const {
  std::size_t n = 0;
  for (Ring* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    ++n;
  }
  return n;
}

std::size_t RingRecorder::NumEvents() const {
  std::size_t n = 0;
  for (Ring* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    n += static_cast<std::size_t>(
        capacity_ != 0 && head > capacity_ ? capacity_ : head);
  }
  return n;
}

template <typename Fn>
void RingRecorder::ForEachSlot(const Ring& ring, Fn fn) const {
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::uint64_t start =
      capacity_ != 0 && head > capacity_ ? head - capacity_ : 0;
  const Block* block = &ring.first;
  for (std::uint64_t seq = start; seq < head; ++seq) {
    const std::size_t offset =
        static_cast<std::size_t>(seq & (block_events_ - 1));
    if (capacity_ == 0 && offset == 0 && seq != 0) block = block->next;
    fn(block->slots[offset], seq);
  }
}

std::vector<RingRecorder::EventView> RingRecorder::Snapshot() const {
  std::vector<EventView> out;
  const std::uint64_t now = NowNs();
  for (Ring* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    ForEachSlot(*r, [&](const Slot& slot, std::uint64_t seq) {
      EventView v;
      v.name = slot.name.load(std::memory_order_relaxed);
      if (v.name == nullptr) return;  // raced a writer mid-first-store
      v.kind = static_cast<Kind>(slot.kind.load(std::memory_order_relaxed));
      v.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      v.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
      if (v.dur_ns == kOpenDuration) {
        v.dur_ns = now > v.ts_ns ? now - v.ts_ns : 0;
      }
      v.value = slot.value.load(std::memory_order_relaxed);
      v.seq = seq;
      v.tid = r->tid;
      out.push_back(v);
    });
  }
  return out;
}

bool RingRecorder::DumpToFd(int fd, const char* reason) const {
  // Chrome trace format, the subset Perfetto's JSON importer reads: "X"
  // (complete) spans with ts/dur, "C" counters, "i" instants and "M"
  // metadata naming the process.
  const std::uint64_t now = NowNs();
  FdWriter w{fd};
  w.Raw("{\"traceEvents\":[\n");
  w.Raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"placer3d\"}}");
  for (Ring* r = rings_.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    ForEachSlot(*r, [&](const Slot& slot, std::uint64_t seq) {
      const char* name = slot.name.load(std::memory_order_relaxed);
      if (name == nullptr) return;
      const auto kind =
          static_cast<Kind>(slot.kind.load(std::memory_order_relaxed));
      const std::uint64_t ts = slot.ts_ns.load(std::memory_order_relaxed);
      const std::uint64_t dur = slot.dur_ns.load(std::memory_order_relaxed);
      const std::int64_t value = slot.value.load(std::memory_order_relaxed);
      w.Raw(",\n{\"name\":");
      w.Str(name);
      w.Raw(",\"pid\":1,\"tid\":");
      w.U64(static_cast<std::uint64_t>(r->tid));
      w.Raw(",\"seq\":");
      w.U64(seq);
      w.Raw(",\"ts\":");
      w.NsAsUs(ts);
      switch (kind) {
        case Kind::kSpan:
          // A span still open at the dump lasts up to the dump.
          w.Raw(",\"ph\":\"X\",\"dur\":");
          w.NsAsUs(dur != kOpenDuration ? dur : now > ts ? now - ts : 0);
          break;
        case Kind::kCounter:
          w.Raw(",\"ph\":\"C\",\"args\":{\"value\":");
          w.I64(value);
          w.Char('}');
          break;
        case Kind::kInstant:
          w.Raw(",\"ph\":\"i\",\"s\":\"t\",\"args\":{\"value\":");
          w.I64(value);
          w.Char('}');
          break;
      }
      w.Char('}');
    });
  }
  // The dump itself is the last event: a zero-length span stamped "now"
  // carrying the trigger, so every snapshot is a valid Chrome trace (the
  // validators require at least one "X" span) and the reason is visible in
  // Perfetto without a side channel.
  w.Raw(",\n{\"name\":\"blackbox.dump\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
        "\"ts\":");
  w.NsAsUs(now);
  w.Raw(",\"dur\":0.001,\"args\":{\"reason\":");
  w.Str(reason != nullptr ? reason : "unspecified");
  w.Raw("}}\n],\"displayTimeUnit\":\"ms\"}\n");
  w.Flush();
  return w.ok;
}

bool RingRecorder::DumpToFile(const char* path, const char* reason) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = DumpToFd(fd, reason);
  return ::close(fd) == 0 && ok;
}

bool SetBlackBoxPath(const std::string& path) {
  if (path.size() >= sizeof g_path) return false;
  // Order matters for the (lock-free) readers: invalidate, copy, publish.
  g_path_len.store(0, std::memory_order_release);
  std::memcpy(g_path, path.data(), path.size());
  g_path[path.size()] = '\0';
  g_path_len.store(path.size(), std::memory_order_release);
  return true;
}

const char* BlackBoxPath() {
  return g_path_len.load(std::memory_order_acquire) > 0 ? g_path : "";
}

bool DumpBlackBox(const char* reason) {
  RingRecorder* recorder = CurrentRingRecorder();
  if (recorder == nullptr) return false;
  if (g_path_len.load(std::memory_order_acquire) == 0) return false;
  const bool ok = recorder->DumpToFile(g_path, reason);
  if (ok) g_dumps.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

std::int64_t BlackBoxDumps() {
  return g_dumps.load(std::memory_order_relaxed);
}

void InstallCrashHandler() {
  if (g_crash_handler_installed.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = &CrashHandler;
  sigemptyset(&action.sa_mask);
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    sigaction(sig, &action, nullptr);
  }
}

}  // namespace p3d::obs
