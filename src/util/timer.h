// Wall-clock timing for the runtime experiments (paper Figure 10).
//
// Policy: every elapsed-time measurement in this codebase — Timer, the log
// prefix, the event recorder (src/obs) — uses std::chrono::steady_clock,
// which is monotonic and immune to NTP/system-clock adjustments.
// system_clock and high_resolution_clock must not be introduced for
// durations.
#pragma once

#include <chrono>
#include <cstdint>

namespace p3d::util {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed wall-clock seconds since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed nanoseconds, for consumers that cannot afford double rounding.
  std::int64_t Nanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace p3d::util
