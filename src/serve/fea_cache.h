// FeaAssemblyCache — the cross-job solver-cache layer of the serve engine.
//
// Sweep workloads (the paper's Figs. 3/4/8 tradeoff grids) run many
// placements over ONE chip: every job shares the thermal stack, the die
// extent, and the FEA mesh, so the expensive part of the solver reuse
// layer — stiffness-matrix assembly plus the preconditioner build (the
// multigrid hierarchy) — is identical across jobs. This cache shares that
// immutable product (thermal::FeaAssembly) between concurrent jobs keyed by
// exact geometry, while each job's run builds its own thermal::FeaContext
// over it, so warm-start temperature history never leaks between jobs
// (determinism contract: a job's solves are byte-identical whether its
// assembly was built or adopted).
//
// Ownership is the shared_ptr's alone: a job holds its assembly for as long
// as it keeps the pointer (a cancelled job drops it like any other), and
// an entry is live while any pointer besides the cache's own exists.
//
// Concurrency: every cache operation (lookup, build, eviction) runs under
// one mutex. Building a missing assembly under the lock is deliberate: two
// jobs racing on the same key serialize, the second one hits, and a
// same-geometry batch always counts exactly one miss regardless of worker
// count or scheduling.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "thermal/fea.h"

namespace p3d::serve {

/// Exact-geometry cache key: everything a FeaAssembly build depends on.
/// `fea` is the requesting job's options; only the mesh and the
/// preconditioner enter equality (thermal::SameAssembly), so jobs that
/// differ in CG threads share one assembly.
struct FeaCacheKey {
  thermal::ThermalStack stack;
  thermal::ChipExtent chip;
  thermal::FeaOptions fea;

  friend bool operator==(const FeaCacheKey& a, const FeaCacheKey& b) {
    return a.stack == b.stack && a.chip == b.chip &&
           thermal::SameAssembly(a.fea, b.fea);
  }
};

class FeaAssemblyCache {
 public:
  /// Snapshot of the cache counters, also mirrored into the flight recorder
  /// as serve/fea_cache_* counters (recorded on the acquiring worker thread
  /// BEFORE the per-job metrics scope is installed, so they land in the
  /// process-wide registry, never in a job's deterministic dump).
  struct Stats {
    long long hits = 0;
    long long misses = 0;       // assembly builds
    long long evictions = 0;
    long long live_entries = 0; // held outside the cache
    long long idle_entries = 0; // held by the cache alone
  };

  FeaAssemblyCache() = default;

  FeaAssemblyCache(const FeaAssemblyCache&) = delete;
  FeaAssemblyCache& operator=(const FeaAssemblyCache&) = delete;

  /// The assembly for `key`, built on a miss. Then evicts the
  /// least-recently-used idle entries beyond 8; live entries are never
  /// evicted and do not count against that cap.
  std::shared_ptr<const thermal::FeaAssembly> Acquire(const FeaCacheKey& key);

  Stats GetStats() const;

 private:
  struct Entry {
    FeaCacheKey key;
    std::shared_ptr<const thermal::FeaAssembly> assembly;
    std::uint64_t last_use = 0;
  };

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t use_clock_ = 0;
  long long hits_ = 0;
  long long misses_ = 0;
  long long evictions_ = 0;
};

}  // namespace p3d::serve
