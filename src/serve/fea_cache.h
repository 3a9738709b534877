// FeaContextCache — the cross-job solver-cache layer of the serve engine.
//
// Sweep workloads (the paper's Figs. 3/4/8 tradeoff grids) run many
// placements over ONE chip: every job shares the thermal stack, the die
// extent, and the FEA mesh, so the expensive part of the PR-4 solver reuse
// layer — stiffness-matrix assembly plus the preconditioner build (the
// multigrid hierarchy) — is identical across jobs. This cache shares that immutable product
// (thermal::FeaAssembly) between concurrent jobs keyed by exact geometry,
// while each job keeps its own thermal::FeaContext so warm-start temperature
// history never leaks between jobs (determinism contract: a job's solves are
// byte-identical whether its assembly was built or adopted).
//
// Concurrency: every cache operation (lookup, build, release, eviction) runs
// under one mutex. Building a missing assembly under the lock is deliberate:
// two jobs racing on the same key serialize, the second one hits, and a
// same-geometry batch always counts exactly one miss regardless of worker
// count or scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "thermal/fea.h"

namespace p3d::serve {

/// Exact-geometry cache key: everything a FeaAssembly build depends on.
/// `fea` is the requesting job's options, and its leased context solves with
/// them; only the mesh and the preconditioner enter equality
/// (thermal::SameAssembly), so jobs that differ in CG threads share one
/// assembly.
struct FeaCacheKey {
  thermal::ThermalStack stack;
  thermal::ChipExtent chip;
  thermal::FeaOptions fea;

  friend bool operator==(const FeaCacheKey& a, const FeaCacheKey& b) {
    return a.stack == b.stack && a.chip == b.chip &&
           thermal::SameAssembly(a.fea, b.fea);
  }
};

class FeaContextCache;

/// RAII lease on one cache entry: owns the per-job FeaContext (which adopts
/// the shared assembly) and releases the entry's refcount on destruction —
/// including when a job is cancelled mid-flight, which is how a cancelled
/// job "releases its cache ref" without any explicit bookkeeping.
class FeaContextLease {
 public:
  FeaContextLease() = default;
  FeaContextLease(FeaContextLease&& other) noexcept;
  FeaContextLease& operator=(FeaContextLease&& other) noexcept;
  ~FeaContextLease();

  FeaContextLease(const FeaContextLease&) = delete;
  FeaContextLease& operator=(const FeaContextLease&) = delete;

  /// The leased per-job context; nullptr for an empty (default) lease.
  thermal::FeaContext* context() { return context_.get(); }
  explicit operator bool() const { return context_ != nullptr; }

  /// Drops the context and releases the cache refcount now.
  void Release();

 private:
  friend class FeaContextCache;
  FeaContextLease(FeaContextCache* cache, std::size_t slot,
                  std::unique_ptr<thermal::FeaContext> context);

  FeaContextCache* cache_ = nullptr;
  std::size_t slot_ = 0;
  std::unique_ptr<thermal::FeaContext> context_;
};

class FeaContextCache {
 public:
  /// Snapshot of the cache counters, also mirrored into the flight recorder
  /// as serve/fea_cache_* counters (recorded on the acquiring worker thread
  /// BEFORE the per-job metrics scope is installed, so they land in the
  /// process-wide registry, never in a job's deterministic dump).
  struct Stats {
    long long hits = 0;
    long long misses = 0;       // assembly builds
    long long evictions = 0;
    long long live_entries = 0; // currently referenced
    long long idle_entries = 0; // retained, unreferenced
  };

  FeaContextCache() = default;

  FeaContextCache(const FeaContextCache&) = delete;
  FeaContextCache& operator=(const FeaContextCache&) = delete;

  /// Hands out a lease whose FeaContext shares the assembly for `key`,
  /// building it on a miss. `warm_start` configures the per-job context
  /// only; the shared assembly is warm-start-free by construction.
  FeaContextLease Acquire(const FeaCacheKey& key, bool warm_start);

  Stats GetStats() const;

 private:
  friend class FeaContextLease;

  struct Entry {
    FeaCacheKey key;
    std::shared_ptr<const thermal::FeaAssembly> assembly;  // null = free slot
    int refs = 0;
    std::uint64_t last_use = 0;
  };

  void Release(std::size_t slot);
  /// Caller holds mutex_. Evicts LRU idle entries beyond the cap of 8
  /// unreferenced assemblies (referenced entries never count against it).
  void EvictIdleLocked();

  mutable std::mutex mutex_;
  // Slot-stable: leases hold indices, so evicted slots are nulled and
  // reused, never erased.
  std::vector<Entry> entries_;
  std::uint64_t use_clock_ = 0;
  long long hits_ = 0;
  long long misses_ = 0;
  long long evictions_ = 0;
};

}  // namespace p3d::serve
