#include "serve/fea_cache.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/ring.h"

namespace p3d::serve {
namespace {

/// Unreferenced assemblies retained for future hits; beyond this the
/// least-recently-used idle entry is evicted. Referenced entries are never
/// evicted and do not count against the cap.
constexpr std::size_t kMaxIdleEntries = 8;

}  // namespace

FeaContextLease::FeaContextLease(FeaContextCache* cache, std::size_t slot,
                                 std::unique_ptr<thermal::FeaContext> context)
    : cache_(cache), slot_(slot), context_(std::move(context)) {}

FeaContextLease::FeaContextLease(FeaContextLease&& other) noexcept
    : cache_(other.cache_),
      slot_(other.slot_),
      context_(std::move(other.context_)) {
  other.cache_ = nullptr;
}

FeaContextLease& FeaContextLease::operator=(FeaContextLease&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    slot_ = other.slot_;
    context_ = std::move(other.context_);
    other.cache_ = nullptr;
  }
  return *this;
}

FeaContextLease::~FeaContextLease() { Release(); }

void FeaContextLease::Release() {
  // Drop the context (and its assembly reference) before decrementing the
  // cache refcount, so an entry at refs == 0 is genuinely idle.
  context_.reset();
  if (cache_ != nullptr) {
    cache_->Release(slot_);
    cache_ = nullptr;
  }
}

FeaContextLease FeaContextCache::Acquire(const FeaCacheKey& key,
                                         bool warm_start) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t slot = entries_.size();
  std::size_t free_slot = entries_.size();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].assembly == nullptr) {
      free_slot = i;
    } else if (entries_[i].key == key) {
      slot = i;
      break;
    }
  }
  if (slot == entries_.size()) {
    // Miss: build under the lock (see file comment — racing same-key
    // acquirers serialize here and the laggard hits).
    obs::TraceScope trace("serve.fea_cache_build");
    auto assembly =
        std::make_shared<const thermal::FeaAssembly>(key.stack, key.chip,
                                                     key.fea);
    if (free_slot == entries_.size()) entries_.emplace_back();
    slot = free_slot;  // either the reused free slot or the new back entry
    entries_[slot].key = key;
    entries_[slot].assembly = std::move(assembly);
    entries_[slot].refs = 0;
    ++misses_;
    obs::MetricAdd("serve/fea_cache_misses", 1);
  } else {
    ++hits_;
    obs::MetricAdd("serve/fea_cache_hits", 1);
  }
  Entry& entry = entries_[slot];
  ++entry.refs;
  entry.last_use = ++use_clock_;
  EvictIdleLocked();

  thermal::FeaContextOptions copt;
  copt.fea = key.fea;
  copt.warm_start = warm_start;
  return FeaContextLease(
      this, slot,
      std::make_unique<thermal::FeaContext>(entry.assembly, copt));
}

void FeaContextCache::Release(std::size_t slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[slot];
  --entry.refs;
  if (entry.refs == 0) EvictIdleLocked();
}

void FeaContextCache::EvictIdleLocked() {
  for (;;) {
    std::size_t idle = 0;
    std::size_t lru = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (e.assembly == nullptr || e.refs > 0) continue;
      ++idle;
      if (lru == entries_.size() || e.last_use < entries_[lru].last_use) {
        lru = i;
      }
    }
    if (idle <= kMaxIdleEntries || lru == entries_.size()) return;
    entries_[lru].assembly.reset();
    ++evictions_;
    obs::MetricAdd("serve/fea_cache_evictions", 1);
  }
}

FeaContextCache::Stats FeaContextCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  for (const Entry& e : entries_) {
    if (e.assembly == nullptr) continue;
    if (e.refs > 0) {
      ++s.live_entries;
    } else {
      ++s.idle_entries;
    }
  }
  return s;
}

}  // namespace p3d::serve
