#include "serve/fea_cache.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "obs/metrics.h"
#include "obs/ring.h"

namespace p3d::serve {
namespace {

/// Idle assemblies retained for future hits; beyond this the
/// least-recently-used idle entry is evicted. Live entries are never
/// evicted and do not count against the cap.
constexpr std::size_t kMaxIdleEntries = 8;

}  // namespace

std::shared_ptr<const thermal::FeaAssembly> FeaAssemblyCache::Acquire(
    const FeaCacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&key](const Entry& e) { return e.key == key; });
  if (it == entries_.end()) {
    // Miss: build under the lock (see file comment — racing same-key
    // acquirers serialize here and the laggard hits).
    obs::TraceScope trace("serve.fea_cache_build");
    entries_.push_back(
        {.key = key,
         .assembly = std::make_shared<const thermal::FeaAssembly>(
             key.stack, key.chip, key.fea)});
    it = std::prev(entries_.end());
    ++misses_;
    obs::MetricAdd("serve/fea_cache_misses", 1);
  } else {
    ++hits_;
    obs::MetricAdd("serve/fea_cache_hits", 1);
  }
  it->last_use = ++use_clock_;
  // The caller's reference makes this entry live, so the eviction below
  // never takes it.
  std::shared_ptr<const thermal::FeaAssembly> assembly = it->assembly;

  const auto idle = [](const Entry& e) { return e.assembly.use_count() == 1; };
  while (static_cast<std::size_t>(std::count_if(
             entries_.begin(), entries_.end(), idle)) > kMaxIdleEntries) {
    auto lru = entries_.end();
    for (auto e = entries_.begin(); e != entries_.end(); ++e) {
      if (idle(*e) && (lru == entries_.end() || e->last_use < lru->last_use)) {
        lru = e;
      }
    }
    entries_.erase(lru);
    ++evictions_;
    obs::MetricAdd("serve/fea_cache_evictions", 1);
  }
  return assembly;
}

FeaAssemblyCache::Stats FeaAssemblyCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  for (const Entry& e : entries_) {
    if (e.assembly.use_count() > 1) {
      ++s.live_entries;
    } else {
      ++s.idle_entries;
    }
  }
  return s;
}

}  // namespace p3d::serve
