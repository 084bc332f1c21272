// Cross-tenant resource governance: one broker owns every expensive,
// reusable artefact the service's jobs need, so N tenants submitting
// M jobs pay for each artefact once — under explicit limits — instead
// of M×N times.
//
// Two artefact classes, two stores:
//   * sync::CandidateEngine instances (the pattern and its FFT,
//     cpa/spectrum_engine.h) — delegated to a shared
//     detect::EngineCache, which is already the size-capped LRU the
//     detection layer uses; the broker adds the per-job hit telemetry.
//     Engines are capped by count, not bytes: each has a fixed size set
//     by its period.
//   * sim::Scenario memos (the gate-level characterisation behind a
//     ScenarioRef — hundreds of ms to build, shared across repetitions)
//     — kept in a unified byte-accounted LRU store with a global cap and
//     per-tenant quotas.
//
// Governance rules of the unified store:
//   * ref-counted pinning: an entry whose shared_ptr is still held by a
//     running job (use_count > 1) is never evicted — eviction only
//     drops the broker's reference, so nothing a job is using dies
//     under it;
//   * global caps: inserting past max_bytes / max_entries evicts
//     least-recently-used unpinned entries until the new entry fits;
//   * per-tenant quota: a tenant over its byte quota first evicts its
//     *own* LRU entries; if the new artefact still doesn't fit the
//     quota, it is handed to the job unretained (the job works, the
//     tenant just doesn't get to occupy shared cache) — quota pressure
//     degrades a tenant's hit rate, never its correctness, and never
//     its neighbours'.
//
// Everything here is caching of deterministic constructions, so sharing
// is invisible to verdicts: a Scenario built fresh and a memoized one
// produce bit-identical traces (sim/scenario.h's memoization contract),
// and engine sharing is score-identical (sync/engine.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "detect/engine_cache.h"

namespace clockmark::sim {
class Scenario;
struct ScenarioConfig;
}

namespace clockmark::sync {
class CandidateEngine;
}

namespace clockmark::serve {

struct ScenarioRef;

/// The deterministic ScenarioConfig a ScenarioRef denotes — the one
/// mapping shared by the broker's builds and by tests asserting that
/// service verdicts match direct Session runs bit for bit.
sim::ScenarioConfig to_scenario_config(const ScenarioRef& ref);

struct BrokerConfig {
  /// Engines retained by the shared detect::EngineCache.
  std::size_t engine_capacity = detect::EngineCache::kDefaultCapacity;
  /// Unified store caps (scenario memos).
  std::size_t max_bytes = 256u << 20u;  ///< 256 MiB of estimated memo size
  std::size_t max_entries = 32;
  /// Per-tenant byte quota in the unified store; 0 = no quota.
  std::size_t tenant_max_bytes = 0;
};

struct TenantUsage {
  std::size_t bytes = 0;
  std::size_t entries = 0;
};

struct BrokerStats {
  detect::EngineCacheStats engines;
  std::size_t hits = 0;        ///< unified-store hits
  std::size_t misses = 0;      ///< unified-store builds
  std::size_t evictions = 0;   ///< entries dropped by caps/quota
  std::size_t uncached = 0;    ///< built but not retained (quota pressure)
  std::size_t bytes = 0;       ///< estimated bytes currently retained
  std::size_t entries = 0;
  std::map<std::string, TenantUsage> tenants;
};

class ResourceBroker {
 public:
  explicit ResourceBroker(BrokerConfig config = {});

  /// The Scenario for `ref`, memoized across jobs, repetitions and
  /// tenants (the ref's repetition is *not* part of the identity — one
  /// Scenario serves all repetitions; see sim/scenario.h). `*hit`
  /// reports whether this call reused a cached construction.
  std::shared_ptr<const sim::Scenario> scenario(const std::string& tenant,
                                                const ScenarioRef& ref,
                                                bool* hit = nullptr);

  /// The blind-search engine for `pattern`, via the shared EngineCache —
  /// the warm-up entry point; jobs acquire through engines() inside
  /// detect::Session.
  std::shared_ptr<const sync::CandidateEngine> engine(
      const std::string& tenant, std::span<const double> pattern,
      bool* hit = nullptr);

  /// The engine cache itself — Sessions constructed for service jobs
  /// share it directly.
  const std::shared_ptr<detect::EngineCache>& engines() const noexcept {
    return engines_;
  }

  BrokerStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    std::string tenant;  ///< who caused the build (quota accounting)
    std::uint64_t last_use = 0;
  };

  /// Returns the cached value for `key` or builds it via `build` and
  /// retains it (at an estimated `bytes`) subject to caps and quota.
  std::shared_ptr<const void> acquire(
      const std::string& tenant, const std::string& key, bool* hit,
      std::size_t bytes, const std::function<std::shared_ptr<const void>()>& build);

  /// Evicts unpinned LRU entries until `need` more bytes and one more
  /// entry fit under the global caps; returns false when pinned entries
  /// make that impossible. Caller holds mu_.
  bool make_room(std::size_t need);
  /// Same, against `tenant`'s quota, evicting only that tenant's
  /// entries. Caller holds mu_.
  bool make_tenant_room(const std::string& tenant, std::size_t need);
  void evict(std::size_t index);

  const BrokerConfig config_;
  std::shared_ptr<detect::EngineCache> engines_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::map<std::string, TenantUsage> tenants_;
  std::uint64_t clock_ = 0;
  std::size_t bytes_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::size_t uncached_ = 0;
};

}  // namespace clockmark::serve
