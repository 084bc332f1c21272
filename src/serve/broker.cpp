#include "serve/broker.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "serve/job.h"
#include "sim/scenario.h"
#include "sync/engine.h"

namespace clockmark::serve {

namespace {

// Canonical identity of a scenario memo. The repetition is deliberately
// absent: one Scenario serves every repetition (Scenario::run(rep) is
// const and thread-safe), which is exactly what makes the memo worth
// sharing across a batch of jobs.
std::string scenario_key(const ScenarioRef& ref) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "scenario:chip=%d;cycles=%zu;seed=%llu;wm=%d;sn=%.17g;pn=%.17g",
                ref.chip, ref.trace_cycles,
                static_cast<unsigned long long>(ref.seed),
                ref.watermark_active ? 1 : 0, ref.scope_noise_v_rms,
                ref.probe_noise_v_rms);
  return buf;
}

// Estimated resident size of a Scenario memo: the per-repetition-
// invariant traces it caches (background + watermark overlay) scale
// with the trace length, plus a generous constant for the gate-level
// characterisation. An *estimate* is fine — the caps govern order of
// magnitude, not byte-exact accounting.
std::size_t scenario_bytes(const ScenarioRef& ref) {
  return ref.trace_cycles * 3 * sizeof(double) + (1u << 20u);
}

}  // namespace

sim::ScenarioConfig to_scenario_config(const ScenarioRef& ref) {
  sim::ScenarioConfig cfg =
      ref.chip == 2 ? sim::chip2_default() : sim::chip1_default();
  cfg.trace_cycles = ref.trace_cycles;
  cfg.seed = ref.seed;
  cfg.watermark_active = ref.watermark_active;
  if (ref.scope_noise_v_rms != 0.0) {
    cfg.acquisition.scope.noise_v_rms = ref.scope_noise_v_rms;
  }
  if (ref.probe_noise_v_rms != 0.0) {
    cfg.acquisition.probe.noise_v_rms = ref.probe_noise_v_rms;
  }
  return cfg;
}

ResourceBroker::ResourceBroker(BrokerConfig config)
    : config_(config),
      engines_(std::make_shared<detect::EngineCache>(
          config.engine_capacity)) {}

std::shared_ptr<const sim::Scenario> ResourceBroker::scenario(
    const std::string& tenant, const ScenarioRef& ref, bool* hit) {
  auto value = acquire(tenant, scenario_key(ref), hit, scenario_bytes(ref),
                       [&ref]() -> std::shared_ptr<const void> {
                         return std::make_shared<const sim::Scenario>(
                             to_scenario_config(ref));
                       });
  return std::static_pointer_cast<const sim::Scenario>(std::move(value));
}

std::shared_ptr<const sync::CandidateEngine> ResourceBroker::engine(
    const std::string& tenant, std::span<const double> pattern, bool* hit) {
  (void)tenant;  // engines are keyed by pattern; tenants share freely
  return engines_->acquire(pattern, hit);
}

std::shared_ptr<const void> ResourceBroker::acquire(
    const std::string& tenant, const std::string& key, bool* hit,
    std::size_t bytes, const std::function<std::shared_ptr<const void>()>& build) {
  std::unique_lock<std::mutex> lock(mu_);
  ++clock_;
  for (Entry& entry : entries_) {
    if (entry.key == key) {
      entry.last_use = clock_;
      ++hits_;
      if (hit != nullptr) *hit = true;
      return entry.value;
    }
  }
  ++misses_;
  if (hit != nullptr) *hit = false;
  // Build outside the lock: scenario characterisation takes hundreds of
  // milliseconds and must not stall unrelated acquires. A racing build
  // of the same key is wasteful-but-correct (deterministic value); the
  // re-check below keeps only one copy.
  lock.unlock();
  std::shared_ptr<const void> value = build();
  lock.lock();
  ++clock_;
  for (Entry& entry : entries_) {
    if (entry.key == key) {  // someone else built it meanwhile
      entry.last_use = clock_;
      return entry.value;
    }
  }
  const bool fits_global = make_room(bytes);
  const bool fits_quota =
      fits_global && make_tenant_room(tenant, bytes);
  if (!fits_global || !fits_quota) {
    ++uncached_;  // handed out unretained: correctness over residency
    return value;
  }
  entries_.push_back(Entry{key, value, bytes, tenant, clock_});
  bytes_ += bytes;
  TenantUsage& usage = tenants_[tenant];
  usage.bytes += bytes;
  usage.entries += 1;
  return value;
}

bool ResourceBroker::make_room(std::size_t need) {
  if (need > config_.max_bytes) return false;
  auto over = [&] {
    return bytes_ + need > config_.max_bytes ||
           entries_.size() + 1 > config_.max_entries;
  };
  while (over()) {
    std::size_t victim = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].value.use_count() > 1) continue;  // pinned by a job
      if (victim == entries_.size() ||
          entries_[i].last_use < entries_[victim].last_use) {
        victim = i;
      }
    }
    if (victim == entries_.size()) return false;  // everything pinned
    evict(victim);
  }
  return true;
}

bool ResourceBroker::make_tenant_room(const std::string& tenant,
                                      std::size_t need) {
  if (config_.tenant_max_bytes == 0) return true;
  if (need > config_.tenant_max_bytes) return false;
  auto over = [&] {
    const auto it = tenants_.find(tenant);
    return it != tenants_.end() &&
           it->second.bytes + need > config_.tenant_max_bytes;
  };
  while (over()) {
    std::size_t victim = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].tenant != tenant) continue;
      if (entries_[i].value.use_count() > 1) continue;
      if (victim == entries_.size() ||
          entries_[i].last_use < entries_[victim].last_use) {
        victim = i;
      }
    }
    if (victim == entries_.size()) return false;
    evict(victim);
  }
  return true;
}

void ResourceBroker::evict(std::size_t index) {
  Entry& entry = entries_[index];
  bytes_ -= entry.bytes;
  const auto it = tenants_.find(entry.tenant);
  if (it != tenants_.end()) {
    it->second.bytes -= entry.bytes;
    it->second.entries -= 1;
    if (it->second.entries == 0) tenants_.erase(it);
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
  ++evictions_;
}

BrokerStats ResourceBroker::stats() const {
  BrokerStats s;
  s.engines = engines_->stats();
  const std::lock_guard<std::mutex> lock(mu_);
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.uncached = uncached_;
  s.bytes = bytes_;
  s.entries = entries_.size();
  s.tenants = tenants_;
  return s;
}

}  // namespace clockmark::serve
