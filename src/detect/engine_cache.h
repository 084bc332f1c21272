// Shared, size-capped LRU cache of sync::CandidateEngine instances,
// keyed by the watermark pattern they were built for.
//
// Why it exists: a CandidateEngine's cpa::SpectrumEngine front-loads the
// pattern's FFT (see cpa/spectrum_engine.h), so reusing one across runs
// pays that cost once per pattern instead of once per run. Every
// detect::Session run takes its engine from here, whatever its sync
// policy. An engine holds only the pattern and its transform (about
// 96 KiB at P = 4095) and never grows after it is built. A
// long-running process (the cm_serve detection service) runs
// jobs for *many* patterns through *many* sessions, which needs the
// cache to be shareable, bounded, and observable:
//
//   * bounded — at most `capacity` engines are retained; inserting past
//     the cap evicts the least-recently-used entry, so a daemon fed a
//     stream of one-off keys cannot grow the cache without bound.
//     Evicted engines stay alive while any acquired shared_ptr holds
//     them — eviction only drops the cache's reference.
//   * shareable — acquire() is thread-safe (one mutex; engines are
//     immutable once built) and any number of Sessions, OnlineDetectors
//     and service workers may hold the same cache.
//   * observable — hit / miss / eviction counters for capacity tuning
//     and for the service's per-job cache telemetry.
//
// Duplicate builds under contention are avoided by holding the lock
// across the build: engines for distinct patterns are rarely requested
// at the same instant, and a duplicate engine would waste far more
// memory than the brief serialisation costs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace clockmark::sync {
class CandidateEngine;
}

namespace clockmark::detect {

struct EngineCacheStats {
  std::size_t hits = 0;       ///< acquire() found the pattern cached
  std::size_t misses = 0;     ///< acquire() had to build an engine
  std::size_t evictions = 0;  ///< entries dropped by the LRU cap
  std::size_t entries = 0;    ///< engines currently retained
  std::size_t capacity = 0;   ///< the configured cap
};

class EngineCache {
 public:
  /// Default cap: a handful of concurrently-hot patterns (the service's
  /// tenants typically share one or two watermark keys per chip).
  static constexpr std::size_t kDefaultCapacity = 4;

  explicit EngineCache(std::size_t capacity = kDefaultCapacity);

  /// The engine for `pattern`, built on first use and LRU-retained.
  /// Returns nullptr for an empty pattern (no engine is definable).
  /// When non-null, `*hit` reports whether this call was served from
  /// the cache — exact per call, unlike sampling the global counters
  /// around a call, which races with other threads.
  std::shared_ptr<const sync::CandidateEngine> acquire(
      std::span<const double> pattern, bool* hit = nullptr);

  EngineCacheStats stats() const;

 private:
  struct Entry {
    std::uint64_t key = 0;  ///< FNV-1a over the pattern bytes
    std::shared_ptr<const sync::CandidateEngine> engine;
    std::uint64_t last_use = 0;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  ///< small N: linear scan beats a map
  std::uint64_t clock_ = 0;
  EngineCacheStats stats_;
};

}  // namespace clockmark::detect
