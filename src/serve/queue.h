// Priority / fair job queue with backpressure — the scheduling heart of
// the detection service. Its lifecycle: push() blocks while the queue is
// full, close() wakes every waiter and refuses new items, and pop()
// drains what is left before it reports the end; counters record the
// traffic. Items leave in a two-level discipline:
//
//   1. strict priority: a pop always serves the highest non-empty
//      priority level (kHigh before kNormal before kLow);
//   2. tenant fairness within a level: each tenant has its own FIFO
//      lane, and a rotating cursor round-robins pops across the lanes —
//      a tenant that dumps 60 jobs cannot starve one that submits 4,
//      which is the multi-tenant governance property the service
//      promises (asserted in tests/test_serve.cpp).
//
// The capacity bound is global (total buffered jobs across all lanes):
// backpressure is a *service* resource limit, so one saturated tenant
// blocks further submits from everyone — by design, the service's
// reject_when_full mode turns that into an immediate rejection instead.
//
// try_remove() supports cancelling still-queued jobs without waking a
// worker: the predicate pulls the job out of its lane in O(lane).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace clockmark::serve {

/// Scheduling class of a job. Values order the levels: lower value =
/// served first.
enum class JobPriority : int {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

/// Queue traffic counters, surfaced via DetectionService::stats().
struct JobQueueStats {
  std::size_t capacity = 0;
  std::size_t pushes = 0;      ///< jobs accepted
  std::size_t pops = 0;        ///< jobs handed to workers
  std::size_t removed = 0;     ///< jobs pulled out while queued (cancel)
  std::size_t push_waits = 0;  ///< submit blocked on a full queue
  std::size_t pop_waits = 0;   ///< worker blocked on an empty queue
  std::size_t high_water = 0;  ///< max buffered jobs observed
};

template <typename T>
class FairQueue {
 public:
  explicit FairQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  FairQueue(const FairQueue&) = delete;
  FairQueue& operator=(const FairQueue&) = delete;

  /// Blocks while the queue is full. Returns true when the item was
  /// enqueued, false when the queue was closed meanwhile (the item is
  /// dropped — submitters stop).
  bool push(T item, JobPriority priority, const std::string& tenant) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (size_ >= capacity_ && !closed_) {
      ++stats_.push_waits;
      not_full_.wait(lock, [&] { return size_ < capacity_ || closed_; });
    }
    if (closed_) return false;
    levels_[static_cast<std::size_t>(priority)].lanes[tenant].push_back(
        std::move(item));
    ++size_;
    ++stats_.pushes;
    stats_.high_water = std::max(stats_.high_water, size_);
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: false when the queue is full or closed (the
  /// service's reject_when_full mode).
  bool try_push(T item, JobPriority priority, const std::string& tenant) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || size_ >= capacity_) return false;
      levels_[static_cast<std::size_t>(priority)].lanes[tenant].push_back(
          std::move(item));
      ++size_;
      ++stats_.pushes;
      stats_.high_water = std::max(stats_.high_water, size_);
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty and open. nullopt = closed and
  /// drained. Serves the highest non-empty priority level; within it,
  /// round-robins across tenant lanes.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (size_ == 0 && !closed_) {
      ++stats_.pop_waits;
      not_empty_.wait(lock, [&] { return size_ > 0 || closed_; });
    }
    if (size_ == 0) return std::nullopt;  // closed and drained
    for (Level& level : levels_) {
      if (std::optional<T> item = pop_level(level)) {
        --size_;
        ++stats_.pops;
        lock.unlock();
        not_full_.notify_one();
        return item;
      }
    }
    return std::nullopt;  // unreachable: size_ > 0 implies a non-empty level
  }

  /// Removes the first queued item matching `pred` (any level, any
  /// lane) without involving a worker. Returns it, or nullopt when no
  /// queued item matches (it may already be running).
  template <typename Pred>
  std::optional<T> try_remove(Pred pred) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (Level& level : levels_) {
      for (auto& [tenant, lane] : level.lanes) {
        const auto it = std::find_if(lane.begin(), lane.end(), pred);
        if (it == lane.end()) continue;
        T item = std::move(*it);
        lane.erase(it);
        --size_;
        ++stats_.removed;
        lock.unlock();
        not_full_.notify_one();
        return item;
      }
    }
    return std::nullopt;
  }

  /// No more pushes; buffered jobs remain poppable (drain semantics).
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return size_;
  }

  JobQueueStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    JobQueueStats s = stats_;
    s.capacity = capacity_;
    return s;
  }

 private:
  struct Level {
    /// Tenant lanes. std::map keeps lane iteration order deterministic
    /// (lexicographic by tenant), so the round-robin is reproducible.
    std::map<std::string, std::deque<T>> lanes;
    /// Round-robin cursor: the tenant to serve next, by key. Lanes come
    /// and go as tenants drain, so the cursor is a key resolved with
    /// lower_bound against the live lane set — a lane vanishing never
    /// skips the rotation past a still-waiting tenant.
    std::string next_tenant;
  };

  std::optional<T> pop_level(Level& level) {
    // Drop exhausted lanes first so the cursor walks live lanes only.
    for (auto it = level.lanes.begin(); it != level.lanes.end();) {
      it = it->second.empty() ? level.lanes.erase(it) : std::next(it);
    }
    if (level.lanes.empty()) return std::nullopt;
    auto lane = level.lanes.lower_bound(level.next_tenant);
    if (lane == level.lanes.end()) lane = level.lanes.begin();  // wrap
    T item = std::move(lane->second.front());
    lane->second.pop_front();
    const auto following = std::next(lane);
    level.next_tenant =
        following == level.lanes.end() ? std::string() : following->first;
    return item;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<Level> levels_ = std::vector<Level>(3);
  std::size_t size_ = 0;
  bool closed_ = false;
  JobQueueStats stats_;
};

}  // namespace clockmark::serve
