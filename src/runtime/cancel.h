// Cooperative cancellation: a CancelSource flips a flag, any number of
// CancelToken copies observe it. Cancellation in the detection loop is
// *cooperative by design* — a CPA sweep or a blind-search probe is not
// interruptible mid-kernel, so detect::Session's loop checks the token
// at its safe points (each chunk boundary and before finalisation) and
// a cancel lands at the next one. std::stop_token would fit, but a
// 20-line shared atomic keeps the dependency surface at "what the repo
// already uses" and makes the memory-order story explicit.
#pragma once

#include <atomic>
#include <memory>

namespace clockmark::runtime {

class CancelToken {
 public:
  /// A default token is never cancelled.
  CancelToken() = default;

  /// True once the owning source requested cancellation. Relaxed order
  /// is enough: the flag carries no data, and a check that narrowly
  /// misses the flip just runs to the next boundary.
  bool cancelled() const noexcept {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<std::atomic<bool>> flag_;
};

class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancelToken token() const { return CancelToken(flag_); }
  void cancel() noexcept { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace clockmark::runtime
