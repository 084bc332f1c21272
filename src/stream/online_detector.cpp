#include "stream/online_detector.h"

#include <stdexcept>
#include <utility>

#include "cpa/confidence.h"
#include "sync/engine.h"
#include "sync/search.h"

namespace clockmark::stream {
namespace {

/// The sweep engine inside `shared` when it was built for `pattern`, so
/// one engine serves the blind lock and every evaluation; otherwise a
/// fresh one.
std::shared_ptr<const cpa::SpectrumEngine> spectrum_for(
    std::vector<double> pattern,
    const std::shared_ptr<const sync::CandidateEngine>& shared) {
  if (shared != nullptr && shared->pattern() == pattern) {
    return shared->spectrum();
  }
  return std::make_shared<const cpa::SpectrumEngine>(std::move(pattern));
}

}  // namespace

OnlineDetector::OnlineDetector(std::vector<double> pattern,
                               OnlineDetectorConfig config)
    : config_(config),
      accumulator_(spectrum_for(std::move(pattern), config.engine)),
      detector_(config.policy),
      min_cycles_(config.min_cycles == 0 ? accumulator_.pattern().size()
                                         : config.min_cycles),
      lock_cycles_(config.lock_cycles == 0
                       ? 4 * accumulator_.pattern().size()
                       : config.lock_cycles) {
  if (config_.method == cpa::CorrelationMethod::kNaive) {
    throw std::invalid_argument(
        "OnlineDetector: kNaive needs the materialised trace and cannot "
        "be streamed; use kFolded or kFft");
  }
  if (config_.consecutive_evaluations == 0) {
    config_.consecutive_evaluations = 1;
  }
  if (config_.evaluate_every_chunks == 0) {
    config_.evaluate_every_chunks = 1;
  }
  if (config_.sync_policy == sync::SyncPolicy::kKnownOffset &&
      !config_.known_warp.is_identity()) {
    warper_ = std::make_unique<sync::StreamWarper>(config_.known_warp);
  }
  if (config_.sync_policy == sync::SyncPolicy::kBlind) {
    engine_ = config_.engine != nullptr &&
                      config_.engine->spectrum() == accumulator_.engine()
                  ? config_.engine
                  : std::make_shared<const sync::CandidateEngine>(
                        accumulator_.engine());
  }
}

void OnlineDetector::feed_warped(std::span<const double> values) {
  warp_scratch_.clear();
  warper_->feed(values, warp_scratch_);
  if (!warp_scratch_.empty()) accumulator_.add(warp_scratch_);
}

void OnlineDetector::lock(runtime::Executor* executor) {
  sync::SyncEstimate est =
      sync::find_sync(*engine_, lock_buffer_, config_.blind, executor);
  decision_.sync = est;
  locked_ = true;
  if (est.correction.is_identity()) {
    // Identity correction (e.g. a too-short lock window): stream the
    // buffer straight through, no warper needed.
    if (!lock_buffer_.empty()) accumulator_.add(lock_buffer_);
  } else {
    warper_ = std::make_unique<sync::StreamWarper>(est.correction);
    feed_warped(lock_buffer_);
  }
  lock_buffer_.clear();
  lock_buffer_.shrink_to_fit();
}

bool OnlineDetector::ingest(const Chunk& chunk,
                            runtime::Executor* executor) {
  if (finalized_) {
    throw std::logic_error("OnlineDetector: ingest after finalize");
  }
  if (chunk.start_cycle != raw_cycles_) {
    throw std::invalid_argument(
        "OnlineDetector: chunk out of order (expected start_cycle " +
        std::to_string(raw_cycles_) + ", got " +
        std::to_string(chunk.start_cycle) + ")");
  }
  raw_cycles_ += chunk.values.size();

  if (config_.sync_policy == sync::SyncPolicy::kBlind && !locked_) {
    lock_buffer_.insert(lock_buffer_.end(), chunk.values.begin(),
                        chunk.values.end());
    if (lock_buffer_.size() >= lock_cycles_) lock(executor);
  } else if (warper_) {
    feed_warped(chunk.values);
  } else {
    accumulator_.add(chunk.values);
  }

  ++decision_.chunks;
  decision_.cycles = raw_cycles_;
  if (decision_.decided) return true;
  if (!config_.early_stop) return false;
  if (!accumulator_.ready() || accumulator_.cycles() < min_cycles_) {
    return false;
  }
  if (decision_.chunks % config_.evaluate_every_chunks != 0) return false;
  evaluate(executor);
  if (decision_.result.detected &&
      decision_.confidence >= config_.confidence_threshold) {
    if (++streak_ >= config_.consecutive_evaluations) {
      decision_.decided = true;
      decision_.detected = true;
      decision_.decision_cycles = raw_cycles_;
    }
  } else {
    streak_ = 0;
  }
  return decision_.decided;
}

const OnlineDecision& OnlineDetector::finalize(runtime::Executor* executor) {
  if (finalized_) return decision_;
  finalized_ = true;
  decision_.cycles = raw_cycles_;
  if (decision_.decided) return decision_;
  if (config_.sync_policy == sync::SyncPolicy::kBlind && !locked_) {
    // Stream ended inside the lock window: lock on everything we have.
    // With lock_cycles >= the stream length this is the batch-identical
    // path — the search sees the exact full trace.
    lock(executor);
  }
  if (warper_) {
    warp_scratch_.clear();
    warper_->finish(warp_scratch_);
    if (!warp_scratch_.empty()) accumulator_.add(warp_scratch_);
  }
  if (!accumulator_.ready()) {
    // Shorter than one pattern period: no sweep is defined, not detected.
    decision_.result = cpa::DetectionResult{};
    decision_.result.reason =
        "trace shorter than one pattern period; no decision possible";
    decision_.detected = false;
    decision_.decision_cycles = raw_cycles_;
    return decision_;
  }
  evaluate(executor);
  decision_.detected = decision_.result.detected;
  decision_.decision_cycles = raw_cycles_;
  return decision_;
}

void OnlineDetector::evaluate(runtime::Executor* executor) {
  cpa::SpreadSpectrum ss = accumulator_.spread_spectrum(
      config_.method, config_.policy.guard, executor);
  decision_.confidence = cpa::detection_confidence(ss);
  decision_.result = detector_.decide(std::move(ss));
  ++decision_.evaluations;
}

}  // namespace clockmark::stream
