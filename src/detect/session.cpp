#include "detect/session.h"

#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "measure/trace_io.h"

namespace clockmark::detect {

Session::Session(Request request, std::vector<double> pattern,
                 std::shared_ptr<EngineCache> engines)
    : request_(std::move(request)),
      pattern_(std::move(pattern)),
      engine_cache_(engines != nullptr ? std::move(engines)
                                       : std::make_shared<EngineCache>()) {}

void Session::require_pattern() const {
  if (pattern_.empty()) {
    throw std::logic_error(
        "detect::Session: no pattern bound; construct the Session with the "
        "expected watermark pattern (or use the Scenario overload)");
  }
}

Report Session::run(std::span<const double> y,
                    runtime::Executor* executor) const {
  require_pattern();
  stream::SpanSource source(y, request_.streaming.chunk_cycles);
  return run_stream(source, whole_trace(request_), pattern_, executor, {});
}

Report Session::run(const sim::Scenario& scenario, std::size_t repetition,
                    runtime::Executor* executor) const {
  sim::ScenarioResult result = scenario.run(repetition);
  stream::SpanSource source(result.acquisition.per_cycle_power_w,
                            request_.streaming.chunk_cycles);
  Report report = run_stream(source, whole_trace(request_), result.pattern,
                             executor, {});
  report.scenario = std::move(result);
  return report;
}

Report Session::run(stream::TraceSource& source, runtime::Executor* executor,
                    const runtime::CancelToken& cancel) const {
  require_pattern();
  return run_stream(source, request_, pattern_, executor, cancel);
}

Report Session::run_file(const std::string& path,
                         runtime::Executor* executor) const {
  require_pattern();
  stream::ReplaySource source(path, request_.streaming.chunk_cycles);
  return run_stream(source, with_file_meta(request_, source.meta()),
                    pattern_, executor, {});
}

namespace {

/// The source's next chunk. A throw that is not a std::exception becomes
/// one, so callers that catch std::exception (the service's worker)
/// still fail the run.
std::optional<stream::Chunk> pull(stream::TraceSource& source) {
  try {
    return source.next();
  } catch (const std::exception&) {
    throw;
  } catch (...) {
    throw std::runtime_error("unknown source failure");
  }
}

}  // namespace

Report Session::run_stream(stream::TraceSource& source,
                           const Request& request,
                           const std::vector<double>& pattern,
                           runtime::Executor* executor,
                           const runtime::CancelToken& cancel) const {
  stream::OnlineDetectorConfig config = stream_detector_config(request);
  bool engine_hit = false;
  config.engine = engine_cache_->acquire(pattern, &engine_hit);
  // Built before the first pull, so a rejected configuration throws
  // without touching the source.
  stream::OnlineDetector detector(pattern, std::move(config));
  const std::size_t budget = request.streaming.max_cycles;

  StreamReport sr;
  while (!cancel.cancelled()) {
    std::optional<stream::Chunk> chunk = pull(source);
    // The chunk boundary: nothing that arrives after a cancel, or lies
    // wholly past the budget, reaches the detector.
    if (!chunk || cancel.cancelled()) break;
    if (budget != 0) {
      if (chunk->start_cycle >= budget) break;
      if (chunk->end_cycle() > budget) {
        chunk->values.resize(budget - chunk->start_cycle);
      }
    }
    ++sr.chunks;
    if (detector.ingest(*chunk, executor)) break;
    if (budget != 0 && chunk->end_cycle() >= budget) break;
  }

  sr.cancelled = cancel.cancelled();
  sr.decision =
      sr.cancelled ? detector.decision() : detector.finalize(executor);
  Report report = report_from_decision(sr.decision, request);
  report.engine_hit = engine_hit;
  report.stream = std::move(sr);
  return report;
}

Request Session::whole_trace(Request request) {
  request.streaming.early_stop = false;
  request.lock_cycles = std::numeric_limits<std::size_t>::max();
  return request;
}

stream::OnlineDetectorConfig stream_detector_config(const Request& request) {
  stream::OnlineDetectorConfig d;
  d.policy = request.policy;
  d.method = request.method;
  d.early_stop = request.streaming.early_stop;
  d.confidence_threshold = request.streaming.confidence_threshold;
  d.consecutive_evaluations = request.streaming.consecutive_evaluations;
  d.evaluate_every_chunks = request.streaming.evaluate_every_chunks;
  d.min_cycles = request.streaming.min_cycles;
  d.sync_policy = request.sync;
  d.known_warp = request.known_warp;
  d.blind = request.blind;
  d.lock_cycles = request.lock_cycles;
  return d;
}

Report report_from_decision(const stream::OnlineDecision& decision,
                            const Request& request) {
  Report report;
  report.detection = decision.result;
  report.detected = decision.detected;
  report.confidence = decision.confidence;
  report.cycles =
      decision.decided ? decision.decision_cycles : decision.cycles;
  report.sync = decision.sync;
  if (!report.sync && request.sync == sync::SyncPolicy::kKnownOffset &&
      !request.known_warp.is_identity()) {
    sync::SyncEstimate applied;
    applied.correction = request.known_warp;
    applied.locked = true;
    report.sync = applied;
  }
  return report;
}

Request Session::with_file_meta(Request request,
                                const measure::TraceMeta& meta) {
  if (request.use_file_meta && request.sync == sync::SyncPolicy::kTriggered &&
      meta.trigger_offset_cycles != 0.0) {
    request.sync = sync::SyncPolicy::kKnownOffset;
    request.known_warp = sync::WarpSpec{};
    // The metadata records the misalignment (a capture that started m
    // cycles late reads y[m + k]); the warp is the correction applied on
    // top, so it must shift the other way — the same convention as
    // SyncEstimate, whose offset_cycles is -correction.offset_cycles.
    request.known_warp.offset_cycles = -meta.trigger_offset_cycles;
  }
  return request;
}

}  // namespace clockmark::detect
