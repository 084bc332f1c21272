#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "sim/scenario.h"
#include "stream/trace_source.h"

namespace clockmark::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

std::string validate(const JobSpec& spec) {
  const int payloads = (spec.trace.has_value() ? 1 : 0) +
                       (spec.scenario.has_value() ? 1 : 0) +
                       (spec.trace_file.empty() ? 0 : 1) +
                       (spec.source_fn ? 1 : 0);
  if (payloads != 1) {
    return "JobSpec needs exactly one payload (trace, scenario, trace_file "
           "or source_fn); got " +
           std::to_string(payloads);
  }
  if (!spec.scenario.has_value() && spec.pattern.empty()) {
    return "JobSpec needs the expected watermark pattern for non-scenario "
           "payloads";
  }
  if (spec.tenant.empty()) {
    return "JobSpec needs a tenant id";
  }
  return {};
}

}  // namespace

struct DetectionService::JobState {
  std::uint64_t id = 0;
  JobSpec spec;
  runtime::CancelSource cancel;
  std::promise<JobResult> promise;
  std::shared_future<JobResult> future;
  Clock::time_point submitted_at;
};

DetectionService::DetectionService(ServiceConfig config,
                                   std::shared_ptr<ResourceBroker> broker)
    : config_(std::move(config)),
      broker_(broker != nullptr
                  ? std::move(broker)
                  : std::make_shared<ResourceBroker>(config_.broker)),
      queue_(config_.queue_capacity) {
  const std::size_t workers = std::max<std::size_t>(1, config_.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

DetectionService::~DetectionService() { shutdown(/*drain_queued=*/false); }

JobTicket DetectionService::submit(JobSpec spec) {
  auto state = std::make_shared<JobState>();
  state->spec = std::move(spec);
  state->future = state->promise.get_future().share();
  state->submitted_at = Clock::now();

  auto reject = [&](const std::string& why) {
    JobResult result;
    result.id = state->id;
    result.tenant = state->spec.tenant;
    result.status = JobStatus::kRejected;
    result.error = why;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++rejected_;
      if (state->id != 0) active_.erase(state->id);
    }
    idle_.notify_all();
    state->promise.set_value(std::move(result));
    return JobTicket{state->id, state->future};
  };

  if (const std::string why = validate(state->spec); !why.empty()) {
    return reject(why);
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) {
      // id stays 0: the job never entered the service.
    } else {
      state->id = next_id_++;
      ++submitted_;
      active_.emplace(state->id, state);
    }
  }
  if (state->id == 0) {
    return reject("service is shut down");
  }
  const JobPriority priority = state->spec.priority;
  const std::string tenant = state->spec.tenant;
  const bool queued =
      config_.reject_when_full
          ? queue_.try_push(state, priority, tenant)
          : queue_.push(state, priority, tenant);
  if (!queued) {
    return reject(config_.reject_when_full && !queue_.closed()
                      ? "queue full"
                      : "service is shutting down");
  }
  return JobTicket{state->id, state->future};
}

bool DetectionService::cancel(std::uint64_t id) {
  std::shared_ptr<JobState> state;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = active_.find(id);
    if (it == active_.end()) return false;  // unknown or already terminal
    state = it->second;
  }
  // Flag first: if the worker pops the job between here and try_remove,
  // it sees the flag before ingesting anything.
  state->cancel.cancel();
  auto removed = queue_.try_remove(
      [id](const std::shared_ptr<JobState>& s) { return s->id == id; });
  if (removed.has_value()) {
    JobResult result;
    result.id = id;
    result.tenant = state->spec.tenant;
    result.status = JobStatus::kCancelled;
    result.timing.queue_s = seconds_since(state->submitted_at, Clock::now());
    finish(state, std::move(result), /*was_running=*/false);
  }
  return true;
}

void DetectionService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] { return active_.empty(); });
}

void DetectionService::shutdown(bool drain_queued) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) {
      // Idempotent: a second call still joins below if the first is
      // mid-flight, but workers_ joins are guarded per-thread.
    }
    shut_down_ = true;
  }
  if (!drain_queued) {
    // Cancel running jobs (they stop at their next chunk boundary) and
    // resolve everything still queued.
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, state] : active_) state->cancel.cancel();
    }
    while (true) {
      auto removed = queue_.try_remove(
          [](const std::shared_ptr<JobState>&) { return true; });
      if (!removed.has_value()) break;
      const std::shared_ptr<JobState>& state = *removed;
      JobResult result;
      result.id = state->id;
      result.tenant = state->spec.tenant;
      result.status = JobStatus::kCancelled;
      result.timing.queue_s =
          seconds_since(state->submitted_at, Clock::now());
      finish(state, std::move(result), /*was_running=*/false);
    }
  }
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void DetectionService::worker_loop() {
  while (auto state = queue_.pop()) {
    run_job(*state);
  }
}

void DetectionService::run_job(const std::shared_ptr<JobState>& state) {
  const Clock::time_point picked_up = Clock::now();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++running_;
  }
  JobResult result;
  result.id = state->id;
  result.tenant = state->spec.tenant;
  result.timing.queue_s = seconds_since(state->submitted_at, picked_up);
  const runtime::CancelToken token = state->cancel.token();
  const JobSpec& spec = state->spec;

  if (token.cancelled()) {
    result.status = JobStatus::kCancelled;
    result.timing.run_s = seconds_since(picked_up, Clock::now());
    finish(state, std::move(result), /*was_running=*/true);
    return;
  }

  try {
    // Resolve the payload to a chunk source + pattern + request, then
    // hand all three to the one detection loop (detect::Session).
    detect::Request eff = spec.request;
    std::vector<double> pattern = spec.pattern;
    std::shared_ptr<const sim::Scenario> scenario;  // pins the broker entry
    std::unique_ptr<stream::TraceSource> source;
    if (spec.scenario.has_value()) {
      scenario = broker_->scenario(spec.tenant, *spec.scenario,
                                   &result.cache.scenario_hit);
      auto s = std::make_unique<stream::ScenarioSource>(
          *scenario, spec.scenario->repetition, config_.chunk_cycles);
      pattern = s->pattern();
      source = std::move(s);
    } else if (spec.trace.has_value()) {
      // Inline traces are file-shaped payloads (the wire carries them as
      // CMTRACE2 frames): honour the capture metadata like run_file does.
      eff = detect::Session::with_file_meta(eff, spec.trace_meta);
      source = std::make_unique<stream::SpanSource>(*spec.trace,
                                                    config_.chunk_cycles);
    } else if (!spec.trace_file.empty()) {
      auto s = std::make_unique<stream::ReplaySource>(
          spec.trace_file, eff.streaming.chunk_cycles);
      eff = detect::Session::with_file_meta(eff, s->meta());
      source = std::move(s);
    } else {
      source = spec.source_fn();
      if (source == nullptr) {
        throw std::runtime_error("source_fn returned no TraceSource");
      }
    }
    if (spec.mode == JobMode::kBatch) {
      eff = detect::Session::whole_trace(std::move(eff));
    }
    const detect::Session session(std::move(eff), std::move(pattern),
                                  broker_->engines());
    result.report = session.run(*source, config_.executor, token);
    result.cache.engine_hit = result.report.engine_hit;
    result.status = result.report.stream->cancelled ? JobStatus::kCancelled
                                                    : JobStatus::kDone;
  } catch (const std::exception& e) {
    result.status = JobStatus::kFailed;
    result.error = e.what();
  }
  result.timing.run_s = seconds_since(picked_up, Clock::now());
  result.cache.broker = broker_->stats();
  finish(state, std::move(result), /*was_running=*/true);
}

void DetectionService::finish(const std::shared_ptr<JobState>& state,
                              JobResult result, bool was_running) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    active_.erase(state->id);
    if (was_running) --running_;
    switch (result.status) {
      case JobStatus::kDone:
        ++completed_;
        break;
      case JobStatus::kCancelled:
        ++cancelled_;
        break;
      case JobStatus::kFailed:
        ++failed_;
        break;
      default:
        break;
    }
  }
  idle_.notify_all();
  // Callback before the future resolves: a caller returning from
  // future.get() can rely on its completion callback having run.
  if (config_.on_complete) config_.on_complete(result);
  state->promise.set_value(std::move(result));
}

ServiceStats DetectionService::stats() const {
  ServiceStats s;
  s.queue = queue_.stats();
  s.broker = broker_->stats();
  const std::lock_guard<std::mutex> lock(mu_);
  s.submitted = submitted_;
  s.completed = completed_;
  s.cancelled = cancelled_;
  s.failed = failed_;
  s.rejected = rejected_;
  s.running = running_;
  return s;
}

}  // namespace clockmark::serve
