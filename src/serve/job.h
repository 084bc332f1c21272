// The service's unit of work. A JobSpec is everything one detection
// needs — who asked (tenant), how to decide (detect::Request + the
// expected pattern), and what to decide on (exactly one payload:
// an inline trace, a simulator scenario reference, a trace file path,
// or an in-process TraceSource factory — the test seam). A JobResult is
// the verdict plus the operational telemetry a service owes its
// callers: where the time went (queued vs running) and whether the
// shared caches carried the job.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "detect/session.h"
#include "measure/trace_io.h"
#include "serve/broker.h"
#include "serve/queue.h"

namespace clockmark::stream {
class TraceSource;
}

namespace clockmark::serve {

/// How the verdict is produced.
enum class JobMode : int {
  /// Decide over the complete input: early stop is forced off and a
  /// kBlind lock waits for the full trace, so the verdict is
  /// bit-identical to batch detect::Session::run over the same input
  /// (the facade's streamed ≡ batch contract).
  kBatch = 0,
  /// Honour the request's streaming knobs as-is (early stop, mid-stream
  /// blind lock) — bit-identical to detect::Session::run(TraceSource&).
  kStream = 1,
};

/// A simulator-backed payload: enough to reconstruct the Scenario
/// deterministically on the service side (the broker memoizes the
/// expensive gate-level characterisation across jobs and tenants).
/// Matching tests' fast_config, the noise overrides keep short traces
/// deterministic; 0 = keep the chip default.
struct ScenarioRef {
  int chip = 1;  ///< 1 = chip I (hard macro), 2 = chip II (RTL-embedded)
  std::size_t trace_cycles = 300000;
  std::uint64_t seed = 1;
  std::size_t repetition = 0;
  bool watermark_active = true;
  double scope_noise_v_rms = 0.0;
  double probe_noise_v_rms = 0.0;
};

/// The per-job cycle budget is request.streaming.max_cycles.
struct JobSpec {
  std::string tenant = "default";
  JobPriority priority = JobPriority::kNormal;
  JobMode mode = JobMode::kBatch;
  detect::Request request;
  /// Expected watermark pattern (one period of WMARK). Required for
  /// every payload except `scenario`, which carries its own.
  std::vector<double> pattern;

  /// Exactly one of the four payloads below.
  std::optional<std::vector<double>> trace;  ///< inline per-cycle trace
  measure::TraceMeta trace_meta;             ///< capture metadata for `trace`
  std::optional<ScenarioRef> scenario;
  std::string trace_file;  ///< non-empty = replay this CSV/CMTRACE file
  /// In-process source factory (tests: latch-gated sources for the
  /// cancellation-at-chunk-boundary assertions). Not serialisable.
  std::function<std::unique_ptr<stream::TraceSource>()> source_fn;
};

enum class JobStatus : int {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,       ///< verdict produced (detected either way)
  kCancelled = 3,  ///< stopped at a chunk boundary or pulled from queue
  kFailed = 4,     ///< payload/detector threw; see error
  kRejected = 5,   ///< never queued (bad spec, full queue, shutdown)
};

struct JobTiming {
  double queue_s = 0.0;  ///< submit → worker pickup
  double run_s = 0.0;    ///< worker pickup → verdict
};

/// Did the shared caches carry this job? The per-job booleans are exact
/// (sampled at acquisition time, not inferred from racy global
/// counters); `broker` is the broker-wide snapshot after the job.
struct JobCacheStats {
  bool engine_hit = false;    ///< the run's engine served from cache
  bool scenario_hit = false;  ///< scenario characterisation reused
  BrokerStats broker;
};

struct JobResult {
  std::uint64_t id = 0;
  std::string tenant;
  JobStatus status = JobStatus::kQueued;
  detect::Report report;  ///< meaningful when status == kDone
  std::string error;      ///< kFailed / kRejected reason
  JobTiming timing;
  JobCacheStats cache;
};

/// Handle returned by DetectionService::submit. The future is shared so
/// callers can hand copies to waiters; it is fulfilled exactly once,
/// whatever the outcome (including rejection).
struct JobTicket {
  std::uint64_t id = 0;
  std::shared_future<JobResult> result;
};

}  // namespace clockmark::serve
