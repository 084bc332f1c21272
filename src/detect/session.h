// The unified detection facade: one Request → Session → Report flow in
// front of every way this repo can decide "watermark present?".
//
//   detect::Request   what to decide and how — detector policy, sweep
//                     method, the SyncPolicy (triggered / known offset /
//                     blind) with its warp or search config, and the
//                     streaming knobs (chunking, early stop, cycle
//                     budget).
//   detect::Session   the bound entry point. One Session runs any number
//                     of inputs: a materialised Y vector, a Scenario
//                     repetition, a live TraceSource, or a trace file.
//   detect::Report    the decision plus everything that produced it —
//                     the full cpa::DetectionResult, the blind-lock
//                     SyncEstimate when one ran, the StreamReport of the
//                     run, the ScenarioResult for simulated inputs, and
//                     whether the run's engine came from the cache.
//
// One loop, on the calling thread: every overload pulls chunks from a
// stream::TraceSource into one OnlineDetector configured by
// stream_detector_config(request), and is the only library code that
// feeds a detector. Each chunk boundary is where governance applies: a
// chunk that arrives after the CancelToken fired is never ingested (and
// a cancelled run is not finalised: StreamReport::cancelled, decision
// left mid-stream); the chunk crossing Request::Streaming::max_cycles is
// trimmed to the budget and ends the stream. The loop stops pulling the
// moment the early-stop decision fires, so the source is never asked
// for a chunk past the decision. Every run takes its sweep engine (and a
// kBlind run its lock engine) from the session's EngineCache.
//   * run(span) and run(scenario) chunk the materialised trace through a
//     stream::SpanSource under whole_trace(request) — early stop off and
//     the blind lock on the full trace — the configuration under which
//     the streamed decision equals the batch composition find_sync →
//     warp_trace → cpa::Detector::detect bit for bit (asserted in
//     tests/test_detect.cpp for every SyncPolicy on chips I and II). A
//     trace shorter than one pattern period is "not detected" with a
//     reason.
//   * run(TraceSource&) honours the request's streaming knobs as given;
//     with early stop off and lock_cycles >= the stream length it equals
//     run(span) over the concatenated chunks.
//   * run_file replays write_trace_* output bit-exactly, and uses the
//     CMTRACE2 / "# meta" capture metadata to pick the sync handling
//     when the request allows it (with_file_meta).
// Streamed inputs fail closed: a source that throws mid-stream makes
// run(TraceSource&) / run_file throw its error (a throw that is not a
// std::exception becomes std::runtime_error("unknown source failure")),
// never a verdict over the prefix. kNaive needs the whole trace in
// memory and is rejected with std::invalid_argument; it stays the oracle
// of cpa::correlate_rotations.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cpa/detector.h"
#include "detect/engine_cache.h"
#include "runtime/cancel.h"
#include "sim/scenario.h"
#include "stream/online_detector.h"
#include "stream/trace_source.h"
#include "sync/types.h"

namespace clockmark::measure {
struct TraceMeta;
}

namespace clockmark::runtime {
class Executor;
}

namespace clockmark::detect {

/// What to decide and how. Default-constructed = the paper's triggered
/// batch detection with the repo-default thresholds.
struct Request {
  cpa::DetectorPolicy policy;  ///< decision thresholds (z, isolation, guard)
  cpa::CorrelationMethod method = cpa::CorrelationMethod::kFft;

  /// Alignment handling (sync/types.h). kTriggered trusts the input,
  /// kKnownOffset applies `known_warp` before CPA, kBlind runs the
  /// coarse-to-fine search (sync/search.h) configured by `blind`.
  sync::SyncPolicy sync = sync::SyncPolicy::kTriggered;
  sync::WarpSpec known_warp;
  sync::BlindSyncConfig blind;
  /// kBlind, run(TraceSource&) / run_file only (span and scenario runs
  /// lock on the full trace): raw cycles buffered before the lock runs
  /// mid-stream; 0 = four pattern periods (see OnlineDetectorConfig).
  std::size_t lock_cycles = 0;

  /// The detection loop's knobs. Span and scenario runs use only
  /// chunk_cycles and max_cycles (whole_trace() turns early stop off);
  /// streamed inputs honour them all.
  struct Streaming {
    std::size_t chunk_cycles = 4096;
    bool early_stop = true;
    double confidence_threshold = 0.999;
    std::size_t consecutive_evaluations = 3;
    std::size_t evaluate_every_chunks = 1;
    std::size_t min_cycles = 0;  ///< 0 = one pattern period
    /// Cycle budget: the loop stops feeding after this many raw cycles
    /// and decides on that prefix (0 = unlimited) — the governance knob
    /// for unbounded captures.
    std::size_t max_cycles = 0;
  };
  Streaming streaming;

  /// run_file: when the file's capture metadata records a trigger
  /// offset and the request is kTriggered, upgrade to kKnownOffset with
  /// that offset instead of trusting the alignment. An explicit
  /// kKnownOffset / kBlind request always wins over the metadata.
  bool use_file_meta = true;
};

/// The detection loop's own account of a run.
struct StreamReport {
  stream::OnlineDecision decision;
  std::size_t chunks = 0;  ///< chunks ingested by the detector
  bool cancelled = false;  ///< stopped by the CancelToken, not finalised
};

/// The decision and everything behind it. Optional members are set by
/// the paths that produce them and left empty otherwise.
struct Report {
  bool detected = false;
  double confidence = 0.0;          ///< cpa::detection_confidence
  cpa::DetectionResult detection;   ///< full spectrum + reason
  std::size_t cycles = 0;           ///< raw input cycles the decision used
  /// Sync outcome when a correction was applied (kKnownOffset echoes the
  /// requested warp; kBlind reports the recovered estimate).
  std::optional<sync::SyncEstimate> sync;
  std::optional<StreamReport> stream;           ///< the loop's counters
  std::optional<sim::ScenarioResult> scenario;  ///< simulated inputs
  /// The run's engine (sweep, and kBlind lock) was served by the
  /// EngineCache, not built for this run.
  bool engine_hit = false;
};

/// The OnlineDetector configuration a Request maps to — the one
/// translation the Session loop uses, public so that external drivers
/// of an OnlineDetector reproduce Session's verdicts bit for bit.
stream::OnlineDetectorConfig stream_detector_config(const Request& request);

/// Folds an OnlineDecision into a Report under `request` — verdict,
/// confidence, cycles, and the sync echo for kKnownOffset
/// (Report.stream / .scenario / .engine_hit are left for the caller).
Report report_from_decision(const stream::OnlineDecision& decision,
                            const Request& request);

class Session {
 public:
  /// Binds a request and the expected watermark pattern (one period of
  /// WMARK). The pattern may be empty only if every run goes through the
  /// Scenario overload, which carries its own pattern. A non-null
  /// `engines` cache is shared (e.g. across a service's sessions);
  /// otherwise the Session owns a private one.
  explicit Session(Request request = {}, std::vector<double> pattern = {},
                   std::shared_ptr<EngineCache> engines = nullptr);

  /// Detection over a materialised per-cycle power trace: chunked
  /// through the loop under whole_trace(request()). The executor, when
  /// non-null, parallelises the blind search and the sweep; output is
  /// bit-identical at any thread count.
  Report run(std::span<const double> y,
             runtime::Executor* executor = nullptr) const;

  /// Simulates one scenario repetition (Scenario::run) and decides on
  /// its Y vector with the scenario's own pattern, as run(span) does.
  /// Report.scenario holds the full ScenarioResult.
  Report run(const sim::Scenario& scenario, std::size_t repetition = 0,
             runtime::Executor* executor = nullptr) const;

  /// Streams the source through the loop with the request's sync policy
  /// and streaming knobs. A cancel on `cancel` stops the loop at the
  /// next chunk boundary without finalising (Report.stream->cancelled);
  /// a throwing source makes this throw its error.
  Report run(stream::TraceSource& source,
             runtime::Executor* executor = nullptr,
             const runtime::CancelToken& cancel = {}) const;

  /// Replays a trace file (CSV / CMTRACE binary) through the loop. With
  /// use_file_meta, a recorded trigger offset upgrades a kTriggered
  /// request to kKnownOffset (see Request).
  Report run_file(const std::string& path,
                  runtime::Executor* executor = nullptr) const;

  /// The whole-trace translation run(span) and run(scenario) apply (and
  /// the service's JobMode::kBatch): early stop off and the blind lock
  /// deferred to the end of the input, so the decision covers all of it.
  static Request whole_trace(Request request);

  /// The metadata upgrade run_file applies, exposed for callers that
  /// stream file-shaped payloads themselves (the service receives
  /// CMTRACE2 frames over the wire): when `request` is kTriggered, the
  /// metadata upgrade is allowed (use_file_meta) and the capture
  /// records a trigger offset, returns the request upgraded to
  /// kKnownOffset with the compensating warp; otherwise returns the
  /// request unchanged.
  static Request with_file_meta(Request request,
                                const measure::TraceMeta& meta);

  const Request& request() const noexcept { return request_; }
  const std::vector<double>& pattern() const noexcept { return pattern_; }
  /// The shared engine cache (never null). Its stats answer "how often
  /// did runs reuse an engine?".
  const std::shared_ptr<EngineCache>& engines() const noexcept {
    return engine_cache_;
  }

 private:
  void require_pattern() const;
  Report run_stream(stream::TraceSource& source, const Request& request,
                    const std::vector<double>& pattern,
                    runtime::Executor* executor,
                    const runtime::CancelToken& cancel) const;

  Request request_;
  std::vector<double> pattern_;
  std::shared_ptr<EngineCache> engine_cache_;
};

}  // namespace clockmark::detect
