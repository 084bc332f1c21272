// The detection service: jobs in, verdicts out, under governance.
//
// DetectionService runs a pool of worker threads over a FairQueue of
// JobSpecs. A worker resolves the job's payload to a stream::TraceSource
// and its pattern, then runs detect::Session — built over the broker's
// shared engine cache — on that source with the job's CancelToken. The
// service keeps no detection loop of its own: every promise below lives
// in Session's one loop or in the queue.
//
//   verdict fidelity   kBatch jobs run under Session::whole_trace (early
//                      stop off, full-trace blind lock), the translation
//                      Session::run(span) applies, so the verdict is
//                      bit-identical to Session::run over the same input;
//                      kStream jobs honour the streaming knobs and match
//                      Session::run(TraceSource&). Asserted in
//                      tests/test_serve.cpp for chips I and II.
//   cancellation       the job's CancelToken is checked at every chunk
//                      boundary and again before finalisation; a cancel
//                      lands at the next boundary (cooperative — a CPA
//                      kernel mid-sweep is never interrupted). Queued
//                      jobs are pulled straight out of the queue.
//   budgets            Request::streaming.max_cycles stops feeding after
//                      the budget and decides on what was ingested.
//   failures           a payload or source that throws resolves the job
//                      kFailed with the error text — never a verdict over
//                      a failed stream's prefix.
//   shared caches      scenario memos and blind-search engines come from
//                      the ResourceBroker; per-job hit telemetry rides
//                      back on the JobResult.
//   backpressure       the queue is bounded; submit() blocks (or
//                      rejects, with reject_when_full) when the service
//                      is saturated.
//   lifecycle          drain() waits for quiescence; shutdown() stops
//                      accepting, optionally drains, cancels what
//                      remains, and joins the workers. The destructor
//                      shuts down without draining.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/broker.h"
#include "serve/job.h"
#include "serve/queue.h"

namespace clockmark::runtime {
class Executor;
}

namespace clockmark::serve {

struct ServiceConfig {
  std::size_t workers = 1;
  std::size_t queue_capacity = 64;
  /// Full queue: false = submit() blocks (backpressure), true = the job
  /// is rejected immediately (its future resolves to kRejected).
  bool reject_when_full = false;
  /// Chunking of inline-trace and scenario payloads (file payloads use
  /// the request's streaming.chunk_cycles, matching Session::run_file).
  std::size_t chunk_cycles = 4096;
  /// Optional executor parallelising per-job detector work (the blind
  /// lock, the evaluation sweeps; the worker pulls the job's chunks
  /// itself). Verdicts are bit-identical with or without it. Not owned;
  /// must outlive the service.
  runtime::Executor* executor = nullptr;
  BrokerConfig broker;
  /// Invoked for each accepted job reaching a terminal state
  /// (completion, cancellation, failure), immediately before its future
  /// is fulfilled — on the worker thread, except for a still-queued
  /// cancel, which resolves on the canceller's thread. Submit-time
  /// rejections do not fire it (the submitter already holds the
  /// resolved future).
  std::function<void(const JobResult&)> on_complete;
};

struct ServiceStats {
  JobQueueStats queue;
  BrokerStats broker;
  std::size_t submitted = 0;
  std::size_t completed = 0;  ///< kDone
  std::size_t cancelled = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;
  std::size_t running = 0;  ///< jobs on a worker right now
};

class DetectionService {
 public:
  /// A null broker means the service owns a private one built from
  /// config.broker; passing one shares caches across services.
  explicit DetectionService(ServiceConfig config = {},
                            std::shared_ptr<ResourceBroker> broker = nullptr);
  ~DetectionService();

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Validates and enqueues the job. Always returns a ticket whose
  /// future is eventually fulfilled; an invalid spec, a full queue
  /// (reject_when_full) or a shut-down service fulfil it immediately
  /// with kRejected.
  JobTicket submit(JobSpec spec);

  /// Requests cancellation. A still-queued job is removed and resolved
  /// kCancelled on the caller's thread; a running job stops at its next
  /// chunk boundary. Returns false when the id is unknown or already
  /// terminal.
  bool cancel(std::uint64_t id);

  /// Blocks until every job accepted so far has reached a terminal
  /// state. New submits stay possible (drain is a checkpoint, not a
  /// shutdown).
  void drain();

  /// Stops accepting jobs, then either drains the queue (drain_queued)
  /// or cancels everything still queued, and joins the workers.
  /// Idempotent.
  void shutdown(bool drain_queued = true);

  ServiceStats stats() const;
  const std::shared_ptr<ResourceBroker>& broker() const noexcept {
    return broker_;
  }

 private:
  struct JobState;

  void worker_loop();
  void run_job(const std::shared_ptr<JobState>& state);
  void finish(const std::shared_ptr<JobState>& state, JobResult result,
              bool invoke_callback);

  ServiceConfig config_;
  std::shared_ptr<ResourceBroker> broker_;
  FairQueue<std::shared_ptr<JobState>> queue_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable idle_;
  std::map<std::uint64_t, std::shared_ptr<JobState>> active_;  ///< not terminal
  std::uint64_t next_id_ = 1;
  bool shut_down_ = false;
  std::size_t running_ = 0;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t failed_ = 0;
  std::size_t rejected_ = 0;
};

}  // namespace clockmark::serve
