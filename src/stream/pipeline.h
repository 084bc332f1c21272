// The one detection loop: Source → BoundedQueue → OnlineDetector.
// detect::Session routes every input through it — a materialised trace
// and a Scenario repetition as a SpanSource under the whole-trace
// request, a live source or trace file as-is — and the cm_serve service
// runs its jobs through Session, so no other library code feeds a
// detector.
//
// The producer thread pulls chunks from the TraceSource and pushes them
// into a bounded queue (backpressure: a slow detector stalls acquisition
// rather than buffering the whole trace). The calling thread is the
// single consumer — chunks are ingested strictly in order, which is what
// keeps the online fold bit-identical to the batch sweep. Parallelism in
// the detection math itself comes from the runtime::Executor handed to
// run(), which fans the per-rotation evaluation sweep out over its
// workers.
//
// Governance lives at the producer's chunk boundary, where each chunk
// arrives from the source:
//   cancel      a chunk that arrives after the CancelToken fired is never
//               queued; chunks queued before it are still ingested, and
//               a cancel seen before finalisation skips it
//               (StreamReport::cancelled, decision left mid-stream).
//   max_cycles  the chunk crossing the budget is trimmed to it and ends
//               the stream; the verdict is that of the prefix.
//
// Failure: a throwing source poisons the queue; the consumer surfaces
// that as StreamReport::source_failed + error instead of a clean end and
// does not finalise over the prefix. An early-stop decision closes the
// queue, which unblocks and stops the producer — acquisition ends the
// moment the decision fires.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/cancel.h"
#include "stream/bounded_queue.h"
#include "stream/online_detector.h"
#include "stream/trace_source.h"

namespace clockmark::runtime {
class Executor;
}

namespace clockmark::stream {

struct StreamPipelineConfig {
  std::size_t queue_capacity = 8;  ///< chunks buffered between stages
  /// Raw cycles fed to the detector before the stream is cut (0 = no
  /// limit).
  std::size_t max_cycles = 0;
  OnlineDetectorConfig detector;
};

struct StreamReport {
  OnlineDecision decision;
  QueueStats queue;
  std::size_t chunks_produced = 0;  ///< chunks the source handed out
  std::size_t chunks_consumed = 0;  ///< chunks the detector ingested
  /// Peak bytes held in Chunk buffers (queue high-water * chunk bytes) —
  /// the streaming side of the memory comparison in the bench.
  std::size_t peak_buffered_bytes = 0;
  bool cancelled = false;  ///< stopped by the CancelToken, not finalised
  bool source_failed = false;
  std::string error;
};

class StreamPipeline {
 public:
  explicit StreamPipeline(StreamPipelineConfig config = {});

  /// Runs the source to completion (or early stop / budget / cancel /
  /// failure) against an online detector for `pattern`. The executor,
  /// when non-null, parallelises the per-rotation evaluation sweep
  /// (bit-identical at any thread count). Throws what the detector's
  /// constructor throws (e.g. kNaive) before touching the source.
  StreamReport run(TraceSource& source, std::vector<double> pattern,
                   runtime::Executor* executor = nullptr,
                   const runtime::CancelToken& cancel = {}) const;

  const StreamPipelineConfig& config() const noexcept { return config_; }

 private:
  StreamPipelineConfig config_;
};

}  // namespace clockmark::stream
