#include "stream/pipeline.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

namespace clockmark::stream {

StreamPipeline::StreamPipeline(StreamPipelineConfig config)
    : config_(std::move(config)) {}

StreamReport StreamPipeline::run(TraceSource& source,
                                 std::vector<double> pattern,
                                 runtime::Executor* executor,
                                 const runtime::CancelToken& cancel) const {
  // Built before the producer starts, so a rejected configuration
  // throws without a thread to unwind.
  OnlineDetector detector(std::move(pattern), config_.detector);
  StreamReport report;
  BoundedQueue<Chunk> queue(config_.queue_capacity);
  std::atomic<std::size_t> produced{0};
  const std::size_t budget = config_.max_cycles;
  std::string failure;  // the source's error; read only after the join

  std::thread producer([&] {
    try {
      while (auto chunk = source.next()) {
        produced.fetch_add(1, std::memory_order_relaxed);
        // The chunk boundary: nothing that arrives after a cancel, or
        // lies wholly past the budget, reaches the detector.
        if (cancel.cancelled()) break;
        if (budget != 0) {
          if (chunk->start_cycle >= budget) break;
          if (chunk->end_cycle() > budget) {
            chunk->values.resize(budget - chunk->start_cycle);
          }
        }
        const bool last = budget != 0 && chunk->end_cycle() >= budget;
        // A failed push means the consumer stopped.
        if (!queue.push(std::move(*chunk)) || last) break;
      }
      queue.close();
    } catch (const std::exception& e) {
      failure = e.what();
      queue.poison(failure);
    } catch (...) {
      failure = "unknown source failure";
      queue.poison(failure);
    }
  });

  std::size_t max_chunk_bytes = 0;
  try {
    while (auto chunk = queue.pop()) {
      max_chunk_bytes =
          std::max(max_chunk_bytes, chunk->values.size() * sizeof(double));
      const bool decided = detector.ingest(*chunk, executor);
      ++report.chunks_consumed;
      if (decided) {
        queue.close();  // stops the producer at its next push
        break;
      }
    }
  } catch (const QueuePoisoned&) {
    report.source_failed = true;
  } catch (...) {
    // Detector failure: stop the producer before rethrowing.
    queue.poison("consumer failed");
    producer.join();
    throw;
  }

  producer.join();
  if (report.source_failed) report.error = std::move(failure);
  report.cancelled = cancel.cancelled();
  report.decision = report.cancelled || report.source_failed
                        ? detector.decision()
                        : detector.finalize(executor);
  report.queue = queue.stats();
  report.chunks_produced = produced.load(std::memory_order_relaxed);
  // +1: the chunk in the consumer's hands while the queue sits at its
  // high-water mark.
  report.peak_buffered_bytes =
      (report.queue.high_water + 1) * max_chunk_bytes;
  return report;
}

}  // namespace clockmark::stream
