// Sources for the detection loop: anything that can hand out the
// next whole-cycle chunk of a per-cycle power trace, in cycle order.
//
//   ScenarioSource  pulls chunks from a sim::Scenario repetition via its
//                   chunked synthesis entry point (Scenario::open_stream)
//                   — no full trace is ever materialised.
//   ReplaySource    streams a CSV / CMTRACE binary trace file written by
//                   measure::write_trace_* or any scope export the
//                   trace_detect example already reads; capture metadata
//                   (time base, known trigger offset) is exposed so
//                   detection can pick a SyncPolicy.
//   SpanSource      chunks a materialised trace (detect::Session's span
//                   and scenario runs, inline service payloads), copying
//                   one chunk at a time — never the whole trace.
//   CallbackSource  wraps a std::function — the test seam, and the hook
//                   for gluing in an external capture process.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "measure/trace_io.h"
#include "sim/trace_stream.h"
#include "stream/chunk.h"

namespace clockmark::stream {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Next chunk in cycle order (chunk.start_cycle equals the previous
  /// chunk's end_cycle; the first chunk starts at cycle 0). nullopt =
  /// end of stream. Throws on source failure — detect::Session then
  /// throws that error instead of deciding on the prefix.
  virtual std::optional<Chunk> next() = 0;

  /// Total cycles when known up front; 0 = unknown / unbounded.
  virtual std::size_t total_cycles() const { return 0; }
};

/// Splits a materialised trace into whole-cycle chunks (tests, and the
/// batch-vs-streaming comparisons in the bench): SpanSource, drained.
std::vector<Chunk> chop(std::span<const double> y, std::size_t chunk_cycles);

class SpanSource : public TraceSource {
 public:
  /// The trace must outlive the source. Throws std::invalid_argument
  /// for chunk_cycles == 0.
  SpanSource(std::span<const double> y, std::size_t chunk_cycles);

  std::optional<Chunk> next() override;
  std::size_t total_cycles() const override { return y_.size(); }

 private:
  std::span<const double> y_;
  std::size_t chunk_cycles_;
  std::size_t index_ = 0;
  std::size_t position_ = 0;
};

class CallbackSource : public TraceSource {
 public:
  explicit CallbackSource(std::function<std::optional<Chunk>()> fn,
                          std::size_t total_cycles = 0);

  std::optional<Chunk> next() override;
  std::size_t total_cycles() const override { return total_; }

 private:
  std::function<std::optional<Chunk>()> fn_;
  std::size_t total_;
};

class ScenarioSource : public TraceSource {
 public:
  /// The scenario must outlive the source. Each source owns one
  /// repetition's stream; distinct repetitions can stream concurrently
  /// from the same Scenario (the run() thread-safety contract).
  ScenarioSource(const sim::Scenario& scenario, std::size_t repetition,
                 std::size_t chunk_cycles = 4096);

  std::optional<Chunk> next() override;
  std::size_t total_cycles() const override;

  /// CPA model pattern / expected peak of this repetition.
  const std::vector<double>& pattern() const { return stream_->pattern(); }
  std::size_t true_rotation() const { return stream_->true_rotation(); }

 private:
  std::unique_ptr<sim::ScenarioTraceStream> stream_;
  std::size_t index_ = 0;
  std::size_t emitted_ = 0;  ///< Y cycles handed out so far
};

class ReplaySource : public TraceSource {
 public:
  explicit ReplaySource(const std::string& path,
                        std::size_t chunk_cycles = 4096);

  std::optional<Chunk> next() override;
  std::size_t total_cycles() const override { return total_; }

  /// Capture metadata persisted in the file (default for v1 files).
  const measure::TraceMeta& meta() const noexcept { return reader_.meta(); }

 private:
  measure::TraceFileReader reader_;
  std::size_t chunk_cycles_;
  std::size_t total_;  ///< 0 for CSV (unknown until drained)
  std::size_t index_ = 0;
  std::size_t position_ = 0;
};

}  // namespace clockmark::stream
