#include "stream/trace_source.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace clockmark::stream {

std::vector<Chunk> chop(std::span<const double> y, std::size_t chunk_cycles) {
  SpanSource source(y, chunk_cycles);
  std::vector<Chunk> chunks;
  chunks.reserve((y.size() + chunk_cycles - 1) / chunk_cycles);
  while (auto chunk = source.next()) chunks.push_back(std::move(*chunk));
  return chunks;
}

SpanSource::SpanSource(std::span<const double> y, std::size_t chunk_cycles)
    : y_(y), chunk_cycles_(chunk_cycles) {
  if (chunk_cycles_ == 0) {
    throw std::invalid_argument("SpanSource: chunk_cycles must be > 0");
  }
}

std::optional<Chunk> SpanSource::next() {
  if (position_ >= y_.size()) return std::nullopt;
  const std::span<const double> values =
      y_.subspan(position_, std::min(chunk_cycles_, y_.size() - position_));
  Chunk chunk;
  chunk.index = index_++;
  chunk.start_cycle = position_;
  chunk.values.assign(values.begin(), values.end());
  position_ += values.size();
  return chunk;
}

CallbackSource::CallbackSource(std::function<std::optional<Chunk>()> fn,
                               std::size_t total_cycles)
    : fn_(std::move(fn)), total_(total_cycles) {
  if (!fn_) {
    throw std::invalid_argument("CallbackSource: null callback");
  }
}

std::optional<Chunk> CallbackSource::next() { return fn_(); }

ScenarioSource::ScenarioSource(const sim::Scenario& scenario,
                               std::size_t repetition,
                               std::size_t chunk_cycles)
    : stream_(scenario.open_stream(repetition, chunk_cycles)) {}

std::optional<Chunk> ScenarioSource::next() {
  // start_cycle counts emitted Y cycles, not input cycles: with a
  // simulated trigger offset the acquisition loses up to one cycle at
  // the front, so the two counters diverge (and a warm-up feed can even
  // emit nothing — skip it rather than ending the stream).
  for (;;) {
    std::vector<double> values = stream_->next();
    if (values.empty()) {
      if (stream_->position() < stream_->total_cycles()) continue;
      return std::nullopt;
    }
    Chunk chunk;
    chunk.index = index_++;
    chunk.start_cycle = emitted_;
    emitted_ += values.size();
    chunk.values = std::move(values);
    return chunk;
  }
}

std::size_t ScenarioSource::total_cycles() const {
  return stream_->total_cycles();
}

ReplaySource::ReplaySource(const std::string& path, std::size_t chunk_cycles)
    : reader_(path),
      chunk_cycles_(chunk_cycles),
      total_(reader_.total_cycles().value_or(0)) {
  if (chunk_cycles_ == 0) {
    throw std::invalid_argument("ReplaySource: chunk_cycles must be > 0");
  }
}

std::optional<Chunk> ReplaySource::next() {
  Chunk chunk;
  chunk.values.resize(chunk_cycles_);
  const std::size_t got = reader_.read(chunk.values);
  if (got == 0) return std::nullopt;
  chunk.values.resize(got);
  chunk.index = index_++;
  chunk.start_cycle = position_;
  position_ += got;
  return chunk;
}

}  // namespace clockmark::stream
