#include "sim/trace_stream.h"

#include <algorithm>
#include <stdexcept>

namespace clockmark::sim {

ScenarioTraceStream::ScenarioTraceStream(const Scenario& scenario,
                                         std::size_t repetition,
                                         std::size_t chunk_cycles)
    : scenario_(scenario),
      repetition_(repetition),
      chunk_cycles_(chunk_cycles),
      total_cycles_(scenario.config().trace_cycles),
      true_rotation_(scenario.true_rotation(repetition)),
      pattern_(scenario.model_pattern_),
      // The deterministic base trace from the shared per-Scenario cache —
      // the one O(trace) allocation of the stream, shared with run().
      background_(&scenario.cached_deterministic_traces().background),
      kernel_(scenario.acquisition_config(repetition),
              scenario.cached_deterministic_traces().clock_hz) {
  if (chunk_cycles_ == 0) {
    throw std::invalid_argument(
        "ScenarioTraceStream: chunk_cycles must be > 0");
  }
  const std::size_t min_first_chunk =
      scenario.config().acquisition.trigger_sim ==
              measure::TriggerSim::kAligned
          ? 8    // the PDN priming window
          : 9;   // priming window + the partial first cycle the offset eats
  if (chunk_cycles_ < min_first_chunk && total_cycles_ > chunk_cycles_) {
    throw std::invalid_argument(
        "ScenarioTraceStream: chunk_cycles must cover the 8-cycle PDN "
        "priming window (9 cycles with a trigger offset)");
  }

  // The whole-trace passes before acquiring — range (the scope range is
  // chosen from the full waveform) and, for trigger-offset captures,
  // trigger (the edge phase is folded from the full digitised waveform)
  // — each replay the synthesis from cycle 0 with a fresh overlay.
  const auto replay = [this](auto feed) {
    SynthCursor cursor;
    cursor.overlay = make_overlay();
    while (cursor.position < total_cycles_) {
      const std::size_t n =
          std::min(chunk_cycles_, total_cycles_ - cursor.position);
      feed(synthesize(cursor, n));
    }
  };
  if (kernel_.needs_range_pass()) {
    replay([this](const std::vector<double>& c) { kernel_.range_feed(c); });
    kernel_.fix_range();
  }
  if (kernel_.needs_trigger_pass()) {
    replay([this](const std::vector<double>& c) { kernel_.trigger_feed(c); });
    kernel_.fix_trigger();
  }
  acquire_cursor_.overlay = make_overlay();
}

std::unique_ptr<soc::Chip2NoiseOverlay> ScenarioTraceStream::make_overlay()
    const {
  if (scenario_.config_.chip != ChipModel::kChip2) return nullptr;
  return std::make_unique<soc::Chip2NoiseOverlay>(
      scenario_.overlay_config(repetition_), scenario_.config_.tech);
}

std::vector<double> ScenarioTraceStream::synthesize(SynthCursor& cursor,
                                                    std::size_t n) const {
  const ScenarioConfig& cfg = scenario_.config_;
  const auto& ch = scenario_.characterization_;
  const std::vector<double>& base = *background_;
  std::vector<double> total(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = cursor.position + i;
    // Background: the cached deterministic trace, with the chip II noise
    // overlay stepped in cycle order (the same draws the batch overlay
    // makes). Then the watermark tile — total[c] = bg[c] + wm[c], the
    // operator+= order of the batch path.
    const double bg =
        cursor.overlay ? cursor.overlay->step(base[c]) : base[c];
    const double wm = cfg.watermark_active
                          ? ch.power_w[(true_rotation_ + c) % ch.period]
                          : ch.leakage_w;
    total[i] = bg + wm;
  }
  cursor.position += n;
  return total;
}

std::vector<double> ScenarioTraceStream::next() {
  if (position_ >= total_cycles_) return {};
  const std::size_t n = std::min(chunk_cycles_, total_cycles_ - position_);
  std::vector<double> y;
  kernel_.acquire_feed(synthesize(acquire_cursor_, n), y);
  position_ += n;
  return y;
}

std::unique_ptr<ScenarioTraceStream> Scenario::open_stream(
    std::size_t repetition, std::size_t chunk_cycles) const {
  return std::make_unique<ScenarioTraceStream>(*this, repetition,
                                               chunk_cycles);
}

}  // namespace clockmark::sim
