// Chunked synthesis of a Scenario repetition: the per-cycle CPA
// measurement Y produced one whole-cycle chunk at a time, without ever
// materialising the sample-rate waveform or the full Y vector — the
// bounded-memory producer behind stream::ScenarioSource.
//
// Exactness: concatenating every chunk of a stream reproduces
// Scenario::run(repetition).acquisition.per_cycle_power_w bit for bit
// (asserted in tests). The deterministic background comes from the same
// per-Scenario cache run() uses; the chip II noise overlay and the
// measurement chain consume their seeded RNG streams sample by sample in
// the same order as the batch path, and the scope's auto-range (and, for
// trigger-offset captures, the edge-trigger phase) is learned by
// streaming the analog chain through measure::AcquisitionKernel's range
// (and trigger) pass before the acquire pass, so chunk boundaries never
// shift a single draw. This is the one chunked driver of the kernel's
// passes: it synthesises each chunk on the fly, so it replays the
// synthesis once per pass instead of holding the whole trace.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "measure/kernel.h"
#include "sim/scenario.h"
#include "soc/chip2.h"

namespace clockmark::sim {

class ScenarioTraceStream {
 public:
  /// Build via Scenario::open_stream.
  ScenarioTraceStream(const Scenario& scenario, std::size_t repetition,
                      std::size_t chunk_cycles);

  /// Next chunk of per-cycle Y values (up to chunk_cycles; empty once the
  /// trace is exhausted). Chunks are contiguous from cycle 0.
  std::vector<double> next();

  /// Absolute cycle offset of the next chunk (== cycles emitted so far).
  std::size_t position() const noexcept { return position_; }
  std::size_t total_cycles() const noexcept { return total_cycles_; }
  std::size_t chunk_cycles() const noexcept { return chunk_cycles_; }

  /// One period of the CPA model pattern and where its peak should land —
  /// the same values ScenarioResult carries.
  const std::vector<double>& pattern() const noexcept { return pattern_; }
  std::size_t true_rotation() const noexcept { return true_rotation_; }

  /// Acquisition metadata; matches run(repetition).acquisition's
  /// mean_power_w and lsb_power_w once the stream has been drained.
  measure::AcquisitionKernel::Summary summary() const {
    return kernel_.summary();
  }

 private:
  /// Synthesises total device power for cycles [position, position+n) in
  /// stream order; one instance per pass so the chip II overlay RNG
  /// replays identically in the range and acquire passes.
  struct SynthCursor {
    std::size_t position = 0;
    std::unique_ptr<soc::Chip2NoiseOverlay> overlay;  ///< chip II only
  };

  std::vector<double> synthesize(SynthCursor& cursor, std::size_t n) const;
  std::unique_ptr<soc::Chip2NoiseOverlay> make_overlay() const;

  const Scenario& scenario_;
  std::size_t repetition_;
  std::size_t chunk_cycles_;
  std::size_t total_cycles_;
  std::size_t true_rotation_ = 0;
  std::vector<double> pattern_;
  const std::vector<double>* background_ = nullptr;  ///< cached base trace
  SynthCursor acquire_cursor_;
  measure::AcquisitionKernel kernel_;
  std::size_t position_ = 0;
};

}  // namespace clockmark::sim
