// End-to-end acquisition pipeline — the simulator-side equivalent of the
// paper's test bench (Fig. 4(b)): chip current -> PDN decoupling ->
// 270 mOhm shunt -> active probe -> oscilloscope ADC -> per-cycle
// averaging into the CPA measurement vector Y.
//
// The PDN (power delivery network) stage matters: on-board decoupling
// capacitance low-passes the current seen by the shunt, attenuating the
// cycle-rate watermark square wave by more than an order of magnitude.
// This — together with ADC quantisation — is why the paper's correlation
// peaks are ~0.015 rather than ~0.5 even though the watermark block draws
// milliwatts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsp/filter.h"
#include "measure/oscilloscope.h"
#include "measure/probe.h"
#include "measure/shunt.h"
#include "power/trace.h"
#include "power/waveform.h"

namespace clockmark::measure {

/// How the scope's vertical range is chosen.
enum class RangePolicy {
  /// Learn the range from the full waveform's min/max before acquiring
  /// (the two-pass operator workflow; the historical default).
  kAutoRange,
  /// Use OscilloscopeConfig::{full_scale_v, offset_v} as configured.
  kFixedRange,
};

/// Whether (and how) the capture start is misaligned inside a clock
/// cycle — the single-shot un-triggered capture study. Alignment is
/// recovered in-pipeline by the software edge trigger (measure/
/// trigger.h); the averaged trace then loses up to one cycle at the
/// front and one at the back.
enum class TriggerSim {
  kAligned,       ///< capture starts exactly on a cycle boundary
  kRandomOffset,  ///< offset drawn from the noise seed (the paper study)
  kFixedOffset,   ///< offset = trigger_offset_samples (mod spc)
};

struct AcquisitionConfig {
  power::WaveformOptions waveform;  ///< sub-cycle current synthesis
  double vdd_v = 1.2;
  /// PDN low-pass cutoff seen by the shunt (board decoupling).
  double pdn_cutoff_hz = 400.0e3;
  bool enable_pdn_filter = true;
  ShuntResistor shunt{0.270};
  ProbeConfig probe;
  OscilloscopeConfig scope;
  RangePolicy range_policy = RangePolicy::kAutoRange;
  TriggerSim trigger_sim = TriggerSim::kAligned;
  /// Capture-start offset in samples for TriggerSim::kFixedOffset
  /// (taken modulo samples_per_cycle).
  std::size_t trigger_offset_samples = 0;
  /// Whole-cycle block length of the fused kernel (0 = pick a block of
  /// ~4096 samples, at least 8 cycles). Exposed for the block-size
  /// invariance tests; results never depend on it.
  std::size_t block_cycles = 0;
  std::uint64_t noise_seed = 1;
};

/// The acquired measurement, ready for CPA.
struct Acquisition {
  std::vector<double> per_cycle_power_w;  ///< Y: 50-sample averages
  double mean_power_w = 0.0;
  double lsb_power_w = 0.0;  ///< one ADC code expressed as chip power
};

class AcquisitionChain {
 public:
  explicit AcquisitionChain(const AcquisitionConfig& config);

  /// Measures a device power trace: expands to a sample-rate current
  /// waveform, runs the analog chain + ADC, block-averages back to one
  /// power value per clock cycle. One call to the fused
  /// measure::AcquisitionKernel::acquire (see kernel.h), which drives
  /// the range, trigger (TriggerSim != kAligned only) and acquire
  /// passes.
  Acquisition measure(const power::PowerTrace& device_power);

  /// The original materialise-then-filter-then-quantise pipeline, kept
  /// purely as the per-sample test oracle: the fused kernel is asserted
  /// bit-identical to it (tests/test_measure_kernel.cpp) and it remains
  /// the reference-vs-fused baseline for bench/abl_acq_speed. No
  /// production path calls it.
  Acquisition acquire_reference(const power::PowerTrace& device_power);

  const AcquisitionConfig& config() const noexcept { return config_; }

 private:
  AcquisitionConfig config_;
};

}  // namespace clockmark::measure
