// Internal to cm_measure: the setup and scalar arithmetic of the Fig. 4(b)
// chain that both fused kernels share — AcquisitionKernel (kernel.cpp)
// and BatchAcquisitionKernel (batch_kernel.cpp) — so each decision has
// exactly one home. Defined in chain_internal.cpp, inside cm_measure, so
// it compiles under the same hot-path floating-point flags
// (-ffp-contract=off) as the kernels whose bits it decides.
//
// AcquisitionChain::acquire_reference deliberately keeps its own copy of
// this arithmetic: it is the independent oracle the kernels are asserted
// bit-identical to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "measure/acquisition.h"
#include "util/rng.h"

namespace clockmark::measure::detail {

/// The lane-invariant part of a kernel: validated config, pulse template
/// and block length.
struct ChainSetup {
  std::vector<double> pulse;      ///< per-cycle pulse template (sums to 1)
  std::size_t block_cycles = 0;   ///< whole cycles per processing block
  double sample_rate_hz = 0.0;    ///< clock_hz * samples_per_cycle
};

/// Validates `config` for a chip clocked at `clock_hz` — probe/scope
/// rates match, clock > 0, and the checks the reference Oscilloscope
/// makes (2..16-bit resolution, positive full scale) — then builds the
/// pulse template and sizes the blocks (config.block_cycles, or ~4096
/// samples and at least 8 cycles, which keeps the scratch walks inside
/// L1/L2). Throws std::invalid_argument with messages prefixed by `who`.
ChainSetup make_chain_setup(const AcquisitionConfig& config, double clock_hz,
                            const char* who);

/// The probe and scope noise streams of one repetition, forked from
/// `noise_seed` exactly as the reference path forks them. fork() does
/// not advance the base, so every pass that re-forks replays the same
/// draws.
struct NoiseStreams {
  util::Pcg32 probe;
  util::Pcg32 scope;
};
NoiseStreams fork_noise(std::uint64_t noise_seed);

/// The DC level that primes the PDN low-pass: the mean of the first
/// min(stream, 8 cycles) samples of the current waveform that starts
/// `offset` samples into cycle 0, summed in the reference's order (each
/// sample is recomputed from the pulse template; nothing is buffered).
/// `cycle_power_w` must be non-empty.
struct PdnPriming {
  double dc_a = 0.0;        ///< primed filter state (current, A)
  std::size_t samples = 0;  ///< length of the averaging window
};
PdnPriming pdn_priming(std::span<const double> cycle_power_w,
                       std::span<const double> pulse, double vdd_v,
                       std::size_t offset);

/// Oscilloscope::auto_range for a waveform spanning [volts_min,
/// volts_max]: centre the screen and let the waveform fill ~80 % of it.
void auto_range(OscilloscopeConfig& scope, double volts_min,
                double volts_max);

/// One ADC code in volts (Oscilloscope::lsb_v).
double lsb_volts(const OscilloscopeConfig& scope);

/// One ADC code of `lsb_v` volts expressed as chip power.
double lsb_power_w(const AcquisitionConfig& config, double lsb_v);

}  // namespace clockmark::measure::detail
