#include "measure/chain_internal.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace clockmark::measure::detail {

namespace {
/// Block sizing target: a block of ~4096 samples keeps the scratch walks
/// (synthesize, noise, filter, quantise, average) inside L1/L2.
constexpr std::size_t kBlockSamplesTarget = 4096;
}  // namespace

ChainSetup make_chain_setup(const AcquisitionConfig& config, double clock_hz,
                            const char* who) {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (config.probe.sample_rate_hz != config.scope.sample_rate_hz) {
    fail("probe/scope sample rates must match");
  }
  if (clock_hz <= 0.0) fail("clock_hz must be > 0");
  if (config.scope.resolution_bits < 2 || config.scope.resolution_bits > 16) {
    fail("resolution must be 2..16 bit");
  }
  if (config.scope.full_scale_v <= 0.0) fail("full scale must be > 0");

  ChainSetup setup;
  // cycle_pulse_template throws on samples_per_cycle == 0.
  setup.pulse = power::cycle_pulse_template(config.waveform);
  const std::size_t spc = config.waveform.samples_per_cycle;
  setup.block_cycles =
      config.block_cycles > 0
          ? config.block_cycles
          : std::max<std::size_t>(8, kBlockSamplesTarget / spc);
  setup.sample_rate_hz = clock_hz * static_cast<double>(spc);
  return setup;
}

NoiseStreams fork_noise(std::uint64_t noise_seed) {
  util::Pcg32 base(noise_seed, 0x0b5e7fa11ULL);
  return NoiseStreams{base.fork(1), base.fork(2)};
}

PdnPriming pdn_priming(std::span<const double> cycle_power_w,
                       std::span<const double> pulse, double vdd_v,
                       std::size_t offset) {
  const std::size_t spc = pulse.size();
  const double spc_d = static_cast<double>(spc);
  const std::size_t settle =
      std::min(cycle_power_w.size() * spc - offset, spc * 8);
  double dc = 0.0;
  std::size_t tpl_i = offset;
  std::size_t cyc = 0;
  double scale = cycle_power_w[0] / vdd_v * spc_d;
  for (std::size_t i = 0; i < settle; ++i) {
    dc += scale * pulse[tpl_i];
    if (++tpl_i == spc) {
      tpl_i = 0;
      ++cyc;
      if (i + 1 < settle) scale = cycle_power_w[cyc] / vdd_v * spc_d;
    }
  }
  return PdnPriming{dc / static_cast<double>(settle), settle};
}

void auto_range(OscilloscopeConfig& scope, double volts_min,
                double volts_max) {
  const double span = std::max(volts_max - volts_min, 1e-9);
  scope.offset_v = (volts_max + volts_min) / 2.0;
  scope.full_scale_v = span / 0.8;
}

double lsb_volts(const OscilloscopeConfig& scope) {
  return scope.full_scale_v / static_cast<double>(1u << scope.resolution_bits);
}

double lsb_power_w(const AcquisitionConfig& config, double lsb_v) {
  return lsb_v / config.shunt.resistance_ohm() / config.probe.gain *
         config.vdd_v;
}

}  // namespace clockmark::measure::detail
