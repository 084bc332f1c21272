#include "measure/acquisition.h"

#include <algorithm>
#include <stdexcept>

#include "measure/kernel.h"
#include "measure/trigger.h"
#include "util/rng.h"

namespace clockmark::measure {

AcquisitionChain::AcquisitionChain(const AcquisitionConfig& config)
    : config_(config) {
  const double fs = config_.probe.sample_rate_hz;
  if (fs != config_.scope.sample_rate_hz) {
    throw std::invalid_argument(
        "AcquisitionChain: probe/scope sample rates must match");
  }
}

Acquisition AcquisitionChain::measure(const power::PowerTrace& device_power) {
  return AcquisitionKernel(config_, device_power.clock_hz())
      .acquire(device_power.span());
}

Acquisition AcquisitionChain::acquire_reference(
    const power::PowerTrace& device_power) {
  const std::size_t spc = config_.waveform.samples_per_cycle;
  const double fs = device_power.clock_hz() * static_cast<double>(spc);
  const bool sim_offset = config_.trigger_sim != TriggerSim::kAligned;

  // 1. Chip current at sample rate.
  std::vector<double> current = power::expand_to_current_waveform(
      device_power, config_.vdd_v, config_.waveform);

  // Optional: the capture starts at an arbitrary point inside a cycle.
  util::Pcg32 offset_rng(config_.noise_seed ^ 0x7219a9ULL, 0x0ff5e7u);
  if (sim_offset && spc > 1 && !current.empty()) {
    const std::size_t offset =
        config_.trigger_sim == TriggerSim::kRandomOffset
            ? offset_rng.bounded(static_cast<std::uint32_t>(spc))
            : config_.trigger_offset_samples % spc;
    current.erase(current.begin(),
                  current.begin() + static_cast<long>(
                                        std::min(offset, current.size())));
  }

  // 2. PDN decoupling low-pass (what the shunt actually sees).
  if (config_.enable_pdn_filter) {
    dsp::OnePoleLowPass pdn(config_.pdn_cutoff_hz, fs);
    // Prime the filter with the DC level (mean of the first cycles) so
    // the trace does not start with a settling transient.
    if (!current.empty()) {
      const std::size_t settle =
          std::min<std::size_t>(current.size(), spc * 8);
      double dc = 0.0;
      for (std::size_t i = 0; i < settle; ++i) dc += current[i];
      pdn.reset(dc / static_cast<double>(settle));
    }
    pdn.process(current);
  }

  // 3. Shunt voltage.
  std::vector<double> volts = config_.shunt.sense(current);

  // 4. Probe: bandwidth + gain + noise.
  util::Pcg32 rng(config_.noise_seed, 0x0b5e7fa11ULL);
  Probe probe(config_.probe, rng.fork(1));
  probe.process(volts);

  // 5. Oscilloscope: range, noise, quantisation.
  Oscilloscope scope(config_.scope, rng.fork(2));
  if (config_.range_policy == RangePolicy::kAutoRange) {
    scope.auto_range(volts);
  }
  std::vector<double> acquired = scope.acquire(volts);

  // Recover cycle alignment with the software edge trigger.
  if (sim_offset) {
    acquired = auto_align(acquired, spc);
  }

  // 6. Back to chip power, averaged per clock cycle (Y vector).
  Acquisition result;
  result.lsb_power_w = scope.lsb_v() / config_.shunt.resistance_ohm() /
                       config_.probe.gain * config_.vdd_v;
  const auto averaged = dsp::block_average(acquired, spc);
  result.per_cycle_power_w.resize(averaged.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < averaged.size(); ++i) {
    const double current_a =
        config_.shunt.current(averaged[i] / config_.probe.gain);
    result.per_cycle_power_w[i] = current_a * config_.vdd_v;
    sum += result.per_cycle_power_w[i];
  }
  result.mean_power_w =
      averaged.empty() ? 0.0
                       : sum / static_cast<double>(averaged.size());
  return result;
}

}  // namespace clockmark::measure
