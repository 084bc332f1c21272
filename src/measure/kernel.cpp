#include "measure/kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "measure/chain_internal.h"
#include "util/rng.h"

namespace clockmark::measure {

// One pass's analog chain state. The waveform expansion is per-cycle
// pure, but the PDN low-pass, the probe filter and the two noise streams
// all carry state from sample to sample — exactly the state the
// reference path threads implicitly by processing the whole waveform in
// one call. Both noise streams fork from the same base stream (and with
// the same salts) as the reference path, so the draw sequences are
// identical. Trigger-offset streams also carry the sample cursor, the
// previous digitised sample (edge fold) and the partial averaging
// window across feeds.
struct AcquisitionKernel::Pass {
  Pass(const AcquisitionConfig& config, double fs)
      : probe_filter(config.probe.bandwidth_hz, config.probe.sample_rate_hz),
        noise(detail::fork_noise(config.noise_seed)) {
    if (config.enable_pdn_filter) pdn.emplace(config.pdn_cutoff_hz, fs);
  }

  std::optional<dsp::OnePoleLowPass> pdn;
  dsp::OnePoleLowPass probe_filter;
  detail::NoiseStreams noise;
  bool primed = false;
  std::size_t prime_samples = 0;  ///< samples the DC priming averaged

  std::size_t stream_pos = 0;  ///< samples of the (offset) stream done
  std::size_t cycles_in = 0;   ///< input cycles consumed by past feeds
  double prev_sample = 0.0;    ///< last digitised sample (edge fold)
  double win_sum = 0.0;        ///< partial averaging window (align pass)
  std::size_t win_count = 0;
};

AcquisitionKernel::AcquisitionKernel(const AcquisitionConfig& config,
                                     double clock_hz)
    : config_(config) {
  detail::ChainSetup setup =
      detail::make_chain_setup(config_, clock_hz, "AcquisitionKernel");
  template_ = std::move(setup.pulse);
  block_cycles_ = setup.block_cycles;
  sample_rate_hz_ = setup.sample_rate_hz;

  const std::size_t spc = config_.waveform.samples_per_cycle;
  wave_.resize(block_cycles_ * spc);
  noise_.resize(block_cycles_ * spc);

  if (config_.trigger_sim != TriggerSim::kAligned) {
    if (spc > 1) {
      if (config_.trigger_sim == TriggerSim::kRandomOffset) {
        // The same derivation the reference path uses, so both paths
        // simulate the identical capture start for a given noise seed.
        util::Pcg32 offset_rng(config_.noise_seed ^ 0x7219a9ULL, 0x0ff5e7u);
        offset_ = offset_rng.bounded(static_cast<std::uint32_t>(spc));
      } else {
        offset_ = config_.trigger_offset_samples % spc;
      }
    }
    edge_fold_.assign(spc, 0.0);
  }
}

AcquisitionKernel::~AcquisitionKernel() = default;

bool AcquisitionKernel::needs_range_pass() const noexcept {
  return config_.range_policy == RangePolicy::kAutoRange;
}

bool AcquisitionKernel::needs_trigger_pass() const noexcept {
  return config_.trigger_sim != TriggerSim::kAligned;
}

void AcquisitionKernel::prime_pdn(Pass& pass,
                                  std::span<const double> cycle_power_w) {
  if (!pass.pdn || cycle_power_w.empty()) return;
  if (pass.primed) {
    if (pass.prime_samples < config_.waveform.samples_per_cycle * 8) {
      throw std::invalid_argument(
          "AcquisitionKernel: first chunk must span at least 8 cycles "
          "(9 with a trigger offset) — the PDN priming window");
    }
    return;
  }
  // The reference path primes the filter with the DC level of the first
  // min(stream, 8 cycles) samples of the (possibly offset) sample stream.
  const detail::PdnPriming priming =
      detail::pdn_priming(cycle_power_w, template_, config_.vdd_v, offset_);
  pass.pdn->reset(priming.dc_a);
  pass.primed = true;
  pass.prime_samples = priming.samples;
}

void AcquisitionKernel::run_pass(Pass& pass,
                                 std::span<const double> cycle_power_w,
                                 PassKind kind, std::vector<double>* y_out) {
  const std::size_t spc = config_.waveform.samples_per_cycle;
  const double spc_d = static_cast<double>(spc);
  const double vdd = config_.vdd_v;
  const double r_shunt = config_.shunt.resistance_ohm();
  const double gain = config_.probe.gain;
  const double probe_noise = config_.probe.noise_v_rms;

  // ADC grid (acquire/trigger passes; config_.scope holds the range).
  const double lsb = detail::lsb_volts(config_.scope);
  const double half_scale = config_.scope.full_scale_v / 2.0;
  const double offset_v = config_.scope.offset_v;
  const double scope_noise = config_.scope.noise_v_rms;
  const double max_code =
      static_cast<double>((1u << config_.scope.resolution_bits) - 1u);

  prime_pdn(pass, cycle_power_w);

  // Offset streams (simulated trigger offset): the sample stream is the
  // aligned waveform minus its first `offset_` samples, so blocks are no
  // longer cycle-aligned — synthesis walks a (cycle, template) cursor
  // and the acquire pass averages phase-aligned windows instead of
  // per-input-cycle blocks.
  const bool offset_stream = needs_trigger_pass();

  const double* tpl = template_.data();
  double* wave = wave_.data();
  double* noise = noise_.data();

  // The two one-pole recurrences are the serial backbone of the pipeline
  // (everything else is an independent-per-sample array pass). Pull
  // their state into locals for the block loop — through the Pass
  // pointer gcc must assume the wave stores could alias the filter
  // object and would reload the state every sample — and fuse
  // PDN -> shunt -> probe into one loop so the two dependency chains
  // overlap instead of paying their latency twice. The per-sample
  // dataflow (and thus every bit) is unchanged: each recurrence sees
  // exactly the inputs and state it saw as separate passes.
  const bool use_pdn = pass.pdn.has_value();
  const double pdn_alpha = use_pdn ? pass.pdn->alpha() : 0.0;
  double pdn_y = use_pdn ? pass.pdn->state() : 0.0;
  const double probe_alpha = pass.probe_filter.alpha();
  double probe_y = pass.probe_filter.state();

  for (std::size_t start = 0; start < cycle_power_w.size();
       start += block_cycles_) {
    const std::size_t bc =
        std::min(block_cycles_, cycle_power_w.size() - start);
    std::size_t sc;

    // 1. Chip current at sample rate (same ops as
    //    power::expand_to_current_waveform, block-resident).
    if (!offset_stream) {
      sc = bc * spc;
      for (std::size_t c = 0; c < bc; ++c) {
        const double avg_current = cycle_power_w[start + c] / vdd;
        const double scale = avg_current * spc_d;
        double* w = wave + c * spc;
        for (std::size_t i = 0; i < spc; ++i) w[i] = scale * tpl[i];
      }
    } else {
      const std::size_t g0 = pass.cycles_in + start;  // global first cycle
      sc = (g0 + bc) * spc - offset_ - pass.stream_pos;
      const std::size_t gp = pass.stream_pos + offset_;
      std::size_t cyc = gp / spc;  // global cycle of the next sample
      std::size_t tpl_i = gp % spc;
      double scale = cycle_power_w[start + (cyc - g0)] / vdd * spc_d;
      for (std::size_t j = 0; j < sc; ++j) {
        wave[j] = scale * tpl[tpl_i];
        if (++tpl_i == spc) {
          tpl_i = 0;
          ++cyc;
          if (j + 1 < sc) {
            scale = cycle_power_w[start + (cyc - g0)] / vdd * spc_d;
          }
        }
      }
    }

    // 2.-4. PDN low-pass -> shunt voltage -> probe bandwidth + gain +
    //    batched noise, fused. The noise block is drawn up front — same
    //    stream, same order as the per-sample reference — so the serial
    //    loop carries only the filter states.
    pass.noise.probe.fill_gaussian(std::span<double>(noise, sc), 0.0,
                                   probe_noise);

    if (kind == PassKind::kRange) {
      // Range pass: accumulate the exact min/max the reference scope's
      // auto_range would see over the full waveform. The per-sample
      // volts value is consumed by the min/max right away — nothing is
      // stored. Seeding with +/-inf is exact: min(inf, w) == w for the
      // first finite sample, so the result equals the reference's
      // first-element initialisation.
      double mn = volts_seen_ ? volts_min_
                              : std::numeric_limits<double>::infinity();
      double mx = volts_seen_ ? volts_max_
                              : -std::numeric_limits<double>::infinity();
      if (sc > 0) volts_seen_ = true;
      if (use_pdn) {
        for (std::size_t j = 0; j < sc; ++j) {
          pdn_y = std::fma(pdn_alpha, wave[j] - pdn_y, pdn_y);
          const double v = pdn_y * r_shunt;
          probe_y = std::fma(probe_alpha, v - probe_y, probe_y);
          const double w = probe_y * gain + noise[j];
          mn = std::min(mn, w);
          mx = std::max(mx, w);
        }
      } else {
        for (std::size_t j = 0; j < sc; ++j) {
          const double v = wave[j] * r_shunt;
          probe_y = std::fma(probe_alpha, v - probe_y, probe_y);
          const double w = probe_y * gain + noise[j];
          mn = std::min(mn, w);
          mx = std::max(mx, w);
        }
      }
      volts_min_ = mn;
      volts_max_ = mx;
      pass.stream_pos += sc;
      continue;
    }

    if (use_pdn) {
      for (std::size_t j = 0; j < sc; ++j) {
        pdn_y = std::fma(pdn_alpha, wave[j] - pdn_y, pdn_y);
        const double v = pdn_y * r_shunt;
        probe_y = std::fma(probe_alpha, v - probe_y, probe_y);
        wave[j] = probe_y * gain + noise[j];
      }
    } else {
      for (std::size_t j = 0; j < sc; ++j) {
        const double v = wave[j] * r_shunt;
        probe_y = std::fma(probe_alpha, v - probe_y, probe_y);
        wave[j] = probe_y * gain + noise[j];
      }
    }

    // 5. Oscilloscope: batched front-end noise, clip, quantise,
    //    reconstruct. All in the double domain so the loop vectorizes:
    //    the code values are small integers, for which floor/clamp on
    //    doubles is bit-identical to the reference's long round-trip.
    pass.noise.scope.fill_gaussian(std::span<double>(noise, sc), 0.0,
                                   scope_noise);
    for (std::size_t j = 0; j < sc; ++j) {
      const double noisy = wave[j] + noise[j] - offset_v;
      const double clipped =
          std::clamp(noisy, -half_scale, half_scale - lsb);
      double code = std::floor((clipped + half_scale) / lsb);
      code = std::clamp(code, 0.0, max_code);
      wave[j] = (code + 0.5) * lsb - half_scale + offset_v;
    }

    if (kind == PassKind::kTrigger) {
      // Fold the positive first-differences of the digitised stream
      // modulo spc — the exact estimate_trigger_phase accumulation, in
      // the same sample order (the fold bins are written in increasing
      // stream index, so the FP sums match the batch fold bit for bit).
      for (std::size_t j = 0; j < sc; ++j) {
        const std::size_t i = pass.stream_pos + j;
        const double v = wave[j];
        if (i > 0) {
          const double d = v - pass.prev_sample;
          if (d > 0.0) edge_fold_[i % spc] += d;
        }
        pass.prev_sample = v;
      }
    } else if (!offset_stream) {
      // 6. Back to chip power, averaged per clock cycle (Y vector). The
      //    running sum crosses block boundaries in cycle order, so the
      //    mean matches the reference's single accumulation chain.
      for (std::size_t c = 0; c < bc; ++c) {
        const double* w = wave + c * spc;
        double s = 0.0;
        for (std::size_t i = 0; i < spc; ++i) s += w[i];
        const double averaged = s / spc_d;
        const double current_a = (averaged / gain) / r_shunt;
        const double y = current_a * vdd;
        y_out->push_back(y);
        sum_power_w_ += y;
      }
      cycles_out_ += bc;
    } else {
      // 6'. Trigger-offset acquire: drop the first `phase_` samples
      //    (align_to_trigger) and average consecutive spc-sample
      //    windows (block_average), the partial window carried across
      //    feeds; a trailing partial window is never emitted — exactly
      //    the reference's trailing-drop semantics.
      for (std::size_t j = 0; j < sc; ++j) {
        const std::size_t i = pass.stream_pos + j;
        if (i < phase_) continue;
        pass.win_sum += wave[j];
        if (++pass.win_count == spc) {
          const double averaged = pass.win_sum / spc_d;
          const double current_a = (averaged / gain) / r_shunt;
          const double y = current_a * vdd;
          y_out->push_back(y);
          sum_power_w_ += y;
          ++cycles_out_;
          pass.win_sum = 0.0;
          pass.win_count = 0;
        }
      }
    }
    pass.stream_pos += sc;
  }
  pass.cycles_in += cycle_power_w.size();

  // Hand the register-resident recurrence states back to the pass so the
  // next feed resumes exactly where this one stopped.
  if (use_pdn) pass.pdn->reset(pdn_y);
  pass.probe_filter.reset(probe_y);
}

void AcquisitionKernel::range_feed(std::span<const double> cycle_power_w) {
  if (range_fixed_) {
    throw std::logic_error("AcquisitionKernel: range already fixed");
  }
  if (!range_pass_) {
    range_pass_ = std::make_unique<Pass>(config_, sample_rate_hz_);
  }
  run_pass(*range_pass_, cycle_power_w, PassKind::kRange, nullptr);
}

void AcquisitionKernel::fix_range() {
  if (range_fixed_) return;
  // Oscilloscope::auto_range over the full waveform — the chunk-wise
  // min/max is exact, so the chosen range is identical.
  if (volts_seen_) detail::auto_range(config_.scope, volts_min_, volts_max_);
  range_fixed_ = true;
  range_pass_.reset();  // the acquire pass re-creates the analog chain
}

void AcquisitionKernel::trigger_feed(std::span<const double> cycle_power_w) {
  if (!needs_trigger_pass()) {
    throw std::logic_error(
        "AcquisitionKernel: no trigger pass configured (trigger_sim is "
        "kAligned)");
  }
  if (trigger_fixed_) {
    throw std::logic_error("AcquisitionKernel: trigger already fixed");
  }
  if (needs_range_pass() && !range_fixed_) {
    throw std::logic_error(
        "AcquisitionKernel: fix the range before the trigger pass (the "
        "edge fold runs on the digitised stream)");
  }
  if (!trigger_pass_) {
    trigger_pass_ = std::make_unique<Pass>(config_, sample_rate_hz_);
  }
  run_pass(*trigger_pass_, cycle_power_w, PassKind::kTrigger, nullptr);
}

void AcquisitionKernel::fix_trigger() {
  if (trigger_fixed_) return;
  trigger_fixed_ = true;
  if (!needs_trigger_pass()) return;
  // Same decision rule as estimate_trigger_phase: streams shorter than
  // two cycles are assumed aligned; otherwise the phase is the bin with
  // the largest folded rising-edge energy (first maximum wins).
  const std::size_t spc = config_.waveform.samples_per_cycle;
  const std::size_t stream_len =
      trigger_pass_ ? trigger_pass_->stream_pos : 0;
  phase_ = 0;
  if (stream_len >= 2 * spc) {
    for (std::size_t p = 1; p < spc; ++p) {
      if (edge_fold_[p] > edge_fold_[phase_]) phase_ = p;
    }
  }
  trigger_pass_.reset();  // the acquire pass re-creates the analog chain
}

void AcquisitionKernel::acquire_feed(std::span<const double> cycle_power_w,
                                     std::vector<double>& y_out) {
  if (needs_range_pass() && !range_fixed_) {
    throw std::logic_error(
        "AcquisitionKernel: run the range pass (range_feed + fix_range) "
        "before acquiring");
  }
  if (needs_trigger_pass() && !trigger_fixed_) {
    throw std::logic_error(
        "AcquisitionKernel: run the trigger pass (trigger_feed + "
        "fix_trigger) before acquiring");
  }
  if (!acquire_pass_) {
    acquire_pass_ = std::make_unique<Pass>(config_, sample_rate_hz_);
  }
  y_out.reserve(y_out.size() + cycle_power_w.size());
  run_pass(*acquire_pass_, cycle_power_w, PassKind::kAcquire, &y_out);
}

AcquisitionKernel::Summary AcquisitionKernel::summary() const {
  Summary s;
  s.cycles = cycles_out_;
  s.mean_power_w =
      cycles_out_ > 0 ? sum_power_w_ / static_cast<double>(cycles_out_)
                      : 0.0;
  s.lsb_power_w =
      detail::lsb_power_w(config_, detail::lsb_volts(config_.scope));
  return s;
}

Acquisition AcquisitionKernel::acquire(
    std::span<const double> cycle_power_w) {
  if (needs_range_pass()) {
    range_feed(cycle_power_w);
    fix_range();
  }
  if (needs_trigger_pass()) {
    trigger_feed(cycle_power_w);
    fix_trigger();
  }
  Acquisition out;
  acquire_feed(cycle_power_w, out.per_cycle_power_w);
  const Summary s = summary();
  out.mean_power_w = s.mean_power_w;
  out.lsb_power_w = s.lsb_power_w;
  return out;
}

}  // namespace clockmark::measure
