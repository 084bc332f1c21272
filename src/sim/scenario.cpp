#include "sim/scenario.h"

#include <algorithm>
#include <utility>

#include "cpu/programs.h"
#include "runtime/seed.h"

namespace clockmark::sim {
namespace {

/// Cached tiled-watermark rotations per scenario. Pinned-phase studies
/// only ever see one rotation; unpinned studies draw a fresh rotation
/// per repetition, and an unbounded cache would grow by trace_cycles
/// doubles each time. Beyond the cap the tiling is computed per call
/// (identical values either way — tiling is deterministic).
constexpr std::size_t kTiledCacheCap = 8;

}  // namespace

Scenario::Scenario(const ScenarioConfig& config)
    : config_(config), cache_(std::make_unique<TraceCache>()) {
  if (config_.program.empty()) {
    config_.program = cpu::dhrystone_like_source();
  }
  // Build + characterise the watermark block once. The clock source net
  // is the chip root clock; the block is its own module subtree.
  const rtl::NetId root_clock = netlist_.add_net("clk");
  watermark_ = watermark::build_clock_modulation_watermark(
      netlist_, "watermark", root_clock, config_.watermark);

  wgc::WgcSequence seq(config_.watermark.wgc);
  characterization_ = watermark::characterize_watermark(
      netlist_, root_clock, watermark_.wmark, "watermark", seq.period(),
      config_.tech);

  // CPA model pattern: one canonical period of WMARK, built once here
  // instead of per repetition (no call site mutates result.pattern).
  model_pattern_.resize(characterization_.period);
  for (std::size_t i = 0; i < model_pattern_.size(); ++i) {
    model_pattern_[i] = characterization_.wmark_bits[i] ? 1.0 : 0.0;
  }
}

soc::Chip1Config Scenario::m0_config() const {
  soc::Chip1Config m0;
  m0.program = config_.program;
  m0.tech = config_.tech;
  return m0;
}

power::PowerTrace Scenario::run_background(std::size_t repetition) const {
  if (config_.chip == ChipModel::kChip1) {
    soc::Chip1Soc chip(m0_config());
    return chip.run(config_.trace_cycles, "chip1-background");
  }
  soc::Chip2Config c2;
  c2.m0_soc = m0_config();
  c2.a5_core = config_.a5_core;
  c2.fabric_power_w = config_.fabric_power_w;
  c2.fabric_jitter = config_.fabric_jitter;
  c2.noise_seed = runtime::derive_background_seed(config_.seed, repetition);
  soc::Chip2Soc chip(c2);
  return chip.run(config_.trace_cycles, "chip2-background");
}

const Scenario::TraceCache& Scenario::cached_deterministic_traces() const {
  std::call_once(cache_->background_once, [this] {
    // The deterministic base is the M0 SoC trace for both chips: chip I
    // uses it as the whole background, chip II overlays the seeded
    // A5/fabric noise on top (soc::Chip2NoiseOverlay). A fresh Chip1Soc
    // produces the same trace every time (no RNG anywhere in it).
    soc::Chip1Soc chip(m0_config());
    const auto trace = chip.run(config_.trace_cycles, "m0-base");
    cache_->background = trace.values();
    cache_->clock_hz = trace.clock_hz();
  });
  return *cache_;
}

std::shared_ptr<const std::vector<double>> Scenario::tiled_watermark(
    std::size_t rotation) const {
  {
    std::lock_guard<std::mutex> lock(cache_->tiled_mutex);
    for (const auto& [rot, trace] : cache_->tiled) {
      if (rot == rotation) return trace;
    }
  }
  // Tile outside the lock; a racing thread may tile the same rotation,
  // first insert wins and the values are identical.
  auto tiled = std::make_shared<const std::vector<double>>(
      watermark::tile_watermark_power(characterization_,
                                      config_.trace_cycles, rotation));
  std::lock_guard<std::mutex> lock(cache_->tiled_mutex);
  for (const auto& [rot, trace] : cache_->tiled) {
    if (rot == rotation) return trace;
  }
  if (cache_->tiled.size() < kTiledCacheCap) {
    cache_->tiled.emplace_back(rotation, tiled);
  }
  return tiled;
}

std::size_t Scenario::true_rotation(std::size_t repetition) const {
  const std::uint64_t derived =
      runtime::derive_phase_seed(config_.seed, repetition);
  return config_.phase_offset.value_or(static_cast<std::size_t>(
      derived % static_cast<std::uint64_t>(characterization_.period)));
}

soc::Chip2Config Scenario::overlay_config(std::size_t repetition) const {
  soc::Chip2Config c2;
  c2.a5_core = config_.a5_core;
  c2.fabric_power_w = config_.fabric_power_w;
  c2.fabric_jitter = config_.fabric_jitter;
  c2.noise_seed = runtime::derive_background_seed(config_.seed, repetition);
  return c2;
}

measure::AcquisitionConfig Scenario::acquisition_config(
    std::size_t repetition) const {
  measure::AcquisitionConfig acq = config_.acquisition;
  acq.vdd_v = config_.tech.vdd_v;
  acq.noise_seed = runtime::derive_acquisition_seed(config_.seed, repetition);
  return acq;
}

void Scenario::fill_cached_power(std::size_t repetition,
                                 ScenarioResult& result) const {
  const TraceCache& cache = cached_deterministic_traces();
  if (config_.chip == ChipModel::kChip1) {
    result.background_power = power::PowerTrace(
        cache.background, cache.clock_hz, "chip1-background");
  } else {
    soc::Chip2NoiseOverlay overlay(overlay_config(repetition), config_.tech);
    result.background_power = overlay.apply(cache.background, cache.clock_hz,
                                            "chip2-background");
  }
  // A disabled watermark's hard-macro domain only leaks.
  std::vector<double> wm_power =
      config_.watermark_active
          ? *tiled_watermark(result.true_rotation)
          : std::vector<double>(config_.trace_cycles,
                                characterization_.leakage_w);
  result.watermark_power =
      power::PowerTrace(std::move(wm_power), cache.clock_hz, "watermark");
  result.total_power = result.background_power;
  result.total_power += result.watermark_power;
}

ScenarioResult Scenario::run_impl(std::size_t repetition, bool use_cache,
                                  bool acquire) const {
  ScenarioResult result;
  result.true_rotation = true_rotation(repetition);
  if (use_cache) {
    result.pattern = model_pattern_;
    fill_cached_power(repetition, result);
  } else {
    // The memoization oracle: every piece recomputed from scratch.
    const std::size_t period = characterization_.period;
    result.pattern.resize(period);
    for (std::size_t i = 0; i < period; ++i) {
      result.pattern[i] = characterization_.wmark_bits[i] ? 1.0 : 0.0;
    }
    result.background_power = run_background(repetition);
    std::vector<double> wm_power(config_.trace_cycles, 0.0);
    if (config_.watermark_active) {
      wm_power = watermark::tile_watermark_power(
          characterization_, config_.trace_cycles, result.true_rotation);
    } else {
      std::fill(wm_power.begin(), wm_power.end(),
                characterization_.leakage_w);
    }
    result.watermark_power = power::PowerTrace(
        std::move(wm_power), result.background_power.clock_hz(),
        "watermark");
    result.total_power = result.background_power;
    result.total_power += result.watermark_power;
  }

  if (acquire) {
    // Measurement with repetition-unique noise, at the scenario's
    // operating voltage.
    measure::AcquisitionChain chain(acquisition_config(repetition));
    result.acquisition = chain.measure(result.total_power);
  }
  return result;
}

ScenarioResult Scenario::run(std::size_t repetition) const {
  return run_impl(repetition, /*use_cache=*/true, /*acquire=*/true);
}

ScenarioResult Scenario::run_uncached(std::size_t repetition) const {
  return run_impl(repetition, /*use_cache=*/false, /*acquire=*/true);
}

ScenarioResult Scenario::synthesize(std::size_t repetition) const {
  return run_impl(repetition, /*use_cache=*/true, /*acquire=*/false);
}

ScenarioResult Scenario::synthesize_uncached(std::size_t repetition) const {
  return run_impl(repetition, /*use_cache=*/false, /*acquire=*/false);
}

ScenarioConfig chip1_default() {
  ScenarioConfig cfg;
  cfg.chip = ChipModel::kChip1;
  cfg.phase_offset = 3800;  // paper Fig. 5(a): peak near rotation 3800
  cfg.seed = 0xC51;
  return cfg;
}

ScenarioConfig chip2_default() {
  ScenarioConfig cfg;
  cfg.chip = ChipModel::kChip2;
  cfg.phase_offset = 2400;  // paper Fig. 5(c): peak near rotation 2400
  cfg.seed = 0xC52;
  // The chip II board measurement is noisier (larger vertical range to
  // fit the A5 subsystem's current, more switching on the die); this is
  // what drops the paper's chip II peak slightly below chip I's.
  cfg.acquisition.scope.noise_v_rms = 11.0e-3;
  return cfg;
}

}  // namespace clockmark::sim
