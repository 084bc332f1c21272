// Experiment scenarios mirroring the paper's silicon setups. A Scenario
// owns the watermark netlist (characterised at gate level once), the chip
// model (background power) and the measurement chain, and produces the
// CPA measurement vector Y for a given repetition.
//
//   chip I  : EM0 SoC running the Dhrystone-like workload; watermark block
//             on its own power domain (paper: hard macro).
//   chip II : the same SoC plus two clocked-but-idle A5-class cores and
//             the always-on fabric (paper: RTL-embedded watermark).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "measure/acquisition.h"
#include "power/trace.h"
#include "rtl/netlist.h"
#include "soc/chip1.h"
#include "soc/chip2.h"
#include "watermark/clock_modulation.h"
#include "watermark/embedder.h"

namespace clockmark::sim {

class ScenarioTraceStream;

enum class ChipModel { kChip1, kChip2 };

struct ScenarioConfig {
  ChipModel chip = ChipModel::kChip1;
  bool watermark_active = true;
  std::size_t trace_cycles = 300000;  ///< paper: 300,000 cycles per rho
  /// Rotation at which the true correlation peak should appear. The
  /// paper observed ~3800 on chip I and ~2400 on chip II (arbitrary
  /// trigger alignment). nullopt = derive pseudo-randomly per repetition.
  std::optional<std::size_t> phase_offset;
  watermark::ClockModConfig watermark;
  measure::AcquisitionConfig acquisition;
  /// Operating point / technology constants. Change via
  /// tech.at_operating_point() for DVFS studies; the acquisition's
  /// samples_per_cycle should be scope_rate / tech.clock_hz.
  power::TechLibrary tech;
  std::string program;          ///< empty = Dhrystone-like benchmark
  std::uint64_t seed = 1;       ///< master seed (noise, phase derivation)

  /// Chip II extras.
  soc::IdleCoreConfig a5_core;
  double fabric_power_w = 0.9e-3;
  double fabric_jitter = 0.05;
};

/// One repetition of a batched run (Scenario::run_batch): the slim
/// subset of ScenarioResult the repetition studies consume — the
/// acquired Y vector and where the peak should appear. The pattern is
/// shared (Scenario::model_pattern) and the intermediate power traces
/// are never materialised as PowerTrace objects.
struct BatchScenarioRepetition {
  measure::Acquisition acquisition;
  std::size_t true_rotation = 0;
};

/// Everything one repetition produces.
struct ScenarioResult {
  measure::Acquisition acquisition;      ///< Y vector + metadata
  std::vector<double> pattern;           ///< one period of WMARK (0/1)
  std::size_t true_rotation = 0;         ///< where the peak should be
  power::PowerTrace background_power;    ///< chip background (per cycle)
  power::PowerTrace watermark_power;     ///< watermark block (per cycle)
  power::PowerTrace total_power;         ///< device total (per cycle)
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& config);

  /// Runs one repetition through measure::AcquisitionKernel — never the
  /// batch kernel, whose whole-trace waveform cache would hold the
  /// sample-rate waveform. Noise streams, and the phase if not pinned,
  /// derive from (config.seed, repetition) via runtime/seed.h.
  ///
  /// Thread-safe: `run` is const, keeps all per-repetition state (RNG
  /// streams, measurement chain) in locals, and reads the shared
  /// gate-level characterisation plus the internal memoization cache
  /// (std::call_once / mutex guarded) — concurrent calls with distinct
  /// repetitions on one Scenario are race-free and bit-exact.
  ///
  /// Memoization: the repetition-invariant pieces — the deterministic
  /// M0/chip background trace, the tiled watermark power per rotation,
  /// and the CPA model pattern — are computed once and reused, so a
  /// repetition reduces to "overlay seeded noise + acquire". Results are
  /// bit-identical to run_uncached() (asserted by tests).
  ScenarioResult run(std::size_t repetition = 0) const;

  /// Runs `count` consecutive repetitions [first, first + count)
  /// through one measure::BatchAcquisitionKernel pass: the lanes share
  /// the waveform-expansion template and travel the analog chain
  /// interleaved (SoA), which is where the R-heavy studies spend their
  /// time. Each element is bit-identical to run(first + i) — same
  /// derived rotation, same acquisition bits (asserted by
  /// tests/test_sim_batch.cpp on both chips) — the batch only changes
  /// the speed. Configurations the batch kernel does not model
  /// (trigger-offset capture, disabled PDN, zero-cycle traces) are
  /// acquired per lane by the kernel itself. Thread-safe like run();
  /// distinct repetition ranges may run concurrently.
  std::vector<BatchScenarioRepetition> run_batch(
      std::size_t first_repetition, std::size_t count) const;

  /// Reference path: recomputes everything from scratch, exactly as
  /// run() did before memoization existed. Kept for equivalence tests
  /// and as the baseline for the bench speedup measurement.
  ScenarioResult run_uncached(std::size_t repetition = 0) const;

  /// Trace synthesis only (background + watermark + total power, no
  /// measurement-chain acquisition); result.acquisition is empty.
  /// Memoized like run(); synthesize_uncached() is the planless
  /// reference. These isolate the synthesis stage for benchmarking.
  ScenarioResult synthesize(std::size_t repetition = 0) const;
  ScenarioResult synthesize_uncached(std::size_t repetition = 0) const;

  /// Chunked synthesis + acquisition of one repetition: Y delivered in
  /// whole-cycle chunks with bounded memory (no sample-rate waveform or
  /// full Y vector is ever held). Concatenating the chunks reproduces
  /// run(repetition).acquisition.per_cycle_power_w bit for bit; see
  /// sim/trace_stream.h for the contract (trigger-offset studies stream
  /// an extra edge-fold pass, like the batch path). Thread-safe like
  /// run():
  /// each stream owns its per-repetition state and only reads the shared
  /// caches.
  std::unique_ptr<ScenarioTraceStream> open_stream(
      std::size_t repetition = 0, std::size_t chunk_cycles = 4096) const;

  /// The gate-level characterisation (computed once in the constructor).
  const watermark::WatermarkCharacterization& characterization() const {
    return characterization_;
  }

  /// The CPA model pattern — one canonical period of WMARK as 0/1
  /// doubles, built once in the constructor. This is exactly what run()
  /// copies into ScenarioResult::pattern; batch callers share it
  /// instead of carrying a copy per repetition.
  const std::vector<double>& model_pattern() const noexcept {
    return model_pattern_;
  }

  /// The watermark netlist (for area/attack analysis).
  const rtl::Netlist& watermark_netlist() const { return netlist_; }
  const watermark::ClockModWatermark& watermark() const {
    return watermark_;
  }

  const ScenarioConfig& config() const noexcept { return config_; }

 private:
  friend class ScenarioTraceStream;  ///< reads the deterministic caches

  /// Repetition-invariant state computed lazily on first use. The
  /// background trace is the deterministic part of the chip's power —
  /// the full trace for chip I, the M0 base (before the seeded A5/fabric
  /// overlay) for chip II. Tiled watermark traces are cached per
  /// rotation, capped so unpinned-phase studies stay bounded in memory.
  struct TraceCache {
    std::once_flag background_once;
    std::vector<double> background;
    double clock_hz = 0.0;
    std::mutex tiled_mutex;
    std::vector<std::pair<std::size_t,
                          std::shared_ptr<const std::vector<double>>>>
        tiled;
  };

  /// The memoized device power of one repetition, written into
  /// result's background/watermark/total traces for the rotation in
  /// result.true_rotation: the chip background (chip I: the cached
  /// base; chip II: overlay_config()'s seeded overlay replayed on the
  /// cached base), the cached watermark tile (or the disabled block's
  /// leakage), and their element-wise sum. The one synthesis behind
  /// run() and run_batch(); open_stream() steps the same overlay.
  void fill_cached_power(std::size_t repetition, ScenarioResult& result) const;

  /// Where repetition's peak should land: pinned, or derived from
  /// (config.seed, repetition).
  std::size_t true_rotation(std::size_t repetition) const;
  /// The chip II A5/fabric noise-overlay config of one repetition.
  soc::Chip2Config overlay_config(std::size_t repetition) const;
  /// The measurement chain of one repetition: the scenario's
  /// acquisition at its operating voltage, with the repetition-unique
  /// noise seed.
  measure::AcquisitionConfig acquisition_config(std::size_t repetition) const;

  soc::Chip1Config m0_config() const;
  power::PowerTrace run_background(std::size_t repetition) const;
  const TraceCache& cached_deterministic_traces() const;
  std::shared_ptr<const std::vector<double>> tiled_watermark(
      std::size_t rotation) const;
  ScenarioResult run_impl(std::size_t repetition, bool use_cache,
                          bool acquire) const;

  // All members except cache_ are written once in the constructor and
  // read-only afterwards; cache_ fills in lazily behind its own
  // synchronisation (the thread-safety contract of run()).
  ScenarioConfig config_;
  rtl::Netlist netlist_;
  watermark::ClockModWatermark watermark_;
  watermark::WatermarkCharacterization characterization_;
  std::vector<double> model_pattern_;
  std::unique_ptr<TraceCache> cache_;
};

/// Default configurations reproducing the paper's two chips.
ScenarioConfig chip1_default();
ScenarioConfig chip2_default();

}  // namespace clockmark::sim
