// Structure-of-arrays multi-repetition acquisition: R repetitions ride
// through the Fig. 4(b) measurement chain as interleaved lanes of one
// block-processed pass, instead of R sequential AcquisitionKernel runs.
//
// Why batching the *repetition* axis pays: one repetition's pipeline is
// two long dependency chains (the PDN and probe one-pole recurrences)
// that a single lane cannot overlap — the FPU sits mostly idle waiting
// on the previous sample's filter state. Carrying K lanes side by side
// fills those latency slots with the other lanes' independent chains
// (explicit AVX2/FMA vectors when available, interleaved scalar lanes
// otherwise), and the auto-range structure adds a second saving: the
// range pass already computes every pre-scope-noise sample, so caching
// it lets the acquire pass skip the waveform expansion, the probe noise
// stream and both IIRs entirely.
//
// Bit-identity contract (asserted in tests/test_measure_batch.cpp and
// tests/test_sim_batch.cpp): for every lane, run() returns exactly what
// AcquisitionChain::measure returns for a PowerTrace of that lane's
// cycle power and an AcquisitionConfig whose noise_seed is the lane's
// seed. Validation, block sizing, the noise-stream forks, PDN priming,
// the auto-range rule and the LSB formula are the single-trace kernel's
// own (measure/chain_internal.h); only the lane loops are this file's.
// The guarantees stack like this:
//  * RNG streams: each lane forks probe/scope streams from its own
//    seed exactly as AcquisitionKernel's passes do, and fill_gaussian
//    over a block decomposition draws the identical sequence, so the
//    per-sample noise values match the per-rep path bit for bit.
//  * Filtering: the PDN/probe recurrences use one std::fma per step —
//    the same op the scalar kernel executes — and the AVX2 path maps
//    each scalar op to its per-element-IEEE-exact vector twin
//    (vfmadd/vmul/vdiv/vmin/vmax/vfloor; mul+add stays split where the
//    reference is compiled with -ffp-contract=off). Lane interleaving
//    never mixes values across lanes, so each lane's FP sequence is
//    untouched.
//  * Waveform cache: the range pass's post-probe sample stream *is* the
//    acquire pass's pre-scope-noise stream — both passes fork their
//    probe RNG from the same base with the same salt — so replaying the
//    cached samples through quantisation is the reference acquire pass
//    with its front half elided, not approximated.
//  * Group/block boundaries only decide where loops pause; results are
//    independent of both (and of how lanes are grouped).
//
// Configurations the fused path does not model (trigger-offset capture,
// disabled PDN filter), degenerate shapes (empty or unequal lanes) and
// lanes too long for the cache budget run each lane through
// AcquisitionKernel::acquire instead — run() is correct for every
// AcquisitionConfig, just not always batched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "measure/acquisition.h"

namespace clockmark::measure {

/// One repetition's inputs: the device's per-cycle power trace and the
/// repetition-unique noise seed (sim: runtime::derive_acquisition_seed).
struct BatchLane {
  std::span<const double> cycle_power_w;
  std::uint64_t noise_seed = 1;
};

class BatchAcquisitionKernel {
 public:
  /// Same validation as AcquisitionKernel (probe/scope rates, clock,
  /// resolution, full scale); throws std::invalid_argument like it.
  /// `clock_hz` is the chip clock of the incoming per-cycle traces.
  BatchAcquisitionKernel(const AcquisitionConfig& config, double clock_hz);

  /// Acquires every lane; out[i] corresponds to lanes[i]. Thread-safe:
  /// const, all mutable state is local to the call.
  std::vector<Acquisition> run(std::span<const BatchLane> lanes) const;

  /// Caps the range-pass waveform cache (group_width * cycles * spc
  /// doubles). When a full-width group would not fit, the group width
  /// degrades (4 -> 2 -> 1); if even one lane's waveform exceeds the
  /// budget, run() uses the per-lane fallback. Results never depend on
  /// the budget — only the speed does. Default 1 GiB (a 300k-cycle
  /// paper-shaped study stays fully batched).
  void set_cache_budget_bytes(std::size_t bytes) noexcept {
    cache_budget_bytes_ = bytes;
  }
  std::size_t cache_budget_bytes() const noexcept {
    return cache_budget_bytes_;
  }

  std::size_t block_cycles() const noexcept { return block_cycles_; }
  const AcquisitionConfig& config() const noexcept { return config_; }

 private:
  std::size_t group_width(std::size_t trace_cycles) const noexcept;
  void run_group(std::span<const BatchLane> lanes,
                 std::span<Acquisition> out) const;

  AcquisitionConfig config_;
  double clock_hz_;
  double sample_rate_hz_ = 0.0;
  std::size_t block_cycles_ = 0;
  std::vector<double> template_;  ///< per-cycle pulse template (sums to 1)
  std::size_t cache_budget_bytes_ = std::size_t{1} << 30;
};

}  // namespace clockmark::measure
