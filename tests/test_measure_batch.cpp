// The batched (SoA) acquisition kernel's exactness contract
// (measure/batch_kernel.h): carrying R repetitions as interleaved lanes
// through one block pass is a scheduling change, not a numerical one.
// Every lane must reproduce the per-repetition AcquisitionChain bit for
// bit — at any lane count (full 4-lane groups, partial groups, R=1), at
// any block size, under any cache budget, and through the per-lane
// fallback for configurations the batch pass does not model.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "measure/acquisition.h"
#include "measure/batch_kernel.h"
#include "power/trace.h"
#include "util/rng.h"

namespace clockmark::measure {
namespace {

/// Deterministic ~50 mW traces with cycle-to-cycle variation; each lane
/// gets a distinct trace so cross-lane state mixups cannot cancel out.
std::vector<double> make_power(std::size_t cycles, std::uint64_t seed) {
  util::Pcg32 rng(seed, 7);
  std::vector<double> p(cycles);
  for (auto& v : p) v = 0.05 + 0.005 * rng.gaussian();
  return p;
}

void expect_bit_identical(const Acquisition& batched,
                          const Acquisition& reference) {
  ASSERT_EQ(batched.per_cycle_power_w.size(),
            reference.per_cycle_power_w.size());
  for (std::size_t i = 0; i < batched.per_cycle_power_w.size(); ++i) {
    ASSERT_EQ(batched.per_cycle_power_w[i], reference.per_cycle_power_w[i])
        << "cycle " << i;
  }
  EXPECT_EQ(batched.mean_power_w, reference.mean_power_w);
  EXPECT_EQ(batched.lsb_power_w, reference.lsb_power_w);
}

/// Per-lane oracle: the sequential chain with the lane's seed patched
/// into the config — exactly what run() did before batching existed.
Acquisition sequential_oracle(const AcquisitionConfig& config,
                              const std::vector<double>& power_w,
                              std::uint64_t noise_seed, double clock_hz) {
  AcquisitionConfig cfg = config;
  cfg.noise_seed = noise_seed;
  AcquisitionChain chain(cfg);
  return chain.measure(power::PowerTrace(power_w, clock_hz, "batch-test"));
}

constexpr double kClockHz = 10.0e6;

TEST(BatchAcquireKernel, MatchesChainBitExactAcrossLaneCounts) {
  AcquisitionConfig cfg;  // chip-I-style defaults, auto-range on
  const BatchAcquisitionKernel kernel(cfg, kClockHz);
  // R = 1..8 covers a lone lane, partial groups (2, 3), one full 4-lane
  // group, full + partial (5..7) and two full groups.
  for (std::size_t reps = 1; reps <= 8; ++reps) {
    std::vector<std::vector<double>> powers(reps);
    std::vector<BatchLane> lanes(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      powers[r] = make_power(2000, 0xC51 + r);
      lanes[r] = BatchLane{powers[r], 1000 + 17 * r};
    }
    const std::vector<Acquisition> got = kernel.run(lanes);
    ASSERT_EQ(got.size(), reps);
    for (std::size_t r = 0; r < reps; ++r) {
      SCOPED_TRACE("reps=" + std::to_string(reps) +
                   " lane=" + std::to_string(r));
      expect_bit_identical(
          got[r], sequential_oracle(cfg, powers[r], 1000 + 17 * r, kClockHz));
    }
  }
}

TEST(BatchAcquireKernel, BlockSizeDoesNotChangeBits) {
  AcquisitionConfig cfg;
  std::vector<std::vector<double>> powers(4);
  std::vector<BatchLane> lanes(4);
  for (std::size_t r = 0; r < 4; ++r) {
    powers[r] = make_power(1237, 0xB10C + r);  // odd length: ragged tail
    lanes[r] = BatchLane{powers[r], 42 + r};
  }
  const std::vector<Acquisition> baseline =
      BatchAcquisitionKernel(cfg, kClockHz).run(lanes);
  for (std::size_t block : {1u, 7u, 64u, 1237u, 5000u}) {
    AcquisitionConfig sized = cfg;
    sized.block_cycles = block;
    const std::vector<Acquisition> got =
        BatchAcquisitionKernel(sized, kClockHz).run(lanes);
    for (std::size_t r = 0; r < 4; ++r) {
      SCOPED_TRACE("block=" + std::to_string(block) +
                   " lane=" + std::to_string(r));
      expect_bit_identical(got[r], baseline[r]);
    }
  }
}

TEST(BatchAcquireKernel, CacheBudgetDegradesWidthNotBits) {
  // Shrinking the waveform-cache budget narrows the lane groups
  // (4 -> 2 -> 1 -> per-lane fallback); results must never change.
  AcquisitionConfig cfg;
  std::vector<std::vector<double>> powers(5);
  std::vector<BatchLane> lanes(5);
  for (std::size_t r = 0; r < 5; ++r) {
    powers[r] = make_power(1500, 0xCAFE + r);
    lanes[r] = BatchLane{powers[r], 7 + r};
  }
  const std::vector<Acquisition> baseline =
      BatchAcquisitionKernel(cfg, kClockHz).run(lanes);
  // 50 samples per cycle at the default 500 MS/s scope on a 10 MHz clock.
  const std::size_t lane_bytes = 1500 * 50 * sizeof(double);
  for (const std::size_t budget :
       {4 * lane_bytes, 2 * lane_bytes, lane_bytes, std::size_t{1}}) {
    BatchAcquisitionKernel kernel(cfg, kClockHz);
    kernel.set_cache_budget_bytes(budget);
    const std::vector<Acquisition> got = kernel.run(lanes);
    for (std::size_t r = 0; r < 5; ++r) {
      SCOPED_TRACE("budget=" + std::to_string(budget) +
                   " lane=" + std::to_string(r));
      expect_bit_identical(got[r], baseline[r]);
    }
  }
}

TEST(BatchAcquireKernel, FixedRangeRunsBatched) {
  AcquisitionConfig cfg;
  cfg.range_policy = RangePolicy::kFixedRange;
  cfg.scope.full_scale_v = 0.2;
  const BatchAcquisitionKernel kernel(cfg, kClockHz);
  std::vector<std::vector<double>> powers(4);
  std::vector<BatchLane> lanes(4);
  for (std::size_t r = 0; r < 4; ++r) {
    powers[r] = make_power(1800, 0xF1 + r);
    lanes[r] = BatchLane{powers[r], 90 + r};
  }
  const std::vector<Acquisition> got = kernel.run(lanes);
  for (std::size_t r = 0; r < 4; ++r) {
    SCOPED_TRACE("lane=" + std::to_string(r));
    expect_bit_identical(
        got[r], sequential_oracle(cfg, powers[r], 90 + r, kClockHz));
  }
}

TEST(BatchAcquireKernel, UnsupportedConfigsFallBackBitExact) {
  // Trigger-offset capture and the PDN-less chain are out of the batch
  // pass's model; run() must still produce chain-identical results via
  // the per-lane fallback.
  for (int variant = 0; variant < 2; ++variant) {
    AcquisitionConfig cfg;
    if (variant == 0) {
      cfg.trigger_sim = TriggerSim::kRandomOffset;
    } else {
      cfg.enable_pdn_filter = false;
    }
    const BatchAcquisitionKernel kernel(cfg, kClockHz);
    std::vector<std::vector<double>> powers(3);
    std::vector<BatchLane> lanes(3);
    for (std::size_t r = 0; r < 3; ++r) {
      powers[r] = make_power(900, 0xAB + r);
      lanes[r] = BatchLane{powers[r], 5 + r};
    }
    const std::vector<Acquisition> got = kernel.run(lanes);
    for (std::size_t r = 0; r < 3; ++r) {
      SCOPED_TRACE("variant=" + std::to_string(variant) +
                   " lane=" + std::to_string(r));
      expect_bit_identical(
          got[r], sequential_oracle(cfg, powers[r], 5 + r, kClockHz));
    }
  }
}

TEST(BatchAcquireKernel, UnequalLaneLengthsFallBack) {
  AcquisitionConfig cfg;
  const BatchAcquisitionKernel kernel(cfg, kClockHz);
  const std::vector<double> a = make_power(1000, 1);
  const std::vector<double> b = make_power(800, 2);
  const std::vector<BatchLane> lanes = {BatchLane{a, 3}, BatchLane{b, 4}};
  const std::vector<Acquisition> got = kernel.run(lanes);
  ASSERT_EQ(got.size(), 2u);
  expect_bit_identical(got[0], sequential_oracle(cfg, a, 3, kClockHz));
  expect_bit_identical(got[1], sequential_oracle(cfg, b, 4, kClockHz));
}

TEST(BatchAcquireKernel, EmptyRunAndValidation) {
  AcquisitionConfig cfg;
  const BatchAcquisitionKernel kernel(cfg, kClockHz);
  EXPECT_TRUE(kernel.run({}).empty());
  EXPECT_THROW(BatchAcquisitionKernel(cfg, 0.0), std::invalid_argument);
  AcquisitionConfig bad = cfg;
  bad.scope.resolution_bits = 1;
  EXPECT_THROW(BatchAcquisitionKernel(bad, kClockHz), std::invalid_argument);
}

}  // namespace
}  // namespace clockmark::measure
