// End-to-end integration tests: the full paper pipeline at reduced trace
// length (20k cycles instead of 300k) with a crisper measurement chain so
// the tests stay fast and deterministic while exercising every stage:
// gate-level watermark -> SoC background -> acquisition -> CPA -> verdict.
#include <gtest/gtest.h>

#include "detect/session.h"
#include "sim/experiment.h"

namespace clockmark::sim {
namespace {

ScenarioConfig fast(ChipModel chip, bool active) {
  ScenarioConfig cfg =
      chip == ChipModel::kChip1 ? chip1_default() : chip2_default();
  cfg.trace_cycles = 20000;
  cfg.watermark_active = active;
  cfg.acquisition.scope.noise_v_rms = 2e-3;
  cfg.acquisition.probe.noise_v_rms = 0.5e-3;
  return cfg;
}

TEST(EndToEnd, Chip1ActiveWatermarkDetectedAtTruePhase) {
  Scenario sc(fast(ChipModel::kChip1, true));
  const auto exp = detect::Session().run(sc, 0);
  EXPECT_TRUE(exp.detection.detected) << exp.detection.reason;
  // The PDN filter delays the peak by at most a couple of rotations.
  const auto peak = static_cast<long>(exp.detection.spectrum.peak_rotation);
  EXPECT_NEAR(static_cast<double>(peak), 3800.0, 2.0);
  EXPECT_GT(exp.detection.spectrum.peak_z, 10.0);
}

TEST(EndToEnd, Chip1InactiveWatermarkNotDetected) {
  Scenario sc(fast(ChipModel::kChip1, false));
  const auto exp = detect::Session().run(sc, 0);
  EXPECT_FALSE(exp.detection.detected) << exp.detection.reason;
}

TEST(EndToEnd, Chip2ActiveWatermarkDetected) {
  Scenario sc(fast(ChipModel::kChip2, true));
  const auto exp = detect::Session().run(sc, 0);
  EXPECT_TRUE(exp.detection.detected) << exp.detection.reason;
  const auto peak = static_cast<long>(exp.detection.spectrum.peak_rotation);
  EXPECT_NEAR(static_cast<double>(peak), 2400.0, 2.0);
}

TEST(EndToEnd, Chip2InactiveWatermarkNotDetected) {
  Scenario sc(fast(ChipModel::kChip2, false));
  const auto exp = detect::Session().run(sc, 0);
  EXPECT_FALSE(exp.detection.detected) << exp.detection.reason;
}

TEST(EndToEnd, RepeatabilityAllDetections) {
  // Mini Fig. 6: 5 repetitions must all detect; in-phase box clearly
  // above the off-phase box.
  Scenario sc(fast(ChipModel::kChip1, true));
  const auto result = run_repeatability_study(sc, 5);
  EXPECT_EQ(result.detections, 5u);
  EXPECT_GT(result.in_phase.median, 3.0 * result.off_phase.q_high);
}

TEST(EndToEnd, RepeatabilityInactiveNeverDetects) {
  Scenario sc(fast(ChipModel::kChip1, false));
  const auto result = run_repeatability_study(sc, 5);
  EXPECT_EQ(result.detections, 0u);
}

TEST(EndToEnd, DetectionSurvivesUnpinnedPhase) {
  auto cfg = fast(ChipModel::kChip1, true);
  cfg.phase_offset.reset();
  Scenario sc(cfg);
  for (std::size_t rep = 0; rep < 3; ++rep) {
    const auto exp = detect::Session().run(sc, rep);
    EXPECT_TRUE(exp.detection.detected) << "rep " << rep;
    const long peak =
        static_cast<long>(exp.detection.spectrum.peak_rotation);
    const long truth = static_cast<long>(exp.scenario->true_rotation);
    const long period = 4095;
    const long dist = std::min((peak - truth + period) % period,
                               (truth - peak + period) % period);
    EXPECT_LE(dist, 2) << "rep " << rep;
  }
}

TEST(EndToEnd, WorkloadDoesNotMaskWatermark) {
  // Detection works under a generated random workload too, not just the
  // Dhrystone-like program.
  auto cfg = fast(ChipModel::kChip1, true);
  cpu::WorkloadMix mix;
  mix.seed = 5;
  cfg.program = cpu::generate_workload_source(mix);
  Scenario sc(cfg);
  const auto exp = detect::Session().run(sc, 0);
  EXPECT_TRUE(exp.detection.detected) << exp.detection.reason;
}

TEST(EndToEnd, SmallerWatermarkBlockStillDetectedCloseUp) {
  // A quarter-size modulated block (8 words) lowers amplitude: with the
  // crisp test-noise settings it must still be detected.
  auto cfg = fast(ChipModel::kChip1, true);
  cfg.watermark.words = 8;
  cfg.trace_cycles = 60000;  // quarter amplitude needs more cycles
  Scenario sc(cfg);
  const auto exp = detect::Session().run(sc, 0);
  EXPECT_TRUE(exp.detection.detected) << exp.detection.reason;
}

TEST(EndToEnd, DeterministicGivenSeedAndRepetition) {
  auto cfg = fast(ChipModel::kChip1, true);
  Scenario a(cfg), b(cfg);
  const auto ra = a.run(3);
  const auto rb = b.run(3);
  EXPECT_EQ(ra.acquisition.per_cycle_power_w,
            rb.acquisition.per_cycle_power_w);
}

}  // namespace
}  // namespace clockmark::sim
