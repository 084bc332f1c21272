#include "dsp/correlate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cpa/spectrum_engine.h"
#include "dsp/fft_plan.h"
#include "sequence/lfsr.h"
#include "sequence/polynomials.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace clockmark::dsp {
namespace {

std::vector<double> random_trace(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<double> y(n);
  for (auto& v : y) v = rng.gaussian(5.0, 2.0);
  return y;
}

std::vector<double> random_pattern(std::size_t p, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<double> x(p);
  for (auto& v : x) v = rng.bernoulli(0.5) ? 1.0 : 0.0;
  return x;
}

TEST(FoldByPhase, CountsAndSums) {
  const std::vector<double> y = {1, 2, 3, 4, 5, 6, 7};
  const auto fold = fold_by_phase(y, 3);
  ASSERT_EQ(fold.sums.size(), 3u);
  // Phases: 0 -> {1,4,7}, 1 -> {2,5}, 2 -> {3,6}.
  EXPECT_DOUBLE_EQ(fold.sums[0], 12.0);
  EXPECT_DOUBLE_EQ(fold.sums[1], 7.0);
  EXPECT_DOUBLE_EQ(fold.sums[2], 9.0);
  EXPECT_EQ(phase_count(fold, 0), 3u);
  EXPECT_EQ(phase_count(fold, 1), 2u);
  EXPECT_EQ(phase_count(fold, 2), 2u);
  EXPECT_DOUBLE_EQ(fold.total, 28.0);
  EXPECT_EQ(fold.n, 7u);
}

TEST(FoldByPhase, ZeroPeriodThrows) {
  const std::vector<double> y = {1.0};
  EXPECT_THROW(fold_by_phase(y, 0), std::invalid_argument);
}

struct SizeCase {
  std::size_t n;
  std::size_t p;
};

class RotationAgreement : public ::testing::TestWithParam<SizeCase> {};

TEST_P(RotationAgreement, AllThreeMethodsMatch) {
  const auto [n, p] = GetParam();
  const auto y = random_trace(n, n * 131 + p);
  const auto x = random_pattern(p, p * 17 + 3);
  const auto naive = rotation_correlation_naive(y, x);
  const auto folded = rotation_correlation_folded(y, x);
  const auto fft = rotation_correlation_fft(y, x);
  ASSERT_EQ(naive.size(), p);
  ASSERT_EQ(folded.size(), p);
  ASSERT_EQ(fft.size(), p);
  for (std::size_t r = 0; r < p; ++r) {
    EXPECT_NEAR(folded[r], naive[r], 1e-9) << "folded vs naive at r=" << r;
    EXPECT_NEAR(fft[r], naive[r], 1e-9) << "fft vs naive at r=" << r;
  }
}

// Mixes divisible and non-divisible N/P combinations — the exactness of
// the folded correction for ragged tails is the point of these cases.
INSTANTIATE_TEST_SUITE_P(
    Sizes, RotationAgreement,
    ::testing::Values(SizeCase{64, 8}, SizeCase{65, 8}, SizeCase{100, 7},
                      SizeCase{1000, 31}, SizeCase{1023, 31},
                      SizeCase{997, 63}, SizeCase{2000, 127},
                      SizeCase{4095, 4095}, SizeCase{5000, 255}));

TEST(RotationCorrelation, RecoversEmbeddedPhase) {
  // Y = noisy tiled pattern at a known rotation; the sweep must peak there.
  const std::size_t p = 127;
  const std::size_t n = 10000;
  const std::size_t truth = 61;
  sequence::Lfsr lfsr(7, sequence::maximal_taps(7), 1);
  std::vector<double> pattern(p);
  for (auto& v : pattern) v = lfsr.step() ? 1.0 : 0.0;

  util::Pcg32 rng(1234);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = pattern[(i + truth) % p] * 0.5 + rng.gaussian(10.0, 1.0);
  }
  const auto rho = rotation_correlation_fft(y, pattern);
  std::size_t best = 0;
  for (std::size_t r = 1; r < p; ++r) {
    if (rho[r] > rho[best]) best = r;
  }
  EXPECT_EQ(best, truth);
  EXPECT_GT(rho[truth], 0.15);
}

TEST(RotationCorrelation, ConstantTraceGivesZero) {
  const std::vector<double> y(100, 3.0);
  const auto x = random_pattern(10, 5);
  for (const double r : rotation_correlation_folded(y, x)) {
    EXPECT_EQ(r, 0.0);
  }
  for (const double r : rotation_correlation_fft(y, x)) {
    EXPECT_EQ(r, 0.0);
  }
}

TEST(RotationCorrelation, ConstantPatternGivesZero) {
  const auto y = random_trace(100, 3);
  const std::vector<double> x(10, 1.0);
  for (const double r : rotation_correlation_folded(y, x)) {
    EXPECT_EQ(r, 0.0);
  }
}

TEST(RotationCorrelation, EmptyPatternThrows) {
  const auto y = random_trace(10, 3);
  const std::vector<double> x;
  EXPECT_THROW(rotation_correlation_folded(y, x), std::invalid_argument);
  EXPECT_THROW(rotation_correlation_fft(y, x), std::invalid_argument);
  EXPECT_THROW(rotation_correlation_naive(y, x), std::invalid_argument);
}

TEST(RotationCorrelation, TraceShorterThanPeriodThrows) {
  const auto y = random_trace(5, 3);
  const auto x = random_pattern(10, 5);
  EXPECT_THROW(rotation_correlation_folded(y, x), std::invalid_argument);
}

TEST(RotationCorrelation, NonBinaryPatternsSupported) {
  // The folded math must not assume x^2 == x.
  const std::size_t n = 500, p = 25;
  const auto y = random_trace(n, 9);
  util::Pcg32 rng(10);
  std::vector<double> x(p);
  for (auto& v : x) v = rng.gaussian(0.0, 2.0);
  const auto naive = rotation_correlation_naive(y, x);
  const auto folded = rotation_correlation_folded(y, x);
  const auto fft = rotation_correlation_fft(y, x);
  for (std::size_t r = 0; r < p; ++r) {
    EXPECT_NEAR(folded[r], naive[r], 1e-9);
    EXPECT_NEAR(fft[r], naive[r], 1e-9);
  }
}

/// The count sums against the folded sweep's accumulated ones (all P
/// rotations as lanes of one blocked pass, the O(P^2) reference).
void expect_count_sums_match(std::size_t n, std::span<const double> pattern,
                             bool exact) {
  const std::size_t period = pattern.size();
  std::vector<double> sx(period);
  std::vector<double> sxx(period);
  count_model_sums(n, pattern, sx, sxx);
  PhaseFold counts_only;
  counts_only.sums.assign(period, 0.0);
  counts_only.n = n;
  std::vector<RotationModelSums> oracle(period);
  rotation_model_sums_blocked(counts_only, pattern, 0, oracle);
  for (std::size_t r = 0; r < period; ++r) {
    if (exact) {
      ASSERT_EQ(sx[r], oracle[r].sx) << "n=" << n << " r=" << r;
      ASSERT_EQ(sxx[r], oracle[r].sxx) << "n=" << n << " r=" << r;
    } else {
      ASSERT_LE(std::abs(sx[r] - oracle[r].sx),
                1e-12 * std::abs(oracle[r].sx))
          << "n=" << n << " r=" << r;
      ASSERT_LE(std::abs(sxx[r] - oracle[r].sxx),
                1e-12 * std::abs(oracle[r].sxx))
          << "n=" << n << " r=" << r;
    }
  }
}

TEST(DspCorrelate, CountSumsExactAgainstFoldedOracle) {
  for (const sim::ScenarioConfig& config :
       {sim::chip1_default(), sim::chip2_default()}) {
    // The chip's own 300k-cycle measurement: the sweep's real input.
    const sim::ScenarioResult run = sim::Scenario(config).run(0);
    const std::vector<double>& pattern = run.pattern;
    const std::vector<double>& y = run.acquisition.per_cycle_power_w;
    const std::size_t period = pattern.size();
    ASSERT_EQ(period, 4095u);
    const cpa::SpectrumEngine engine(pattern);
    for (const std::size_t n : {period, period + 1, 2 * period - 1,
                                73 * period + 17, std::size_t{300000}}) {
      // 0/1 pattern: every partial sum is an integer, so the window
      // sums carry the folded accumulation's exact bits.
      expect_count_sums_match(n, pattern, true);

      // The engine's sweep against the independent O(P^2) one.
      ASSERT_LE(n, y.size());
      const PhaseFold fold =
          fold_by_phase(std::span<const double>(y).first(n), period);
      std::vector<double> rho(period);
      engine.rotations(fold, rho);
      EXPECT_EQ(rho, rotation_correlation_fft_from_fold(fold, pattern));
      const std::vector<double> folded =
          rotation_correlation_folded_from_fold(fold, pattern);
      double peak = 0.0;
      for (const double v : folded) peak = std::max(peak, std::abs(v));
      ASSERT_GT(peak, 0.0);
      // sx/sxx are exact on both sides; what remains is the two paths'
      // different rounding of sxy, up to 3e-11 * max|rho| on these traces.
      for (std::size_t r = 0; r < period; ++r) {
        ASSERT_LE(std::abs(rho[r] - folded[r]), 1e-10 * peak)
            << "n=" << n << " r=" << r;
      }
    }

    // A non-binary pattern: the window sums round differently from the
    // folded accumulation, within 1e-12 relative.
    util::Pcg32 rng(period);
    std::vector<double> scaled(pattern);
    for (double& v : scaled) v = 0.75 * v + rng.uniform(0.0, 0.1);
    for (const std::size_t n : {period, 73 * period + 17}) {
      expect_count_sums_match(n, scaled, false);
    }
  }

  // A period beyond the plan registry's cap: the engine delegates to the
  // planless from-fold path and returns its bits.
  const std::size_t big = kMaxPlannedFftSize + 1;
  const std::vector<double> pattern = random_pattern(big, 77);
  const PhaseFold fold = fold_by_phase(random_trace(big + 17, 78), big);
  std::vector<double> rho(big);
  cpa::SpectrumEngine(pattern).rotations(fold, rho);
  EXPECT_EQ(rho, rotation_correlation_fft_from_fold(fold, pattern));
}

}  // namespace
}  // namespace clockmark::dsp
