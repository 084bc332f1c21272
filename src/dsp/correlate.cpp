#include "dsp/correlate.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"
#include "util/stats.h"

namespace clockmark::dsp {
namespace {

void check_inputs(std::span<const double> y, std::span<const double> pattern) {
  if (pattern.empty()) {
    throw std::invalid_argument("rotation_correlation: empty pattern");
  }
  if (y.size() < pattern.size()) {
    throw std::invalid_argument(
        "rotation_correlation: trace shorter than one pattern period");
  }
}

void check_fold(const PhaseFold& fold, std::span<const double> pattern) {
  if (pattern.empty()) {
    throw std::invalid_argument("rotation_correlation: empty pattern");
  }
  if (fold.sums.size() != pattern.size()) {
    throw std::invalid_argument(
        "rotation_correlation: fold period does not match pattern");
  }
  if (fold.n < pattern.size()) {
    throw std::invalid_argument(
        "rotation_correlation: trace shorter than one pattern period");
  }
}

}  // namespace

PhaseFold fold_by_phase(std::span<const double> y, std::size_t period) {
  PhaseFold fold;
  fold_extend(fold, y, period);
  return fold;
}

void fold_extend(PhaseFold& fold, std::span<const double> y,
                 std::size_t period) {
  if (period == 0) {
    throw std::invalid_argument("fold_by_phase: period must be > 0");
  }
  if (fold.sums.empty()) {
    fold.sums.assign(period, 0.0);
  } else if (fold.sums.size() != period) {
    throw std::invalid_argument("fold_extend: period changed mid-stream");
  }
  // The phase cursor is implied by how many samples the fold has seen;
  // chunk boundaries therefore cannot desynchronise the fold.
  std::size_t p = fold.n % period;
  fold.n += y.size();
  for (const double v : y) {
    fold.sums[p] += v;
    fold.total += v;
    fold.total_sq += v * v;
    if (++p == period) p = 0;
  }
}

std::size_t phase_count(const PhaseFold& fold, std::size_t p) {
  const std::size_t period = fold.sums.size();
  if (period == 0) return 0;
  return fold.n / period + (p < fold.n % period ? 1 : 0);
}

void count_model_sums(std::size_t n, std::span<const double> pattern,
                      std::span<double> sx, std::span<double> sxx) {
  const std::size_t period = pattern.size();
  if (period == 0) {
    throw std::invalid_argument("count_model_sums: empty pattern");
  }
  if (sx.size() != period || sxx.size() != period) {
    throw std::invalid_argument("count_model_sums: output size != period");
  }
  // Every phase holds n / P samples, and the rem phases 0..rem-1 one
  // more, so rotation r sums n / P whole periods plus the rem pattern
  // values from r on. prefix runs over the pattern repeated, which keeps
  // each window [r, r + rem) one subtraction.
  const auto full = static_cast<double>(n / period);
  const std::size_t rem = n % period;
  std::vector<double> prefix(period + rem + 1, 0.0);
  const auto fill = [&](bool squared, std::span<double> out) {
    for (std::size_t i = 0; i + 1 < prefix.size(); ++i) {
      const double x = pattern[i < period ? i : i - period];
      prefix[i + 1] = prefix[i] + (squared ? x * x : x);
    }
    const double whole = full * prefix[period];
    for (std::size_t r = 0; r < period; ++r) {
      out[r] = whole + (prefix[r + rem] - prefix[r]);
    }
  };
  fill(false, sx);
  fill(true, sxx);
}

void rotation_model_sums_blocked(const PhaseFold& fold,
                                 std::span<const double> pattern,
                                 std::size_t first_rotation,
                                 std::span<RotationModelSums> out) {
  const std::size_t period = pattern.size();
  if (out.empty()) return;
  for (auto& s : out) s = RotationModelSums{};
  // One pass over the fold; lane l reads the pattern at the wrapped
  // window (p + first_rotation + l) % period.
  for (std::size_t p = 0; p < period; ++p) {
    const double sum = fold.sums[p];
    const auto cnt = static_cast<double>(phase_count(fold, p));
    std::size_t j = (p + first_rotation) % period;
    for (auto& s : out) {
      const double xv = pattern[j];
      s.sxy += xv * sum;
      s.sx += xv * cnt;
      s.sxx += xv * xv * cnt;
      if (++j == period) j = 0;
    }
  }
}

std::vector<double> assemble_rotation_correlations(
    const PhaseFold& fold, std::span<const double> sxy,
    std::span<const double> sx, std::span<const double> sxx) {
  std::vector<double> rho(sxy.size(), 0.0);
  assemble_rotation_correlations_into(fold, sxy, sx, sxx, rho);
  return rho;
}

void assemble_rotation_correlations_into(const PhaseFold& fold,
                                         std::span<const double> sxy,
                                         std::span<const double> sx,
                                         std::span<const double> sxx,
                                         std::span<double> rho) {
  if (rho.size() != sxy.size()) {
    throw std::invalid_argument(
        "assemble_rotation_correlations: rho/sxy size mismatch");
  }
  const auto n = static_cast<double>(fold.n);
  const double sy = fold.total;
  const double syy = fold.total_sq;
  const double denom_y = n * syy - sy * sy;
  for (auto& v : rho) v = 0.0;
  if (denom_y <= 0.0) return;  // constant trace: no relationship
  const double sqrt_denom_y = std::sqrt(denom_y);
  for (std::size_t r = 0; r < sxy.size(); ++r) {
    const double denom_x = n * sxx[r] - sx[r] * sx[r];
    if (denom_x <= 0.0) continue;  // constant model vector
    rho[r] = (n * sxy[r] - sx[r] * sy) / (std::sqrt(denom_x) * sqrt_denom_y);
  }
}

std::vector<double> rotation_correlation_folded_from_fold(
    const PhaseFold& fold, std::span<const double> pattern) {
  check_fold(fold, pattern);
  const std::size_t period = pattern.size();
  std::vector<double> sxy(period, 0.0);
  std::vector<double> sx(period, 0.0);
  std::vector<double> sxx(period, 0.0);
  std::array<RotationModelSums, 8> block;
  for (std::size_t r0 = 0; r0 < period; r0 += block.size()) {
    const std::size_t count = std::min(block.size(), period - r0);
    rotation_model_sums_blocked(
        fold, pattern, r0, std::span<RotationModelSums>(block.data(), count));
    for (std::size_t l = 0; l < count; ++l) {
      sxy[r0 + l] = block[l].sxy;
      sx[r0 + l] = block[l].sx;
      sxx[r0 + l] = block[l].sxx;
    }
  }
  return assemble_rotation_correlations(fold, sxy, sx, sxx);
}

std::vector<double> rotation_correlation_fft_from_fold(
    const PhaseFold& fold, std::span<const double> pattern) {
  check_fold(fold, pattern);
  std::vector<double> sx(pattern.size());
  std::vector<double> sxx(pattern.size());
  count_model_sums(fold.n, pattern, sx, sxx);
  // r[k] = sum_p a[p] * b[(p + k) mod P] — matches the model-sum shape.
  const auto sxy = circular_cross_correlation(fold.sums, pattern);
  return assemble_rotation_correlations(fold, sxy, sx, sxx);
}

std::vector<double> rotation_correlation_folded(
    std::span<const double> y, std::span<const double> pattern) {
  check_inputs(y, pattern);
  return rotation_correlation_folded_from_fold(
      fold_by_phase(y, pattern.size()), pattern);
}

std::vector<double> rotation_correlation_fft(std::span<const double> y,
                                             std::span<const double> pattern) {
  check_inputs(y, pattern);
  return rotation_correlation_fft_from_fold(fold_by_phase(y, pattern.size()),
                                            pattern);
}

std::vector<double> rotation_correlation_naive(
    std::span<const double> y, std::span<const double> pattern) {
  check_inputs(y, pattern);
  const std::size_t period = pattern.size();
  std::vector<double> model(y.size());
  std::vector<double> rho(period, 0.0);
  for (std::size_t r = 0; r < period; ++r) {
    for (std::size_t i = 0; i < y.size(); ++i) {
      model[i] = pattern[(i + r) % period];
    }
    rho[r] = util::pearson(model, y);
  }
  return rho;
}

}  // namespace clockmark::dsp
