#include "cpa/spectrum_engine.h"

#include <algorithm>
#include <complex>
#include <stdexcept>
#include <utility>

#include "dsp/fft_plan.h"

namespace clockmark::cpa {
namespace {

/// Per-thread scratch. Buffers grow to the largest period swept on the
/// thread and are reused across sweeps and engines.
struct SweepArena {
  dsp::PhaseFold fold;
  std::vector<double> sxy;
  std::vector<double> sx;
  std::vector<double> sxx;
};

SweepArena& arena() {
  thread_local SweepArena a;
  return a;
}

}  // namespace

SpectrumEngine::SpectrumEngine(std::vector<double> pattern)
    : pattern_(std::move(pattern)) {
  if (pattern_.empty()) {
    throw std::invalid_argument("SpectrumEngine: empty pattern");
  }
  const std::size_t period = pattern_.size();
  const auto plan = dsp::get_fft_plan(period);
  if (plan != nullptr) {
    // The fb side of circular_cross_correlation(a, pattern): the
    // transform is deterministic, so computing it once here yields the
    // exact bits the per-call transform would.
    std::vector<dsp::cplx> t(period);
    for (std::size_t p = 0; p < period; ++p) {
      t[p] = dsp::cplx(pattern_[p], 0.0);
    }
    plan->transform(t, false, dsp::thread_fft_workspace(), fft_pattern_);
  }
}

void SpectrumEngine::rotations(const dsp::PhaseFold& fold,
                               std::span<double> rho) const {
  // rotation_correlation_fft_from_fold's validation.
  const std::size_t period = pattern_.size();
  if (fold.sums.size() != period) {
    throw std::invalid_argument(
        "rotation_correlation: fold period does not match pattern");
  }
  if (fold.n < period) {
    throw std::invalid_argument(
        "rotation_correlation: trace shorter than one pattern period");
  }
  if (rho.size() != period) {
    throw std::invalid_argument("SpectrumEngine: rho size != period");
  }

  const auto plan = dsp::get_fft_plan(period);
  if (plan == nullptr) {
    // Period beyond the plan registry's cap: the from-fold path is
    // already planless, delegate to it unchanged.
    const std::vector<double> r =
        dsp::rotation_correlation_fft_from_fold(fold, pattern_);
    std::copy(r.begin(), r.end(), rho.begin());
    return;
  }
  // sxy: the planned branch of circular_cross_correlation(fold.sums,
  // pattern), op for op, minus the pattern-side transform.
  SweepArena& a = arena();
  auto& ws = dsp::thread_fft_workspace();
  ws.t0.resize(period);
  for (std::size_t i = 0; i < period; ++i) {
    ws.t0[i] = dsp::cplx(fold.sums[i], 0.0);
  }
  plan->transform(ws.t0, false, ws, ws.t1);
  for (std::size_t k = 0; k < period; ++k) {
    ws.t0[k] = std::conj(ws.t1[k]) * fft_pattern_[k];
  }
  plan->transform(ws.t0, true, ws, ws.t1);
  const double norm = 1.0 / static_cast<double>(period);
  a.sxy.resize(period);
  for (std::size_t k = 0; k < period; ++k) {
    a.sxy[k] = ws.t1[k].real() * norm;
  }
  a.sx.resize(period);
  a.sxx.resize(period);
  dsp::count_model_sums(fold.n, pattern_, a.sx, a.sxx);
  dsp::assemble_rotation_correlations_into(fold, a.sxy, a.sx, a.sxx, rho);
}

SpreadSpectrum SpectrumEngine::sweep(std::span<const double> y,
                                     std::size_t guard) const {
  const std::size_t period = pattern_.size();
  // Clearing keeps the arena fold's capacity; fold_extend then sizes and
  // zeroes it exactly as it does a default-constructed fold.
  dsp::PhaseFold& fold = arena().fold;
  fold.sums.clear();
  fold.total = 0.0;
  fold.total_sq = 0.0;
  fold.n = 0;
  dsp::fold_extend(fold, y, period);
  std::vector<double> rho(period);
  rotations(fold, rho);
  return summarize_sweep(std::move(rho), guard);
}

}  // namespace clockmark::cpa
