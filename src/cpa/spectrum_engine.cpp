#include "cpa/spectrum_engine.h"

#include <algorithm>
#include <complex>
#include <cstring>
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
  std::vector<double> sq(period);
  for (std::size_t p = 0; p < period; ++p) sq[p] = pattern_[p] * pattern_[p];
  // Bitwise equal: sxx would repeat sx's correlation exactly.
  if (std::memcmp(sq.data(), pattern_.data(), period * sizeof(double)) != 0) {
    pattern_sq_ = std::move(sq);
  }
  plan_ = dsp::get_fft_plan(period);
  if (plan_ != nullptr) {
    // The fb side of circular_cross_correlation(a, pattern): the
    // transform is deterministic, so computing it once here yields the
    // exact bits the per-call transform would.
    std::vector<dsp::cplx> t(period);
    for (std::size_t p = 0; p < period; ++p) {
      t[p] = dsp::cplx(pattern_[p], 0.0);
    }
    plan_->transform(t, false, dsp::thread_fft_workspace(), fft_pattern_);
  }
}

void SpectrumEngine::correlate_pattern(std::span<const double> a,
                                       std::vector<double>& out) const {
  // The planned branch of circular_cross_correlation, op for op, minus
  // the fb transform.
  const std::size_t period = pattern_.size();
  auto& ws = dsp::thread_fft_workspace();
  ws.t0.resize(period);
  for (std::size_t i = 0; i < period; ++i) ws.t0[i] = dsp::cplx(a[i], 0.0);
  plan_->transform(ws.t0, false, ws, ws.t1);
  for (std::size_t k = 0; k < period; ++k) {
    ws.t0[k] = std::conj(ws.t1[k]) * fft_pattern_[k];
  }
  plan_->transform(ws.t0, true, ws, ws.t1);
  const double norm = 1.0 / static_cast<double>(period);
  out.resize(period);
  for (std::size_t k = 0; k < period; ++k) out[k] = ws.t1[k].real() * norm;
}

std::shared_ptr<const SpectrumEngine::LengthStats>
SpectrumEngine::length_stats(std::size_t n) const {
  bool admit = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot& slot : table_) {
      if (slot.n == n) {
        slot.last_use = ++clock_;
        return slot.stats;
      }
    }
    const auto seen = std::find(seen_once_.begin(), seen_once_.end(), n);
    if (seen != seen_once_.end()) {
      *seen = 0;
      admit = true;
    } else {
      seen_once_[seen_next_] = n;
      seen_next_ = (seen_next_ + 1) % seen_once_.size();
    }
  }
  // Build outside the lock: the result is a deterministic function of
  // n, so a concurrent duplicate build holds identical bits.
  const std::size_t period = pattern_.size();
  std::vector<double> counts_d(period);
  const std::size_t full = n / period;
  const std::size_t rem = n % period;
  for (std::size_t p = 0; p < period; ++p) {
    counts_d[p] = static_cast<double>(full + (p < rem ? 1 : 0));
  }
  auto stats = std::make_shared<LengthStats>();
  correlate_pattern(counts_d, stats->sx);
  if (!pattern_sq_.empty()) {
    stats->sxx = dsp::circular_cross_correlation(counts_d, pattern_sq_);
  }
  if (!admit) return stats;

  std::lock_guard<std::mutex> lock(mu_);
  for (const Slot& slot : table_) {
    if (slot.n == n) return slot.stats;  // a racing admission won
  }
  Slot fresh{n, std::move(stats), ++clock_};
  if (table_.size() < kMaxCachedLengths) {
    table_.push_back(std::move(fresh));
    return table_.back().stats;
  }
  auto victim = std::min_element(
      table_.begin(), table_.end(),
      [](const Slot& a, const Slot& b) { return a.last_use < b.last_use; });
  *victim = std::move(fresh);
  return victim->stats;
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

  if (plan_ == nullptr) {
    // Period beyond the plan registry's cap: the from-fold path is
    // already planless, delegate to it unchanged.
    const std::vector<double> r =
        dsp::rotation_correlation_fft_from_fold(fold, pattern_);
    std::copy(r.begin(), r.end(), rho.begin());
    return;
  }
  std::vector<double>& sxy = arena().sxy;
  correlate_pattern(fold.sums, sxy);
  const std::shared_ptr<const LengthStats> stats = length_stats(fold.n);
  dsp::assemble_rotation_correlations_into(
      fold, sxy, stats->sx, stats->sxx.empty() ? stats->sx : stats->sxx,
      rho);
}

SpreadSpectrum SpectrumEngine::sweep(std::span<const double> y,
                                     std::size_t guard) const {
  const std::size_t period = pattern_.size();
  // Clearing keeps the arena fold's capacity; fold_extend then sizes and
  // zeroes it exactly as it does a default-constructed fold.
  dsp::PhaseFold& fold = arena().fold;
  fold.sums.clear();
  fold.counts.clear();
  fold.total = 0.0;
  fold.total_sq = 0.0;
  fold.n = 0;
  dsp::fold_extend(fold, y, period);
  std::vector<double> rho(period);
  rotations(fold, rho);
  return summarize_sweep(std::move(rho), guard);
}

std::size_t SpectrumEngine::cached_lengths() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

}  // namespace clockmark::cpa
