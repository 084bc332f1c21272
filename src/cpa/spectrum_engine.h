// The one FFT rotation-sweep engine. A sweep correlates a phase fold
// against all P pattern rotations through three circular correlations:
// sxy (fold sums), sx and sxx (fold counts). The engine computes the
// pattern's forward FFT once, tables sx/sxx per trace length (a phase-0
// fold's counts are n/P + (p < n mod P), a function of n alone), and
// reuses sx as sxx when the pattern is bitwise its own square (every
// 0/1 model pattern). A sweep then costs 2 transforms on a table hit
// and 4 on a miss, against 9 uncached. Studies call sweep(), the blind
// search sweeps warped candidates (sync::CandidateEngine) and the
// streaming detector hands its fold to rotations().
//
// Bit-exactness: rotations(fold, rho) writes exactly
// dsp::rotation_correlation_fft_from_fold(fold, pattern()) and sweep()
// returns exactly compute_spread_spectrum(y, pattern(), kFft, guard),
// validation errors included — the cached tables come from the same
// planned-transform arithmetic, and periods beyond dsp::kMaxPlannedFftSize
// take the planless from-fold path.
//
// The length table holds at most kMaxCachedLengths lengths, evicting
// the least recently used, and admits a length only on its second
// request, so a stream's ever-growing fold never occupies it. All
// members are const and thread-safe: the table is mutex-guarded and
// hands out shared_ptrs (eviction never frees an entry a sweep reads),
// scratch is thread_local, the FFT plan immutable.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cpa/spread_spectrum.h"
#include "dsp/correlate.h"
#include "dsp/fft.h"

namespace clockmark::dsp {
class FftPlan;
}

namespace clockmark::cpa {

class SpectrumEngine {
 public:
  /// Cap on the per-length sx/sxx table (32 entries of P doubles each,
  /// 1 MiB at P = 4095 for a 0/1 pattern). One blind search touches
  /// about ten warped lengths.
  static constexpr std::size_t kMaxCachedLengths = 32;

  /// Binds the watermark pattern (one period of the model vector) and
  /// precomputes its transform. Throws on an empty pattern.
  explicit SpectrumEngine(std::vector<double> pattern);

  const std::vector<double>& pattern() const noexcept { return pattern_; }

  /// rho for every rotation of the pattern against `fold`, written to
  /// `rho` (size P). `fold` must come from dsp::fold_by_phase or
  /// dsp::fold_extend started on an empty fold; throws like
  /// rotation_correlation_fft_from_fold on a period mismatch or a fold
  /// shorter than one period.
  void rotations(const dsp::PhaseFold& fold, std::span<double> rho) const;

  /// One trace's sweep + summary: fold, rotations(), summarize_sweep.
  SpreadSpectrum sweep(std::span<const double> y, std::size_t guard) const;

  /// Lengths currently held in the sx/sxx table (<= kMaxCachedLengths).
  std::size_t cached_lengths() const;

 private:
  /// sx[r] / sxx[r] for an n-sample fold. sxx is empty when the pattern
  /// is bitwise its own square: it would equal sx bit for bit.
  struct LengthStats {
    std::vector<double> sx;
    std::vector<double> sxx;
  };
  struct Slot {
    std::size_t n = 0;
    std::shared_ptr<const LengthStats> stats;
    std::uint64_t last_use = 0;
  };

  /// circular_cross_correlation(a, pattern()) with the pattern side of
  /// the transform read from the cache.
  void correlate_pattern(std::span<const double> a,
                         std::vector<double>& out) const;
  std::shared_ptr<const LengthStats> length_stats(std::size_t n) const;

  std::vector<double> pattern_;
  /// pattern_[p]^2, kept only when it differs bitwise from pattern_.
  std::vector<double> pattern_sq_;
  /// Plan for the period-length transforms; nullptr when the period
  /// exceeds the registry cap (rotations() then runs the planless path).
  std::shared_ptr<const dsp::FftPlan> plan_;
  std::vector<dsp::cplx> fft_pattern_;  ///< forward FFT of the pattern

  mutable std::mutex mu_;
  mutable std::vector<Slot> table_;  ///< admitted lengths, LRU-evicted
  /// Ring of lengths requested once and not yet admitted (0 = empty).
  mutable std::array<std::size_t, kMaxCachedLengths> seen_once_{};
  mutable std::size_t seen_next_ = 0;
  mutable std::uint64_t clock_ = 0;
};

}  // namespace clockmark::cpa
