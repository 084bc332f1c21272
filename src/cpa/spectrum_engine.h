// The one FFT rotation-sweep engine. A sweep correlates a phase fold
// against all P pattern rotations. Only sxy (fold sums against the
// pattern) depends on the trace; the engine computes it as one circular
// correlation against the pattern's forward FFT, computed once here. sx
// and sxx depend on the trace length alone (a phase-0 fold's counts are
// n/P + (p < n mod P)) and come from dsp::count_model_sums in O(P). A
// sweep therefore costs 2 transforms. Studies call sweep(), the blind
// search sweeps warped candidates (sync::CandidateEngine) and the
// streaming detector hands its fold to rotations().
//
// Bit-exactness: rotations(fold, rho) writes exactly
// dsp::rotation_correlation_fft_from_fold(fold, pattern()) and sweep()
// returns exactly compute_spread_spectrum(y, pattern(), kFft, guard),
// validation errors included — sxy comes from the same planned-transform
// arithmetic, sx/sxx from the same helper, and periods beyond
// dsp::kMaxPlannedFftSize take the planless from-fold path.
//
// The engine holds only the pattern and its transform, both fixed at
// construction; the FFT plan comes from the process-wide registry
// (dsp/fft_plan.h) per sweep and scratch is thread_local. Every member
// is const and thread-safe, and a retained engine never grows.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cpa/spread_spectrum.h"
#include "dsp/correlate.h"
#include "dsp/fft.h"

namespace clockmark::cpa {

class SpectrumEngine {
 public:
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

 private:
  std::vector<double> pattern_;
  /// Forward FFT of the pattern; empty when the period exceeds
  /// dsp::kMaxPlannedFftSize (rotations() then runs the planless path).
  std::vector<dsp::cplx> fft_pattern_;
};

}  // namespace clockmark::cpa
