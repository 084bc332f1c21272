// Incremental CPA: per-rotation Pearson statistics accumulated chunk by
// chunk, so a detector can watch a live trace with O(P + chunk) memory
// instead of materialising the full N-cycle measurement.
//
// Exactness contract: the accumulator is the streaming half of the folded
// sweep (dsp::fold_extend). kFolded finalises through the batch sweep's
// from-fold functions, kFft through SpectrumEngine::rotations, which is
// bit-identical to the batch kFft from-fold path. Feeding a trace's
// chunks in order therefore yields correlations bit-identical to
// cpa::correlate_rotations over the concatenated trace — the guarantee
// the online detector's tests assert against cpa::detect.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "cpa/correlation.h"
#include "cpa/spectrum_engine.h"
#include "cpa/spread_spectrum.h"
#include "dsp/correlate.h"

namespace clockmark::runtime {
class Executor;
}

namespace clockmark::cpa {

class RotationAccumulator {
 public:
  /// `pattern` is one period of the watermark model vector (0/1), as
  /// produced by to_model_pattern; kFft sweeps run through a
  /// SpectrumEngine built for it.
  explicit RotationAccumulator(std::vector<double> pattern);

  /// Accumulates against `engine`'s pattern and finalises kFft sweeps
  /// through it, sharing its pattern transform. Throws on a null engine.
  explicit RotationAccumulator(std::shared_ptr<const SpectrumEngine> engine);

  /// Appends the next per-cycle power values. Chunks must arrive in
  /// stream order; the phase cursor advances by the chunk length.
  void add(std::span<const double> y);

  std::size_t cycles() const noexcept { return fold_.n; }
  /// True once at least one full pattern period has been consumed (the
  /// sweep is undefined on shorter traces).
  bool ready() const noexcept { return fold_.n >= pattern().size(); }
  const std::vector<double>& pattern() const noexcept {
    return engine_->pattern();
  }
  const std::shared_ptr<const SpectrumEngine>& engine() const noexcept {
    return engine_;
  }
  const dsp::PhaseFold& fold() const noexcept { return fold_; }

  /// rho for every rotation of the pattern over everything added so far,
  /// bit-identical to correlate_rotations(Y, pattern, method) on the
  /// concatenated stream. kNaive is rejected (it needs the materialised
  /// trace); a non-null executor parallelises the kFolded O(P^2) sweep
  /// one rotation per work item with bit-identical output.
  std::vector<double> correlations(
      CorrelationMethod method = CorrelationMethod::kFft,
      runtime::Executor* executor = nullptr) const;

  /// Convenience: correlations() summarised for the detection decision.
  SpreadSpectrum spread_spectrum(
      CorrelationMethod method = CorrelationMethod::kFft,
      std::size_t guard = 8, runtime::Executor* executor = nullptr) const;

 private:
  std::shared_ptr<const SpectrumEngine> engine_;
  dsp::PhaseFold fold_;
};

}  // namespace clockmark::cpa
