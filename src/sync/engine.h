// Blind-sync candidate scoring: warp the trace, then sweep it through a
// shared cpa::SpectrumEngine, which holds the pattern's transform (see
// cpa/spectrum_engine.h for the contract).
//
// One blind search (sync/search.h) scores ~140 candidate warps against
// the same trace and pattern; scoring through one engine pays the
// pattern-side work once per engine instead of once per candidate.
// score() returns exactly what the reference probe returns — warp_trace,
// then compute_spread_spectrum(kFft) — asserted in
// tests/test_sync_engine.cpp.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "cpa/spectrum_engine.h"
#include "sync/types.h"

namespace clockmark::runtime {
class Executor;
}

namespace clockmark::sync {

class CandidateEngine {
 public:
  /// Binds the watermark pattern (one period of the 0/1 model vector)
  /// and builds its SpectrumEngine. Throws on an empty pattern.
  explicit CandidateEngine(std::vector<double> pattern);

  /// Scores through an existing engine, sharing its transform. Throws on a
  /// null engine.
  explicit CandidateEngine(std::shared_ptr<const cpa::SpectrumEngine> spectrum);

  const std::vector<double>& pattern() const noexcept {
    return spectrum_->pattern();
  }
  /// The sweep engine the scores run through (never null).
  const std::shared_ptr<const cpa::SpectrumEngine>& spectrum() const noexcept {
    return spectrum_;
  }

  /// One probe: warps the trace by `spec`, folds, sweeps, and returns
  /// the peak z-score. Warped traces shorter than one period score 0.0.
  double score(std::span<const double> y, const WarpSpec& spec,
               std::size_t guard) const;

  /// Scores a batch of candidates, optionally fanned out over the
  /// executor. Scores are independent per candidate, so parallel runs
  /// are bit-identical to serial ones.
  std::vector<double> score_batch(std::span<const double> y,
                                  const std::vector<WarpSpec>& specs,
                                  std::size_t guard,
                                  runtime::Executor* executor) const;

 private:
  std::shared_ptr<const cpa::SpectrumEngine> spectrum_;
};

}  // namespace clockmark::sync
