#include "sync/engine.h"

#include <stdexcept>
#include <utility>

#include "runtime/executor.h"
#include "sync/warp.h"

namespace clockmark::sync {

CandidateEngine::CandidateEngine(std::vector<double> pattern)
    : spectrum_(std::make_shared<const cpa::SpectrumEngine>(
          std::move(pattern))) {}

CandidateEngine::CandidateEngine(
    std::shared_ptr<const cpa::SpectrumEngine> spectrum)
    : spectrum_(std::move(spectrum)) {
  if (spectrum_ == nullptr) {
    throw std::invalid_argument("CandidateEngine: null SpectrumEngine");
  }
}

double CandidateEngine::score(std::span<const double> y, const WarpSpec& spec,
                              std::size_t guard) const {
  // Per-thread warp buffer, grown to the largest trace scored on the
  // thread and reused across probes and engines.
  thread_local std::vector<double> warped;
  warp_trace_into(y, spec, warped);
  if (warped.size() < spectrum_->pattern().size()) return 0.0;
  return spectrum_->sweep(warped, guard).peak_z;
}

std::vector<double> CandidateEngine::score_batch(
    std::span<const double> y, const std::vector<WarpSpec>& specs,
    std::size_t guard, runtime::Executor* executor) const {
  const auto one = [&](std::size_t i) { return score(y, specs[i], guard); };
  if (executor != nullptr && executor->thread_count() > 1 &&
      specs.size() > 1) {
    return executor->parallel_map<double>(specs.size(), one);
  }
  std::vector<double> scores(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) scores[i] = one(i);
  return scores;
}

}  // namespace clockmark::sync
