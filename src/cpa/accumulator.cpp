#include "cpa/accumulator.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "runtime/executor.h"

namespace clockmark::cpa {

RotationAccumulator::RotationAccumulator(std::vector<double> pattern)
    : RotationAccumulator(
          std::make_shared<const SpectrumEngine>(std::move(pattern))) {}

RotationAccumulator::RotationAccumulator(
    std::shared_ptr<const SpectrumEngine> engine)
    : engine_(std::move(engine)) {
  if (engine_ == nullptr) {
    throw std::invalid_argument("RotationAccumulator: null SpectrumEngine");
  }
  fold_.sums.assign(pattern().size(), 0.0);
}

void RotationAccumulator::add(std::span<const double> y) {
  dsp::fold_extend(fold_, y, pattern().size());
}

std::vector<double> RotationAccumulator::correlations(
    CorrelationMethod method, runtime::Executor* executor) const {
  switch (method) {
    case CorrelationMethod::kNaive:
      throw std::invalid_argument(
          "RotationAccumulator: the naive sweep needs the materialised "
          "trace; use kFolded or kFft");
    case CorrelationMethod::kFolded: {
      if (executor != nullptr && executor->thread_count() > 1) {
        // Same blocked inner loop and block partition as the serial
        // from-fold sweep, one block of kRotationBlockLanes rotations
        // per work item writing its own slots, then the shared assemble
        // stage — bit-identical at any thread count.
        const std::size_t period = pattern().size();
        if (fold_.n < period) {
          throw std::invalid_argument(
              "rotation_correlation: trace shorter than one pattern period");
        }
        std::vector<double> sxy(period, 0.0);
        std::vector<double> sx(period, 0.0);
        std::vector<double> sxx(period, 0.0);
        const std::size_t blocks =
            (period + kRotationBlockLanes - 1) / kRotationBlockLanes;
        executor->parallel_for(blocks, [&](std::size_t b) {
          const std::size_t r0 = b * kRotationBlockLanes;
          const std::size_t count =
              std::min(kRotationBlockLanes, period - r0);
          std::array<dsp::RotationModelSums, kRotationBlockLanes> block;
          dsp::rotation_model_sums_blocked(
              fold_, pattern(), r0,
              std::span<dsp::RotationModelSums>(block.data(), count));
          for (std::size_t l = 0; l < count; ++l) {
            sxy[r0 + l] = block[l].sxy;
            sx[r0 + l] = block[l].sx;
            sxx[r0 + l] = block[l].sxx;
          }
        });
        return dsp::assemble_rotation_correlations(fold_, sxy, sx, sxx);
      }
      return dsp::rotation_correlation_folded_from_fold(fold_, pattern());
    }
    case CorrelationMethod::kFft: {
      std::vector<double> rho(pattern().size());
      engine_->rotations(fold_, rho);
      return rho;
    }
  }
  throw std::invalid_argument("RotationAccumulator: bad method");
}

SpreadSpectrum RotationAccumulator::spread_spectrum(
    CorrelationMethod method, std::size_t guard,
    runtime::Executor* executor) const {
  return summarize_sweep(correlations(method, executor), guard);
}

}  // namespace clockmark::cpa
