#include "sim/experiment.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "cpa/spectrum_engine.h"

namespace clockmark::sim {

cpa::RepeatabilityResult run_repeatability_study(
    const Scenario& scenario, std::size_t repetitions,
    const cpa::DetectorPolicy& policy, runtime::Executor* executor) {
  const cpa::Detector detector(policy);
  // Repetitions travel the acquisition chain in blocks of
  // kRepsPerBlock interleaved SoA lanes (Scenario::run_batch — two
  // full-width BatchAcquisitionKernel groups per block), and the CPA
  // sweeps share one SpectrumEngine (cached pattern FFT). Both stages
  // are bit-identical to the historical
  // per-repetition loop, so the summarised result is unchanged.
  constexpr std::size_t kRepsPerBlock = 8;
  const std::size_t blocks =
      (repetitions + kRepsPerBlock - 1) / kRepsPerBlock;
  const cpa::SpectrumEngine engine(scenario.model_pattern());

  // One block = one work item when parallel. The block function nests
  // no parallel calls (the Executor is not reentrant).
  const auto run_block =
      [&](std::size_t block) -> std::vector<cpa::RepetitionOutcome> {
    const std::size_t first = block * kRepsPerBlock;
    const std::size_t count =
        std::min(kRepsPerBlock, repetitions - first);
    std::vector<BatchScenarioRepetition> reps =
        scenario.run_batch(first, count);
    std::vector<cpa::RepetitionOutcome> outcomes;
    outcomes.reserve(count);
    for (BatchScenarioRepetition& rep : reps) {
      cpa::RepetitionOutcome outcome;
      outcome.spectrum =
          engine.sweep(rep.acquisition.per_cycle_power_w, policy.guard);
      outcome.true_rotation = rep.true_rotation;
      outcome.detected = detector.decide(outcome.spectrum).detected;
      outcomes.push_back(std::move(outcome));
    }
    return outcomes;
  };

  std::vector<std::vector<cpa::RepetitionOutcome>> per_block;
  if (executor != nullptr && executor->thread_count() > 1 && blocks > 1) {
    per_block = executor->parallel_map<std::vector<cpa::RepetitionOutcome>>(
        blocks, run_block);
  } else {
    per_block.reserve(blocks);
    for (std::size_t block = 0; block < blocks; ++block) {
      per_block.push_back(run_block(block));
    }
  }
  std::vector<cpa::RepetitionOutcome> outcomes;
  outcomes.reserve(repetitions);
  for (std::vector<cpa::RepetitionOutcome>& block : per_block) {
    for (cpa::RepetitionOutcome& outcome : block) {
      outcomes.push_back(std::move(outcome));
    }
  }
  return cpa::summarize_repetitions(outcomes, policy.guard);
}

}  // namespace clockmark::sim
