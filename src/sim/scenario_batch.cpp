// Scenario::run_batch — the repetition-batched front half of the R-heavy
// studies. Synthesis stays per lane (chip II's noise overlay is a serial
// data-dependent recurrence; chip I's background is a cache read) and is
// run()'s own (fill_cached_power), but each lane's total power is kept
// as a plain trace and the acquisitions then ride one
// BatchAcquisitionKernel run as interleaved SoA lanes. See
// measure/batch_kernel.h for why that is both bit-identical to the
// per-rep path and substantially faster, and for the configurations the
// kernel acquires per lane instead.
#include <utility>
#include <vector>

#include "measure/batch_kernel.h"
#include "sim/scenario.h"

namespace clockmark::sim {

std::vector<BatchScenarioRepetition> Scenario::run_batch(
    std::size_t first_repetition, std::size_t count) const {
  std::vector<BatchScenarioRepetition> out(count);
  if (count == 0) return out;

  std::vector<power::PowerTrace> totals(count);
  std::vector<measure::BatchLane> lanes(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t rep = first_repetition + i;
    ScenarioResult r;
    r.true_rotation = true_rotation(rep);
    fill_cached_power(rep, r);
    out[i].true_rotation = r.true_rotation;
    totals[i] = std::move(r.total_power);
    lanes[i] = measure::BatchLane{totals[i].span(),
                                  acquisition_config(rep).noise_seed};
  }

  const measure::BatchAcquisitionKernel kernel(
      acquisition_config(first_repetition),
      cached_deterministic_traces().clock_hz);
  std::vector<measure::Acquisition> acquisitions = kernel.run(lanes);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].acquisition = std::move(acquisitions[i]);
  }
  return out;
}

}  // namespace clockmark::sim
