// The paper's 100-repetition study (Fig. 6), used by the benches. Single
// detection runs go through detect::Session.
//
// The study takes the scenario by const reference — Scenario::run is
// thread-safe — and optionally fans repetitions out over a
// runtime::Executor. Parallel and serial runs are bit-exact (see
// runtime/seed.h for the derivation contract).
#pragma once

#include <cstddef>

#include "cpa/detector.h"
#include "cpa/repeatability.h"
#include "runtime/executor.h"
#include "sim/scenario.h"

namespace clockmark::sim {

/// Runs the paper's Fig. 6 study: `repetitions` independent runs of the
/// scenario, box-plotting in-phase vs off-phase correlation. The
/// repetitions ride the batched SoA acquisition path
/// (Scenario::run_batch, 8 lanes per block) with the CPA sweeps served
/// by one shared cpa::SpectrumEngine — bit-identical to running
/// scenario.run(rep) + compute_spread_spectrum per repetition, only
/// faster. When `executor` is non-null the repetition *blocks* execute
/// concurrently; nullptr (or a single-thread executor) is the serial
/// fallback. The result is byte-identical either way.
cpa::RepeatabilityResult run_repeatability_study(
    const Scenario& scenario, std::size_t repetitions,
    const cpa::DetectorPolicy& policy = {},
    runtime::Executor* executor = nullptr);

}  // namespace clockmark::sim
