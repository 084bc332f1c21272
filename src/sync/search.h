// Coarse-to-fine blind synchronisation: lock onto the watermark in an
// untriggered per-cycle trace without knowing the capture offset, the
// exact device clock, or its drift.
//
// The search exploits the structure of the CPA sweep itself: when the
// time base is right, the folded rotation correlation (dsp/correlate)
// concentrates the watermark into one sharp peak; any residual ratio
// error e smears that peak over ~N*e rotations and the peak z-score
// collapses. So "maximise peak z over warp parameters" is the lock
// criterion, and the folded machinery makes each probe O(N + P log P).
//
// Stages (DESIGN.md §11):
//   1. coarse ratio scan on a truncated window W: step 1/(2W) keeps the
//      worst-case smear under half a cycle inside the window;
//   2. grid-zoom refinement of the ratio on the full trace (a ratio
//      error visible only at N cycles is invisible at W);
//   3. drift scan + refinement, alternated with 2. (coordinate descent);
//   4. fractional offset by parabolic interpolation over the rho values
//      adjacent to the locked peak.
// Integer cycle offsets cost nothing: the rotation sweep absorbs them,
// which is what makes the lattice over (ratio, drift) tractable.
#pragma once

#include <span>

#include "sync/types.h"
#include "sync/warp.h"

namespace clockmark::runtime {
class Executor;
}

namespace clockmark::sync {

class CandidateEngine;

/// Runs the coarse-to-fine search and returns the recovered correction
/// plus lock statistics. `pattern` is one period of the 0/1 model
/// vector (cpa::to_model_pattern). A non-null executor parallelises the
/// candidate batches with bit-identical results (scores are computed
/// independently per candidate; the argmax is taken serially).
/// Traces shorter than one pattern period return locked = false with an
/// identity correction.
SyncEstimate find_sync(std::span<const double> y,
                       std::span<const double> pattern,
                       const BlindSyncConfig& config = {},
                       runtime::Executor* executor = nullptr);

/// Same search against a prebuilt engine (the engine carries the
/// pattern). Callers that lock repeatedly against one pattern — the
/// detection facade, the streaming detector, the desync-attack studies
/// — build the engine once and reuse its cached transforms across
/// searches. find_sync(y, pattern, ...) is exactly this with a
/// throwaway engine.
SyncEstimate find_sync(const CandidateEngine& engine,
                       std::span<const double> y,
                       const BlindSyncConfig& config = {},
                       runtime::Executor* executor = nullptr);

}  // namespace clockmark::sync
