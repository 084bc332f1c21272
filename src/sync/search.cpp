#include "sync/search.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "cpa/confidence.h"
#include "cpa/spread_spectrum.h"
#include "runtime/executor.h"
#include "sync/engine.h"

namespace clockmark::sync {
namespace {

std::size_t argmax(const std::vector<double>& scores) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return best;
}

}  // namespace

SyncEstimate find_sync(std::span<const double> y,
                       std::span<const double> pattern,
                       const BlindSyncConfig& config,
                       runtime::Executor* executor) {
  if (pattern.empty()) {
    throw std::invalid_argument("find_sync: empty pattern");
  }
  const CandidateEngine engine(
      std::vector<double>(pattern.begin(), pattern.end()));
  return find_sync(engine, y, config, executor);
}

SyncEstimate find_sync(const CandidateEngine& engine,
                       std::span<const double> y,
                       const BlindSyncConfig& config,
                       runtime::Executor* executor) {
  const std::vector<double>& pattern = engine.pattern();
  SyncEstimate est;
  const std::size_t period = pattern.size();
  if (y.size() < period + 1) return est;  // nothing to lock onto

  std::size_t evaluations = 0;
  const auto batch = [&](std::span<const double> trace,
                         const std::vector<WarpSpec>& specs) {
    evaluations += specs.size();
    return engine.score_batch(trace, specs, config.guard, executor);
  };

  // ---- Stage 1: coarse ratio lattice on a truncated window. A ratio
  // error e smears the peak by window * e cycles, so stepping the
  // lattice at 1/(2*window) bounds the worst smear to half a cycle —
  // the true ratio's neighbour always survives the scan.
  std::size_t window = config.coarse_window_cycles == 0
                           ? y.size()
                           : std::min(y.size(), config.coarse_window_cycles);
  window = std::max(window, std::min(y.size(), 2 * period));
  const std::span<const double> yw = y.first(window);
  const double coarse_step = 1.0 / (2.0 * static_cast<double>(window));
  const auto half_points = static_cast<std::size_t>(
      std::ceil(config.max_ratio_dev / coarse_step));

  std::vector<WarpSpec> lattice;
  lattice.reserve(2 * half_points + 1);
  for (std::size_t i = 0; i <= 2 * half_points; ++i) {
    WarpSpec s;
    s.ratio = 1.0 + (static_cast<double>(i) -
                     static_cast<double>(half_points)) *
                        coarse_step;
    lattice.push_back(s);
  }
  const std::vector<double> coarse_scores = batch(yw, lattice);
  std::size_t best_point = argmax(coarse_scores);

  // Progressive resolution (opt-in, BlindSyncConfig::coarse_top_k): the
  // window scores rank the lattice, the full trace decides among the
  // top K — so only K of the 2*half_points+1 candidates ever pay a
  // full-length sweep. With the knob off the window argmax decides
  // alone, the historical behaviour.
  const bool pruned = config.coarse_top_k > 0 &&
                      config.coarse_top_k < lattice.size() &&
                      window < y.size();
  if (pruned) {
    std::vector<std::size_t> order(lattice.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return coarse_scores[a] > coarse_scores[b];
                     });  // ties keep the lower lattice index first
    order.resize(config.coarse_top_k);
    std::sort(order.begin(), order.end());  // deterministic batch order
    std::vector<WarpSpec> finalists;
    finalists.reserve(order.size());
    for (const std::size_t i : order) finalists.push_back(lattice[i]);
    best_point = order[argmax(batch(y, finalists))];
  }
  double ratio = lattice[best_point].ratio;

  // ---- Stages 2+3: grid-zoom refinement on the full trace,
  // coordinate-descending over (ratio, drift). Each round probes a
  // 9-point grid across the bracket and shrinks it 4x around the best.
  // In pruned mode the ratio rounds except the last probe the window
  // instead (a ratio error coarse enough to survive a round is visible
  // there); drift rounds always use the full trace — drift is
  // invisible on the short window.
  double drift = 0.0;
  const auto refine = [&](double center, double half_span,
                          std::size_t window_rounds, const auto& make_spec) {
    double best = center;
    for (std::size_t round = 0; round < config.refine_rounds; ++round) {
      std::vector<WarpSpec> grid;
      std::vector<double> values;
      grid.reserve(9);
      for (int i = -4; i <= 4; ++i) {
        const double v =
            best + half_span * static_cast<double>(i) / 4.0;
        values.push_back(v);
        grid.push_back(make_spec(v));
      }
      const std::span<const double> trace =
          round < window_rounds ? yw : std::span<const double>(y);
      const std::vector<double> scores = batch(trace, grid);
      best = values[argmax(scores)];
      half_span /= 4.0;
    }
    return best;
  };
  const std::size_t ratio_window_rounds =
      pruned && config.refine_rounds > 0 ? config.refine_rounds - 1 : 0;

  const std::size_t rounds = std::max<std::size_t>(1, config.descent_rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    ratio = refine(ratio, coarse_step, ratio_window_rounds, [&](double v) {
      WarpSpec s;
      s.ratio = v;
      s.drift = drift;
      return s;
    });
    if (!config.search_drift) continue;
    if (round == 0) {
      // Coarse drift grid: drift is invisible on the short window (its
      // effect grows with the square of the length), so this stage
      // always probes the full trace.
      std::vector<WarpSpec> grid;
      std::vector<double> values;
      for (int i = -4; i <= 4; ++i) {
        const double v = config.max_drift * static_cast<double>(i) / 4.0;
        values.push_back(v);
        WarpSpec s;
        s.ratio = ratio;
        s.drift = v;
        grid.push_back(s);
      }
      drift = values[argmax(batch(y, grid))];
    }
    drift = refine(drift, config.max_drift / 4.0, 0, [&](double v) {
      WarpSpec s;
      s.ratio = ratio;
      s.drift = v;
      return s;
    });
  }

  // ---- Stage 4: fractional offset. Probe three sub-cycle shifts and
  // fit a parabola through their scores; keep the vertex only when it
  // actually beats the unshifted lock (sign- and noise-robust). The
  // vertex probe counts toward `evaluations` whether or not it wins —
  // the counter tracks scored candidates, not accepted ones.
  WarpSpec correction;
  correction.ratio = ratio;
  correction.drift = drift;
  {
    const double d = 1.0 / 3.0;
    std::vector<WarpSpec> probes(3, correction);
    probes[0].offset_cycles = -d;
    probes[2].offset_cycles = d;
    const std::vector<double> s = batch(y, probes);
    const double denom = s[0] - 2.0 * s[1] + s[2];
    double vertex = 0.0;
    if (denom < 0.0) {  // concave: the parabola has a maximum
      vertex = std::clamp(0.5 * d * (s[0] - s[2]) / denom, -0.5, 0.5);
    }
    if (vertex != 0.0) {
      WarpSpec shifted = correction;
      shifted.offset_cycles = vertex;
      const std::vector<double> check =
          batch(y, std::vector<WarpSpec>{shifted});
      if (check[0] > s[1]) correction.offset_cycles = vertex;
    }
  }

  // ---- Final lock: full spectrum under the recovered correction.
  const std::vector<double> warped = warp_trace(y, correction);
  est.correction = correction;
  est.evaluations = evaluations;
  if (warped.size() >= period) {
    const cpa::SpreadSpectrum ss =
        engine.spectrum()->sweep(warped, config.guard);
    est.peak_rotation = ss.peak_rotation;
    est.peak_z = ss.peak_z;
    est.confidence = cpa::detection_confidence(ss);
    est.locked = ss.peak_z >= config.min_lock_z;
    double frac = -correction.offset_cycles;
    frac = frac - std::round(frac);  // into (-0.5, 0.5]
    est.offset_cycles = static_cast<double>(ss.peak_rotation) + frac;
  }
  return est;
}

}  // namespace clockmark::sync
