// The candidate engine (sync/engine.h) must be unobservable from the
// search's point of view: score() bit-identical to the reference probe
// sync_score below, batches bit-identical serial vs parallel, a reused
// engine (the detection facade's steady state) bit-identical to a
// throwaway one, and one engine scoring many distinct warped lengths
// and repeats of them — serially and under an 8-thread executor — with
// the oracle's bits every time. Also pinned here: the meaning of
// SyncEstimate::evaluations (total scored candidates) and the opt-in
// progressive-resolution mode (coarse_top_k).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "attack/desync.h"
#include "cpa/spread_spectrum.h"
#include "runtime/executor.h"
#include "sim/scenario.h"
#include "sync/engine.h"
#include "sync/search.h"
#include "sync/types.h"
#include "sync/warp.h"

namespace {

using namespace clockmark;
using sim::ChipModel;
using sim::Scenario;
using sim::ScenarioConfig;

/// The reference probe: warp, then the uncached batch kFft sweep. The
/// engine's score() must equal it bit for bit.
double sync_score(std::span<const double> y, std::span<const double> pattern,
                  const sync::WarpSpec& spec, std::size_t guard) {
  const std::vector<double> warped = sync::warp_trace(y, spec);
  if (warped.size() < pattern.size()) return 0.0;
  return cpa::compute_spread_spectrum(warped, pattern,
                                      cpa::CorrelationMethod::kFft, guard)
      .peak_z;
}

ScenarioConfig fast_config(ChipModel chip, std::size_t cycles = 20000) {
  ScenarioConfig cfg = chip == ChipModel::kChip1 ? sim::chip1_default()
                                                 : sim::chip2_default();
  cfg.trace_cycles = cycles;
  cfg.acquisition.scope.noise_v_rms = 2e-3;
  cfg.acquisition.probe.noise_v_rms = 0.5e-3;
  return cfg;
}

/// Candidate specs spanning every shape the search probes: identity,
/// pure ratio (both directions), ratio + drift, fractional offsets, and
/// a shrink severe enough that the warped trace drops below one period.
std::vector<sync::WarpSpec> probe_specs() {
  std::vector<sync::WarpSpec> specs;
  specs.emplace_back();  // identity
  sync::WarpSpec s;
  s.ratio = 1.0 + 80e-6;
  specs.push_back(s);
  s = {};
  s.ratio = 1.0 - 40e-6;
  s.drift = 2e-9;
  specs.push_back(s);
  s = {};
  s.offset_cycles = 1.0 / 3.0;
  specs.push_back(s);
  s = {};
  s.offset_cycles = -25.4;
  s.ratio = 1.0 + 120e-6;
  specs.push_back(s);
  s = {};
  s.ratio = 6.0;  // warped length ~ n/6 < one period: scores 0.0
  specs.push_back(s);
  return specs;
}

void expect_estimates_equal(const sync::SyncEstimate& a,
                            const sync::SyncEstimate& b) {
  EXPECT_EQ(a.locked, b.locked);
  EXPECT_EQ(a.correction.offset_cycles, b.correction.offset_cycles);
  EXPECT_EQ(a.correction.ratio, b.correction.ratio);
  EXPECT_EQ(a.correction.drift, b.correction.drift);
  EXPECT_EQ(a.peak_rotation, b.peak_rotation);
  EXPECT_EQ(a.peak_z, b.peak_z);
  EXPECT_EQ(a.offset_cycles, b.offset_cycles);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

class SyncEngineChips : public ::testing::TestWithParam<ChipModel> {};

TEST_P(SyncEngineChips, ScoreBitIdenticalToSyncScore) {
  const Scenario sc(fast_config(GetParam()));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;
  const sync::CandidateEngine engine(r.pattern);
  const std::size_t guard = sync::BlindSyncConfig{}.guard;

  for (const sync::WarpSpec& spec : probe_specs()) {
    EXPECT_EQ(engine.score(y, spec, guard),
              sync_score(y, r.pattern, spec, guard))
        << "ratio=" << spec.ratio << " drift=" << spec.drift
        << " offset=" << spec.offset_cycles;
  }
}

INSTANTIATE_TEST_SUITE_P(Chips, SyncEngineChips,
                         ::testing::Values(ChipModel::kChip1,
                                           ChipModel::kChip2));

TEST(SyncEngine, ScoreBatchParallelBitIdenticalToSerial) {
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;
  const sync::CandidateEngine engine(r.pattern);
  const std::vector<sync::WarpSpec> specs = probe_specs();
  const std::size_t guard = sync::BlindSyncConfig{}.guard;

  const std::vector<double> serial =
      engine.score_batch(y, specs, guard, nullptr);
  runtime::Executor executor(4);
  const std::vector<double> parallel =
      engine.score_batch(y, specs, guard, &executor);
  ASSERT_EQ(serial.size(), specs.size());
  EXPECT_EQ(parallel, serial);  // bit-identical, element by element
}

TEST(SyncEngine, ReusedEngineBitIdenticalToThrowawaySearch) {
  // A facade-style engine locks two different attacked traces back to
  // back (the second search runs entirely against warm per-length
  // caches) and must reproduce the pattern-span entry point exactly.
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;
  const sync::CandidateEngine engine(r.pattern);

  attack::DesyncAttack offset;
  offset.kind = attack::DesyncKind::kFixedOffset;
  offset.offset_cycles = 25.4;
  attack::DesyncAttack drift;
  drift.kind = attack::DesyncKind::kDrift;
  drift.ratio = 1.0 + 60e-6;
  drift.drift = 2e-9;

  for (const auto& a : {offset, drift}) {
    const std::vector<double> attacked = attack::apply_desync(y, a);
    const sync::SyncEstimate reused = sync::find_sync(engine, attacked);
    const sync::SyncEstimate fresh = sync::find_sync(attacked, r.pattern);
    expect_estimates_equal(reused, fresh);
    EXPECT_TRUE(reused.locked);
  }
}

TEST(SyncEngine, EmptyPatternThrows) {
  EXPECT_THROW(sync::CandidateEngine(std::vector<double>{}),
               std::invalid_argument);
}

/// Ratio-only warps of a `cycles`-long trace with 40 pairwise distinct
/// warped lengths.
std::vector<sync::WarpSpec> distinct_length_specs(std::size_t cycles) {
  std::vector<sync::WarpSpec> specs;
  std::set<std::size_t> lengths;
  const std::vector<double> probe(cycles, 0.0);
  for (std::size_t k = 0; k < 40; ++k) {
    sync::WarpSpec s;
    s.ratio = 1.0 + 1e-4 * static_cast<double>(k);
    specs.push_back(s);
    lengths.insert(sync::warp_trace(probe, s).size());
  }
  EXPECT_EQ(lengths.size(), specs.size());
  return specs;
}

TEST(SyncEngineLengths, ScoresMatchOracleAcrossDistinctLengths) {
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;
  const sync::CandidateEngine engine(r.pattern);
  const std::size_t guard = sync::BlindSyncConfig{}.guard;
  const std::vector<sync::WarpSpec> specs = distinct_length_specs(y.size());

  std::vector<double> oracle;
  for (const sync::WarpSpec& spec : specs) {
    oracle.push_back(sync_score(y, r.pattern, spec, guard));
  }
  // Each length twice in a row, then the whole list again: one engine
  // scores every repeat with the oracle's bits.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(engine.score(y, specs[i], guard), oracle[i]) << i;
    EXPECT_EQ(engine.score(y, specs[i], guard), oracle[i]) << i;
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(engine.score(y, specs[i], guard), oracle[i]) << i;
  }
}

TEST(SyncEngineLengths, ParallelScoringMatchesOracleAcrossLengths) {
  // Eight workers score three copies of each of 40 lengths through one
  // engine (TSan lane).
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;
  const sync::CandidateEngine engine(r.pattern);
  const std::size_t guard = sync::BlindSyncConfig{}.guard;
  const std::vector<sync::WarpSpec> distinct = distinct_length_specs(y.size());

  std::vector<sync::WarpSpec> specs;
  std::vector<double> expected;
  for (const sync::WarpSpec& spec : distinct) {
    const double oracle = sync_score(y, r.pattern, spec, guard);
    for (int copy = 0; copy < 3; ++copy) {
      specs.push_back(spec);
      expected.push_back(oracle);
    }
  }
  runtime::Executor executor(8);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(engine.score_batch(y, specs, guard, &executor), expected);
  }
}

TEST(BlindSync, EvaluationsCountEveryScoredCandidate) {
  // evaluations = total candidates scored, accepted or not (pinned
  // semantics, sync/types.h). Under the default config the count is a
  // closed form: 17 coarse lattice points (window = 20000 cycles →
  // step 2.5e-5, half_points = ceil(200e-6 / 2.5e-5) = 8), then 2
  // descent rounds of 9-point grids — round 0: 3x9 ratio + 9 drift
  // coarse + 3x9 drift refine = 63, round 1: 3x9 + 3x9 = 54 — and the
  // fractional stage's 3 probes plus the parabola-vertex check probe:
  // 17 + 117 + 3 + 1 = 138.
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  attack::DesyncAttack a;
  a.kind = attack::DesyncKind::kFixedOffset;
  a.offset_cycles = 25.4;
  const std::vector<double> attacked =
      attack::apply_desync(r.acquisition.per_cycle_power_w, a);

  const sync::SyncEstimate est = sync::find_sync(attacked, r.pattern);
  EXPECT_TRUE(est.locked);
  // The vertex probe fired (a fixed fractional shift of 0.4 cycles is
  // exactly what stage 4 recovers), so the count includes it.
  EXPECT_NE(est.correction.offset_cycles, 0.0);
  EXPECT_EQ(est.evaluations, 138u);
}

TEST(BlindSync, CoarseTopKOffOrFullWindowIsExactlyHistorical) {
  // coarse_top_k only changes anything when the coarse window is a
  // strict prefix of the trace; with the default full-trace window the
  // knob must be a no-op bit for bit.
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  attack::DesyncAttack a;
  a.kind = attack::DesyncKind::kResample;
  a.ratio = 1.0 + 80e-6;
  const std::vector<double> attacked =
      attack::apply_desync(r.acquisition.per_cycle_power_w, a);

  sync::BlindSyncConfig with_knob;
  with_knob.coarse_top_k = 4;
  expect_estimates_equal(sync::find_sync(attacked, r.pattern, with_knob),
                         sync::find_sync(attacked, r.pattern));
}

TEST(BlindSync, PrunedCoarseStageStillLocks) {
  // Progressive resolution on a genuinely truncated window: rank the
  // lattice on the first 8192 cycles, rescore only the top 4 on the
  // full trace. The lock must survive and land on the same peak
  // rotation as the exact search with the same window.
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  attack::DesyncAttack a;
  a.kind = attack::DesyncKind::kResample;
  a.ratio = 1.0 + 80e-6;
  const std::vector<double> attacked =
      attack::apply_desync(r.acquisition.per_cycle_power_w, a);

  sync::BlindSyncConfig exact;
  exact.coarse_window_cycles = 8192;
  sync::BlindSyncConfig pruned = exact;
  pruned.coarse_top_k = 4;

  const sync::SyncEstimate e = sync::find_sync(attacked, r.pattern, exact);
  const sync::SyncEstimate p = sync::find_sync(attacked, r.pattern, pruned);
  EXPECT_TRUE(e.locked);
  EXPECT_TRUE(p.locked);
  EXPECT_EQ(p.peak_rotation, e.peak_rotation);
  EXPECT_GE(p.peak_z, 0.9 * e.peak_z);
}

}  // namespace
