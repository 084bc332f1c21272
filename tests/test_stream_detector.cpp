// OnlineDetector and the chunked acquisition path against the batch
// reference: the streamed spread spectrum must equal cpa::detect over
// the materialised trace bit for bit — for chip I and chip II, at one
// and at eight executor threads — and the early stop must decide well
// before the trace ends on a detectable chip I run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cpa/accumulator.h"
#include "cpa/detector.h"
#include "dsp/correlate.h"
#include "measure/acquisition.h"
#include "runtime/executor.h"
#include "sim/scenario.h"
#include "sim/trace_stream.h"
#include "stream/online_detector.h"
#include "stream/trace_source.h"
#include "sync/engine.h"

namespace {

using namespace clockmark;
using sim::ChipModel;
using sim::Scenario;
using sim::ScenarioConfig;
using stream::Chunk;
using stream::OnlineDetector;
using stream::OnlineDetectorConfig;

ScenarioConfig fast_config(ChipModel chip, std::size_t cycles = 20000) {
  ScenarioConfig cfg = chip == ChipModel::kChip1 ? sim::chip1_default()
                                                 : sim::chip2_default();
  cfg.trace_cycles = cycles;
  // Short traces need a crisper measurement to keep tests deterministic.
  cfg.acquisition.scope.noise_v_rms = 2e-3;
  cfg.acquisition.probe.noise_v_rms = 0.5e-3;
  return cfg;
}

/// Streams Y into an online detector (early stop off) and returns the
/// final decision, asserting the whole trace was consumed.
stream::OnlineDecision stream_all(const std::vector<double>& y,
                                  const std::vector<double>& pattern,
                                  std::size_t chunk_cycles,
                                  cpa::CorrelationMethod method,
                                  runtime::Executor* executor) {
  OnlineDetectorConfig cfg;
  cfg.early_stop = false;
  cfg.method = method;
  OnlineDetector det(pattern, cfg);
  for (const Chunk& c : stream::chop(y, chunk_cycles)) {
    det.ingest(c, executor);
  }
  EXPECT_EQ(det.cycles_consumed(), y.size());
  return det.finalize(executor);
}

void expect_identical(const cpa::DetectionResult& online,
                      const cpa::DetectionResult& batch) {
  EXPECT_EQ(online.detected, batch.detected);
  EXPECT_EQ(online.spectrum.rho, batch.spectrum.rho);  // bit-identical
  EXPECT_EQ(online.spectrum.peak_rotation, batch.spectrum.peak_rotation);
  EXPECT_EQ(online.spectrum.peak_value, batch.spectrum.peak_value);
  EXPECT_EQ(online.spectrum.peak_z, batch.spectrum.peak_z);
}

class OnlineDetectorChips
    : public ::testing::TestWithParam<std::tuple<ChipModel, std::size_t>> {};

TEST_P(OnlineDetectorChips, BitIdenticalToBatchDetect) {
  const auto [chip, threads] = GetParam();
  const Scenario sc(fast_config(chip));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;

  runtime::Executor executor(threads);
  const cpa::DetectionResult batch =
      cpa::Detector().detect(y, r.pattern, cpa::CorrelationMethod::kFft);

  // Uneven chunking (last chunk short, chunk not a divisor of the
  // period) must not matter.
  const auto online = stream_all(y, r.pattern, /*chunk_cycles=*/1234,
                                 cpa::CorrelationMethod::kFft, &executor);
  EXPECT_FALSE(online.decided);  // early stop was off
  expect_identical(online.result, batch);

  // The folded finalisation shares the identity guarantee.
  const auto folded = stream_all(y, r.pattern, 4096,
                                 cpa::CorrelationMethod::kFolded, &executor);
  const cpa::DetectionResult batch_folded =
      cpa::Detector().detect(y, r.pattern, cpa::CorrelationMethod::kFolded);
  expect_identical(folded.result, batch_folded);
}

INSTANTIATE_TEST_SUITE_P(
    ChipsAndThreads, OnlineDetectorChips,
    ::testing::Combine(::testing::Values(ChipModel::kChip1,
                                         ChipModel::kChip2),
                       ::testing::Values(std::size_t{1}, std::size_t{8})));

TEST(OnlineDetector, ScenarioSourceMatchesBatchAcquisition) {
  // The chunked synthesis + acquisition path reproduces the batch Y
  // vector and its metadata bit for bit (chip II exercises the seeded
  // noise overlay): aligned captures, a random trigger offset fed in
  // 9-cycle chunks (the smallest first chunk that covers the PDN
  // priming window plus the cycle the offset eats), and the PDN-less
  // chain.
  struct Input {
    const char* name;
    measure::TriggerSim trigger;
    bool pdn;
    std::size_t chunk_cycles;
  };
  const Input inputs[] = {
      {"aligned", measure::TriggerSim::kAligned, true, 1536},
      {"random-offset", measure::TriggerSim::kRandomOffset, true, 9},
      {"pdn-off", measure::TriggerSim::kAligned, false, 1536},
  };
  for (const Input& in : inputs) {
    for (const ChipModel chip : {ChipModel::kChip1, ChipModel::kChip2}) {
      SCOPED_TRACE(std::string(in.name) + " chip " +
                   (chip == ChipModel::kChip1 ? "I" : "II"));
      ScenarioConfig cfg = fast_config(chip);
      cfg.acquisition.trigger_sim = in.trigger;
      cfg.acquisition.enable_pdn_filter = in.pdn;
      const Scenario sc(cfg);
      const auto batch = sc.run(0);
      stream::ScenarioSource source(sc, 0, in.chunk_cycles);
      std::vector<double> streamed;
      while (auto c = source.next()) {
        ASSERT_EQ(c->start_cycle, streamed.size());
        streamed.insert(streamed.end(), c->values.begin(), c->values.end());
      }
      EXPECT_EQ(streamed, batch.acquisition.per_cycle_power_w);
      EXPECT_EQ(source.pattern(), batch.pattern);
      EXPECT_EQ(source.true_rotation(), batch.true_rotation);

      const auto stream = sc.open_stream(0, in.chunk_cycles);
      while (!stream->next().empty()) {
      }
      const auto summary = stream->summary();
      EXPECT_EQ(summary.cycles, batch.acquisition.per_cycle_power_w.size());
      EXPECT_EQ(summary.mean_power_w, batch.acquisition.mean_power_w);
      EXPECT_EQ(summary.lsb_power_w, batch.acquisition.lsb_power_w);
    }
  }
}

TEST(OnlineDetector, EarlyStopDecidesWithinHalfTheTraceOnChip1) {
  // Acceptance criterion: at the default confidence threshold, a
  // detectable chip I trace is decided from at most 50% of its cycles.
  const Scenario sc(fast_config(ChipModel::kChip1, 32768));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;

  OnlineDetector det(r.pattern, OnlineDetectorConfig{});  // defaults
  bool decided = false;
  for (const Chunk& c : stream::chop(y, 2048)) {
    if (det.ingest(c)) {
      decided = true;
      break;
    }
  }
  ASSERT_TRUE(decided);
  const auto& d = det.finalize();
  EXPECT_TRUE(d.detected);
  EXPECT_LE(d.decision_cycles, y.size() / 2);
  EXPECT_LT(d.decision_cycles, d.cycles + 1);  // recorded at decision time
  EXPECT_GE(d.confidence, 0.999);
  EXPECT_EQ(d.result.spectrum.peak_rotation, r.true_rotation);
}

TEST(OnlineDetector, EarlyStopNeverFiresOnInactiveWatermark) {
  auto cfg = fast_config(ChipModel::kChip1);
  cfg.watermark_active = false;
  const Scenario sc(cfg);
  const auto r = sc.run(0);

  OnlineDetector det(r.pattern, OnlineDetectorConfig{});
  for (const Chunk& c : stream::chop(r.acquisition.per_cycle_power_w, 2048)) {
    EXPECT_FALSE(det.ingest(c));
  }
  const auto& d = det.finalize();
  EXPECT_FALSE(d.decided);
  EXPECT_FALSE(d.detected);
}

TEST(OnlineDetector, OutOfOrderChunkThrows) {
  OnlineDetector det(std::vector<double>(63, 1.0), OnlineDetectorConfig{});
  Chunk c;
  c.values.assign(10, 0.5);
  det.ingest(c);
  Chunk gap;
  gap.start_cycle = 11;  // skips cycle 10
  gap.values.assign(5, 0.5);
  EXPECT_THROW(det.ingest(gap), std::invalid_argument);
  Chunk replay;  // replays cycles already consumed
  replay.start_cycle = 0;
  replay.values.assign(5, 0.5);
  EXPECT_THROW(det.ingest(replay), std::invalid_argument);
}

TEST(OnlineDetector, ConfigEngineServesEvaluationsWhenPatternsMatch) {
  const std::vector<double> pattern{1, 0, 0, 1, 1, 1, 0};
  OnlineDetectorConfig cfg;
  cfg.sync_policy = sync::SyncPolicy::kBlind;
  cfg.engine = std::make_shared<const sync::CandidateEngine>(pattern);
  const OnlineDetector shared(pattern, cfg);
  EXPECT_EQ(shared.accumulator().engine(), cfg.engine->spectrum());

  const OnlineDetector own({0, 1, 1, 0, 1, 0, 0}, cfg);
  EXPECT_NE(own.accumulator().engine(), cfg.engine->spectrum());
}

TEST(OnlineDetector, NaiveMethodRejected) {
  OnlineDetectorConfig cfg;
  cfg.method = cpa::CorrelationMethod::kNaive;
  EXPECT_THROW(OnlineDetector(std::vector<double>(63, 1.0), cfg),
               std::invalid_argument);
}

TEST(OnlineDetector, TraceShorterThanPeriodIsNotDetected) {
  OnlineDetector det(std::vector<double>(4095, 1.0), OnlineDetectorConfig{});
  Chunk c;
  c.values.assign(100, 1e-3);
  det.ingest(c);
  const auto& d = det.finalize();
  EXPECT_FALSE(d.detected);
  EXPECT_EQ(d.cycles, 100u);
  EXPECT_NE(d.result.reason.find("shorter"), std::string::npos);
}

TEST(RotationAccumulator, MatchesBatchCorrelationsChunkwise) {
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;

  const std::vector<double> batch = cpa::correlate_rotations(
      y, r.pattern, cpa::CorrelationMethod::kFft);

  cpa::RotationAccumulator acc(r.pattern);
  for (const Chunk& c : stream::chop(y, 777)) acc.add(c.values);
  EXPECT_EQ(acc.cycles(), y.size());
  EXPECT_TRUE(acc.ready());
  EXPECT_EQ(acc.correlations(cpa::CorrelationMethod::kFft), batch);

  // Folded path, serial and parallel, equals its batch counterpart.
  const std::vector<double> batch_folded = cpa::correlate_rotations(
      y, r.pattern, cpa::CorrelationMethod::kFolded);
  EXPECT_EQ(acc.correlations(cpa::CorrelationMethod::kFolded), batch_folded);
  runtime::Executor executor(8);
  EXPECT_EQ(acc.correlations(cpa::CorrelationMethod::kFolded, &executor),
            batch_folded);
  EXPECT_THROW(acc.correlations(cpa::CorrelationMethod::kNaive),
               std::invalid_argument);
}

/// The stream path's kFft finalisation against the from-fold oracle at
/// every chunk boundary with n >= P; then the last length is evaluated
/// twice more.
void expect_stream_matches_oracle(const std::vector<double>& y,
                                  const std::vector<double>& pattern) {
  cpa::RotationAccumulator acc(pattern);
  std::size_t checked = 0;
  for (const Chunk& c : stream::chop(y, 2048)) {
    acc.add(c.values);
    if (!acc.ready()) continue;
    EXPECT_EQ(acc.correlations(cpa::CorrelationMethod::kFft),
              dsp::rotation_correlation_fft_from_fold(acc.fold(), pattern))
        << "n=" << acc.cycles();
    ++checked;
  }
  EXPECT_GT(checked, 1u);
  const std::vector<double> oracle =
      dsp::rotation_correlation_fft_from_fold(acc.fold(), pattern);
  EXPECT_EQ(acc.correlations(cpa::CorrelationMethod::kFft), oracle);
  EXPECT_EQ(acc.correlations(cpa::CorrelationMethod::kFft), oracle);
}

class RotationAccumulatorOracle
    : public ::testing::TestWithParam<ChipModel> {};

TEST_P(RotationAccumulatorOracle, FftMatchesFromFoldAtEveryChunk) {
  const Scenario sc(fast_config(GetParam()));
  const auto r = sc.run(0);
  expect_stream_matches_oracle(r.acquisition.per_cycle_power_w, r.pattern);
}

INSTANTIATE_TEST_SUITE_P(Chips, RotationAccumulatorOracle,
                         ::testing::Values(ChipModel::kChip1,
                                           ChipModel::kChip2));

TEST(RotationAccumulatorOracle, NonBinaryPatternMatchesFromFold) {
  // A pattern that is not its own square keeps a separate sxx table.
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  std::vector<double> pattern = r.pattern;
  for (std::size_t p = 0; p < pattern.size(); p += 5) pattern[p] = 0.5;
  expect_stream_matches_oracle(r.acquisition.per_cycle_power_w, pattern);
}

}  // namespace
