// detect::Session's detection loop end to end: source -> detector
// wiring, early stop ending acquisition, fail-closed source failures,
// and the trace export / replay loop (write_trace_* -> ReplaySource).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpa/detector.h"
#include "detect/session.h"
#include "measure/trace_io.h"
#include "runtime/executor.h"
#include "sim/scenario.h"
#include "stream/trace_source.h"

namespace {

using namespace clockmark;
using stream::CallbackSource;
using stream::Chunk;

sim::ScenarioConfig fast_config(sim::ChipModel chip,
                                std::size_t cycles = 20000) {
  sim::ScenarioConfig cfg = chip == sim::ChipModel::kChip1
                                ? sim::chip1_default()
                                : sim::chip2_default();
  cfg.trace_cycles = cycles;
  cfg.acquisition.scope.noise_v_rms = 2e-3;
  cfg.acquisition.probe.noise_v_rms = 0.5e-3;
  return cfg;
}

/// CallbackSource replaying pre-chopped chunks (the test seam).
class ChunkReplay {
 public:
  explicit ChunkReplay(std::vector<Chunk> chunks)
      : chunks_(std::move(chunks)) {}
  std::optional<Chunk> operator()() {
    if (next_ >= chunks_.size()) return std::nullopt;
    return chunks_[next_++];
  }

 private:
  std::vector<Chunk> chunks_;
  std::size_t next_ = 0;
};

TEST(StreamSession, FullRunMatchesBatchDetect) {
  const sim::Scenario sc(fast_config(sim::ChipModel::kChip1));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;
  const auto batch = cpa::Detector().detect(y, r.pattern);

  detect::Request request;
  request.streaming.early_stop = false;
  CallbackSource source(ChunkReplay(stream::chop(y, 2048)), y.size());
  runtime::Executor executor(4);
  const detect::Report run =
      detect::Session(request, r.pattern).run(source, &executor);
  ASSERT_TRUE(run.stream.has_value());
  const detect::StreamReport& report = *run.stream;

  EXPECT_EQ(report.chunks, (y.size() + 2047) / 2048);
  EXPECT_EQ(report.decision.cycles, y.size());
  EXPECT_EQ(report.decision.result.spectrum.rho, batch.spectrum.rho);
  EXPECT_EQ(report.decision.detected, batch.detected);
}

TEST(StreamSession, EarlyStopHaltsSource) {
  // A long, clean trace: the decision fires mid-stream and the loop must
  // stop pulling instead of draining every chunk.
  const sim::Scenario sc(fast_config(sim::ChipModel::kChip1, 32768));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;

  CallbackSource source(ChunkReplay(stream::chop(y, 1024)), y.size());
  const detect::Report run = detect::Session({}, r.pattern).run(source);
  ASSERT_TRUE(run.stream.has_value());
  const detect::StreamReport& report = *run.stream;

  EXPECT_TRUE(report.decision.decided);
  EXPECT_TRUE(report.decision.detected);
  EXPECT_LE(report.decision.decision_cycles, y.size() / 2);
  // Not every chunk was consumed — acquisition genuinely ended early.
  EXPECT_LT(report.chunks, y.size() / 1024);
}

TEST(StreamSession, SourceFailureThrowsInsteadOfCleanEnd) {
  // A failing source ends the run with its error, never with a verdict
  // over the prefix — also when what it throws is not a std::exception.
  const auto failing_source = [](auto fail) {
    return CallbackSource([calls = 0, fail]() mutable -> std::optional<Chunk> {
      if (++calls == 3) fail();
      Chunk c;
      c.index = static_cast<std::size_t>(calls - 1);
      c.start_cycle = static_cast<std::size_t>(calls - 1) * 64;
      c.values.assign(64, 1e-3);
      return c;
    });
  };
  const detect::Session session({}, std::vector<double>(63, 1.0));

  CallbackSource detached =
      failing_source([] { throw std::runtime_error("probe detached"); });
  try {
    (void)session.run(detached);
    FAIL() << "a failed source must not produce a verdict";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("probe detached"),
              std::string::npos);
  }

  CallbackSource foreign = failing_source([] { throw 42; });
  try {
    (void)session.run(foreign);
    FAIL() << "a failed source must not produce a verdict";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "unknown source failure");
  }
}

TEST(TraceIo, CsvRoundTripThroughReplaySource) {
  const std::vector<double> y = {1.25e-3, -2.0e-3, 3.75e-3, 0.0,
                                 5.5e-4,  6.25e-5, 7.0e-3};
  const std::string path =
      (std::filesystem::temp_directory_path() / "cm_trace_rt.csv").string();
  measure::write_trace_csv(path, y);

  stream::ReplaySource source(path, /*chunk_cycles=*/3);
  std::vector<double> back;
  while (auto c = source.next()) {
    EXPECT_EQ(c->start_cycle, back.size());
    back.insert(back.end(), c->values.begin(), c->values.end());
  }
  EXPECT_EQ(back, y);  // %.17g survives the round trip exactly
  std::remove(path.c_str());
}

TEST(TraceIo, BinaryRoundTripThroughReplaySource) {
  std::vector<double> y(1000);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = 1e-3 * static_cast<double>(i) / 7.0;
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "cm_trace_rt.bin").string();
  measure::write_trace_binary(path, y);

  stream::ReplaySource source(path, 128);
  EXPECT_EQ(source.total_cycles(), y.size());  // header carries the count
  std::vector<double> back;
  while (auto c = source.next()) {
    back.insert(back.end(), c->values.begin(), c->values.end());
  }
  EXPECT_EQ(back, y);
  std::remove(path.c_str());
}

TEST(TraceIo, ReplayedScenarioTraceDetectsLikeBatch) {
  // Export a batch trace, stream it back from disk through the
  // detection loop: the decision equals the batch detector's.
  const sim::Scenario sc(fast_config(sim::ChipModel::kChip1));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;
  const auto batch = cpa::Detector().detect(y, r.pattern);

  const std::string path =
      (std::filesystem::temp_directory_path() / "cm_trace_replay.bin")
          .string();
  measure::write_trace_binary(path, y);

  stream::ReplaySource source(path, 4096);
  detect::Request request;
  request.streaming.early_stop = false;
  const detect::Report report =
      detect::Session(request, r.pattern).run(source);
  EXPECT_EQ(report.detection.spectrum.rho, batch.spectrum.rho);
  EXPECT_EQ(report.detected, batch.detected);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(measure::TraceFileReader("/nonexistent/cm_trace.bin"),
               std::runtime_error);
}

}  // namespace
