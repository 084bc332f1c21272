// The detect::Session facade: bit-identity of its one loop against the
// batch composition find_sync → warp_trace → cpa::Detector::detect
// (a test-local oracle) under every SyncPolicy, streamed ≡ batch
// (including the chunked blind lock), fail-closed sources, trace-file
// round trips with the v2 capture metadata, and v1 compatibility.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "attack/desync.h"
#include "cpa/confidence.h"
#include "cpa/detector.h"
#include "detect/session.h"
#include "measure/trace_io.h"
#include "runtime/executor.h"
#include "stream/trace_source.h"
#include "sync/search.h"
#include "sync/warp.h"

namespace {

using namespace clockmark;
using sim::ChipModel;
using sim::Scenario;
using sim::ScenarioConfig;

ScenarioConfig fast_config(ChipModel chip, std::size_t cycles = 20000) {
  ScenarioConfig cfg = chip == ChipModel::kChip1 ? sim::chip1_default()
                                                 : sim::chip2_default();
  cfg.trace_cycles = cycles;
  // Short traces need a crisper measurement to keep tests deterministic.
  cfg.acquisition.scope.noise_v_rms = 2e-3;
  cfg.acquisition.probe.noise_v_rms = 0.5e-3;
  return cfg;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

void expect_identical(const cpa::DetectionResult& a,
                      const cpa::DetectionResult& b) {
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.spectrum.rho, b.spectrum.rho);  // bit-identical
  EXPECT_EQ(a.spectrum.peak_rotation, b.spectrum.peak_rotation);
  EXPECT_EQ(a.spectrum.peak_z, b.spectrum.peak_z);
}

/// The batch decision a Request denotes, composed from the library's
/// batch primitives: the sync handling applied up front, then one
/// Detector::detect over the (warped) trace. Session runs every input
/// through the streaming loop; this is the independent reference it
/// must match bit for bit.
detect::Report batch_oracle(const detect::Request& request,
                            std::span<const double> y,
                            std::span<const double> pattern) {
  detect::Report report;
  report.cycles = y.size();
  std::vector<double> warped;
  std::span<const double> input = y;
  if (request.sync == sync::SyncPolicy::kKnownOffset &&
      !request.known_warp.is_identity()) {
    warped = sync::warp_trace(y, request.known_warp);
    input = warped;
    sync::SyncEstimate applied;
    applied.correction = request.known_warp;
    applied.locked = true;
    report.sync = applied;
  } else if (request.sync == sync::SyncPolicy::kBlind) {
    const sync::SyncEstimate est = sync::find_sync(y, pattern, request.blind);
    report.sync = est;
    if (!est.correction.is_identity()) {
      warped = sync::warp_trace(y, est.correction);
      input = warped;
    }
  }
  report.detection =
      cpa::Detector(request.policy).detect(input, pattern, request.method);
  report.detected = report.detection.detected;
  report.confidence = cpa::detection_confidence(report.detection.spectrum);
  return report;
}

TEST(DetectFacade, ScenarioRunMatchesDeprecatedShimBitExactly) {
  // The oracle is the deprecated shim's composition, inlined:
  // Scenario::run + cpa::Detector::detect.
  for (const ChipModel chip : {ChipModel::kChip1, ChipModel::kChip2}) {
    const Scenario sc(fast_config(chip));
    const sim::ScenarioResult shim = sc.run(0);
    const cpa::DetectionResult oracle = cpa::Detector().detect(
        shim.acquisition.per_cycle_power_w, shim.pattern);
    const detect::Report report = detect::Session().run(sc, 0);
    expect_identical(report.detection, oracle);
    EXPECT_EQ(report.detected, oracle.detected);
    ASSERT_TRUE(report.scenario.has_value());
    EXPECT_EQ(report.scenario->acquisition.per_cycle_power_w,
              shim.acquisition.per_cycle_power_w);
    EXPECT_FALSE(report.sync.has_value());  // triggered: no correction
  }
}

TEST(DetectFacade, SpanRunMatchesComposedOracleUnderEverySyncPolicy) {
  for (const ChipModel chip : {ChipModel::kChip1, ChipModel::kChip2}) {
    const Scenario sc(fast_config(chip));
    const auto r = sc.run(0);
    attack::DesyncAttack a;
    a.kind = attack::DesyncKind::kFixedOffset;
    a.offset_cycles = 13.7;
    const std::vector<double> attacked =
        attack::apply_desync(r.acquisition.per_cycle_power_w, a);

    for (const sync::SyncPolicy policy :
         {sync::SyncPolicy::kTriggered, sync::SyncPolicy::kKnownOffset,
          sync::SyncPolicy::kBlind}) {
      SCOPED_TRACE(::testing::Message()
                   << "chip " << static_cast<int>(chip) << ", policy "
                   << static_cast<int>(policy));
      detect::Request request;
      request.sync = policy;
      request.known_warp.offset_cycles = -a.offset_cycles;
      const std::vector<double>& y =
          policy == sync::SyncPolicy::kTriggered
              ? r.acquisition.per_cycle_power_w
              : attacked;

      const detect::Report oracle = batch_oracle(request, y, r.pattern);
      const detect::Report report =
          detect::Session(request, r.pattern).run(y);
      expect_identical(report.detection, oracle.detection);
      EXPECT_EQ(report.detection.reason, oracle.detection.reason);
      EXPECT_EQ(report.detected, oracle.detected);
      EXPECT_EQ(report.confidence, oracle.confidence);
      EXPECT_EQ(report.cycles, oracle.cycles);
      ASSERT_EQ(report.sync.has_value(), oracle.sync.has_value());
      if (oracle.sync) {
        EXPECT_EQ(report.sync->correction.offset_cycles,
                  oracle.sync->correction.offset_cycles);
        EXPECT_EQ(report.sync->correction.ratio,
                  oracle.sync->correction.ratio);
        EXPECT_EQ(report.sync->correction.drift,
                  oracle.sync->correction.drift);
        EXPECT_EQ(report.sync->peak_z, oracle.sync->peak_z);
        EXPECT_EQ(report.sync->locked, oracle.sync->locked);
      }
    }
  }
}

TEST(DetectFacade, SpanShorterThanOnePeriodIsNotDetectedWithAReason) {
  const std::vector<double> pattern = {1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0};
  const std::vector<double> y(pattern.size() - 1, 1e-3);
  const detect::Report report = detect::Session({}, pattern).run(y);
  EXPECT_FALSE(report.detected);
  EXPECT_NE(report.detection.reason.find("shorter than one pattern period"),
            std::string::npos)
      << report.detection.reason;
  EXPECT_EQ(report.cycles, y.size());
}

TEST(DetectFacade, NaiveMethodIsRejected) {
  detect::Request request;
  request.method = cpa::CorrelationMethod::kNaive;
  const std::vector<double> pattern = {1.0, 0.0, 1.0, 1.0};
  const detect::Session session(request, pattern);
  const std::vector<double> y(64, 1e-3);
  EXPECT_THROW(session.run(y), std::invalid_argument);
  stream::SpanSource source(y, 16);
  EXPECT_THROW(session.run(source), std::invalid_argument);
}

TEST(DetectFacade, SourceThrowingMidStreamFailsClosed) {
  const std::vector<double> pattern = {1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0};
  constexpr std::size_t kGoodChunks = 3;
  std::size_t calls = 0;
  stream::CallbackSource source([&]() -> std::optional<stream::Chunk> {
    if (calls == kGoodChunks) throw std::runtime_error("probe detached");
    stream::Chunk chunk;
    chunk.index = calls;
    chunk.start_cycle = calls * 32;
    chunk.values.assign(32, 1e-3 * static_cast<double>(calls + 1));
    ++calls;
    return chunk;
  });
  detect::Request request;
  request.streaming.early_stop = false;
  try {
    detect::Session(request, pattern).run(source);
    FAIL() << "a failed source must not produce a verdict";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "probe detached");
  }
  EXPECT_EQ(calls, kGoodChunks);
}

TEST(DetectFacade, EarlyStopPullsNothingPastTheDecision) {
  // The loop pulls on the caller's thread and stops at the decision: a
  // live source is never asked for a chunk the detector will not see.
  const Scenario sc(fast_config(ChipModel::kChip1, 32768));
  const auto r = sc.run(0);
  const std::vector<stream::Chunk> chunks =
      stream::chop(r.acquisition.per_cycle_power_w, 1024);
  std::size_t pulls = 0;
  stream::CallbackSource source([&]() -> std::optional<stream::Chunk> {
    if (pulls == chunks.size()) return std::nullopt;
    return chunks[pulls++];
  });
  const detect::Report report = detect::Session({}, r.pattern).run(source);
  ASSERT_TRUE(report.stream.has_value());
  ASSERT_TRUE(report.stream->decision.decided);
  EXPECT_LT(report.stream->chunks, chunks.size());
  EXPECT_EQ(pulls, report.stream->chunks);
}

TEST(DetectFacade, BatchSpanMatchesScenarioOverload) {
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  const detect::Report via_scenario = detect::Session().run(sc, 0);
  const detect::Session bound({}, r.pattern);
  const detect::Report via_span = bound.run(r.acquisition.per_cycle_power_w);
  expect_identical(via_span.detection, via_scenario.detection);
  EXPECT_EQ(via_span.cycles, r.acquisition.per_cycle_power_w.size());
}

TEST(DetectFacade, UnboundPatternThrows) {
  const detect::Session session;
  const std::vector<double> y(100, 1.0);
  EXPECT_THROW(session.run(y), std::logic_error);
}

TEST(DetectFacade, StreamedTriggeredMatchesBatchBitExactly) {
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);

  detect::Request request;
  request.streaming.early_stop = false;
  request.streaming.chunk_cycles = 1234;
  const detect::Session session(request, r.pattern);

  const detect::Report batch = session.run(r.acquisition.per_cycle_power_w);
  stream::ScenarioSource source(sc, 0, 1234);
  const detect::Report streamed = session.run(source);

  expect_identical(streamed.detection, batch.detection);
  ASSERT_TRUE(streamed.stream.has_value());
  EXPECT_FALSE(streamed.stream->decision.decided);
}

TEST(DetectFacade, StreamedKnownOffsetMatchesBatchBitExactly) {
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;

  attack::DesyncAttack a;
  a.kind = attack::DesyncKind::kFixedOffset;
  a.offset_cycles = 17.3;
  const std::vector<double> attacked = attack::apply_desync(y, a);

  detect::Request request;
  request.sync = sync::SyncPolicy::kKnownOffset;
  // known_warp is the correction: the inverse of the capture's shift.
  request.known_warp.offset_cycles = -a.offset_cycles;
  request.streaming.early_stop = false;
  const detect::Session session(request, r.pattern);

  const detect::Report batch = session.run(attacked);
  ASSERT_TRUE(batch.sync.has_value());
  EXPECT_EQ(batch.sync->correction.offset_cycles, -a.offset_cycles);

  auto chunks = stream::chop(attacked, 999);
  std::size_t i = 0;
  stream::CallbackSource source(
      [&]() -> std::optional<stream::Chunk> {
        if (i >= chunks.size()) return std::nullopt;
        return chunks[i++];
      },
      attacked.size());
  const detect::Report streamed = session.run(source);
  expect_identical(streamed.detection, batch.detection);
}

TEST(DetectFacade, ChunkedBlindLockMatchesBatchBlindBitExactly) {
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  attack::DesyncAttack a;
  a.kind = attack::DesyncKind::kResample;
  a.ratio = 1.0 + 80e-6;
  const std::vector<double> attacked =
      attack::apply_desync(r.acquisition.per_cycle_power_w, a);

  detect::Request request;
  request.sync = sync::SyncPolicy::kBlind;
  request.streaming.early_stop = false;
  // Lock window >= the stream: the lock runs on the full trace at
  // finalize, which is exactly the batch blind path.
  request.lock_cycles = attacked.size();
  const detect::Session session(request, r.pattern);

  const detect::Report batch = session.run(attacked);
  ASSERT_TRUE(batch.sync.has_value());
  EXPECT_TRUE(batch.sync->locked);

  auto chunks = stream::chop(attacked, 2048);
  std::size_t i = 0;
  stream::CallbackSource source(
      [&]() -> std::optional<stream::Chunk> {
        if (i >= chunks.size()) return std::nullopt;
        return chunks[i++];
      },
      attacked.size());
  const detect::Report streamed = session.run(source);
  ASSERT_TRUE(streamed.sync.has_value());
  EXPECT_EQ(streamed.sync->correction.ratio, batch.sync->correction.ratio);
  EXPECT_EQ(streamed.sync->peak_z, batch.sync->peak_z);
  expect_identical(streamed.detection, batch.detection);
}

TEST(DetectFacade, MidStreamBlindLockStillDetects) {
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  attack::DesyncAttack a;
  a.kind = attack::DesyncKind::kFixedOffset;
  a.offset_cycles = 11.6;
  const std::vector<double> attacked =
      attack::apply_desync(r.acquisition.per_cycle_power_w, a);

  detect::Request request;
  request.sync = sync::SyncPolicy::kBlind;
  request.streaming.early_stop = false;
  request.lock_cycles = 2 * r.pattern.size();  // locks mid-stream
  const detect::Session session(request, r.pattern);

  auto chunks = stream::chop(attacked, 1024);
  std::size_t i = 0;
  stream::CallbackSource source(
      [&]() -> std::optional<stream::Chunk> {
        if (i >= chunks.size()) return std::nullopt;
        return chunks[i++];
      },
      attacked.size());
  const detect::Report streamed = session.run(source);
  ASSERT_TRUE(streamed.sync.has_value());
  EXPECT_TRUE(streamed.sync->locked);
  EXPECT_TRUE(streamed.detected);
}

TEST(TraceIo, BinaryV2RoundTripsValuesAndMeta) {
  const std::string path = temp_path("trace_v2.cmtrace");
  const std::vector<double> y = {1.5, -2.25, 3.125e-3, 0.0, 7.75};
  measure::TraceMeta meta;
  meta.clock_hz = 1e7;
  meta.sample_rate_hz = 5e8;
  meta.trigger_offset_cycles = 0.375;
  measure::write_trace_binary(path, y, meta);

  measure::TraceFileReader reader(path);
  EXPECT_TRUE(reader.binary());
  EXPECT_EQ(reader.format_version(), 2);
  ASSERT_TRUE(reader.total_cycles().has_value());
  EXPECT_EQ(*reader.total_cycles(), y.size());
  EXPECT_EQ(reader.meta().clock_hz, meta.clock_hz);
  EXPECT_EQ(reader.meta().sample_rate_hz, meta.sample_rate_hz);
  EXPECT_EQ(reader.meta().trigger_offset_cycles,
            meta.trigger_offset_cycles);

  measure::TraceMeta read_meta;
  EXPECT_EQ(measure::read_trace(path, &read_meta), y);  // bit-identical
  EXPECT_EQ(read_meta.trigger_offset_cycles, meta.trigger_offset_cycles);
}

TEST(TraceIo, CsvRoundTripsMetaAsCommentLines) {
  const std::string path = temp_path("trace_meta.csv");
  const std::vector<double> y = {0.25, 1.0 / 3.0, -17.5};
  measure::TraceMeta meta;
  meta.trigger_offset_cycles = 12.375;
  measure::write_trace_csv(path, y, meta);

  measure::TraceFileReader reader(path);
  EXPECT_FALSE(reader.binary());
  EXPECT_EQ(reader.format_version(), 2);
  EXPECT_EQ(reader.meta().trigger_offset_cycles, 12.375);
  EXPECT_EQ(reader.meta().clock_hz, 0.0);  // unset keys stay default
  EXPECT_EQ(measure::read_trace(path), y);
}

TEST(TraceIo, ReadsLegacyV1BinaryAndBareCsv) {
  // A CMTRACE1 file written by the previous format version.
  const std::string bin = temp_path("trace_v1.cmtrace");
  const std::vector<double> y = {4.5, -1.25, 0.5};
  {
    std::ofstream out(bin, std::ios::binary);
    out.write("CMTRACE1", 8);
    const std::uint64_t count = y.size();
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(y.data()),
              static_cast<std::streamsize>(y.size() * sizeof(double)));
  }
  measure::TraceFileReader reader(bin);
  EXPECT_TRUE(reader.binary());
  EXPECT_EQ(reader.format_version(), 1);
  EXPECT_EQ(reader.meta().trigger_offset_cycles, 0.0);
  EXPECT_EQ(measure::read_trace(bin), y);

  // A bare CSV with ordinary comments is still version 1 / no meta.
  const std::string csv = temp_path("trace_v1.csv");
  {
    std::ofstream out(csv);
    out << "# plain comment, not metadata\n0.5\n1.5 # trailing\n\n2.5\n";
  }
  measure::TraceFileReader csv_reader(csv);
  EXPECT_EQ(csv_reader.format_version(), 1);
  const std::vector<double> expect = {0.5, 1.5, 2.5};
  EXPECT_EQ(measure::read_trace(csv), expect);
}

TEST(DetectFile, DesyncedTraceRoundTripAndMetaDrivenCorrection) {
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);

  // A capture that started 12.4 cycles late, persisted with its offset.
  attack::DesyncAttack a;
  a.kind = attack::DesyncKind::kFixedOffset;
  a.offset_cycles = 12.4;
  const std::vector<double> attacked =
      attack::apply_desync(r.acquisition.per_cycle_power_w, a);
  measure::TraceMeta meta;
  meta.trigger_offset_cycles = a.offset_cycles;
  const std::string path = temp_path("desynced.cmtrace");
  measure::write_trace_binary(path, attacked, meta);

  // ReplaySource surfaces the metadata.
  stream::ReplaySource replay(path, 512);
  EXPECT_EQ(replay.meta().trigger_offset_cycles, a.offset_cycles);

  // run_file under the default (triggered) request upgrades to the
  // recorded known offset, applied as a correction (negated: the meta
  // records how late the capture started, the warp undoes it)...
  detect::Request request;
  request.streaming.early_stop = false;
  const detect::Session session(request, r.pattern);
  const detect::Report from_file = session.run_file(path);
  ASSERT_TRUE(from_file.sync.has_value());
  EXPECT_EQ(from_file.sync->correction.offset_cycles, -a.offset_cycles);

  // ... actually realigns the trace: the corrected run recovers the
  // aligned capture's peak rotation exactly (a wrong-signed
  // "correction" shifts the trace by 2 * offset and moves the peak by
  // ~25 rotations here) and keeps the aligned detection margin (same
  // bound as the blind-sync tests)...
  const detect::Report aligned =
      detect::Session(request, r.pattern)
          .run(r.acquisition.per_cycle_power_w);
  EXPECT_EQ(from_file.detection.spectrum.peak_rotation,
            aligned.detection.spectrum.peak_rotation);
  EXPECT_GE(from_file.detection.spectrum.peak_z,
            0.9 * aligned.detection.spectrum.peak_z);

  // ... and matches the in-memory known-offset path bit for bit.
  detect::Request known = request;
  known.sync = sync::SyncPolicy::kKnownOffset;
  known.known_warp.offset_cycles = -a.offset_cycles;
  const detect::Report batch =
      detect::Session(known, r.pattern).run(attacked);
  expect_identical(from_file.detection, batch.detection);

  // Opting out of the metadata keeps the raw triggered decision.
  detect::Request raw = request;
  raw.use_file_meta = false;
  const detect::Report untouched =
      detect::Session(raw, r.pattern).run_file(path);
  EXPECT_FALSE(untouched.sync.has_value());
}

TEST(TraceIo, TruncatedBinaryPayloadIsRejectedAtOpen) {
  const std::string path = temp_path("truncated.cmtrace");
  const std::vector<double> y(64, 1.25);
  measure::TraceMeta meta;
  meta.trigger_offset_cycles = 2.5;
  measure::write_trace_binary(path, y, meta);

  // Hand-truncate the file: drop the last 24 samples' bytes.
  std::error_code ec;
  const auto full = std::filesystem::file_size(path, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(path, full - 24 * sizeof(double), ec);
  ASSERT_FALSE(ec);

  try {
    measure::TraceFileReader reader(path);
    FAIL() << "truncated CMTRACE2 must be rejected at open";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("64 cycles"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
  // The streaming front door rejects it identically.
  EXPECT_THROW(stream::ReplaySource(path, 16), std::runtime_error);
}

TEST(TraceIo, TruncatedLegacyV1PayloadIsRejectedAtOpen) {
  const std::string path = temp_path("truncated_v1.cmtrace");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("CMTRACE1", 8);
    const std::uint64_t claimed = 100;  // header lies: only 3 samples follow
    out.write(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
    const double samples[3] = {1.0, 2.0, 3.0};
    out.write(reinterpret_cast<const char*>(samples), sizeof(samples));
  }
  EXPECT_THROW(measure::TraceFileReader{path}, std::runtime_error);
}

TEST(TraceIo, TrailingGarbageAfterPayloadIsRejected) {
  const std::string path = temp_path("trailing.cmtrace");
  const std::vector<double> y = {0.5, 1.5, 2.5};
  measure::write_trace_binary(path, y, {});
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("junk", 4);  // 4 stray bytes after the payload
  }
  try {
    measure::TraceFileReader reader(path);
    FAIL() << "trailing bytes must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("corrupt"), std::string::npos) << what;
    EXPECT_NE(what.find("4 trailing bytes"), std::string::npos) << what;
  }
}

TEST(EngineCacheLru, HitsMissesAndPointerIdentity) {
  detect::EngineCache cache(2);
  const std::vector<double> a = {1.0, -1.0, 1.0, -1.0};
  const std::vector<double> b = {1.0, 1.0, -1.0, -1.0};

  bool hit = true;
  const auto first = cache.acquire(a, &hit);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(hit);
  const auto again = cache.acquire(a, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), again.get());  // same engine, not a rebuild
  cache.acquire(b, &hit);
  EXPECT_FALSE(hit);

  const detect::EngineCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(cache.acquire({}, &hit), nullptr);  // empty pattern: no engine
}

TEST(EngineCacheLru, EvictsLeastRecentlyUsedAtCapacity) {
  detect::EngineCache cache(2);
  const std::vector<double> a = {1.0, -1.0};
  const std::vector<double> b = {2.0, -2.0};
  const std::vector<double> c = {3.0, -3.0};

  cache.acquire(a);
  cache.acquire(b);
  cache.acquire(a);  // refresh a: b is now the LRU
  cache.acquire(c);  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);

  bool hit = false;
  cache.acquire(a, &hit);
  EXPECT_TRUE(hit);  // a survived
  cache.acquire(b, &hit);
  EXPECT_FALSE(hit);  // b was the victim
}

TEST(EngineCacheLru, SharedEngineVerdictBitIdenticalToPrivateOne) {
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  attack::DesyncAttack a;
  a.kind = attack::DesyncKind::kFixedOffset;
  a.offset_cycles = 9.8;
  const std::vector<double> attacked =
      attack::apply_desync(r.acquisition.per_cycle_power_w, a);

  detect::Request request;
  request.sync = sync::SyncPolicy::kBlind;

  // Two sessions over one cache: the second is served the first's
  // engine, and the verdict is bit-identical to a cold session's.
  const auto shared = std::make_shared<detect::EngineCache>();
  const detect::Session cold(request, r.pattern, shared);
  const detect::Report baseline = cold.run(attacked);
  const detect::Session warm(request, r.pattern, shared);
  const detect::Report reused = warm.run(attacked);
  expect_identical(reused.detection, baseline.detection);
  EXPECT_EQ(shared->stats().misses, 1u);
  EXPECT_GE(shared->stats().hits, 1u);
}

TEST(DetectFacade, ConcurrentSessionReuseBitIdentical) {
  // N threads hammering one Session (and through it one EngineCache /
  // one CandidateEngine) must each produce the serial verdict bit for
  // bit — the data-race half of that claim is what the tier-1 TSan run
  // of this test checks.
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  attack::DesyncAttack a;
  a.kind = attack::DesyncKind::kFixedOffset;
  a.offset_cycles = 21.3;
  const std::vector<double> attacked =
      attack::apply_desync(r.acquisition.per_cycle_power_w, a);

  detect::Request request;
  request.sync = sync::SyncPolicy::kBlind;
  const detect::Session session(request, r.pattern);
  const detect::Report serial = session.run(attacked);

  constexpr int kThreads = 4;
  std::vector<detect::Report> reports(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { reports[static_cast<std::size_t>(t)] =
                       session.run(attacked); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const detect::Report& report : reports) {
    expect_identical(report.detection, serial.detection);
    ASSERT_TRUE(report.sync.has_value());
    EXPECT_EQ(report.sync->peak_z, serial.sync->peak_z);
  }
  // One engine build total; every other run was a cache hit.
  EXPECT_EQ(session.engines()->stats().misses, 1u);
  EXPECT_GE(session.engines()->stats().hits,
            static_cast<std::size_t>(kThreads));
}

TEST(DetectFacade, TriggeredAndFileRunsShareTheSessionEngine) {
  // Every run takes its engine from the session's cache, whatever the
  // sync policy: a retained engine holds only the pattern and its
  // transform, so sharing it is free and invisible in the verdicts.
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  const auto& y = r.acquisition.per_cycle_power_w;
  const std::string path = temp_path("shared_engine.cmtrace");
  measure::write_trace_binary(path, y);

  const detect::Request request;  // kTriggered, early stop on
  const detect::Session session(request, r.pattern);
  const detect::Report span_run = session.run(y);
  const detect::Report file_run = session.run_file(path);
  EXPECT_FALSE(span_run.engine_hit);
  EXPECT_TRUE(file_run.engine_hit);
  EXPECT_EQ(session.engines()->stats().misses, 1u);
  EXPECT_GE(session.engines()->stats().hits, 1u);

  const detect::Report fresh_span = detect::Session(request, r.pattern).run(y);
  const detect::Report fresh_file =
      detect::Session(request, r.pattern).run_file(path);
  expect_identical(span_run.detection, fresh_span.detection);
  EXPECT_EQ(span_run.cycles, fresh_span.cycles);
  EXPECT_EQ(span_run.confidence, fresh_span.confidence);
  expect_identical(file_run.detection, fresh_file.detection);
  EXPECT_EQ(file_run.cycles, fresh_file.cycles);
  EXPECT_EQ(file_run.confidence, fresh_file.confidence);
  std::filesystem::remove(path);
}

TEST(DetectFacade, ParallelExecutorBitIdenticalOnBlindBatch) {
  const Scenario sc(fast_config(ChipModel::kChip1));
  const auto r = sc.run(0);
  attack::DesyncAttack a;
  a.kind = attack::DesyncKind::kFixedOffset;
  a.offset_cycles = 25.4;
  const std::vector<double> attacked =
      attack::apply_desync(r.acquisition.per_cycle_power_w, a);

  detect::Request request;
  request.sync = sync::SyncPolicy::kBlind;
  const detect::Session session(request, r.pattern);
  const detect::Report serial = session.run(attacked);
  runtime::Executor executor(8);
  const detect::Report parallel = session.run(attacked, &executor);
  expect_identical(parallel.detection, serial.detection);
  ASSERT_TRUE(parallel.sync.has_value());
  EXPECT_EQ(parallel.sync->peak_z, serial.sync->peak_z);
}

}  // namespace
