// The cm_serve detection service: fair-queue scheduling, broker
// governance (memo sharing, pinning, quotas), service verdicts
// bit-identical to direct detect::Session runs (chips I and II, 64 jobs
// over 4 tenants), cooperative cancellation at chunk boundaries, the
// wire protocol's codec + malformed-input rejection, and the TCP
// host / client pair end to end, including a host serving past its
// process's descriptor limit.
#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "attack/desync.h"
#include "detect/session.h"
#include "measure/trace_io.h"
#include "serve/broker.h"
#include "serve/client.h"
#include "serve/host.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/service.h"
#include "sim/scenario.h"
#include "stream/trace_source.h"

namespace {

using namespace clockmark;

serve::ScenarioRef fast_ref(int chip, std::size_t cycles = 12000,
                            std::uint64_t seed = 1) {
  serve::ScenarioRef ref;
  ref.chip = chip;
  ref.trace_cycles = cycles;
  ref.seed = seed;
  // The test-suite noise overrides: short traces stay deterministic.
  ref.scope_noise_v_rms = 2e-3;
  ref.probe_noise_v_rms = 0.5e-3;
  return ref;
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

/// A source the test holds by the throat: yields `gate_after` chunks
/// freely, then blocks until release() — the seam for asserting that a
/// cancel lands exactly at the next chunk boundary.
class GatedSource : public stream::TraceSource {
 public:
  GatedSource(std::size_t chunk_cycles, std::size_t chunks,
              std::size_t gate_after)
      : chunk_cycles_(chunk_cycles), chunks_(chunks),
        gate_after_(gate_after) {}

  std::optional<stream::Chunk> next() override {
    if (index_ >= chunks_) return std::nullopt;
    if (index_ == gate_after_) {
      delivered_gate_.set_value();
      released_.get_future().wait();
    }
    stream::Chunk chunk;
    chunk.index = index_;
    chunk.start_cycle = index_ * chunk_cycles_;
    chunk.values.assign(chunk_cycles_, 1e-3 * static_cast<double>(index_ + 1));
    ++index_;
    return chunk;
  }

  std::size_t total_cycles() const override {
    return chunks_ * chunk_cycles_;
  }

  /// Resolves once the source is parked before chunk `gate_after`.
  std::future<void> gate_reached() { return delivered_gate_.get_future(); }
  void release() { released_.set_value(); }

 private:
  std::size_t chunk_cycles_;
  std::size_t chunks_;
  std::size_t gate_after_;
  std::size_t index_ = 0;
  std::promise<void> delivered_gate_;
  std::promise<void> released_;
};

std::vector<double> square_pattern(std::size_t period = 64) {
  std::vector<double> pattern(period);
  for (std::size_t i = 0; i < period; ++i) {
    pattern[i] = i < period / 2 ? 1.0 : -1.0;
  }
  return pattern;
}

// --- FairQueue ------------------------------------------------------

TEST(ServeQueue, HighestPriorityLevelServedFirst) {
  serve::FairQueue<int> q(8);
  ASSERT_TRUE(q.push(1, serve::JobPriority::kLow, "t"));
  ASSERT_TRUE(q.push(2, serve::JobPriority::kNormal, "t"));
  ASSERT_TRUE(q.push(3, serve::JobPriority::kHigh, "t"));
  ASSERT_TRUE(q.push(4, serve::JobPriority::kHigh, "t"));
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 1);
}

TEST(ServeQueue, RoundRobinsTenantsWithinALevel) {
  serve::FairQueue<std::string> q(16);
  // Tenant a floods; tenants b and c submit one job each afterwards.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        q.push("a" + std::to_string(i), serve::JobPriority::kNormal, "a"));
  }
  ASSERT_TRUE(q.push("b0", serve::JobPriority::kNormal, "b"));
  ASSERT_TRUE(q.push("c0", serve::JobPriority::kNormal, "c"));
  // The rotation serves each live lane in turn: b and c are not starved
  // behind a's backlog.
  EXPECT_EQ(q.pop(), "a0");
  EXPECT_EQ(q.pop(), "b0");
  EXPECT_EQ(q.pop(), "c0");
  EXPECT_EQ(q.pop(), "a1");
  EXPECT_EQ(q.pop(), "a2");
  EXPECT_EQ(q.pop(), "a3");
}

TEST(ServeQueue, TryPushRespectsCapacityAndTryRemovePullsQueued) {
  serve::FairQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1, serve::JobPriority::kNormal, "t"));
  EXPECT_TRUE(q.try_push(2, serve::JobPriority::kNormal, "t"));
  EXPECT_FALSE(q.try_push(3, serve::JobPriority::kNormal, "t"));  // full
  const auto removed = q.try_remove([](int v) { return v == 1; });
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, 1);
  EXPECT_FALSE(q.try_remove([](int v) { return v == 1; }).has_value());
  EXPECT_TRUE(q.try_push(3, serve::JobPriority::kNormal, "t"));
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);

  const serve::JobQueueStats stats = q.stats();
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.pushes, 3u);
  EXPECT_EQ(stats.pops, 2u);
  EXPECT_EQ(stats.removed, 1u);
  EXPECT_EQ(stats.high_water, 2u);
}

TEST(ServeQueue, CloseDrainsThenStopsPoppersAndPushers) {
  serve::FairQueue<int> q(4);
  ASSERT_TRUE(q.push(7, serve::JobPriority::kNormal, "t"));
  q.close();
  EXPECT_FALSE(q.push(8, serve::JobPriority::kNormal, "t"));
  EXPECT_FALSE(q.try_push(8, serve::JobPriority::kNormal, "t"));
  EXPECT_EQ(q.pop(), 7);                 // buffered items drain
  EXPECT_FALSE(q.pop().has_value());     // then poppers stop
}

TEST(ServeQueue, BlockedPushCompletesWhenRoomAppears) {
  serve::FairQueue<int> q(1);
  ASSERT_TRUE(q.push(1, serve::JobPriority::kNormal, "t"));
  std::thread pusher([&] {
    EXPECT_TRUE(q.push(2, serve::JobPriority::kNormal, "t"));
  });
  EXPECT_EQ(q.pop(), 1);  // frees the slot, wakes the pusher
  pusher.join();
  EXPECT_EQ(q.pop(), 2);
  EXPECT_GE(q.stats().push_waits, 0u);
}

// --- ResourceBroker -------------------------------------------------

TEST(ServeBroker, ScenarioMemoSharedAcrossTenantsAndRepetitions) {
  serve::ResourceBroker broker;
  serve::ScenarioRef ref = fast_ref(1, 4000);
  bool hit = true;
  const auto first = broker.scenario("tenant-a", ref, &hit);
  EXPECT_FALSE(hit);
  ref.repetition = 17;  // repetition is not part of the memo identity
  const auto second = broker.scenario("tenant-b", ref, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());

  const serve::BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ServeBroker, ScenarioConfigMappingMatchesRef) {
  serve::ScenarioRef ref = fast_ref(2, 5000, 42);
  ref.watermark_active = false;
  const sim::ScenarioConfig cfg = serve::to_scenario_config(ref);
  EXPECT_EQ(cfg.trace_cycles, 5000u);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_FALSE(cfg.watermark_active);
  EXPECT_EQ(cfg.acquisition.scope.noise_v_rms, 2e-3);
  EXPECT_EQ(cfg.acquisition.probe.noise_v_rms, 0.5e-3);
  EXPECT_EQ(cfg.chip, sim::ChipModel::kChip2);
}

TEST(ServeBroker, EvictionIsLruButNeverTouchesPinnedEntries) {
  serve::BrokerConfig config;
  config.max_entries = 1;
  config.max_bytes = 8u << 20u;
  serve::ResourceBroker broker(config);

  // Hold entry A: while a "job" pins it, B cannot displace it — B is
  // handed out unretained instead of breaking the running job's memo.
  auto a = broker.scenario("t", fast_ref(1, 4000, 1));
  bool hit = true;
  auto b = broker.scenario("t", fast_ref(1, 4000, 2), &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(b, nullptr);
  serve::BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.uncached, 1u);
  EXPECT_EQ(stats.evictions, 0u);

  // Release the pin: the next build evicts A (the LRU) and retains C.
  a.reset();
  b.reset();
  auto c = broker.scenario("t", fast_ref(1, 4000, 3));
  ASSERT_NE(c, nullptr);
  stats = broker.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  // A is gone: re-acquiring it is a miss again.
  c.reset();
  broker.scenario("t", fast_ref(1, 4000, 1), &hit);
  EXPECT_FALSE(hit);
}

TEST(ServeBroker, TenantQuotaEvictsOwnEntriesOnly) {
  serve::BrokerConfig config;
  const std::size_t memo_bytes = 4000 * 3 * sizeof(double) + (1u << 20u);
  config.tenant_max_bytes = memo_bytes + memo_bytes / 2;  // fits one memo
  serve::ResourceBroker broker(config);

  {
    const auto a1 = broker.scenario("a", fast_ref(1, 4000, 1));
    const auto b1 = broker.scenario("b", fast_ref(1, 4000, 2));
  }  // unpin
  // Tenant a's second memo exceeds its quota: its own first memo is
  // evicted; tenant b's entry survives.
  broker.scenario("a", fast_ref(1, 4000, 3));
  const serve::BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.evictions, 1u);
  ASSERT_EQ(stats.tenants.count("b"), 1u);
  EXPECT_EQ(stats.tenants.at("b").entries, 1u);
  ASSERT_EQ(stats.tenants.count("a"), 1u);
  EXPECT_EQ(stats.tenants.at("a").entries, 1u);
  bool hit = false;
  broker.scenario("b", fast_ref(1, 4000, 2), &hit);
  EXPECT_TRUE(hit);  // b's memo was never a's eviction victim
}

TEST(ServeBroker, EngineRequestsDelegateToTheSharedEngineCache) {
  serve::ResourceBroker broker;
  const std::vector<double> pattern = square_pattern();
  bool hit = true;
  const auto first = broker.engine("a", pattern, &hit);
  EXPECT_FALSE(hit);
  const auto second = broker.engine("b", pattern, &hit);
  EXPECT_TRUE(hit);  // engines are shared freely across tenants
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(broker.stats().engines.hits, 1u);
}

// --- DetectionService -----------------------------------------------

TEST(ServeService, InvalidSpecIsRejectedImmediately) {
  serve::DetectionService service;
  serve::JobSpec empty;  // no payload at all
  const serve::JobTicket ticket = service.submit(empty);
  ASSERT_EQ(ticket.result.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const serve::JobResult result = ticket.result.get();
  EXPECT_EQ(result.status, serve::JobStatus::kRejected);
  EXPECT_NE(result.error.find("payload"), std::string::npos);

  serve::JobSpec two = empty;
  two.trace = std::vector<double>(16, 0.0);
  two.pattern = square_pattern();
  two.trace_file = "also-a-file";
  EXPECT_EQ(service.submit(two).result.get().status,
            serve::JobStatus::kRejected);
  EXPECT_EQ(service.stats().rejected, 2u);
}

TEST(ServeService, ScenarioJobMatchesDirectSessionBitIdentical) {
  serve::DetectionService service;
  for (const int chip : {1, 2}) {
    const serve::ScenarioRef ref = fast_ref(chip);
    serve::JobSpec spec;
    spec.tenant = "chips";
    spec.scenario = ref;
    const serve::JobResult result = service.submit(spec).result.get();
    ASSERT_EQ(result.status, serve::JobStatus::kDone) << result.error;

    const sim::Scenario direct(serve::to_scenario_config(ref));
    const detect::Report expected = detect::Session().run(direct, 0);
    expect_identical(result.report.detection, expected.detection);
    EXPECT_EQ(result.report.detected, expected.detected);
    EXPECT_EQ(result.report.cycles, expected.cycles);
  }
}

TEST(ServeService, InlineTraceJobMatchesSessionSpanRun) {
  const sim::Scenario sc(serve::to_scenario_config(fast_ref(1)));
  const auto r = sc.run(0);

  serve::DetectionService service;
  serve::JobSpec spec;
  spec.pattern = r.pattern;
  spec.trace = r.acquisition.per_cycle_power_w;
  const serve::JobResult result = service.submit(spec).result.get();
  ASSERT_EQ(result.status, serve::JobStatus::kDone) << result.error;

  const detect::Session session({}, r.pattern);
  const detect::Report expected = session.run(r.acquisition.per_cycle_power_w);
  expect_identical(result.report.detection, expected.detection);
}

TEST(ServeService, BlindFileJobMatchesRunFileBitIdentical) {
  const sim::Scenario sc(serve::to_scenario_config(fast_ref(1, 20000)));
  const auto r = sc.run(0);
  attack::DesyncAttack a;
  a.kind = attack::DesyncKind::kFixedOffset;
  a.offset_cycles = 14.2;
  const std::vector<double> attacked =
      attack::apply_desync(r.acquisition.per_cycle_power_w, a);
  const std::string path = temp_path("serve_blind.cmtrace");
  measure::write_trace_binary(path, attacked, measure::TraceMeta{});

  serve::DetectionService service;
  serve::JobSpec spec;
  spec.pattern = r.pattern;
  spec.trace_file = path;
  spec.request.sync = sync::SyncPolicy::kBlind;
  const serve::JobResult result = service.submit(spec).result.get();
  ASSERT_EQ(result.status, serve::JobStatus::kDone) << result.error;
  ASSERT_TRUE(result.report.sync.has_value());
  EXPECT_TRUE(result.report.sync->locked);
  EXPECT_TRUE(result.report.detected);

  // The batch-mode service run is Session::run_file with early stop off
  // and a full-trace lock — assert bit-identity against exactly that.
  detect::Request direct = spec.request;
  direct.streaming.early_stop = false;
  direct.lock_cycles = attacked.size();
  const detect::Report expected =
      detect::Session(direct, r.pattern).run_file(path);
  expect_identical(result.report.detection, expected.detection);
  EXPECT_EQ(result.report.sync->peak_z, expected.sync->peak_z);
  std::remove(path.c_str());
}

TEST(ServeService, SixtyFourJobsFourTenantsBitIdentical) {
  // The acceptance load: 64 queued jobs, 4 tenants, one worker. Four
  // distinct captures (one per tenant seed), every verdict bit-identical
  // to a direct Session run of the same capture.
  constexpr std::size_t kJobs = 64;
  constexpr std::size_t kTenants = 4;
  std::vector<serve::ScenarioRef> refs;
  std::vector<detect::Report> expected;
  for (std::size_t t = 0; t < kTenants; ++t) {
    refs.push_back(fast_ref(1, 8000, 10 + t));
    const sim::Scenario direct(serve::to_scenario_config(refs.back()));
    expected.push_back(detect::Session().run(direct, 0));
  }

  serve::ServiceConfig config;
  config.queue_capacity = kJobs;
  serve::DetectionService service(config);
  std::vector<serve::JobTicket> tickets;
  for (std::size_t i = 0; i < kJobs; ++i) {
    serve::JobSpec spec;
    spec.tenant = "tenant-" + std::to_string(i % kTenants);
    spec.priority = static_cast<serve::JobPriority>(i % 3);
    spec.scenario = refs[i % kTenants];
    tickets.push_back(service.submit(std::move(spec)));
  }
  for (std::size_t i = 0; i < kJobs; ++i) {
    const serve::JobResult result = tickets[i].result.get();
    ASSERT_EQ(result.status, serve::JobStatus::kDone) << result.error;
    expect_identical(result.report.detection,
                     expected[i % kTenants].detection);
  }

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kJobs);
  // Four characterisations total; the other 60 jobs rode the memos.
  EXPECT_EQ(stats.broker.misses, kTenants);
  EXPECT_EQ(stats.broker.hits, kJobs - kTenants);
}

TEST(ServeService, CancelRunningJobStopsAtNextChunkBoundary) {
  constexpr std::size_t kChunk = 1024;
  auto source = std::make_shared<GatedSource>(kChunk, /*chunks=*/8,
                                              /*gate_after=*/1);
  serve::DetectionService service;
  serve::JobSpec spec;
  spec.pattern = square_pattern();
  spec.source_fn = [source] {
    // Hand the service a view of the shared gate.
    class Borrowed : public stream::TraceSource {
     public:
      explicit Borrowed(std::shared_ptr<GatedSource> inner)
          : inner_(std::move(inner)) {}
      std::optional<stream::Chunk> next() override { return inner_->next(); }
      std::size_t total_cycles() const override {
        return inner_->total_cycles();
      }

     private:
      std::shared_ptr<GatedSource> inner_;
    };
    return std::make_unique<Borrowed>(source);
  };

  const serve::JobTicket ticket = service.submit(std::move(spec));
  // The job's worker ingested chunk 0 and is parked inside next() for
  // chunk 1.
  source->gate_reached().wait();
  EXPECT_TRUE(service.cancel(ticket.id));
  source->release();

  const serve::JobResult result = ticket.result.get();
  EXPECT_EQ(result.status, serve::JobStatus::kCancelled);
  // Stopped at the chunk boundary: exactly the one pre-gate chunk was
  // ingested; the released chunk was never fed to the detector.
  EXPECT_EQ(result.report.cycles, kChunk);
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(ServeService, CancelQueuedJobResolvesOnCallersThread) {
  auto blocker = std::make_shared<GatedSource>(256, /*chunks=*/4,
                                               /*gate_after=*/0);
  serve::DetectionService service;  // one worker
  serve::JobSpec busy;
  busy.pattern = square_pattern();
  busy.source_fn = [blocker] {
    class Borrowed : public stream::TraceSource {
     public:
      explicit Borrowed(std::shared_ptr<GatedSource> inner)
          : inner_(std::move(inner)) {}
      std::optional<stream::Chunk> next() override { return inner_->next(); }
      std::size_t total_cycles() const override {
        return inner_->total_cycles();
      }

     private:
      std::shared_ptr<GatedSource> inner_;
    };
    return std::make_unique<Borrowed>(blocker);
  };
  const serve::JobTicket running = service.submit(std::move(busy));
  blocker->gate_reached().wait();  // the lone worker is busy

  serve::JobSpec queued;
  queued.pattern = square_pattern();
  queued.trace = std::vector<double>(512, 1e-3);
  const serve::JobTicket victim = service.submit(std::move(queued));
  ASSERT_TRUE(service.cancel(victim.id));
  // The cancel itself resolved the future — no worker ever saw the job.
  ASSERT_EQ(victim.result.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  const serve::JobResult result = victim.result.get();
  EXPECT_EQ(result.status, serve::JobStatus::kCancelled);
  EXPECT_EQ(result.report.cycles, 0u);
  EXPECT_EQ(result.timing.run_s, 0.0);

  EXPECT_FALSE(service.cancel(victim.id));  // already terminal
  blocker->release();
  running.result.wait();
}

TEST(ServeService, MaxCyclesBudgetDecidesOnThePrefix) {
  const sim::Scenario sc(serve::to_scenario_config(fast_ref(1)));
  const auto r = sc.run(0);
  const std::size_t budget = 5000;

  serve::ServiceConfig config;
  config.chunk_cycles = 1024;  // budget is not chunk-aligned on purpose
  serve::DetectionService service(config);
  serve::JobSpec spec;
  spec.pattern = r.pattern;
  spec.trace = r.acquisition.per_cycle_power_w;
  spec.request.streaming.max_cycles = budget;
  const serve::JobResult result = service.submit(spec).result.get();
  ASSERT_EQ(result.status, serve::JobStatus::kDone) << result.error;
  EXPECT_EQ(result.report.cycles, budget);

  // The verdict is the one the prefix earns.
  const std::vector<double> prefix(
      r.acquisition.per_cycle_power_w.begin(),
      r.acquisition.per_cycle_power_w.begin() + budget);
  const detect::Report expected =
      detect::Session({}, r.pattern).run(prefix);
  expect_identical(result.report.detection, expected.detection);
}

TEST(ServeService, SourceThrowingMidStreamFailsTheJob) {
  serve::DetectionService service;
  serve::JobSpec spec;
  spec.pattern = square_pattern();
  spec.source_fn = []() -> std::unique_ptr<stream::TraceSource> {
    auto calls = std::make_shared<std::size_t>(0);
    return std::make_unique<stream::CallbackSource>(
        [calls]() -> std::optional<stream::Chunk> {
          if (*calls == 2) throw std::runtime_error("probe detached");
          stream::Chunk chunk;
          chunk.index = *calls;
          chunk.start_cycle = *calls * 256;
          chunk.values.assign(256, 1e-3);
          ++*calls;
          return chunk;
        });
  };
  const serve::JobResult result = service.submit(spec).result.get();
  EXPECT_EQ(result.status, serve::JobStatus::kFailed);
  EXPECT_EQ(result.error, "probe detached");
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(ServeService, BackpressureRejectsWhenConfiguredAndQueueFull) {
  auto blocker = std::make_shared<GatedSource>(256, 2, 0);
  serve::ServiceConfig config;
  config.queue_capacity = 1;
  config.reject_when_full = true;
  serve::DetectionService service(config);

  serve::JobSpec busy;
  busy.pattern = square_pattern();
  busy.source_fn = [blocker]() -> std::unique_ptr<stream::TraceSource> {
    class Borrowed : public stream::TraceSource {
     public:
      explicit Borrowed(std::shared_ptr<GatedSource> inner)
          : inner_(std::move(inner)) {}
      std::optional<stream::Chunk> next() override { return inner_->next(); }
      std::size_t total_cycles() const override {
        return inner_->total_cycles();
      }

     private:
      std::shared_ptr<GatedSource> inner_;
    };
    return std::make_unique<Borrowed>(blocker);
  };
  const serve::JobTicket running = service.submit(std::move(busy));
  blocker->gate_reached().wait();

  serve::JobSpec fill;
  fill.pattern = square_pattern();
  fill.trace = std::vector<double>(128, 0.0);
  const serve::JobTicket queued = service.submit(fill);
  const serve::JobResult overflow = service.submit(fill).result.get();
  EXPECT_EQ(overflow.status, serve::JobStatus::kRejected);
  EXPECT_NE(overflow.error.find("queue full"), std::string::npos);

  blocker->release();
  running.result.wait();
  queued.result.wait();
  service.drain();
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(ServeService, OnCompleteFiresForEveryAcceptedJob) {
  std::atomic<int> callbacks{0};
  serve::ServiceConfig config;
  config.on_complete = [&](const serve::JobResult&) { ++callbacks; };
  serve::DetectionService service(config);

  serve::JobSpec spec;
  spec.pattern = square_pattern();
  spec.trace = std::vector<double>(2048, 1e-3);
  service.submit(spec).result.wait();
  service.submit(spec).result.wait();
  service.drain();
  EXPECT_EQ(callbacks.load(), 2);

  // Submit-time rejections resolve the future directly, no callback.
  service.submit(serve::JobSpec{}).result.wait();
  EXPECT_EQ(callbacks.load(), 2);
}

TEST(ServeService, ShutdownWithoutDrainCancelsQueuedJobs) {
  auto blocker = std::make_shared<GatedSource>(256, 2, 0);
  auto service = std::make_unique<serve::DetectionService>();
  serve::JobSpec busy;
  busy.pattern = square_pattern();
  busy.source_fn = [blocker]() -> std::unique_ptr<stream::TraceSource> {
    class Borrowed : public stream::TraceSource {
     public:
      explicit Borrowed(std::shared_ptr<GatedSource> inner)
          : inner_(std::move(inner)) {}
      std::optional<stream::Chunk> next() override { return inner_->next(); }
      std::size_t total_cycles() const override {
        return inner_->total_cycles();
      }

     private:
      std::shared_ptr<GatedSource> inner_;
    };
    return std::make_unique<Borrowed>(blocker);
  };
  const serve::JobTicket running = service->submit(std::move(busy));
  blocker->gate_reached().wait();
  serve::JobSpec queued;
  queued.pattern = square_pattern();
  queued.trace = std::vector<double>(512, 1e-3);
  const serve::JobTicket waiting = service->submit(std::move(queued));

  // shutdown(false) flags every active token, resolves the queued job
  // and only then joins the workers — so the queued job's future is
  // ready while the running one is still parked at the gate, and the
  // release below deterministically lands on an already-cancelled job.
  std::thread stopper([&] { service->shutdown(/*drain_queued=*/false); });
  EXPECT_EQ(waiting.result.get().status, serve::JobStatus::kCancelled);
  blocker->release();
  stopper.join();
  EXPECT_EQ(running.result.get().status, serve::JobStatus::kCancelled);
  EXPECT_EQ(service->submit(serve::JobSpec{}).result.get().status,
            serve::JobStatus::kRejected);
}

// --- Wire protocol --------------------------------------------------

serve::JobSpec wire_spec() {
  serve::JobSpec spec;
  spec.tenant = "acme";
  spec.priority = serve::JobPriority::kHigh;
  spec.mode = serve::JobMode::kStream;
  spec.request.streaming.max_cycles = 123456;
  spec.pattern = {1.0, -1.0, 0.5, -0.25};
  spec.request.sync = sync::SyncPolicy::kBlind;
  spec.request.method = cpa::CorrelationMethod::kFft;
  spec.request.policy.min_peak_z = 6.25;
  spec.request.lock_cycles = 4096;
  spec.request.streaming.chunk_cycles = 512;
  spec.request.streaming.early_stop = true;
  spec.request.streaming.confidence_threshold = 0.75;
  spec.request.use_file_meta = false;
  spec.trace = std::vector<double>{0.125, -3.5, 2.75, 0.0, 1e-9};
  spec.trace_meta.clock_hz = 1e7;
  spec.trace_meta.sample_rate_hz = 5e8;
  spec.trace_meta.trigger_offset_cycles = -3.25;
  return spec;
}

TEST(ServeProtocol, SubmitRoundTripPreservesEveryField) {
  const serve::JobSpec spec = wire_spec();
  const serve::JobSpec back = serve::decode_submit(serve::encode_submit(spec));
  EXPECT_EQ(back.tenant, spec.tenant);
  EXPECT_EQ(back.priority, spec.priority);
  EXPECT_EQ(back.mode, spec.mode);
  EXPECT_EQ(back.request.streaming.max_cycles,
            spec.request.streaming.max_cycles);
  EXPECT_EQ(back.pattern, spec.pattern);
  EXPECT_EQ(back.request.sync, spec.request.sync);
  EXPECT_EQ(back.request.method, spec.request.method);
  EXPECT_EQ(back.request.policy.min_peak_z, spec.request.policy.min_peak_z);
  EXPECT_EQ(back.request.lock_cycles, spec.request.lock_cycles);
  EXPECT_EQ(back.request.streaming.chunk_cycles,
            spec.request.streaming.chunk_cycles);
  EXPECT_EQ(back.request.streaming.early_stop,
            spec.request.streaming.early_stop);
  EXPECT_EQ(back.request.streaming.confidence_threshold,
            spec.request.streaming.confidence_threshold);
  EXPECT_EQ(back.request.use_file_meta, spec.request.use_file_meta);
  ASSERT_TRUE(back.trace.has_value());
  EXPECT_EQ(*back.trace, *spec.trace);  // doubles bit-identical
  EXPECT_EQ(back.trace_meta.clock_hz, spec.trace_meta.clock_hz);
  EXPECT_EQ(back.trace_meta.trigger_offset_cycles,
            spec.trace_meta.trigger_offset_cycles);
}

TEST(ServeProtocol, ScenarioAndFilePayloadsRoundTrip) {
  serve::JobSpec spec;
  spec.scenario = fast_ref(2, 7000, 5);
  spec.scenario->repetition = 3;
  spec.scenario->watermark_active = false;
  serve::JobSpec back = serve::decode_submit(serve::encode_submit(spec));
  ASSERT_TRUE(back.scenario.has_value());
  EXPECT_EQ(back.scenario->chip, 2);
  EXPECT_EQ(back.scenario->trace_cycles, 7000u);
  EXPECT_EQ(back.scenario->seed, 5u);
  EXPECT_EQ(back.scenario->repetition, 3u);
  EXPECT_FALSE(back.scenario->watermark_active);
  EXPECT_EQ(back.scenario->scope_noise_v_rms, 2e-3);

  serve::JobSpec file;
  file.pattern = {1.0, -1.0};
  file.trace_file = "/tmp/capture.cmtrace";
  back = serve::decode_submit(serve::encode_submit(file));
  EXPECT_EQ(back.trace_file, file.trace_file);
  EXPECT_FALSE(back.trace.has_value());
}

TEST(ServeProtocol, SourceFnPayloadCannotCrossTheWire) {
  serve::JobSpec spec;
  spec.pattern = {1.0, -1.0};
  spec.source_fn = [] { return std::unique_ptr<stream::TraceSource>(); };
  EXPECT_THROW(serve::encode_submit(spec), serve::ProtocolError);
}

TEST(ServeProtocol, TruncatedInlineTraceIsRejected) {
  serve::JobSpec spec;
  spec.pattern = {1.0, -1.0};
  spec.trace = std::vector<double>(64, 0.5);
  serve::Frame frame = serve::encode_submit(spec);
  // Chop half the trace samples off the frame: the CMTRACE2 count now
  // claims more cycles than the frame holds.
  frame.payload.resize(frame.payload.size() - 32 * sizeof(double));
  try {
    serve::decode_submit(frame);
    FAIL() << "truncated inline trace must be rejected";
  } catch (const serve::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(ServeProtocol, MalformedFramesThrowNotCrash) {
  serve::JobSpec spec;
  spec.pattern = {1.0};
  spec.trace = std::vector<double>(4, 0.25);
  serve::Frame frame = serve::encode_submit(spec);

  serve::Frame bad_enum = frame;
  // Payload layout starts: tenant (u32 len + bytes), then priority u8.
  bad_enum.payload[4 + spec.tenant.size()] = 7;  // no such priority
  EXPECT_THROW(serve::decode_submit(bad_enum), serve::ProtocolError);

  serve::Frame trailing = frame;
  trailing.payload.push_back(0xAB);  // trailing garbage
  EXPECT_THROW(serve::decode_submit(trailing), serve::ProtocolError);

  serve::Frame wrong_type = frame;
  wrong_type.type = serve::MsgType::kWait;
  EXPECT_THROW(serve::decode_submit(wrong_type), serve::ProtocolError);

  EXPECT_THROW(
      serve::unpack_frame(std::vector<std::uint8_t>{0x01, 0x02}),
      serve::ProtocolError);
}

TEST(ServeProtocol, ResultRoundTripWithAndWithoutSync) {
  serve::WireResult result;
  result.id = 42;
  result.tenant = "acme";
  result.status = serve::JobStatus::kDone;
  result.detected = true;
  result.confidence = 0.997;
  result.cycles = 123456;
  result.peak_rotation = 17;
  result.peak_z = 9.5;
  result.reason = "peak z 9.5 above threshold";
  result.queue_s = 0.25;
  result.run_s = 1.5;
  result.engine_hit = true;
  result.broker_hits = 3;
  result.engine_misses = 1;
  serve::WireSync sync;
  sync.offset_cycles = -14.2;
  sync.ratio = 1.00008;
  sync.locked = true;
  sync.peak_z = 11.0;
  result.sync = sync;

  const serve::WireResult back =
      serve::decode_result(serve::encode_result(result));
  EXPECT_EQ(back.id, result.id);
  EXPECT_EQ(back.status, result.status);
  EXPECT_EQ(back.detected, result.detected);
  EXPECT_EQ(back.confidence, result.confidence);
  EXPECT_EQ(back.reason, result.reason);
  EXPECT_EQ(back.queue_s, result.queue_s);
  EXPECT_EQ(back.engine_hit, result.engine_hit);
  EXPECT_EQ(back.broker_hits, result.broker_hits);
  ASSERT_TRUE(back.sync.has_value());
  EXPECT_EQ(back.sync->offset_cycles, sync.offset_cycles);
  EXPECT_EQ(back.sync->ratio, sync.ratio);
  EXPECT_TRUE(back.sync->locked);

  result.sync.reset();
  EXPECT_FALSE(serve::decode_result(serve::encode_result(result))
                   .sync.has_value());
}

TEST(ServeProtocol, FrameIoOverAPipeHandlesEofAndTornFrames) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const serve::Frame sent = serve::encode_wait(1234);
  serve::write_frame(fds[1], sent);
  std::optional<serve::Frame> got = serve::read_frame(fds[0]);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(serve::decode_wait(*got), 1234u);

  // Clean EOF between frames: nullopt, not an error.
  ::close(fds[1]);
  EXPECT_FALSE(serve::read_frame(fds[0]).has_value());
  ::close(fds[0]);

  // EOF mid-frame: a torn frame throws.
  ASSERT_EQ(::pipe(fds), 0);
  const std::vector<std::uint8_t> bytes = serve::pack_frame(sent);
  ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size() - 3),
            static_cast<ssize_t>(bytes.size() - 3));
  ::close(fds[1]);
  EXPECT_THROW(serve::read_frame(fds[0]), serve::ProtocolError);
  ::close(fds[0]);
}

// --- LocalClient and Dispatcher -------------------------------------

TEST(ServeLocalClient, SubmitWaitFlowOverTheFullCodec) {
  const sim::Scenario sc(serve::to_scenario_config(fast_ref(1, 8000)));
  const auto r = sc.run(0);
  serve::DetectionService service;
  serve::LocalClient client(service);

  serve::JobSpec spec;
  spec.tenant = "local";
  spec.pattern = r.pattern;
  spec.trace = r.acquisition.per_cycle_power_w;
  const serve::SubmitOutcome outcome = client.submit(spec);
  ASSERT_TRUE(outcome.accepted());
  const serve::WireResult result = client.wait(outcome.id);
  EXPECT_EQ(result.status, serve::JobStatus::kDone);
  EXPECT_EQ(result.cycles, r.acquisition.per_cycle_power_w.size());

  // The wire summary agrees with the full report on the future.
  const detect::Report expected =
      detect::Session({}, r.pattern).run(r.acquisition.per_cycle_power_w);
  EXPECT_EQ(result.detected, expected.detected);
  EXPECT_EQ(result.peak_z, expected.detection.spectrum.peak_z);
  EXPECT_EQ(result.peak_rotation, expected.detection.spectrum.peak_rotation);
}

TEST(ServeLocalClient, RejectionArrivesAsImmediateResult) {
  serve::DetectionService service;
  serve::LocalClient client(service);
  // Encodes fine (it has a payload) but fails service validation: a
  // trace payload with no expected pattern.
  serve::JobSpec spec;
  spec.trace = std::vector<double>(16, 0.0);
  const serve::SubmitOutcome outcome = client.submit(spec);
  ASSERT_FALSE(outcome.accepted());
  EXPECT_EQ(outcome.rejected->status, serve::JobStatus::kRejected);
  EXPECT_NE(outcome.rejected->error.find("pattern"), std::string::npos);

  // A payload-less spec can't even be encoded for the wire.
  EXPECT_THROW(client.submit(serve::JobSpec{}), serve::ProtocolError);
}

TEST(ServeLocalClient, WaitingOnAForeignJobIdFails) {
  serve::DetectionService service;
  serve::LocalClient client(service);
  EXPECT_THROW(client.wait(9999), std::runtime_error);
  EXPECT_FALSE(client.cancel(9999));
}

// --- ServiceHost / TcpClient ----------------------------------------

TEST(ServeHost, EndToEndOverTcpMatchesLocalVerdict) {
  const sim::Scenario sc(serve::to_scenario_config(fast_ref(1, 8000)));
  const auto r = sc.run(0);

  serve::DetectionService service;
  serve::ServiceHost host(service, {});  // ephemeral port
  ASSERT_NE(host.port(), 0);
  serve::TcpClient client("127.0.0.1", host.port());

  serve::JobSpec spec;
  spec.tenant = "tcp";
  spec.pattern = r.pattern;
  spec.trace = r.acquisition.per_cycle_power_w;
  spec.trace_meta.clock_hz = 1e7;
  const serve::SubmitOutcome outcome = client.submit(spec);
  ASSERT_TRUE(outcome.accepted());
  const serve::WireResult result = client.wait(outcome.id);
  EXPECT_EQ(result.status, serve::JobStatus::kDone);

  const detect::Report expected =
      detect::Session({}, r.pattern).run(r.acquisition.per_cycle_power_w);
  EXPECT_EQ(result.detected, expected.detected);
  EXPECT_EQ(result.peak_z, expected.detection.spectrum.peak_z);

  EXPECT_FALSE(client.cancel(outcome.id));  // already terminal
  client.shutdown_server();
  host.wait_for_shutdown();
  host.stop();
  service.shutdown(/*drain_queued=*/true);
}

/// Body of ServesPastTheDescriptorLimit, run in a child process: the
/// lowered RLIMIT_NOFILE acts on that process alone. Exits 0 when every
/// connection was served; a distinct nonzero code names the failed step.
[[noreturn]] void serve_past_descriptor_limit() {
  ::alarm(60);  // a wedged accept loop kills the child instead of hanging
  const auto fail = [](int code, const char* what) {
    std::fprintf(stderr, "%s (errno %d)\n", what, errno);
    std::_Exit(code);
  };
  constexpr rlim_t kLimit = 64;
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) fail(2, "getrlimit");
  if (lim.rlim_max < 2 * kLimit) fail(9, "hard descriptor limit too low");
  const auto set_limit = [&lim, &fail](rlim_t soft) {
    lim.rlim_cur = soft;
    if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) fail(3, "setrlimit");
  };
  set_limit(kLimit);

  serve::DetectionService service;
  serve::ServiceHost host(service, {});
  // Under a sanitizer, a thread's first and last checks need descriptors
  // of their own, so no thread may start or end while the table is full.
  // A client held open across step 1 keeps the accept thread and one
  // connection thread running throughout, and step 1 frees the table by
  // raising the limit at once, not one descriptor at a time.
  std::optional<serve::TcpClient> held;
  held.emplace("127.0.0.1", host.port());
  if (held->cancel(9999)) fail(8, "cancel of an unknown job accepted");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(host.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  // 1. Exhaust the table, free exactly one descriptor and connect with it:
  //    the host's accept() now fails with EMFILE. Once the limit rises,
  //    the host must still accept and serve that queued connection.
  std::vector<int> filler;
  for (int fd = 0; fd >= 0;) {
    fd = ::open("/dev/null", O_RDONLY);
    if (fd >= 0) filler.push_back(fd);
  }
  if (errno != EMFILE || filler.empty()) fail(4, "could not fill the table");
  ::close(filler.back());
  filler.pop_back();
  const int queued = ::socket(AF_INET, SOCK_STREAM, 0);
  if (queued < 0) fail(5, "socket");
  if (::connect(queued, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    fail(6, "connect");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  set_limit(2 * kLimit);
  held.reset();
  serve::write_frame(queued, serve::encode_cancel(9999));
  const std::optional<serve::Frame> ack = serve::read_frame(queued);
  if (!ack || serve::decode_cancel_ack(*ack)) fail(7, "queued connection");
  ::close(queued);
  for (const int fd : filler) ::close(fd);
  set_limit(kLimit);

  // 2. Three times more connect/close cycles than the limit: the host
  //    must release each connection's descriptor when its client goes.
  for (rlim_t i = 0; i < 3 * kLimit; ++i) {
    serve::TcpClient client("127.0.0.1", host.port());
    if (client.cancel(9999)) fail(10, "cancel of an unknown job accepted");
  }
  host.stop();
  service.shutdown(/*drain_queued=*/true);
  std::exit(0);
}

TEST(ServeHost, ServesPastTheDescriptorLimit) {
  // "threadsafe" re-executes the test binary for the child, so it starts
  // single-threaded whatever threads earlier tests left running.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(serve_past_descriptor_limit(), ::testing::ExitedWithCode(0),
              "");
}

TEST(ServeHost, StopWithoutClientsShutsDownCleanly) {
  serve::DetectionService service;
  auto host = std::make_unique<serve::ServiceHost>(service,
                                                   serve::HostConfig{});
  EXPECT_NE(host->port(), 0);
  host->stop();
  host->stop();  // idempotent
  host.reset();
}

}  // namespace
