// Ablation: batch vs streaming detection — wall-clock latency to a
// decision and how much trace data each path holds at peak.
//
// The batch path materialises the full sample-rate waveform (cycles x
// samples_per_cycle doubles) plus the Y vector before the sweep even
// starts; the streaming loop holds one chunk plus the O(P) rotation
// fold, and with early stop it answers before the trace ends.
// --json=PATH writes the comparison as a BenchJson record
// (BENCH_stream.json in the tier-1 smoke run).
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>

#include "bench_common.h"
#include "cpa/detector.h"
#include "detect/session.h"
#include "util/csv.h"

using namespace clockmark;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {.cycles = 150000});
  const auto chunk_cycles =
      static_cast<std::size_t>(cli.args().get_int("chunk", 4096));
  cli.reject_unknown();
  bench::print_header(
      "abl_stream_latency — batch vs streaming detection",
      "extends paper Sec. IV (online variant of the 300k-cycle CPA)");

  sim::ScenarioConfig cfg = sim::chip1_default();
  cli.apply(cfg);
  const sim::Scenario scenario(cfg);
  const std::size_t spc = cfg.acquisition.waveform.samples_per_cycle;

  // ---- batch: materialise everything, then sweep -------------------
  // Every timed path below runs --trials times and keeps the fastest
  // wall-clock pass (the reports are deterministic, only the timing
  // varies); the tier-1 smoke uses 3 so the perf gate compares minima.
  const auto t_batch = std::chrono::steady_clock::now();
  const detect::Report batch = detect::Session().run(scenario);
  double batch_s = seconds_since(t_batch);
  for (std::size_t trial = 1; trial < cli.trials(); ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)detect::Session().run(scenario);
    batch_s = std::min(batch_s, seconds_since(t0));
  }
  // Peak trace data held: the sample-rate waveform plus Y.
  const std::size_t batch_bytes =
      cfg.trace_cycles * (spc + 1) * sizeof(double);

  // ---- streaming, early stop on, then run to the trace end ----------
  // Every pass builds a fresh Session, so each pays for its sweep engine
  // as the batch pass does.
  const auto stream_once = [&](const detect::Request& rq) {
    stream::ScenarioSource source(scenario, 0, chunk_cycles);
    return *detect::Session(rq, source.pattern())
                .run(source, cli.executor())
                .stream;
  };
  detect::Request request;
  request.streaming.chunk_cycles = chunk_cycles;

  const auto t_early = std::chrono::steady_clock::now();
  const detect::StreamReport early = stream_once(request);
  double early_s = seconds_since(t_early);
  for (std::size_t trial = 1; trial < cli.trials(); ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)stream_once(request);
    early_s = std::min(early_s, seconds_since(t0));
  }

  request.streaming.early_stop = false;
  const auto t_full = std::chrono::steady_clock::now();
  const detect::StreamReport full = stream_once(request);
  double full_s = seconds_since(t_full);
  for (std::size_t trial = 1; trial < cli.trials(); ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)stream_once(request);
    full_s = std::min(full_s, seconds_since(t0));
  }

  // Streaming's peak: the analog window of the one chunk in flight, and
  // the O(P) fold slots.
  const std::size_t stream_bytes =
      std::min(chunk_cycles, cfg.trace_cycles) * (spc + 1) * sizeof(double) +
      batch.scenario->pattern.size() * 2 * sizeof(double);

  const auto row = [](const char* name, bool detected, double secs,
                      std::size_t cycles, std::size_t bytes) {
    std::cout << std::setw(22) << name << std::setw(10)
              << (detected ? "yes" : "no") << std::setw(12)
              << std::setprecision(3) << std::fixed << secs << std::setw(12)
              << cycles << std::setw(16) << bytes << "\n";
  };
  std::cout << "\n" << std::setw(22) << "path" << std::setw(10) << "detected"
            << std::setw(12) << "seconds" << std::setw(12) << "cycles"
            << std::setw(16) << "bytes held" << "\n";
  row("batch", batch.detection.detected, batch_s, cfg.trace_cycles,
      batch_bytes);
  row("stream (early stop)", early.decision.detected, early_s,
      early.decision.decision_cycles, stream_bytes);
  row("stream (full trace)", full.decision.detected, full_s,
      full.decision.cycles, stream_bytes);

  const bool identical =
      full.decision.result.spectrum.rho == batch.detection.spectrum.rho;
  std::cout << "\nfull-stream spectrum vs batch: "
            << (identical ? "bit-identical" : "MISMATCH")
            << "; early decision used "
            << std::setprecision(1)
            << 100.0 * static_cast<double>(early.decision.decision_cycles) /
                   static_cast<double>(cfg.trace_cycles)
            << "% of the trace\n";

  util::CsvWriter csv(cli.out_file("abl_stream_latency.csv"));
  csv.text_row({"path", "detected", "seconds", "cycles", "bytes_held"});
  csv.text_row({"batch", batch.detection.detected ? "1" : "0",
                util::format_double(batch_s, 6),
                std::to_string(cfg.trace_cycles),
                std::to_string(batch_bytes)});
  csv.text_row({"stream_early", early.decision.detected ? "1" : "0",
                util::format_double(early_s, 6),
                std::to_string(early.decision.decision_cycles),
                std::to_string(stream_bytes)});
  csv.text_row({"stream_full", full.decision.detected ? "1" : "0",
                util::format_double(full_s, 6),
                std::to_string(full.decision.cycles),
                std::to_string(stream_bytes)});

  if (!cli.json_path().empty()) {
    bench::BenchJson json("abl_stream_latency", cli.threads());
    auto& rec = json.add_record("batch_vs_stream");
    bench::BenchJson::add_metric(rec, "batch_s", batch_s);
    bench::BenchJson::add_metric(rec, "stream_early_s", early_s);
    bench::BenchJson::add_metric(rec, "stream_full_s", full_s);
    // perf_gate-tracked aliases (the *_s names predate the gate's
    // suffix convention and stay for downstream parsers).
    bench::BenchJson::add_metric(rec, "batch_s_per_iter", batch_s);
    bench::BenchJson::add_metric(rec, "stream_early_s_per_iter", early_s);
    bench::BenchJson::add_metric(rec, "stream_full_s_per_iter", full_s);
    bench::BenchJson::add_metric(rec, "batch_bytes_held",
                                 static_cast<double>(batch_bytes));
    bench::BenchJson::add_metric(rec, "stream_bytes_held",
                                 static_cast<double>(stream_bytes));
    bench::BenchJson::add_metric(
        rec, "early_decision_cycles",
        static_cast<double>(early.decision.decision_cycles));
    bench::BenchJson::add_metric(
        rec, "early_fraction",
        static_cast<double>(early.decision.decision_cycles) /
            static_cast<double>(cfg.trace_cycles));
    bench::BenchJson::add_metric(rec, "bitwise_identical",
                                 identical ? 1.0 : 0.0);
    json.write(cli.json_path());
  }
  return identical && batch.detection.detected == full.decision.detected
             ? 0
             : 1;
}
