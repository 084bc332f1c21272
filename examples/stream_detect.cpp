// Online detection walkthrough: chip I's Dhrystone trace streamed
// chunk by chunk from acquisition into the online CPA detector, decided
// mid-stream, then compared against the batch detector over the full
// trace. Both paths go through the detect::Session facade — the same
// Request drives the streamed and the materialised run. The headline
// numbers: the cycle count at which the streaming decision fired, and
// that running to the end reproduces the batch spread spectrum bit for
// bit.
//
//   $ ./stream_detect [--cycles=300000] [--chunk=4096] [--threads=0]
//                     [--no-early-stop]
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "detect/session.h"
#include "runtime/executor.h"
#include "util/args.h"

using namespace clockmark;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  sim::ScenarioConfig config = sim::chip1_default();
  config.trace_cycles =
      static_cast<std::size_t>(args.get_int("cycles", 300000));
  const auto chunk_cycles =
      static_cast<std::size_t>(args.get_int("chunk", 4096));
  runtime::Executor executor(
      static_cast<std::size_t>(args.get_int("threads", 0)));

  detect::Request request;
  request.streaming.chunk_cycles = chunk_cycles;
  request.streaming.early_stop = !args.has("no-early-stop");
  args.reject_unknown();

  const sim::Scenario scenario(config);
  std::cout << "chip I / Dhrystone-like workload, " << config.trace_cycles
            << " cycles, streamed in " << chunk_cycles
            << "-cycle chunks\n\n";

  // Streaming: chunks come straight out of the chunked synthesis +
  // acquisition path; no full trace is ever materialised.
  stream::ScenarioSource source(scenario, /*repetition=*/0, chunk_cycles);
  const detect::Session session(request, source.pattern());
  const detect::Report streamed = session.run(source, &executor);
  const detect::StreamReport& report = *streamed.stream;

  std::cout << "streaming: " << (streamed.detected ? "DETECTED"
                                                   : "not detected");
  if (report.decision.decided) {
    std::cout << " after " << report.decision.decision_cycles << " of "
              << config.trace_cycles << " cycles ("
              << 100.0 * static_cast<double>(report.decision.decision_cycles) /
                     static_cast<double>(config.trace_cycles)
              << "% of the trace, " << report.decision.evaluations
              << " evaluations)";
  } else {
    std::cout << " (full trace, " << report.decision.cycles << " cycles)";
  }
  std::cout << "\n  " << streamed.detection.reason << "\n"
            << "  chunks pulled " << report.chunks << "\n\n";

  // Batch reference: the same Session deciding over the fully
  // materialised trace (what every other example does).
  const detect::Report batch = session.run(scenario, /*repetition=*/0);
  std::cout << "batch:     "
            << (batch.detected ? "DETECTED" : "not detected")
            << " on the full " << config.trace_cycles << "-cycle trace\n"
            << "  " << batch.detection.reason << "\n\n";

  // When the stream ran to the end (early stop off or never fired), the
  // two spread spectra agree bit for bit — same decision, same peak.
  const auto& s = streamed.detection.spectrum;
  const auto& b = batch.detection.spectrum;
  if (!report.decision.decided) {
    const bool identical = s.rho == b.rho && s.peak_rotation == b.peak_rotation;
    std::cout << "full-stream spectrum vs batch: "
              << (identical ? "bit-identical" : "MISMATCH") << "\n";
    if (!identical) return 2;
  } else {
    std::cout << "early decision peak at rotation " << s.peak_rotation
              << " (batch peak " << b.peak_rotation << ", expected "
              << source.true_rotation() << ")\n";
  }
  return streamed.detected == batch.detected ? 0 : 1;
}
