// CLI client for a running detect_serve daemon. Submits one detection
// job over the binary protocol, waits for the verdict, and prints the
// wire summary. The payload is either a trace file the *client* reads
// and ships inline as a CMTRACE2 block (--file, with --pattern holding
// one period of the expected watermark) or a scenario reference the
// server synthesises (--scenario-chip, using the simulator's pattern).
//
//   submit a file      ./detect_submit --port=P --file=cap.cmtrace
//                          --pattern=period.csv [--blind] [--stream]
//   submit a scenario  ./detect_submit --port=P --scenario-chip=1
//                          [--cycles=300000] [--seed=1] [--no-watermark]
//   cancel / stop      ./detect_submit --port=P --cancel=ID
//                      ./detect_submit --port=P --shutdown
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "measure/trace_io.h"
#include "serve/client.h"
#include "util/args.h"

using namespace clockmark;

namespace {

const char* status_name(serve::JobStatus status) {
  switch (status) {
    case serve::JobStatus::kQueued: return "queued";
    case serve::JobStatus::kRunning: return "running";
    case serve::JobStatus::kDone: return "done";
    case serve::JobStatus::kCancelled: return "cancelled";
    case serve::JobStatus::kFailed: return "failed";
    case serve::JobStatus::kRejected: return "rejected";
  }
  return "?";
}

serve::JobPriority parse_priority(const std::string& name) {
  if (name == "high") return serve::JobPriority::kHigh;
  if (name == "low") return serve::JobPriority::kLow;
  if (name == "normal") return serve::JobPriority::kNormal;
  std::cerr << "error: --priority must be high, normal or low (got '"
            << name << "')\n";
  std::exit(2);
}

void print_result(const serve::WireResult& r) {
  std::cout << "job " << r.id << " [" << r.tenant << "] "
            << status_name(r.status) << "\n";
  if (r.status == serve::JobStatus::kDone) {
    std::cout << "  verdict:   " << (r.detected ? "DETECTED" : "not detected")
              << " (confidence " << r.confidence << ")\n"
              << "  reason:    " << r.reason << "\n"
              << "  cycles:    " << r.cycles << ", peak rotation "
              << r.peak_rotation << ", peak z " << r.peak_z << "\n";
    if (r.sync.has_value()) {
      std::cout << "  sync:      " << (r.sync->locked ? "locked" : "no lock")
                << ", offset " << r.sync->total_offset_cycles
                << " cycles, ratio " << r.sync->ratio << ", lock z "
                << r.sync->peak_z << "\n";
    }
  } else if (!r.error.empty()) {
    std::cout << "  error:     " << r.error << "\n";
  }
  std::cout << "  timing:    queued " << r.queue_s << "s, ran " << r.run_s
            << "s\n"
            << "  caches:    scenario " << (r.scenario_hit ? "hit" : "miss")
            << ", engine " << (r.engine_hit ? "hit" : "miss")
            << " (broker " << r.broker_hits << "/"
            << (r.broker_hits + r.broker_misses) << " hits, engines "
            << r.engine_hits << "/" << (r.engine_hits + r.engine_misses)
            << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string host = args.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
  if (port == 0) {
    std::cerr << "error: --port=P (from detect_serve's startup line) is "
                 "required\n";
    return 2;
  }

  try {
    serve::TcpClient client(host, port);

    if (args.has("shutdown")) {
      args.reject_unknown();
      client.shutdown_server();
      std::cout << "daemon at " << host << ":" << port
                << " acknowledged shutdown\n";
      return 0;
    }
    if (const std::int64_t id = args.get_int("cancel", 0); id != 0) {
      args.reject_unknown();
      const bool accepted =
          client.cancel(static_cast<std::uint64_t>(id));
      std::cout << "cancel " << id << ": "
                << (accepted ? "accepted" : "unknown or already terminal")
                << "\n";
      return accepted ? 0 : 1;
    }

    serve::JobSpec spec;
    spec.tenant = args.get("tenant", "cli");
    spec.priority = parse_priority(args.get("priority", "normal"));
    spec.mode = args.has("stream") ? serve::JobMode::kStream
                                   : serve::JobMode::kBatch;
    spec.request.streaming.max_cycles =
        static_cast<std::size_t>(args.get_int("max-cycles", 0));
    if (args.has("blind")) spec.request.sync = sync::SyncPolicy::kBlind;

    const std::string file = args.get("file", "");
    const std::int64_t chip = args.get_int("scenario-chip", 0);
    if (!file.empty()) {
      const std::string pattern_path = args.get("pattern", "");
      if (pattern_path.empty()) {
        std::cerr << "error: --file needs --pattern=PATH (one period of "
                     "the expected watermark, CSV or CMTRACE)\n";
        return 2;
      }
      // Ship the capture inline: the wire frame carries the same
      // CMTRACE2 block the file format uses, metadata included.
      measure::TraceMeta meta;
      spec.trace = measure::read_trace(file, &meta);
      spec.trace_meta = meta;
      spec.pattern = measure::read_trace(pattern_path);
    } else if (chip == 1 || chip == 2) {
      spec.scenario = serve::ScenarioRef{};
      spec.scenario->chip = static_cast<int>(chip);
      spec.scenario->trace_cycles =
          static_cast<std::size_t>(args.get_int("cycles", 300000));
      spec.scenario->seed =
          static_cast<std::uint64_t>(args.get_int("seed", 1));
      spec.scenario->repetition =
          static_cast<std::size_t>(args.get_int("repetition", 0));
      spec.scenario->watermark_active = !args.has("no-watermark");
    } else {
      std::cerr << "error: need a payload — --file=PATH or "
                   "--scenario-chip=1|2\n";
      return 2;
    }
    args.reject_unknown();

    const serve::SubmitOutcome outcome = client.submit(spec);
    if (!outcome.accepted()) {
      std::cout << "rejected: " << outcome.rejected->error << "\n";
      return 1;
    }
    std::cout << "submitted as job " << outcome.id << ", waiting...\n";
    const serve::WireResult result = client.wait(outcome.id);
    print_result(result);
    return result.status == serve::JobStatus::kDone ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
