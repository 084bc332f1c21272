// Standalone trace auditor: runs CPA watermark detection on a measured
// per-cycle power trace loaded from a CSV/plain-text file (one value per
// line, '#' comments allowed) or a CMTRACE binary written by
// measure::write_trace_* — the tool an IP vendor would point at a scope
// export. The watermark key is given on the command line; alignment
// handling goes through the detect::Session facade.
//
//   $ ./trace_detect --trace=y.csv --width=12 [--taps=0x53] [--seed=1]
//                    [--z=5.5] [--method=fft|folded]
//                    [--sync=triggered|known|blind] [--offset=F]
//
// --sync=triggered (default) trusts the capture alignment, but a
// trigger offset recorded in the file's metadata ("# meta" lines /
// CMTRACE2 header) still gets corrected. --sync=known corrects the
// misalignment given by --offset (or the file metadata); --sync=blind
// runs the coarse-to-fine search and reports what it locked onto.
// --offset=F uses the file-metadata convention: F is how many cycles
// late the capture started (the misalignment, not the correction); the
// tool applies the opposite warp before CPA.
//
// Exit code: 0 = watermark detected, 1 = not detected, 2 = usage error.
#include <iostream>

#include "cpa/confidence.h"
#include "detect/session.h"
#include "measure/trace_io.h"
#include "util/args.h"
#include "util/ascii_chart.h"
#include "util/csv.h"
#include "wgc/wgc.h"

using namespace clockmark;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string path = args.get("trace", "");
  if (path.empty()) {
    std::cerr << "usage: " << args.program()
              << " --trace=<file> --width=<bits> [--taps=0x..] [--seed=N]"
                 " [--z=5.5] [--method=fft] [--sync=triggered|known|blind]"
                 " [--offset=F]\n";
    return 2;
  }

  wgc::WgcConfig key;
  key.width = static_cast<unsigned>(args.get_int("width", 12));
  key.taps = static_cast<std::uint32_t>(args.get_int("taps", 0));
  key.seed = static_cast<std::uint32_t>(args.get_int("seed", 1));

  detect::Request request;
  request.policy.min_peak_z = args.get_double("z", request.policy.min_peak_z);
  const std::string m = args.get("method", "fft");
  if (m == "folded") {
    request.method = cpa::CorrelationMethod::kFolded;
  } else if (m != "fft") {
    std::cerr << "unknown --method '" << m << "' (fft or folded)\n";
    return 2;
  }

  const std::string sync_mode = args.get("sync", "triggered");
  const double cli_offset = args.get_double("offset", 0.0);
  args.reject_unknown();

  try {
    measure::TraceMeta meta;
    const auto y = measure::read_trace(path, &meta);
    wgc::WgcSequence seq(key);
    if (y.size() < seq.period()) {
      std::cerr << "trace has " << y.size()
                << " cycles but one watermark period is " << seq.period()
                << " — capture longer\n";
      return 2;
    }
    std::cout << "trace: " << y.size() << " cycles from " << path << "\n"
              << "key:   " << key.width << "-bit LFSR, taps=0x" << std::hex
              << key.effective_taps() << ", seed=0x" << key.seed
              << std::dec << " (period " << seq.period() << ")\n";

    if (sync_mode == "blind") {
      request.sync = sync::SyncPolicy::kBlind;
    } else if (sync_mode == "known") {
      request.sync = sync::SyncPolicy::kKnownOffset;
      // --offset / the metadata record the misalignment; the warp is
      // the correction, so negate (see detect::Session::run_file).
      request.known_warp.offset_cycles =
          -(cli_offset != 0.0 ? cli_offset : meta.trigger_offset_cycles);
    } else if (sync_mode == "triggered") {
      // Session::run_file's upgrade rule: recorded misalignment beats
      // the trusted-trigger assumption.
      request = detect::Session::with_file_meta(request, meta);
      if (request.sync == sync::SyncPolicy::kKnownOffset) {
        std::cout << "file metadata records trigger offset "
                  << meta.trigger_offset_cycles
                  << " cycles — correcting it before CPA\n";
      }
    } else {
      std::cerr << "unknown --sync mode '" << sync_mode << "'\n";
      return 2;
    }

    const detect::Session session(
        request, cpa::to_model_pattern(seq.one_period()));
    const detect::Report report = session.run(y);
    if (report.sync) {
      std::cout << "sync:  offset " << report.sync->correction.offset_cycles
                << " cycles, ratio " << report.sync->correction.ratio
                << ", drift " << report.sync->correction.drift;
      if (request.sync == sync::SyncPolicy::kBlind) {
        std::cout << " (blind lock "
                  << (report.sync->locked ? "locked" : "NOT locked")
                  << ", peak z " << report.sync->peak_z << ", "
                  << report.sync->evaluations << " evaluations)";
      }
      std::cout << "\n";
    }

    util::ChartOptions opts;
    opts.width = 100;
    opts.height = 10;
    opts.title = "spread spectrum";
    opts.x_label = "rotation";
    std::cout << util::line_chart(report.detection.spectrum.rho, opts);
    std::cout << report.detection.reason << "\n";
    if (report.detected) {
      std::cout << "false-positive probability of this peak: "
                << cpa::false_positive_probability(
                       report.detection.spectrum.peak_z,
                       report.detection.spectrum.rho.size())
                << "\n";
    }
    return report.detected ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
