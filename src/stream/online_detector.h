// Online CPA watermark detection: the examiner watching a live supply
// current deciding "watermark present?" as early as the correlation peak
// resolves (paper §IV frames detection over a captured trace; this is
// the same decision made incrementally). Per-rotation statistics live in
// a cpa::RotationAccumulator, so memory is O(P + chunk) instead of the
// batch path's O(N).
//
// Exactness: run to trace end, finalize() produces a DetectionResult
// whose rho sweep and decision are bit-identical to
// cpa::Detector::detect(Y, pattern, method) over the concatenated trace
// (the accumulator shares the batch sweep's finalisation — see
// cpa/accumulator.h). Asserted in tests for chips I and II at 1 and 8
// executor threads.
//
// Synchronisation (sync/types.h): the detector accepts desynchronised
// streams. Under SyncPolicy::kKnownOffset every chunk flows through a
// sync::StreamWarper before the accumulator; under kBlind the detector
// buffers raw cycles until lock_cycles, runs the coarse-to-fine search
// (sync::find_sync) on the buffer, then replays the buffer — and streams
// every later chunk — through the recovered correction, so a stream can
// lock mid-flight and keep accumulating with bounded memory from then
// on. When lock_cycles covers the whole stream the lock happens in
// finalize() and the result is bit-identical to the batch blind path
// (find_sync + warp_trace + Detector::detect), because the StreamWarper
// shares the batch warp's arithmetic.
//
// Early-stop policy: after every evaluate_every_chunks-th chunk the
// current spread spectrum is summarised; when the detector policy is
// satisfied AND cpa::detection_confidence exceeds confidence_threshold
// for consecutive_evaluations evaluations in a row, the decision fires
// and decision_cycles records how much trace it took. Disabling
// early_stop turns the detector into a pure streaming replacement for
// the batch sweep.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cpa/accumulator.h"
#include "cpa/detector.h"
#include "stream/chunk.h"
#include "sync/types.h"
#include "sync/warp.h"

namespace clockmark::runtime {
class Executor;
}

namespace clockmark::sync {
class CandidateEngine;
}

namespace clockmark::stream {

struct OnlineDetectorConfig {
  cpa::DetectorPolicy policy;  ///< decision thresholds (z, isolation, guard)
  /// Finalisation of the incremental sweep; kNaive is rejected (needs
  /// the materialised trace). kFft matches the batch detect default.
  cpa::CorrelationMethod method = cpa::CorrelationMethod::kFft;
  bool early_stop = true;
  /// Early stop when detection_confidence >= this ...
  double confidence_threshold = 0.999;
  /// ... for this many consecutive evaluations.
  std::size_t consecutive_evaluations = 3;
  /// Evaluate after every K-th ingested chunk (1 = every chunk).
  std::size_t evaluate_every_chunks = 1;
  /// No evaluation before this many cycles; 0 = one pattern period (the
  /// sweep is undefined on shorter traces).
  std::size_t min_cycles = 0;

  /// How the stream's alignment is treated (see sync/types.h).
  sync::SyncPolicy sync_policy = sync::SyncPolicy::kTriggered;
  /// kKnownOffset: correction applied to every cycle before CPA.
  sync::WarpSpec known_warp;
  /// kBlind: search configuration for the mid-stream lock.
  sync::BlindSyncConfig blind;
  /// kBlind: raw cycles buffered before the blind search runs (the
  /// lock window). 0 = four pattern periods. If the stream ends first,
  /// the lock runs on everything ingested at finalize() — which is the
  /// batch-identical configuration when set >= the stream length.
  std::size_t lock_cycles = 0;
  /// Pre-built engine for the blind lock and, through its
  /// cpa::SpectrumEngine, for every evaluation — lets Sessions and
  /// services amortise the pattern transform across detectors
  /// (detect::EngineCache). Used only when it was built for this
  /// detector's pattern; results are engine-state-independent, so
  /// sharing is bit-identical.
  std::shared_ptr<const sync::CandidateEngine> engine;
};

struct OnlineDecision {
  bool decided = false;   ///< the early-stop decision fired mid-stream
  bool detected = false;
  std::size_t decision_cycles = 0;  ///< raw cycles consumed when decided
  std::size_t cycles = 0;           ///< total raw cycles consumed
  std::size_t chunks = 0;
  std::size_t evaluations = 0;
  double confidence = 0.0;          ///< of the latest evaluation
  cpa::DetectionResult result;      ///< latest full detection result
  /// Blind-lock outcome (kBlind only; set once the lock has run).
  std::optional<sync::SyncEstimate> sync;
};

class OnlineDetector {
 public:
  OnlineDetector(std::vector<double> pattern,
                 OnlineDetectorConfig config = {});

  /// Ingests the next chunk. Chunks must be contiguous and in order
  /// (chunk.start_cycle == cycles_consumed()); anything else throws —
  /// a resumed stream must re-attach exactly where it left off. Returns
  /// true once the early-stop decision has fired (the caller can stop
  /// feeding). A non-null executor parallelises the per-rotation sweep
  /// of the evaluations — and the blind lock's search — with
  /// bit-identical output.
  bool ingest(const Chunk& chunk, runtime::Executor* executor = nullptr);

  /// Final decision over everything ingested. If the early stop already
  /// fired, returns that decision; otherwise runs the blind lock if it
  /// is still pending, flushes the warper tail, and evaluates the
  /// full-stream spectrum — bit-identical to the batch detector (see
  /// header).
  const OnlineDecision& finalize(runtime::Executor* executor = nullptr);

  /// Raw cycles ingested (the chunk-ordering clock). Equals
  /// accumulator().cycles() only when no warp is active.
  std::size_t cycles_consumed() const noexcept { return raw_cycles_; }
  const cpa::RotationAccumulator& accumulator() const noexcept {
    return accumulator_;
  }
  const OnlineDecision& decision() const noexcept { return decision_; }
  const OnlineDetectorConfig& config() const noexcept { return config_; }

 private:
  void evaluate(runtime::Executor* executor);
  void lock(runtime::Executor* executor);
  void feed_warped(std::span<const double> values);

  OnlineDetectorConfig config_;
  cpa::RotationAccumulator accumulator_;
  cpa::Detector detector_;
  OnlineDecision decision_;
  std::size_t min_cycles_;
  std::size_t lock_cycles_;
  std::size_t raw_cycles_ = 0;
  std::size_t streak_ = 0;
  bool finalized_ = false;
  bool locked_ = false;                ///< the blind lock has run
  std::vector<double> lock_buffer_;    ///< raw cycles awaiting the lock
  /// kBlind only: candidate scoring engine for the lock, over the
  /// accumulator's SpectrumEngine, so the lock and the evaluations pay
  /// for the pattern's FFT once.
  std::shared_ptr<const sync::CandidateEngine> engine_;
  std::unique_ptr<sync::StreamWarper> warper_;
  std::vector<double> warp_scratch_;
};

}  // namespace clockmark::stream
