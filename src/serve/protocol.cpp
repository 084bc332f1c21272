#include "serve/protocol.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "cpa/spread_spectrum.h"

namespace clockmark::serve {

namespace {

constexpr char kTraceMagic[8] = {'C', 'M', 'T', 'R', 'A', 'C', 'E', '2'};

// Little-endian byte codec. Host order *is* little-endian on every
// platform this repo targets (the same assumption trace_io documents),
// so the codec is memcpy.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(const std::string& s) {
    if (s.size() > kMaxFrameBytes) throw ProtocolError("string too long");
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void doubles(std::span<const double> v) {
    u64(v.size());
    raw(v.data(), v.size() * sizeof(double));
  }
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + n);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  double f64() {
    double v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (n > remaining()) {
      throw ProtocolError("string length exceeds payload");
    }
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<double> doubles() {
    const std::uint64_t n = u64();
    if (n > remaining() / sizeof(double)) {
      throw ProtocolError("vector length exceeds payload");
    }
    std::vector<double> v(static_cast<std::size_t>(n));
    raw(v.data(), v.size() * sizeof(double));
    return v;
  }
  void raw(void* data, std::size_t n) {
    if (n > remaining()) throw ProtocolError("payload underrun");
    if (n == 0) return;  // an empty vector's data() may be null
    std::memcpy(data, bytes_.data() + pos_, n);
    pos_ += n;
  }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  void expect_end() const {
    if (remaining() != 0) {
      throw ProtocolError(std::to_string(remaining()) +
                          " trailing bytes after message");
    }
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void expect_type(const Frame& frame, MsgType type, const char* what) {
  if (frame.type != type) {
    throw ProtocolError(std::string("expected ") + what + " frame, got type " +
                        std::to_string(static_cast<int>(frame.type)));
  }
}

template <typename Enum>
Enum checked_enum(std::uint8_t raw, std::uint8_t max, const char* what) {
  if (raw > max) {
    throw ProtocolError(std::string("bad ") + what + " value " +
                        std::to_string(raw));
  }
  return static_cast<Enum>(raw);
}

Frame id_frame(MsgType type, std::uint64_t id) {
  Frame frame;
  frame.type = type;
  ByteWriter w(frame.payload);
  w.u64(id);
  return frame;
}

std::uint64_t decode_id(const Frame& frame, MsgType type, const char* what) {
  expect_type(frame, type, what);
  ByteReader r(frame.payload);
  const std::uint64_t id = r.u64();
  r.expect_end();
  return id;
}

}  // namespace

WireResult to_wire(const JobResult& result) {
  WireResult w;
  w.id = result.id;
  w.tenant = result.tenant;
  w.status = result.status;
  w.detected = result.report.detected;
  w.confidence = result.report.confidence;
  w.cycles = result.report.cycles;
  w.peak_rotation = result.report.detection.spectrum.peak_rotation;
  w.peak_z = result.report.detection.spectrum.peak_z;
  w.reason = result.report.detection.reason;
  if (result.report.sync.has_value()) {
    const sync::SyncEstimate& est = *result.report.sync;
    WireSync s;
    s.offset_cycles = est.correction.offset_cycles;
    s.ratio = est.correction.ratio;
    s.drift = est.correction.drift;
    s.peak_rotation = est.peak_rotation;
    s.total_offset_cycles = est.offset_cycles;
    s.peak_z = est.peak_z;
    s.confidence = est.confidence;
    s.locked = est.locked;
    s.evaluations = est.evaluations;
    w.sync = s;
  }
  w.error = result.error;
  w.queue_s = result.timing.queue_s;
  w.run_s = result.timing.run_s;
  w.engine_hit = result.cache.engine_hit;
  w.scenario_hit = result.cache.scenario_hit;
  w.broker_hits = result.cache.broker.hits;
  w.broker_misses = result.cache.broker.misses;
  w.broker_evictions = result.cache.broker.evictions;
  w.engine_hits = result.cache.broker.engines.hits;
  w.engine_misses = result.cache.broker.engines.misses;
  w.engine_evictions = result.cache.broker.engines.evictions;
  return w;
}

Frame encode_submit(const JobSpec& spec) {
  if (spec.source_fn) {
    throw ProtocolError("source_fn payloads are in-process only");
  }
  Frame frame;
  frame.type = MsgType::kSubmit;
  ByteWriter w(frame.payload);
  w.str(spec.tenant);
  w.u8(static_cast<std::uint8_t>(spec.priority));
  w.u8(static_cast<std::uint8_t>(spec.mode));
  // The budget keeps its wire slot ahead of the request block.
  w.u64(spec.request.streaming.max_cycles);

  const detect::Request& rq = spec.request;
  w.f64(rq.policy.min_peak_z);
  w.f64(rq.policy.min_isolation);
  w.u64(rq.policy.guard);
  w.u8(static_cast<std::uint8_t>(rq.method));
  w.u8(static_cast<std::uint8_t>(rq.sync));
  w.f64(rq.known_warp.offset_cycles);
  w.f64(rq.known_warp.ratio);
  w.f64(rq.known_warp.drift);
  w.f64(rq.blind.max_ratio_dev);
  w.f64(rq.blind.max_drift);
  w.u64(rq.blind.coarse_window_cycles);
  w.u64(rq.blind.refine_rounds);
  w.u64(rq.blind.descent_rounds);
  w.f64(rq.blind.min_lock_z);
  w.u64(rq.blind.guard);
  w.u8(rq.blind.search_drift ? 1 : 0);
  w.u64(rq.blind.coarse_top_k);
  w.u64(rq.lock_cycles);
  w.u64(rq.streaming.chunk_cycles);
  w.u8(rq.streaming.early_stop ? 1 : 0);
  w.f64(rq.streaming.confidence_threshold);
  w.u64(rq.streaming.consecutive_evaluations);
  w.u64(rq.streaming.evaluate_every_chunks);
  w.u64(rq.streaming.min_cycles);
  w.u8(rq.use_file_meta ? 1 : 0);

  w.doubles(spec.pattern);

  if (spec.trace.has_value()) {
    w.u8(0);  // inline CMTRACE2 block
    w.raw(kTraceMagic, sizeof(kTraceMagic));
    w.u64(spec.trace->size());
    w.f64(spec.trace_meta.clock_hz);
    w.f64(spec.trace_meta.sample_rate_hz);
    w.f64(spec.trace_meta.trigger_offset_cycles);
    w.raw(spec.trace->data(), spec.trace->size() * sizeof(double));
  } else if (spec.scenario.has_value()) {
    w.u8(1);
    const ScenarioRef& ref = *spec.scenario;
    w.u8(static_cast<std::uint8_t>(ref.chip));
    w.u64(ref.trace_cycles);
    w.u64(ref.seed);
    w.u64(ref.repetition);
    w.u8(ref.watermark_active ? 1 : 0);
    w.f64(ref.scope_noise_v_rms);
    w.f64(ref.probe_noise_v_rms);
  } else if (!spec.trace_file.empty()) {
    w.u8(2);
    w.str(spec.trace_file);
  } else {
    throw ProtocolError("JobSpec has no payload");
  }
  return frame;
}

JobSpec decode_submit(const Frame& frame) {
  expect_type(frame, MsgType::kSubmit, "submit");
  ByteReader r(frame.payload);
  JobSpec spec;
  spec.tenant = r.str();
  spec.priority = checked_enum<JobPriority>(r.u8(), 2, "priority");
  spec.mode = checked_enum<JobMode>(r.u8(), 1, "mode");
  spec.request.streaming.max_cycles = static_cast<std::size_t>(r.u64());

  detect::Request& rq = spec.request;
  rq.policy.min_peak_z = r.f64();
  rq.policy.min_isolation = r.f64();
  rq.policy.guard = static_cast<std::size_t>(r.u64());
  rq.method = checked_enum<cpa::CorrelationMethod>(r.u8(), 2, "method");
  rq.sync = checked_enum<sync::SyncPolicy>(r.u8(), 2, "sync policy");
  rq.known_warp.offset_cycles = r.f64();
  rq.known_warp.ratio = r.f64();
  rq.known_warp.drift = r.f64();
  rq.blind.max_ratio_dev = r.f64();
  rq.blind.max_drift = r.f64();
  rq.blind.coarse_window_cycles = static_cast<std::size_t>(r.u64());
  rq.blind.refine_rounds = static_cast<std::size_t>(r.u64());
  rq.blind.descent_rounds = static_cast<std::size_t>(r.u64());
  rq.blind.min_lock_z = r.f64();
  rq.blind.guard = static_cast<std::size_t>(r.u64());
  rq.blind.search_drift = r.u8() != 0;
  rq.blind.coarse_top_k = static_cast<std::size_t>(r.u64());
  rq.lock_cycles = static_cast<std::size_t>(r.u64());
  rq.streaming.chunk_cycles = static_cast<std::size_t>(r.u64());
  rq.streaming.early_stop = r.u8() != 0;
  rq.streaming.confidence_threshold = r.f64();
  rq.streaming.consecutive_evaluations = static_cast<std::size_t>(r.u64());
  rq.streaming.evaluate_every_chunks = static_cast<std::size_t>(r.u64());
  rq.streaming.min_cycles = static_cast<std::size_t>(r.u64());
  rq.use_file_meta = r.u8() != 0;

  spec.pattern = r.doubles();

  const std::uint8_t kind = r.u8();
  switch (kind) {
    case 0: {
      char magic[sizeof(kTraceMagic)] = {};
      r.raw(magic, sizeof(magic));
      if (std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0) {
        throw ProtocolError("inline trace: bad CMTRACE2 magic");
      }
      const std::uint64_t count = r.u64();
      spec.trace_meta.clock_hz = r.f64();
      spec.trace_meta.sample_rate_hz = r.f64();
      spec.trace_meta.trigger_offset_cycles = r.f64();
      // The trace_io truncation rule, applied to the wire: the claimed
      // cycle count must match the bytes actually present.
      if (count > r.remaining() / sizeof(double)) {
        throw ProtocolError(
            "inline trace truncated: header claims " + std::to_string(count) +
            " cycles but the frame holds " +
            std::to_string(r.remaining() / sizeof(double)));
      }
      std::vector<double> y(static_cast<std::size_t>(count));
      r.raw(y.data(), y.size() * sizeof(double));
      spec.trace = std::move(y);
      break;
    }
    case 1: {
      ScenarioRef ref;
      ref.chip = r.u8();
      if (ref.chip != 1 && ref.chip != 2) {
        throw ProtocolError("scenario: chip must be 1 or 2");
      }
      ref.trace_cycles = static_cast<std::size_t>(r.u64());
      ref.seed = r.u64();
      ref.repetition = static_cast<std::size_t>(r.u64());
      ref.watermark_active = r.u8() != 0;
      ref.scope_noise_v_rms = r.f64();
      ref.probe_noise_v_rms = r.f64();
      spec.scenario = ref;
      break;
    }
    case 2:
      spec.trace_file = r.str();
      if (spec.trace_file.empty()) {
        throw ProtocolError("file payload: empty path");
      }
      break;
    default:
      throw ProtocolError("unknown payload kind " + std::to_string(kind));
  }
  r.expect_end();
  return spec;
}

Frame encode_submit_ack(std::uint64_t id) {
  return id_frame(MsgType::kSubmitAck, id);
}
std::uint64_t decode_submit_ack(const Frame& frame) {
  return decode_id(frame, MsgType::kSubmitAck, "submit-ack");
}

Frame encode_wait(std::uint64_t id) { return id_frame(MsgType::kWait, id); }
std::uint64_t decode_wait(const Frame& frame) {
  return decode_id(frame, MsgType::kWait, "wait");
}

Frame encode_cancel(std::uint64_t id) {
  return id_frame(MsgType::kCancel, id);
}
std::uint64_t decode_cancel(const Frame& frame) {
  return decode_id(frame, MsgType::kCancel, "cancel");
}

Frame encode_cancel_ack(bool accepted) {
  Frame frame;
  frame.type = MsgType::kCancelAck;
  ByteWriter w(frame.payload);
  w.u8(accepted ? 1 : 0);
  return frame;
}
bool decode_cancel_ack(const Frame& frame) {
  expect_type(frame, MsgType::kCancelAck, "cancel-ack");
  ByteReader r(frame.payload);
  const bool accepted = r.u8() != 0;
  r.expect_end();
  return accepted;
}

Frame encode_result(const WireResult& result) {
  Frame frame;
  frame.type = MsgType::kResult;
  ByteWriter w(frame.payload);
  w.u64(result.id);
  w.str(result.tenant);
  w.u8(static_cast<std::uint8_t>(result.status));
  w.u8(result.detected ? 1 : 0);
  w.f64(result.confidence);
  w.u64(result.cycles);
  w.u64(result.peak_rotation);
  w.f64(result.peak_z);
  w.str(result.reason);
  w.u8(result.sync.has_value() ? 1 : 0);
  if (result.sync.has_value()) {
    const WireSync& s = *result.sync;
    w.f64(s.offset_cycles);
    w.f64(s.ratio);
    w.f64(s.drift);
    w.u64(s.peak_rotation);
    w.f64(s.total_offset_cycles);
    w.f64(s.peak_z);
    w.f64(s.confidence);
    w.u8(s.locked ? 1 : 0);
    w.u64(s.evaluations);
  }
  w.str(result.error);
  w.f64(result.queue_s);
  w.f64(result.run_s);
  w.u8(result.engine_hit ? 1 : 0);
  w.u8(result.scenario_hit ? 1 : 0);
  w.u64(result.broker_hits);
  w.u64(result.broker_misses);
  w.u64(result.broker_evictions);
  w.u64(result.engine_hits);
  w.u64(result.engine_misses);
  w.u64(result.engine_evictions);
  return frame;
}

WireResult decode_result(const Frame& frame) {
  expect_type(frame, MsgType::kResult, "result");
  ByteReader r(frame.payload);
  WireResult result;
  result.id = r.u64();
  result.tenant = r.str();
  result.status = checked_enum<JobStatus>(r.u8(), 5, "job status");
  result.detected = r.u8() != 0;
  result.confidence = r.f64();
  result.cycles = r.u64();
  result.peak_rotation = r.u64();
  result.peak_z = r.f64();
  result.reason = r.str();
  if (r.u8() != 0) {
    WireSync s;
    s.offset_cycles = r.f64();
    s.ratio = r.f64();
    s.drift = r.f64();
    s.peak_rotation = r.u64();
    s.total_offset_cycles = r.f64();
    s.peak_z = r.f64();
    s.confidence = r.f64();
    s.locked = r.u8() != 0;
    s.evaluations = r.u64();
    result.sync = s;
  }
  result.error = r.str();
  result.queue_s = r.f64();
  result.run_s = r.f64();
  result.engine_hit = r.u8() != 0;
  result.scenario_hit = r.u8() != 0;
  result.broker_hits = r.u64();
  result.broker_misses = r.u64();
  result.broker_evictions = r.u64();
  result.engine_hits = r.u64();
  result.engine_misses = r.u64();
  result.engine_evictions = r.u64();
  r.expect_end();
  return result;
}

Frame encode_shutdown() { return Frame{MsgType::kShutdown, {}}; }
Frame encode_shutdown_ack() { return Frame{MsgType::kShutdownAck, {}}; }

Frame encode_error(const std::string& message) {
  Frame frame;
  frame.type = MsgType::kError;
  ByteWriter w(frame.payload);
  w.str(message);
  return frame;
}
std::string decode_error(const Frame& frame) {
  expect_type(frame, MsgType::kError, "error");
  ByteReader r(frame.payload);
  std::string message = r.str();
  r.expect_end();
  return message;
}

std::vector<std::uint8_t> pack_frame(const Frame& frame) {
  if (frame.payload.size() + 1 > kMaxFrameBytes) {
    throw ProtocolError("frame too large");
  }
  std::vector<std::uint8_t> bytes;
  bytes.reserve(frame.payload.size() + 5);
  ByteWriter w(bytes);
  w.u32(static_cast<std::uint32_t>(frame.payload.size() + 1));
  w.u8(static_cast<std::uint8_t>(frame.type));
  w.raw(frame.payload.data(), frame.payload.size());
  return bytes;
}

Frame unpack_frame(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const std::uint32_t length = r.u32();
  if (length == 0 || length > kMaxFrameBytes) {
    throw ProtocolError("bad frame length " + std::to_string(length));
  }
  if (length != r.remaining()) {
    throw ProtocolError("frame length " + std::to_string(length) +
                        " does not match " + std::to_string(r.remaining()) +
                        " available bytes");
  }
  Frame frame;
  frame.type = static_cast<MsgType>(r.u8());
  frame.payload.resize(length - 1);
  r.raw(frame.payload.data(), frame.payload.size());
  return frame;
}

namespace {

void write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t wrote = ::write(fd, data, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("write failed: ") +
                          std::strerror(errno));
    }
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
}

/// Returns false on EOF before the first byte; throws on EOF mid-read.
bool read_all(int fd, std::uint8_t* data, std::size_t n, bool eof_ok) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("read failed: ") +
                          std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0 && eof_ok) return false;
      throw ProtocolError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

void write_frame(int fd, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = pack_frame(frame);
  write_all(fd, bytes.data(), bytes.size());
}

std::optional<Frame> read_frame(int fd) {
  std::uint32_t length = 0;
  if (!read_all(fd, reinterpret_cast<std::uint8_t*>(&length), sizeof(length),
                /*eof_ok=*/true)) {
    return std::nullopt;
  }
  if (length == 0 || length > kMaxFrameBytes) {
    throw ProtocolError("bad frame length " + std::to_string(length));
  }
  Frame frame;
  std::uint8_t type = 0;
  read_all(fd, &type, 1, /*eof_ok=*/false);
  frame.type = static_cast<MsgType>(type);
  frame.payload.resize(length - 1);
  if (!frame.payload.empty()) {
    read_all(fd, frame.payload.data(), frame.payload.size(),
             /*eof_ok=*/false);
  }
  return frame;
}

}  // namespace clockmark::serve
