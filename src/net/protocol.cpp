#include "net/protocol.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

namespace parma::net {

namespace {

// --- Little-endian primitives ---------------------------------------------
//
// Explicit byte order keeps the wire format host-independent; on the
// little-endian targets we build for these compile down to plain loads and
// stores.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_f64(std::vector<std::uint8_t>& out, Real v) {
  static_assert(sizeof(Real) == 8, "wire format assumes binary64 Real");
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Bounds-checked sequential reader over one frame body. Reads past the end
/// set `truncated` instead of touching memory, so a decoder can finish its
/// field list and report one typed error.
struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  bool truncated = false;

  bool need(std::size_t n) {
    if (size - pos < n) {
      truncated = true;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data[pos++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(data[pos]) |
                      static_cast<std::uint16_t>(data[pos + 1]) << 8;
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
  Real f64() {
    const std::uint64_t bits = u64();
    Real v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool bytes(std::uint8_t* out, std::size_t n) {
    if (!need(n)) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  bool f64_array(std::vector<Real>& out, std::size_t n) {
    if (!need(n * 8)) return false;
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = f64();
    return true;
  }
};

ProtocolError fail(ProtoCode code, const std::string& message) {
  return ProtocolError{code, message};
}

ProtocolError truncated(const char* what) {
  return fail(ProtoCode::kTruncatedBody, std::string("body ended inside ") + what);
}

// Request-body flag bits. Unknown bits are rejected -- a frame from a future
// peer that needs new semantics must bump the version instead of smuggling
// bits past an old server.
constexpr std::uint8_t kFlagHasMask = 0x01;
constexpr std::uint8_t kFlagAutoMask = 0x02;
constexpr std::uint8_t kFlagAnomalyThreshold = 0x04;
constexpr std::uint8_t kKnownRequestFlags =
    kFlagHasMask | kFlagAutoMask | kFlagAnomalyThreshold;

// Response-body flag bits.
constexpr std::uint8_t kFlagHasField = 0x01;

/// `v` clamped into the unsigned wire field `Field`.
template <typename Field>
Field saturate(std::int64_t v) {
  return static_cast<Field>(
      std::clamp<std::int64_t>(v, 0, std::numeric_limits<Field>::max()));
}

void put_header(std::vector<std::uint8_t>& out, FrameType type,
                std::uint64_t request_id, std::uint32_t body_len) {
  PARMA_ASSERT(out.empty());
  put_u32(out, kMagic);
  put_u16(out, kProtocolVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u64(out, request_id);
  put_u32(out, body_len);
  // body_sum: the empty-body checksum up front, so header-only frames
  // (ping/pong) are complete as written; bodied frames re-patch at the end.
  put_u32(out, frame_checksum(out.data(), nullptr, 0));
}

/// Patches body_len (offset 16) and body_sum (offset 20) once the body is
/// serialized.
void patch_body_len(std::vector<std::uint8_t>& out) {
  const auto body_len = static_cast<std::uint32_t>(out.size() - kHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    out[16 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(body_len >> (8 * i));
  }
  patch_frame_checksum(out);
}

// FNV-1a 32-bit, continuing from `h`.
std::uint32_t fnv1a(std::uint32_t h, const std::uint8_t* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

}  // namespace

std::uint32_t frame_checksum(const std::uint8_t* header, const std::uint8_t* body,
                             std::size_t body_len) {
  return fnv1a(fnv1a(2166136261u, header + 4, 16), body, body_len);
}

void patch_frame_checksum(std::vector<std::uint8_t>& frame) {
  PARMA_REQUIRE(frame.size() >= kHeaderBytes, "frame shorter than its header");
  const std::uint32_t sum =
      frame_checksum(frame.data(), frame.data() + kHeaderBytes, frame.size() - kHeaderBytes);
  for (int i = 0; i < 4; ++i) {
    frame[20 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

const char* proto_code_name(ProtoCode code) {
  switch (code) {
    case ProtoCode::kOk: return "ok";
    case ProtoCode::kBadMagic: return "bad-magic";
    case ProtoCode::kBadVersion: return "bad-version";
    case ProtoCode::kBadFrameType: return "bad-frame-type";
    case ProtoCode::kBodyTooLarge: return "body-too-large";
    case ProtoCode::kBodyShapeMismatch: return "body-shape-mismatch";
    case ProtoCode::kBadEnum: return "bad-enum";
    case ProtoCode::kBadShape: return "bad-shape";
    case ProtoCode::kTruncatedBody: return "truncated-body";
    case ProtoCode::kBadChecksum: return "bad-checksum";
    case ProtoCode::kServerBusy: return "server-busy";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// serve-layer conversions.

serve::ParametrizeRequest WireRequest::to_request() const {
  serve::ParametrizeRequest r;
  r.measurement.spec.rows = static_cast<Index>(rows);
  r.measurement.spec.cols = static_cast<Index>(cols);
  r.measurement.spec.drive_voltage = drive_voltage;
  r.measurement.z = linalg::DenseMatrix(static_cast<Index>(rows), static_cast<Index>(cols));
  r.measurement.u = linalg::DenseMatrix(static_cast<Index>(rows), static_cast<Index>(cols));
  r.measurement.z.data() = z;
  r.measurement.u.data() = u;
  if (!mask.empty()) {
    mea::MeasurementMask m(static_cast<Index>(rows), static_cast<Index>(cols));
    m.bits = mask;
    r.measurement.mask = std::move(m);
  }
  r.options.strategy = static_cast<core::Strategy>(strategy);
  if (form_workers > 0) r.options.workers = static_cast<Index>(form_workers);
  if (form_chunk > 0) r.options.chunk = static_cast<Index>(form_chunk);
  // The response never carries the equation system back, so serving always
  // streams it (bounded resident memory per request).
  r.options.keep_system = false;
  if (max_iterations > 0) r.inverse.max_iterations = static_cast<Index>(max_iterations);
  r.priority = static_cast<serve::Priority>(priority);
  r.auto_mask_invalid = auto_mask_invalid;
  if (deadline_ms > 0) r.timeout = std::chrono::milliseconds(deadline_ms);
  if (anomaly_threshold) r.anomaly_threshold = *anomaly_threshold;
  return r;
}

WireRequest WireRequest::from_request(const serve::ParametrizeRequest& request,
                                      std::uint64_t request_id) {
  WireRequest w;
  w.request_id = request_id;
  w.priority = static_cast<std::uint8_t>(request.priority);
  w.strategy = static_cast<std::uint8_t>(request.options.strategy);
  w.auto_mask_invalid = request.auto_mask_invalid;
  if (request.timeout) {
    w.deadline_ms = std::max<std::uint32_t>(1, saturate<std::uint32_t>(request.timeout->count()));
  }
  w.form_workers = saturate<std::uint16_t>(request.options.workers);
  w.form_chunk = saturate<std::uint16_t>(request.options.chunk);
  w.max_iterations = saturate<std::uint16_t>(request.inverse.max_iterations);
  w.rows = static_cast<std::uint32_t>(request.measurement.spec.rows);
  w.cols = static_cast<std::uint32_t>(request.measurement.spec.cols);
  w.drive_voltage = request.measurement.spec.drive_voltage;
  w.anomaly_threshold = request.anomaly_threshold;
  w.z = request.measurement.z.data();
  w.u = request.measurement.u.data();
  if (request.measurement.mask && !request.measurement.mask->all_valid()) {
    w.mask = request.measurement.mask->bits;
  }
  return w;
}

circuit::ResistanceGrid WireResponse::recovered_grid() const {
  PARMA_REQUIRE(has_field(), "response carries no recovered field");
  circuit::ResistanceGrid grid(static_cast<Index>(rows), static_cast<Index>(cols));
  grid.flat() = field;
  return grid;
}

WireResponse WireResponse::from_result(std::uint64_t request_id,
                                       const serve::ParametrizeResult& result) {
  WireResponse w;
  w.request_id = request_id;
  w.status_code = serve::status_wire_code(result.status);
  w.converged = result.inverse.converged;
  w.attempts = static_cast<std::uint16_t>(result.attempts);
  w.iterations = static_cast<std::uint32_t>(result.inverse.iterations);
  w.anomalies = static_cast<std::uint32_t>(result.anomalies);
  w.final_misfit = result.inverse.final_misfit;
  w.queue_seconds = result.queue_seconds;
  w.form_seconds = result.form_seconds;
  w.solve_seconds = result.solve_seconds;
  w.reconstruct_seconds = result.reconstruct_seconds;
  w.message = result.message;
  if (result.has_result()) {
    const auto& grid = result.inverse.recovered;
    w.rows = static_cast<std::uint32_t>(grid.rows());
    w.cols = static_cast<std::uint32_t>(grid.cols());
    w.field = grid.flat();
  }
  return w;
}

// ---------------------------------------------------------------------------
// Encoding.

std::vector<std::uint8_t> encode_request(const WireRequest& request) {
  std::vector<std::uint8_t> out;
  const std::size_t cells =
      static_cast<std::size_t>(request.rows) * static_cast<std::size_t>(request.cols);
  out.reserve(kHeaderBytes + 39 + cells * 16 + request.mask.size());
  put_header(out, FrameType::kRequest, request.request_id, 0);
  out.push_back(request.priority);
  out.push_back(request.strategy);
  std::uint8_t flags = 0;
  if (!request.mask.empty()) flags |= kFlagHasMask;
  if (request.auto_mask_invalid) flags |= kFlagAutoMask;
  if (request.anomaly_threshold) flags |= kFlagAnomalyThreshold;
  out.push_back(flags);
  put_u32(out, request.deadline_ms);
  put_u16(out, request.form_workers);
  put_u16(out, request.form_chunk);
  put_u16(out, request.max_iterations);
  put_u16(out, 0);  // reserved
  put_u32(out, request.rows);
  put_u32(out, request.cols);
  put_f64(out, request.drive_voltage);
  put_f64(out, request.anomaly_threshold.value_or(0.0));
  for (const Real v : request.z) put_f64(out, v);
  for (const Real v : request.u) put_f64(out, v);
  out.insert(out.end(), request.mask.begin(), request.mask.end());
  patch_body_len(out);
  return out;
}

std::vector<std::uint8_t> encode_response(const WireResponse& response) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + 68 + response.message.size() + response.field.size() * 8);
  put_header(out, FrameType::kResponse, response.request_id, 0);
  put_u16(out, response.status_code);
  out.push_back(response.field.empty() ? 0 : kFlagHasField);
  out.push_back(response.converged ? 1 : 0);
  put_u16(out, response.attempts);
  put_u16(out, 0);  // reserved
  put_u32(out, response.iterations);
  put_u32(out, response.anomalies);
  put_u32(out, response.rows);
  put_u32(out, response.cols);
  put_f64(out, response.final_misfit);
  put_f64(out, response.queue_seconds);
  put_f64(out, response.form_seconds);
  put_f64(out, response.solve_seconds);
  put_f64(out, response.reconstruct_seconds);
  put_u32(out, static_cast<std::uint32_t>(response.message.size()));
  out.insert(out.end(), response.message.begin(), response.message.end());
  for (const Real v : response.field) put_f64(out, v);
  patch_body_len(out);
  return out;
}

std::vector<std::uint8_t> encode_error(const WireError& error) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + 8 + error.message.size());
  put_header(out, FrameType::kError, error.request_id, 0);
  put_u16(out, static_cast<std::uint16_t>(error.code));
  put_u16(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(error.message.size()));
  out.insert(out.end(), error.message.begin(), error.message.end());
  patch_body_len(out);
  return out;
}

std::vector<std::uint8_t> encode_ping(std::uint64_t request_id) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes);
  put_header(out, FrameType::kPing, request_id, 0);
  return out;
}

std::vector<std::uint8_t> encode_pong(std::uint64_t request_id) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes);
  put_header(out, FrameType::kPong, request_id, 0);
  return out;
}

namespace {

/// The stats body is the merge substrate only: 29 u64 counters/gauges, one
/// degraded byte, then 42 u64s (40 buckets + total/max nanos) per stage.
/// Derived summaries are recomputed on decode. Order is load-bearing --
/// encode and decode walk the same list.
constexpr std::size_t kStatsCounters = 29;
constexpr std::size_t kStatsStages = 5;
constexpr std::size_t kStatsBodyBytes =
    kStatsCounters * 8 + 1 + kStatsStages * (serve::StageStats::kBuckets + 2) * 8;

void put_stage(std::vector<std::uint8_t>& out, const serve::StageStats& stage) {
  for (const std::uint64_t b : stage.buckets) put_u64(out, b);
  put_u64(out, stage.total_nanos);
  put_u64(out, stage.max_nanos);
}

void read_stage(Reader& r, serve::StageStats& stage) {
  for (std::uint64_t& b : stage.buckets) b = r.u64();
  stage.total_nanos = r.u64();
  stage.max_nanos = r.u64();
  stage.recompute();
}

}  // namespace

std::vector<std::uint8_t> encode_stats_request(std::uint64_t request_id) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes);
  put_header(out, FrameType::kStatsRequest, request_id, 0);
  return out;
}

std::vector<std::uint8_t> encode_stats_response(std::uint64_t request_id,
                                                const serve::Stats& stats) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + kStatsBodyBytes);
  put_header(out, FrameType::kStatsResponse, request_id, 0);
  put_u64(out, stats.submitted);
  put_u64(out, stats.accepted);
  put_u64(out, stats.rejected_queue_full);
  put_u64(out, stats.rejected_shutting_down);
  put_u64(out, stats.rejected_invalid);
  put_u64(out, stats.rejected_load_shed);
  put_u64(out, stats.completed_ok);
  put_u64(out, stats.deadline_exceeded);
  put_u64(out, stats.cancelled);
  put_u64(out, stats.solver_failed);
  put_u64(out, stats.invalid_input);
  put_u64(out, stats.breaker_open);
  put_u64(out, stats.degraded_results);
  put_u64(out, stats.retries);
  put_u64(out, stats.retry_successes);
  put_u64(out, stats.breaker_opened_events);
  put_u64(out, stats.degraded_entered);
  put_u64(out, stats.solver_not_converged);
  put_u64(out, stats.solver_iterations);
  put_u64(out, stats.cg_iterations);
  put_u64(out, stats.masked_entries);
  put_u64(out, stats.auto_masked_entries);
  put_u64(out, stats.outliers_downweighted);
  put_u64(out, stats.numerical_breakdowns);
  put_u64(out, stats.batches);
  put_u64(out, stats.batched_requests);
  put_u64(out, stats.max_batch);
  put_u64(out, static_cast<std::uint64_t>(stats.breaker_open_shapes));
  put_u64(out, static_cast<std::uint64_t>(stats.queue_high_water));
  out.push_back(stats.degraded ? 1 : 0);
  put_stage(out, stats.queue_wait);
  put_stage(out, stats.form);
  put_stage(out, stats.solve);
  put_stage(out, stats.reconstruct);
  put_stage(out, stats.end_to_end);
  patch_body_len(out);
  return out;
}

// ---------------------------------------------------------------------------
// Decoding.

ProtocolError decode_header(const std::uint8_t* data, std::size_t size,
                            std::uint32_t max_body_bytes, FrameHeader& out) {
  PARMA_ASSERT(size >= kHeaderBytes);
  Reader r{data, size};
  const std::uint32_t magic = r.u32();
  if (magic != kMagic) {
    std::ostringstream os;
    os << "bad magic 0x" << std::hex << magic;
    return fail(ProtoCode::kBadMagic, os.str());
  }
  const std::uint16_t version = r.u16();
  if (version != kProtocolVersion) {
    std::ostringstream os;
    os << "protocol version " << version << ", this peer speaks " << kProtocolVersion;
    return fail(ProtoCode::kBadVersion, os.str());
  }
  const std::uint16_t type = r.u16();
  out.request_id = r.u64();
  out.body_len = r.u32();
  out.body_sum = r.u32();
  if (type < static_cast<std::uint16_t>(FrameType::kRequest) ||
      type > static_cast<std::uint16_t>(FrameType::kStatsResponse)) {
    std::ostringstream os;
    os << "unknown frame type " << type;
    return fail(ProtoCode::kBadFrameType, os.str());
  }
  out.type = static_cast<FrameType>(type);
  if ((out.type == FrameType::kPing || out.type == FrameType::kPong ||
       out.type == FrameType::kStatsRequest) &&
      out.body_len != 0) {
    return fail(ProtoCode::kBodyShapeMismatch, "header-only frames carry no body");
  }
  if (out.body_len > max_body_bytes) {
    std::ostringstream os;
    os << "declared body of " << out.body_len << " bytes exceeds the " << max_body_bytes
       << "-byte cap";
    return fail(ProtoCode::kBodyTooLarge, os.str());
  }
  return {};
}

ProtocolError decode_request_body(const std::uint8_t* data, std::size_t size,
                                  WireRequest& out) {
  Reader r{data, size};
  out.priority = r.u8();
  out.strategy = r.u8();
  const std::uint8_t flags = r.u8();
  out.deadline_ms = r.u32();
  out.form_workers = r.u16();
  out.form_chunk = r.u16();
  out.max_iterations = r.u16();
  (void)r.u16();  // reserved
  out.rows = r.u32();
  out.cols = r.u32();
  out.drive_voltage = r.f64();
  const Real threshold = r.f64();
  if (r.truncated) return truncated("the request fixed header");

  if (out.priority > 2) return fail(ProtoCode::kBadEnum, "priority out of range");
  if (out.strategy > 3) return fail(ProtoCode::kBadEnum, "strategy out of range");
  if ((flags & ~kKnownRequestFlags) != 0) {
    return fail(ProtoCode::kBadEnum, "unknown request flag bits");
  }
  out.auto_mask_invalid = (flags & kFlagAutoMask) != 0;
  if ((flags & kFlagAnomalyThreshold) != 0) out.anomaly_threshold = threshold;

  if (out.rows < 2 || out.rows > kMaxWireDim || out.cols < 2 || out.cols > kMaxWireDim) {
    std::ostringstream os;
    os << "shape " << out.rows << " x " << out.cols << " outside [2, " << kMaxWireDim
       << "]";
    return fail(ProtoCode::kBadShape, os.str());
  }
  const std::size_t cells =
      static_cast<std::size_t>(out.rows) * static_cast<std::size_t>(out.cols);
  const bool has_mask = (flags & kFlagHasMask) != 0;
  const std::size_t expected = r.pos + cells * 16 + (has_mask ? cells : 0);
  if (size != expected) {
    std::ostringstream os;
    os << "body of " << size << " bytes, but a " << out.rows << " x " << out.cols
       << (has_mask ? " masked" : "") << " request needs exactly " << expected;
    return fail(ProtoCode::kBodyShapeMismatch, os.str());
  }
  (void)r.f64_array(out.z, cells);
  (void)r.f64_array(out.u, cells);
  if (has_mask) {
    out.mask.resize(cells);
    (void)r.bytes(out.mask.data(), cells);
  } else {
    out.mask.clear();
  }
  PARMA_ASSERT(!r.truncated);  // the exact-size check above covers every read
  return {};
}

ProtocolError decode_response_body(const std::uint8_t* data, std::size_t size,
                                   WireResponse& out) {
  Reader r{data, size};
  out.status_code = r.u16();
  const std::uint8_t flags = r.u8();
  out.converged = r.u8() != 0;
  out.attempts = r.u16();
  (void)r.u16();  // reserved
  out.iterations = r.u32();
  out.anomalies = r.u32();
  out.rows = r.u32();
  out.cols = r.u32();
  out.final_misfit = r.f64();
  out.queue_seconds = r.f64();
  out.form_seconds = r.f64();
  out.solve_seconds = r.f64();
  out.reconstruct_seconds = r.f64();
  const std::uint32_t message_len = r.u32();
  if (r.truncated) return truncated("the response fixed header");
  if ((flags & ~kFlagHasField) != 0) {
    return fail(ProtoCode::kBadEnum, "unknown response flag bits");
  }
  const bool has_field = (flags & kFlagHasField) != 0;
  std::size_t cells = 0;
  if (has_field) {
    if (out.rows < 1 || out.rows > kMaxWireDim || out.cols < 1 || out.cols > kMaxWireDim) {
      return fail(ProtoCode::kBadShape, "response field shape out of range");
    }
    cells = static_cast<std::size_t>(out.rows) * static_cast<std::size_t>(out.cols);
  }
  const std::size_t expected = r.pos + message_len + cells * 8;
  if (size != expected) {
    std::ostringstream os;
    os << "body of " << size << " bytes, but the response declares " << expected;
    return fail(ProtoCode::kBodyShapeMismatch, os.str());
  }
  out.message.assign(reinterpret_cast<const char*>(data + r.pos), message_len);
  r.pos += message_len;
  if (has_field) {
    (void)r.f64_array(out.field, cells);
  } else {
    out.field.clear();
  }
  return {};
}

ProtocolError decode_error_body(const std::uint8_t* data, std::size_t size,
                                WireError& out) {
  Reader r{data, size};
  const std::uint16_t code = r.u16();
  (void)r.u16();  // reserved
  const std::uint32_t message_len = r.u32();
  if (r.truncated) return truncated("the error fixed header");
  if (size != r.pos + message_len) {
    return fail(ProtoCode::kBodyShapeMismatch, "error body length mismatch");
  }
  if (code > static_cast<std::uint16_t>(ProtoCode::kServerBusy)) {
    return fail(ProtoCode::kBadEnum, "unknown protocol error code");
  }
  out.code = static_cast<ProtoCode>(code);
  out.message.assign(reinterpret_cast<const char*>(data + r.pos), message_len);
  return {};
}

ProtocolError decode_stats_body(const std::uint8_t* data, std::size_t size,
                                serve::Stats& out) {
  if (size != kStatsBodyBytes) {
    std::ostringstream os;
    os << "stats body of " << size << " bytes, expected " << kStatsBodyBytes;
    return fail(ProtoCode::kBodyShapeMismatch, os.str());
  }
  Reader r{data, size};
  out = serve::Stats{};
  out.submitted = r.u64();
  out.accepted = r.u64();
  out.rejected_queue_full = r.u64();
  out.rejected_shutting_down = r.u64();
  out.rejected_invalid = r.u64();
  out.rejected_load_shed = r.u64();
  out.completed_ok = r.u64();
  out.deadline_exceeded = r.u64();
  out.cancelled = r.u64();
  out.solver_failed = r.u64();
  out.invalid_input = r.u64();
  out.breaker_open = r.u64();
  out.degraded_results = r.u64();
  out.retries = r.u64();
  out.retry_successes = r.u64();
  out.breaker_opened_events = r.u64();
  out.degraded_entered = r.u64();
  out.solver_not_converged = r.u64();
  out.solver_iterations = r.u64();
  out.cg_iterations = r.u64();
  out.masked_entries = r.u64();
  out.auto_masked_entries = r.u64();
  out.outliers_downweighted = r.u64();
  out.numerical_breakdowns = r.u64();
  out.batches = r.u64();
  out.batched_requests = r.u64();
  out.max_batch = r.u64();
  out.breaker_open_shapes = static_cast<std::size_t>(r.u64());
  out.queue_high_water = static_cast<std::size_t>(r.u64());
  out.degraded = r.u8() != 0;
  read_stage(r, out.queue_wait);
  read_stage(r, out.form);
  read_stage(r, out.solve);
  read_stage(r, out.reconstruct);
  read_stage(r, out.end_to_end);
  PARMA_ASSERT(!r.truncated);  // the exact-size check above covers every read
  out.mean_batch_size = (out.batches > 0)
      ? static_cast<Real>(out.batched_requests) / static_cast<Real>(out.batches)
      : 0.0;
  return {};
}

// ---------------------------------------------------------------------------
// FrameDecoder.

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return;
  buffer_.insert(buffer_.end(), data, data + size);
}

FrameDecoder::Result FrameDecoder::next(Frame& frame) {
  if (!error_.ok()) return Result::kError;

  if (!pending_) {
    if (buffer_.size() - consumed_ < kHeaderBytes) return Result::kNeedMore;
    FrameHeader header;
    // The header is judged the moment its 24 bytes exist: a hostile length
    // prefix dies here, before any buffer grows toward body_len.
    error_ = decode_header(buffer_.data() + consumed_, kHeaderBytes, max_body_bytes_,
                           header);
    if (!error_.ok()) {
      // The id is only trustworthy once magic+version checked out.
      error_request_id_ = (error_.code == ProtoCode::kBadMagic ||
                           error_.code == ProtoCode::kBadVersion)
                              ? 0
                              : header.request_id;
      return Result::kError;
    }
    consumed_ += kHeaderBytes;
    pending_ = header;
  }

  if (buffer_.size() - consumed_ < pending_->body_len) return Result::kNeedMore;

  const std::uint8_t* body = buffer_.data() + consumed_;
  const std::size_t body_len = pending_->body_len;
  // Integrity before interpretation: a flipped header or payload byte must
  // become a typed error here, never a silently wrong decoded value. The
  // header bytes still sit just before the body: the buffer compacts only
  // once a frame completes.
  if (frame_checksum(body - kHeaderBytes, body, body_len) != pending_->body_sum) {
    error_ = ProtocolError{ProtoCode::kBadChecksum,
                           "header or body bytes disagree with the header checksum"};
    error_request_id_ = pending_->request_id;
    return Result::kError;
  }
  frame = Frame{};
  frame.type = pending_->type;
  frame.request_id = pending_->request_id;
  switch (pending_->type) {
    case FrameType::kRequest: {
      WireRequest request;
      error_ = decode_request_body(body, body_len, request);
      if (error_.ok()) {
        request.request_id = pending_->request_id;
        frame.request = std::move(request);
      }
      break;
    }
    case FrameType::kResponse: {
      WireResponse response;
      error_ = decode_response_body(body, body_len, response);
      if (error_.ok()) {
        response.request_id = pending_->request_id;
        frame.response = std::move(response);
      }
      break;
    }
    case FrameType::kError: {
      WireError wire_error;
      error_ = decode_error_body(body, body_len, wire_error);
      if (error_.ok()) {
        wire_error.request_id = pending_->request_id;
        frame.error = std::move(wire_error);
      }
      break;
    }
    case FrameType::kStatsResponse: {
      serve::Stats stats;
      error_ = decode_stats_body(body, body_len, stats);
      if (error_.ok()) frame.stats = std::move(stats);
      break;
    }
    case FrameType::kPing:
    case FrameType::kPong:
    case FrameType::kStatsRequest:
      // Header-only by construction (decode_header enforces body_len == 0).
      break;
  }
  if (!error_.ok()) {
    error_request_id_ = pending_->request_id;
    return Result::kError;
  }
  consumed_ += body_len;
  pending_.reset();
  // Compact: the consumed prefix is dead weight once a frame completes.
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
  consumed_ = 0;
  return Result::kFrame;
}

}  // namespace parma::net
