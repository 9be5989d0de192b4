// parma::net -- the compact length-prefixed binary protocol of the socket
// transport tier.
//
// Every frame is a fixed 24-byte header followed by a typed body:
//
//   offset  size  field
//        0     4  magic      0x414D5250 ("PRMA", little-endian on the wire)
//        4     2  version    kProtocolVersion
//        6     2  type       FrameType
//        8     8  request_id caller-chosen; echoed verbatim on the response
//       16     4  body_len   bytes that follow the header
//       20     4  body_sum   FNV-1a checksum of header bytes 4-19 and the
//                            body (v3 on; v2 covered the body only)
//
// All integers are little-endian fixed-width; floating point is IEEE-754
// binary64 bit-copied (the native representation on every supported target),
// so a recovered field survives the wire bit-identically. A request body
// carries the shape header (rows/cols/drive voltage), the serving knobs the
// remote caller may set (priority, deadline, formation strategy and
// workers/chunk, iteration cap), the Z and U sweeps, and the optional
// measurement mask; a response body carries the typed wire status
// (serve/status.hpp stable codes -- never raw enum ordinals), stage timings,
// and the recovered field for kOk/kDegradedResult. Ping/pong keepalive
// frames (v2) are header-only: body_len 0, request_id as the echo token.
//
// Decoding is exception-free by contract: malformed input -- truncation,
// garbage magic, a foreign version, an oversized declared body, a corrupted
// header or body byte caught by the checksum, a body that disagrees with its
// own shape header -- comes back as a typed ProtocolError diagnostic, never
// a throw and never a crash. An oversized declared body is rejected from the 24
// header bytes alone, before any buffer grows toward it, so a hostile 4 GiB
// length prefix costs the server nothing. The checksum is what turns wire
// corruption (a flipped bit in a Z sample, a frame type or a request id
// would otherwise decode fine) into a typed, recoverable teardown instead of
// a silently wrong answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"
#include "serve/status.hpp"

namespace parma::net {

inline constexpr std::uint32_t kMagic = 0x414D5250u;  // "PRMA"
/// v2: +body checksum in the header, ping/pong keepalive frames, typed
/// kServerBusy connection rejects. v3: the checksum also covers the header's
/// version, type, request id and body length. v4: the request body loses its
/// solve-method byte and the stats body its four full-system counters.
inline constexpr std::uint16_t kProtocolVersion = 4;
inline constexpr std::size_t kHeaderBytes = 24;

/// Hard ceiling on rows/cols in a request shape header: large enough for any
/// device the paper contemplates (wet-lab data tops out at 100 x 100), small
/// enough that rows * cols arithmetic can never overflow the size checks.
inline constexpr std::uint32_t kMaxWireDim = 4096;

/// Default cap on body_len; a listener/client may lower it. A full
/// kMaxWireDim^2 double payload does not fit by design -- the cap is a
/// transport-level budget, not the shape ceiling.
inline constexpr std::uint32_t kDefaultMaxBodyBytes = 64u << 20;  // 64 MiB

enum class FrameType : std::uint16_t {
  kRequest = 1,   ///< client -> server parametrization request
  kResponse = 2,  ///< server -> client completion (ParametrizeResult wire form)
  kError = 3,     ///< server -> client protocol-level error diagnostic
  kPing = 4,      ///< either direction: keepalive probe (header-only)
  kPong = 5,      ///< either direction: keepalive echo (header-only)
  kStatsRequest = 6,   ///< client -> server: snapshot serve::Stats (header-only)
  kStatsResponse = 7,  ///< server -> client: the serialized Stats snapshot
};

/// Typed decode diagnostics. Stable numeric values: they travel inside
/// kError frames.
enum class ProtoCode : std::uint16_t {
  kOk = 0,
  kBadMagic = 1,         ///< first 4 bytes are not "PRMA"
  kBadVersion = 2,       ///< peer speaks a different protocol version
  kBadFrameType = 3,     ///< type field names no known frame
  kBodyTooLarge = 4,     ///< declared body_len exceeds the configured cap
  kBodyShapeMismatch = 5,///< body_len disagrees with the body's own header
  kBadEnum = 6,          ///< enum field (priority/strategy/...) out of range
  kBadShape = 7,         ///< rows/cols outside [2, kMaxWireDim]
  kTruncatedBody = 8,    ///< body ended mid-field
  kBadChecksum = 9,      ///< header fields or body bytes disagree with the checksum
  kServerBusy = 10,      ///< connection rejected: the listener is at capacity
};

const char* proto_code_name(ProtoCode code);

/// FNV-1a 32-bit over header bytes 4-19 (version, type, request id, body
/// length) and then the `body_len` body bytes -- the header's body_sum field.
/// `header` points at the 24 header bytes. Cheap enough to run on every
/// frame, strong enough to catch the single-byte corruption real links (and
/// the chaos injector) produce, wherever in the frame it lands.
[[nodiscard]] std::uint32_t frame_checksum(const std::uint8_t* header,
                                           const std::uint8_t* body, std::size_t body_len);

/// Rewrites the header checksum at `frame[20]` to match the header fields
/// and the body bytes that follow the header. For tests that mutate an
/// encoded frame and still want it to pass integrity checking.
void patch_frame_checksum(std::vector<std::uint8_t>& frame);

/// One decode failure: what went wrong plus a human-readable detail.
struct ProtocolError {
  ProtoCode code = ProtoCode::kOk;
  std::string message;

  [[nodiscard]] bool ok() const { return code == ProtoCode::kOk; }
};

// ---------------------------------------------------------------------------
// Wire-level request/response records.

/// A parametrization request as it crosses the wire. Field-for-field
/// convertible with serve::ParametrizeRequest (to_request/from_request);
/// solver configuration the protocol does not carry stays at server
/// defaults.
struct WireRequest {
  std::uint64_t request_id = 0;
  std::uint8_t priority = 1;      ///< serve::Priority wire value (0/1/2)
  std::uint8_t strategy = 3;      ///< core::Strategy wire value (0..3)
  bool auto_mask_invalid = false;
  std::uint32_t deadline_ms = 0;  ///< 0 = no deadline
  std::uint16_t form_workers = 0; ///< 0 = server default
  std::uint16_t form_chunk = 0;   ///< 0 = server default
  std::uint16_t max_iterations = 0;  ///< 0 = server default
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  Real drive_voltage = 0.0;
  std::optional<Real> anomaly_threshold;
  std::vector<Real> z;               ///< row-major rows*cols
  std::vector<Real> u;               ///< row-major rows*cols
  std::vector<std::uint8_t> mask;    ///< row-major rows*cols, or empty

  /// Builds the serve-layer request (shape, payload, knobs). The caller owns
  /// validation -- admission rejects what the transport happily carried.
  [[nodiscard]] serve::ParametrizeRequest to_request() const;

  /// Captures a serve-layer request for transport. Knobs outside their wire
  /// field's range saturate instead of wrapping: a timeout <= 0 ms crosses
  /// as 1 ms, the tightest deadline the wire expresses (0 means none), and a
  /// timeout, worker count, chunk or iteration cap above the field's maximum
  /// crosses as that maximum. A negative count crosses as 0, the server
  /// default.
  static WireRequest from_request(const serve::ParametrizeRequest& request,
                                  std::uint64_t request_id);
};

/// A completion record as it crosses the wire.
struct WireResponse {
  std::uint64_t request_id = 0;
  std::uint16_t status_code = 0;  ///< serve::status_wire_code(RequestStatus)
  bool converged = false;
  std::uint16_t attempts = 0;
  std::uint32_t iterations = 0;
  std::uint32_t anomalies = 0;
  std::uint32_t rows = 0;  ///< recovered-field shape; 0 x 0 when absent
  std::uint32_t cols = 0;
  Real final_misfit = 0.0;
  Real queue_seconds = 0.0;
  Real form_seconds = 0.0;
  Real solve_seconds = 0.0;
  Real reconstruct_seconds = 0.0;
  std::string message;
  std::vector<Real> field;  ///< row-major recovered resistances (kOhm)

  /// The decoded terminal status; nullopt when the peer sent a code this
  /// build does not know.
  [[nodiscard]] std::optional<serve::RequestStatus> status() const {
    return serve::request_status_from_wire(status_code);
  }
  [[nodiscard]] bool has_field() const { return !field.empty(); }

  /// Rebuilds the recovered resistance field (requires has_field()).
  [[nodiscard]] circuit::ResistanceGrid recovered_grid() const;

  static WireResponse from_result(std::uint64_t request_id,
                                  const serve::ParametrizeResult& result);
};

/// A protocol-level error frame (the server's reply to a structurally
/// malformed request whose header was still readable).
struct WireError {
  std::uint64_t request_id = 0;  ///< offending frame's id when known, else 0
  ProtoCode code = ProtoCode::kOk;
  std::string message;
};

// ---------------------------------------------------------------------------
// Encoding (infallible: the in-memory records are valid by construction).

[[nodiscard]] std::vector<std::uint8_t> encode_request(const WireRequest& request);
[[nodiscard]] std::vector<std::uint8_t> encode_response(const WireResponse& response);
[[nodiscard]] std::vector<std::uint8_t> encode_error(const WireError& error);
/// Header-only keepalive frames; `request_id` is the echo token.
[[nodiscard]] std::vector<std::uint8_t> encode_ping(std::uint64_t request_id);
[[nodiscard]] std::vector<std::uint8_t> encode_pong(std::uint64_t request_id);
/// Stats snapshot exchange (the cluster router's aggregation probe). The
/// request is header-only; the response body carries only the merge
/// substrate of serve::Stats (raw counters and histogram buckets) -- derived
/// summaries (mean/p50/p99, mean_batch_size) are recomputed on decode, so a
/// snapshot survives the wire exactly.
[[nodiscard]] std::vector<std::uint8_t> encode_stats_request(std::uint64_t request_id);
[[nodiscard]] std::vector<std::uint8_t> encode_stats_response(std::uint64_t request_id,
                                                              const serve::Stats& stats);

// ---------------------------------------------------------------------------
// Decoding.

/// A parsed frame header (already validated: magic, version, known type,
/// body_len within the cap).
struct FrameHeader {
  FrameType type = FrameType::kRequest;
  std::uint64_t request_id = 0;
  std::uint32_t body_len = 0;
  std::uint32_t body_sum = 0;
};

/// One decoded frame of any type. `request_id` is always the header id --
/// for ping/pong (which have no body record) it is the only payload.
struct Frame {
  FrameType type = FrameType::kRequest;
  std::uint64_t request_id = 0;
  std::optional<WireRequest> request;
  std::optional<WireResponse> response;
  std::optional<WireError> error;
  std::optional<serve::Stats> stats;  ///< kStatsResponse payload
};

/// Validates the 24 header bytes. Never reads past kHeaderBytes.
[[nodiscard]] ProtocolError decode_header(const std::uint8_t* data, std::size_t size,
                                          std::uint32_t max_body_bytes,
                                          FrameHeader& out);

/// Decodes one body of the given type; `data`/`size` cover exactly the body.
[[nodiscard]] ProtocolError decode_request_body(const std::uint8_t* data,
                                                std::size_t size, WireRequest& out);
[[nodiscard]] ProtocolError decode_response_body(const std::uint8_t* data,
                                                 std::size_t size, WireResponse& out);
[[nodiscard]] ProtocolError decode_error_body(const std::uint8_t* data,
                                              std::size_t size, WireError& out);
[[nodiscard]] ProtocolError decode_stats_body(const std::uint8_t* data,
                                              std::size_t size, serve::Stats& out);

/// Incremental frame reassembly over a byte stream: feed() whatever the
/// socket produced, then drain next() until it stops yielding kFrame.
///
/// The decoder validates the header as soon as 24 bytes are buffered -- a
/// hostile length prefix is rejected (kBodyTooLarge) before any allocation
/// approaches the declared size -- and holds at most one in-progress frame.
/// After the first error the decoder is poisoned: the stream has lost frame
/// sync, so the connection must be torn down (next() keeps returning kError).
class FrameDecoder {
 public:
  enum class Result {
    kFrame,     ///< `frame` holds one complete decoded frame
    kNeedMore,  ///< buffered bytes do not complete a frame yet
    kError,     ///< stream is malformed; see error()
  };

  explicit FrameDecoder(std::uint32_t max_body_bytes = kDefaultMaxBodyBytes)
      : max_body_bytes_(max_body_bytes) {}

  /// Appends received bytes (bounded by what was actually read -- the
  /// decoder never reserves toward a declared length).
  void feed(const std::uint8_t* data, std::size_t size);
  void feed(const std::vector<std::uint8_t>& data) { feed(data.data(), data.size()); }

  /// Extracts the next complete frame, if any.
  [[nodiscard]] Result next(Frame& frame);

  /// The poisoning diagnostic after next() returned kError.
  [[nodiscard]] const ProtocolError& error() const { return error_; }
  /// Request id of the frame being decoded when the error hit (0 when the
  /// header itself was unreadable) -- lets the server address its kError
  /// reply.
  [[nodiscard]] std::uint64_t error_request_id() const { return error_request_id_; }

  /// Bytes currently buffered (tests: proves oversized bodies are rejected
  /// without buffering toward body_len).
  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  /// True while a validated header is waiting for (part of) its body, or a
  /// partial header is buffered -- i.e. the peer owes us bytes to finish a
  /// frame. The listener's slowloris deadline keys off this: a peer that
  /// holds a frame open past the read deadline is stalling on purpose.
  [[nodiscard]] bool mid_frame() const {
    return pending_.has_value() || buffered_bytes() > 0;
  }

 private:
  std::uint32_t max_body_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
  std::optional<FrameHeader> pending_;  ///< validated header awaiting its body
  ProtocolError error_;
  std::uint64_t error_request_id_ = 0;
};

}  // namespace parma::net
