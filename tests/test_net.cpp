// Tests for src/net: the socket transport tier in front of serve::Server.
//
// Three layers of coverage: (1) the wire protocol -- encode/decode round
// trips, torn and malformed frames (truncated header, oversized declared
// payload rejected before any allocation, garbage magic, foreign version,
// mid-payload truncation), and a deterministic-seed fuzz loop that must
// never crash the decoder; (2) the readiness-event bridge end to end over
// loopback TCP -- a request served through the socket recovers the same
// field bit-for-bit as one submitted in process; (3) failure modes -- a
// malformed frame answered with a typed kError reply and a clean close, and
// a client that disconnects mid-flight never wedging the dispatcher.
// Carries the `tsan` ctest label; run under -DPARMA_SANITIZE=thread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "mea/generator.hpp"
#include "mea/measurement.hpp"
#include "net/client.hpp"
#include "net/listener.hpp"
#include "net/protocol.hpp"
#include "net/socket_ops.hpp"
#include "serve/server.hpp"

namespace parma::net {
namespace {

using namespace std::chrono_literals;

mea::Measurement make_measurement(Index n, std::uint64_t seed = 7) {
  Rng rng(seed + static_cast<std::uint64_t>(n));
  const mea::DeviceSpec spec = mea::square_device(n);
  const auto truth = mea::generate_field(spec, mea::random_scenario(spec, 1, rng), rng);
  return mea::measure_exact(spec, truth);
}

serve::ParametrizeRequest make_request(Index n, Index iterations = 1) {
  serve::ParametrizeRequest request;
  request.measurement = make_measurement(n);
  request.options.strategy = core::Strategy::kFineGrained;
  request.options.workers = 2;
  request.options.chunk = 2;
  request.options.keep_system = false;
  request.inverse.max_iterations = iterations;
  return request;
}

WireRequest make_wire_request(Index n, std::uint64_t id) {
  return WireRequest::from_request(make_request(n), id);
}

/// Decodes exactly one frame out of `bytes` or fails the test.
Frame decode_one(const std::vector<std::uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame)
      << proto_code_name(decoder.error().code) << ": " << decoder.error().message;
  return frame;
}

// ---------------------------------------------------------------------------
// Protocol round trips.

TEST(NetProtocol, RequestRoundTripPreservesEveryField) {
  WireRequest original = make_wire_request(4, 42);
  original.priority = 2;
  original.strategy = 1;
  original.auto_mask_invalid = true;
  original.deadline_ms = 1500;
  original.form_workers = 3;
  original.form_chunk = 5;
  original.max_iterations = 9;
  original.anomaly_threshold = 0.25;
  original.mask.assign(original.z.size(), 1);
  original.mask[3] = 0;

  const Frame frame = decode_one(encode_request(original));
  ASSERT_EQ(frame.type, FrameType::kRequest);
  ASSERT_TRUE(frame.request.has_value());
  const WireRequest& decoded = *frame.request;

  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.priority, original.priority);
  EXPECT_EQ(decoded.strategy, original.strategy);
  EXPECT_EQ(decoded.auto_mask_invalid, original.auto_mask_invalid);
  EXPECT_EQ(decoded.deadline_ms, original.deadline_ms);
  EXPECT_EQ(decoded.form_workers, original.form_workers);
  EXPECT_EQ(decoded.form_chunk, original.form_chunk);
  EXPECT_EQ(decoded.max_iterations, original.max_iterations);
  EXPECT_EQ(decoded.rows, original.rows);
  EXPECT_EQ(decoded.cols, original.cols);
  ASSERT_TRUE(decoded.anomaly_threshold.has_value());
  EXPECT_EQ(*decoded.anomaly_threshold, 0.25);
  // Bit-identical payload transport, not approximate.
  ASSERT_EQ(decoded.z.size(), original.z.size());
  EXPECT_EQ(std::memcmp(decoded.z.data(), original.z.data(),
                        original.z.size() * sizeof(Real)), 0);
  EXPECT_EQ(std::memcmp(decoded.u.data(), original.u.data(),
                        original.u.size() * sizeof(Real)), 0);
  EXPECT_EQ(decoded.mask, original.mask);
}

// A knob outside its wire field's range saturates instead of wrapping, so a
// request keeps its meaning across the wire: a timeout <= 0 stays the
// tightest deadline rather than turning into "no deadline", and counts above
// the field's maximum cross as that maximum.
TEST(NetProtocol, FromRequestSaturatesOutOfRangeKnobs) {
  serve::ParametrizeRequest request = make_request(3);
  const auto crossed = [](const serve::ParametrizeRequest& r) {
    const Frame frame = decode_one(encode_request(WireRequest::from_request(r, 1)));
    EXPECT_TRUE(frame.request.has_value());
    return frame.request.value_or(WireRequest{});
  };

  for (const auto timeout : {0ms, -5ms}) {
    request.timeout = timeout;
    const WireRequest wire = crossed(request);
    EXPECT_EQ(wire.deadline_ms, 1u) << timeout.count();
    EXPECT_EQ(wire.to_request().timeout, std::optional{1ms}) << timeout.count();
  }
  request.timeout = std::chrono::milliseconds(std::int64_t{1} << 40);
  EXPECT_EQ(crossed(request).deadline_ms, std::numeric_limits<std::uint32_t>::max());
  request.timeout = 1500ms;
  EXPECT_EQ(crossed(request).deadline_ms, 1500u);

  constexpr std::uint16_t kMax16 = std::numeric_limits<std::uint16_t>::max();
  request.inverse.max_iterations = 70000;
  request.options.workers = 70000;
  request.options.chunk = std::int64_t{1} << 33;
  WireRequest wire = crossed(request);
  EXPECT_EQ(wire.max_iterations, kMax16);
  EXPECT_EQ(wire.form_workers, kMax16);
  EXPECT_EQ(wire.form_chunk, kMax16);
  EXPECT_EQ(wire.to_request().inverse.max_iterations, kMax16);

  request.inverse.max_iterations = 40;
  request.options.workers = 3;
  request.options.chunk = 5;
  wire = crossed(request);
  EXPECT_EQ(wire.max_iterations, 40u);
  EXPECT_EQ(wire.form_workers, 3u);
  EXPECT_EQ(wire.form_chunk, 5u);
}

TEST(NetProtocol, ResponseRoundTripPreservesFieldAndTimings) {
  WireResponse original;
  original.request_id = 7;
  original.status_code = serve::status_wire_code(serve::RequestStatus::kOk);
  original.converged = true;
  original.attempts = 2;
  original.iterations = 17;
  original.anomalies = 1;
  original.rows = 3;
  original.cols = 3;
  original.final_misfit = 1e-9;
  original.queue_seconds = 0.5;
  original.form_seconds = 0.25;
  original.solve_seconds = 0.125;
  original.reconstruct_seconds = 0.0625;
  original.message = "ok";
  original.field = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0};

  const Frame frame = decode_one(encode_response(original));
  ASSERT_EQ(frame.type, FrameType::kResponse);
  ASSERT_TRUE(frame.response.has_value());
  const WireResponse& decoded = *frame.response;

  EXPECT_EQ(decoded.request_id, 7u);
  EXPECT_EQ(decoded.status(), serve::RequestStatus::kOk);
  EXPECT_TRUE(decoded.converged);
  EXPECT_EQ(decoded.attempts, 2);
  EXPECT_EQ(decoded.iterations, 17u);
  EXPECT_EQ(decoded.anomalies, 1u);
  EXPECT_EQ(decoded.final_misfit, 1e-9);
  EXPECT_EQ(decoded.queue_seconds, 0.5);
  EXPECT_EQ(decoded.message, "ok");
  ASSERT_TRUE(decoded.has_field());
  EXPECT_EQ(decoded.field, original.field);
  const circuit::ResistanceGrid grid = decoded.recovered_grid();
  EXPECT_EQ(grid.rows(), 3);
  EXPECT_EQ(grid.at(1, 1), 5.0);
}

TEST(NetProtocol, ErrorRoundTrip) {
  WireError original;
  original.request_id = 99;
  original.code = ProtoCode::kBodyShapeMismatch;
  original.message = "body disagrees with its shape header";

  const Frame frame = decode_one(encode_error(original));
  ASSERT_EQ(frame.type, FrameType::kError);
  ASSERT_TRUE(frame.error.has_value());
  EXPECT_EQ(frame.error->request_id, 99u);
  EXPECT_EQ(frame.error->code, ProtoCode::kBodyShapeMismatch);
  EXPECT_EQ(frame.error->message, original.message);
}

TEST(NetProtocol, ByteAtATimeFeedStillDecodes) {
  // A frame torn across arbitrarily small reads must reassemble exactly.
  const std::vector<std::uint8_t> bytes = encode_request(make_wire_request(3, 11));
  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(&bytes[i], 1);
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore)
        << "frame complete after " << (i + 1) << " of " << bytes.size() << " bytes";
  }
  decoder.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.request->request_id, 11u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(NetProtocol, BackToBackFramesDecodeInOrder) {
  std::vector<std::uint8_t> bytes = encode_request(make_wire_request(3, 1));
  const std::vector<std::uint8_t> second = encode_request(make_wire_request(4, 2));
  bytes.insert(bytes.end(), second.begin(), second.end());

  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.request->request_id, 1u);
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.request->request_id, 2u);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore);
}

// ---------------------------------------------------------------------------
// Malformed frames.

TEST(NetProtocol, TruncatedHeaderIsNeedMoreNotError) {
  const std::vector<std::uint8_t> bytes = encode_request(make_wire_request(3, 5));
  FrameDecoder decoder;
  decoder.feed(bytes.data(), kHeaderBytes - 1);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kNeedMore);
}

TEST(NetProtocol, GarbageMagicPoisonsTheDecoder) {
  std::vector<std::uint8_t> bytes = encode_request(make_wire_request(3, 5));
  bytes[0] ^= 0xFF;
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error().code, ProtoCode::kBadMagic);
  EXPECT_EQ(decoder.error_request_id(), 0u);  // header unreadable: no id
  // Poisoned: the stream has lost sync, further feeds change nothing.
  decoder.feed(encode_request(make_wire_request(3, 6)));
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
}

TEST(NetProtocol, VersionMismatchIsTyped) {
  std::vector<std::uint8_t> bytes = encode_request(make_wire_request(3, 5));
  bytes[4] = 0x7F;  // version low byte
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error().code, ProtoCode::kBadVersion);
}

TEST(NetProtocol, UnknownFrameTypeIsTyped) {
  std::vector<std::uint8_t> bytes = encode_request(make_wire_request(3, 5));
  bytes[6] = 0x77;  // type low byte
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error().code, ProtoCode::kBadFrameType);
}

TEST(NetProtocol, OversizedBodyRejectedFromHeaderAloneWithoutBuffering) {
  // A hostile length prefix: header declares far more than the cap. The
  // decoder must reject it the moment the header is readable -- from 20
  // bytes, before any buffer grows toward the declared 512 MiB.
  std::vector<std::uint8_t> bytes = encode_request(make_wire_request(3, 5));
  const std::uint32_t huge = 512u << 20;
  std::memcpy(&bytes[16], &huge, sizeof huge);

  FrameDecoder decoder(kDefaultMaxBodyBytes);
  decoder.feed(bytes.data(), kHeaderBytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error().code, ProtoCode::kBodyTooLarge);
  EXPECT_EQ(decoder.error_request_id(), 5u);  // header was readable: id known
  EXPECT_LE(decoder.buffered_bytes(), kHeaderBytes);
}

TEST(NetProtocol, MidPayloadTruncationSurfacesWhenBodyArrivesShort) {
  // The declared length is honest but the body lies about its own shape:
  // rows*cols says more samples than the body holds.
  WireRequest request = make_wire_request(3, 5);
  std::vector<std::uint8_t> bytes = encode_request(request);
  const std::uint32_t rows = 64;  // body still carries 3x3 worth of samples
  std::memcpy(&bytes[kHeaderBytes + 15], &rows, sizeof rows);
  patch_frame_checksum(bytes);  // keep integrity valid: the SHAPE is the lie

  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error().code, ProtoCode::kBodyShapeMismatch);
}

TEST(NetProtocol, OutOfRangeEnumIsTyped) {
  std::vector<std::uint8_t> bytes = encode_request(make_wire_request(3, 5));
  bytes[kHeaderBytes + 0] = 9;  // priority: valid values are 0/1/2
  patch_frame_checksum(bytes);
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error().code, ProtoCode::kBadEnum);
}

TEST(NetProtocol, DegenerateShapeIsTyped) {
  std::vector<std::uint8_t> bytes = encode_request(make_wire_request(3, 5));
  const std::uint32_t rows = 1;  // below the 2x2 minimum
  std::memcpy(&bytes[kHeaderBytes + 15], &rows, sizeof rows);
  patch_frame_checksum(bytes);
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Result::kError);
  EXPECT_EQ(decoder.error().code, ProtoCode::kBadShape);
}

TEST(NetProtocol, HeaderBitFlipsNeverDecodeAsAFrame) {
  // The checksum covers header bytes 4-19 (version, type, request id, body
  // length) as well as the body: a single flipped bit there must surface as
  // a typed error -- or as kNeedMore when the flip grew body_len -- never as
  // a decoded frame with the wrong type or id.
  WireResponse response;
  response.request_id = 0x0123456789abcdefULL;
  response.status_code = serve::status_wire_code(serve::RequestStatus::kOk);
  response.converged = true;
  response.iterations = 4;
  response.rows = 2;
  response.cols = 2;
  response.message = "ok";
  response.field = {1.0, 2.0, 3.0, 4.0};
  const std::vector<std::uint8_t> valid = encode_response(response);
  const std::uint32_t valid_len = static_cast<std::uint32_t>(valid.size() - kHeaderBytes);

  for (std::size_t byte = 4; byte < 20; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bytes = valid;
      bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
      FrameDecoder decoder;
      decoder.feed(bytes);
      Frame frame;
      const FrameDecoder::Result result = decoder.next(frame);
      ASSERT_NE(result, FrameDecoder::Result::kFrame) << "byte " << byte << " bit " << bit;
      if (result == FrameDecoder::Result::kError) {
        EXPECT_NE(decoder.error().code, ProtoCode::kOk) << "byte " << byte << " bit " << bit;
      } else {
        std::uint32_t body_len = 0;
        std::memcpy(&body_len, &bytes[16], sizeof body_len);
        EXPECT_GT(body_len, valid_len) << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(NetProtocol, FuzzedFramesNeverCrashTheDecoder) {
  // Deterministic-seed fuzz: random single/multi-byte corruptions of a valid
  // frame, plus pure-garbage streams, fed in random-sized slices. The
  // decoder must always land in kFrame/kNeedMore/kError -- never crash,
  // never allocate toward a hostile length, never loop forever.
  const std::vector<std::uint8_t> valid = encode_request(make_wire_request(4, 77));
  Rng rng(20260809);

  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> bytes = valid;
    const int flips = 1 + static_cast<int>(rng.uniform_index(8));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.uniform_index(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    }

    FrameDecoder decoder;
    std::size_t fed = 0;
    Frame frame;
    bool dead = false;
    while (fed < bytes.size() && !dead) {
      const std::size_t step =
          1 + static_cast<std::size_t>(rng.uniform_index(bytes.size() - fed));
      decoder.feed(&bytes[fed], step);
      fed += step;
      for (;;) {
        const FrameDecoder::Result r = decoder.next(frame);
        if (r == FrameDecoder::Result::kFrame) continue;
        if (r == FrameDecoder::Result::kError) dead = true;
        break;
      }
    }
    // Whatever happened, the decoder still answers (poisoned or hungry).
    (void)decoder.next(frame);
  }

  for (int round = 0; round < 50; ++round) {
    FrameDecoder decoder;
    std::vector<std::uint8_t> garbage(64 + rng.uniform_index(512));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    decoder.feed(garbage);
    Frame frame;
    for (int drain = 0; drain < 64; ++drain) {
      if (decoder.next(frame) != FrameDecoder::Result::kFrame) break;
    }
  }
}

// ---------------------------------------------------------------------------
// End to end over loopback TCP.

serve::ServerOptions small_server() {
  serve::ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 32;
  options.max_batch = 4;
  return options;
}

TEST(NetEndToEnd, LoopbackRequestMatchesInProcessBitForBit) {
  serve::Server server(small_server());
  Listener listener(server);
  listener.start();
  ASSERT_GT(listener.port(), 0);

  // The same request through both fronts: the wire adds transport, not
  // arithmetic, so the recovered fields must agree bit for bit.
  serve::Ticket local = server.submit(make_request(4, 3), 1000ms);
  ASSERT_TRUE(local.accepted());
  const serve::ParametrizeResult local_result = local.future().get();
  ASSERT_EQ(local_result.status, serve::RequestStatus::kOk);

  Client client;
  ClientOptions copts;
  copts.port = listener.port();
  client.connect(copts);
  const auto reply = client.request(WireRequest::from_request(make_request(4, 3), 0), 10000ms);
  ASSERT_TRUE(reply.has_value()) << "timed out waiting for the response";
  ASSERT_FALSE(reply->is_error) << reply->error.message;
  ASSERT_EQ(reply->response.status(), serve::RequestStatus::kOk);
  ASSERT_TRUE(reply->response.has_field());
  EXPECT_EQ(reply->response.converged, local_result.inverse.converged);

  const std::vector<Real>& remote = reply->response.field;
  const std::vector<Real>& in_process = local_result.inverse.recovered.flat();
  ASSERT_EQ(remote.size(), in_process.size());
  EXPECT_EQ(std::memcmp(remote.data(), in_process.data(),
                        remote.size() * sizeof(Real)), 0);

  client.disconnect();
  listener.stop();
  server.shutdown();
}

TEST(NetEndToEnd, PipelinedRequestsCompleteOutOfSubmissionOrder) {
  serve::Server server(small_server());
  Listener listener(server);
  listener.start();

  Client client;
  ClientOptions copts;
  copts.port = listener.port();
  client.connect(copts);

  // Several requests in flight on one connection; collect by id afterwards.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(client.send(make_request(3 + (i % 2), 2)));
  }
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {  // reversed on purpose
    const auto reply = client.wait(*it, 10000ms);
    ASSERT_TRUE(reply.has_value()) << "request " << *it << " timed out";
    ASSERT_FALSE(reply->is_error);
    EXPECT_EQ(reply->response.request_id, *it);
    EXPECT_EQ(reply->response.status(), serve::RequestStatus::kOk);
  }

  const ListenerCounters counters = listener.counters();
  EXPECT_EQ(counters.requests_admitted, 6u);
  EXPECT_EQ(counters.responses_enqueued, 6u);
  EXPECT_EQ(counters.protocol_errors, 0u);

  client.disconnect();
  listener.stop();
  server.shutdown();
}

TEST(NetEndToEnd, InvalidPayloadComesBackAsTypedRejection) {
  serve::Server server(small_server());
  Listener listener(server);
  listener.start();

  Client client;
  ClientOptions copts;
  copts.port = listener.port();
  client.connect(copts);

  // Structurally valid on the wire, semantically invalid for admission: the
  // transport carries it, the server's validation rejects it, and the
  // rejection crosses back as a typed wire status.
  WireRequest bad = make_wire_request(4, 0);
  for (auto& z : bad.z) z = -z;  // negative impedance magnitudes
  const auto reply = client.request(std::move(bad), 10000ms);
  ASSERT_TRUE(reply.has_value());
  ASSERT_FALSE(reply->is_error);
  const auto status = reply->response.status();
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(*status == serve::RequestStatus::kRejected ||
              *status == serve::RequestStatus::kInvalidInput)
      << "unexpected status code " << reply->response.status_code;
  EXPECT_FALSE(reply->response.has_field());

  client.disconnect();
  listener.stop();
  server.shutdown();
}

TEST(NetEndToEnd, MalformedFrameGetsTypedErrorThenClose) {
  serve::Server server(small_server());
  Listener listener(server);
  listener.start();

  Client client;
  ClientOptions copts;
  copts.port = listener.port();
  client.connect(copts);

  // A healthy request first proves the connection works...
  const auto ok = client.request(make_wire_request(3, 0), 10000ms);
  ASSERT_TRUE(ok.has_value());
  ASSERT_FALSE(ok->is_error);

  // ...then a corrupted frame on a second, raw connection: the server must
  // answer with the typed diagnostic and close, never crash or hang. A
  // request is left in flight on the healthy client to prove the poisoned
  // connection's demise stays scoped to itself.
  std::vector<std::uint8_t> corrupt = encode_request(make_wire_request(3, 123));
  corrupt[0] ^= 0xFF;  // garbage magic
  (void)client.send(make_wire_request(3, 0));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::send(fd, corrupt.data(), corrupt.size(), 0),
            static_cast<ssize_t>(corrupt.size()));

  // The server's reply on that socket must be a kError frame, then EOF.
  FrameDecoder decoder;
  Frame frame;
  std::uint8_t chunk[4096];
  bool got_error = false;
  bool got_eof = false;
  for (int i = 0; i < 200 && !got_eof; ++i) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) {
      got_eof = true;
      break;
    }
    ASSERT_GT(n, 0) << "recv failed: " << std::strerror(errno);
    decoder.feed(chunk, static_cast<std::size_t>(n));
    if (decoder.next(frame) == FrameDecoder::Result::kFrame) {
      ASSERT_EQ(frame.type, FrameType::kError);
      EXPECT_EQ(frame.error->code, ProtoCode::kBadMagic);
      got_error = true;
    }
  }
  EXPECT_TRUE(got_error) << "server never sent the typed diagnostic";
  EXPECT_TRUE(got_eof) << "server never closed the poisoned connection";
  ::close(fd);

  // The original client's in-flight request is unaffected by the other
  // connection's demise.
  const auto probe = client.poll(10000ms);
  ASSERT_TRUE(probe.has_value());
  EXPECT_FALSE(probe->is_error);

  EXPECT_GE(listener.counters().protocol_errors, 1u);

  client.disconnect();
  listener.stop();
  server.shutdown();
}

TEST(NetEndToEnd, ProtocolErrorTeardownSendsNoCancelledReplies) {
  // A request still queued when its connection is poisoned is cancelled by
  // the teardown. That kCancelled completion is not an answer: the peer must
  // see only the typed diagnostic and EOF, so a reconnecting client replays
  // the request instead of taking kCancelled as its final reply.
  serve::ServerOptions options = small_server();
  options.deferred_start = true;  // the request stays queued until start()
  serve::Server server(options);
  Listener listener(server);
  listener.start();

  std::vector<std::uint8_t> bytes = encode_request(make_wire_request(3, 7));
  std::vector<std::uint8_t> corrupt = encode_request(make_wire_request(3, 8));
  corrupt[kHeaderBytes] ^= 0x01;  // a body byte: kBadChecksum
  bytes.insert(bytes.end(), corrupt.begin(), corrupt.end());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 10;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0), static_cast<ssize_t>(bytes.size()));

  // Only once the connection is poisoned (and request 7 cancelled while
  // queued) does the pipeline start and complete it.
  for (int i = 0; i < 1000 && listener.counters().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(listener.counters().protocol_errors, 1u);
  server.start();

  FrameDecoder decoder;
  Frame frame;
  std::uint8_t chunk[4096];
  bool got_eof = false;
  std::vector<FrameType> frames;
  for (int i = 0; i < 200 && !got_eof; ++i) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) {
      got_eof = true;
      break;
    }
    ASSERT_GT(n, 0) << "recv failed: " << std::strerror(errno);
    decoder.feed(chunk, static_cast<std::size_t>(n));
    while (decoder.next(frame) == FrameDecoder::Result::kFrame) {
      frames.push_back(frame.type);
      if (frame.type == FrameType::kError) {
        EXPECT_EQ(frame.error->code, ProtoCode::kBadChecksum);
      }
    }
  }
  ::close(fd);
  EXPECT_TRUE(got_eof) << "server never closed the poisoned connection";
  EXPECT_EQ(frames, std::vector<FrameType>{FrameType::kError})
      << "the cancelled request must not be answered on the poisoned stream";
  EXPECT_EQ(listener.counters().responses_dropped, 1u);

  listener.stop();
  server.shutdown();
}

bool wait_until(const std::function<bool()>& pred, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

TEST(NetEndToEnd, DisconnectingClientNeverBlocksTheDispatcher) {
  serve::Server server(small_server());
  Listener listener(server);
  listener.start();

  // Fire requests and vanish without reading a single reply.
  {
    Client rude;
    ClientOptions copts;
    copts.port = listener.port();
    rude.connect(copts);
    for (int i = 0; i < 4; ++i) (void)rude.send(make_request(4, 3));
    rude.disconnect();
  }

  // The dispatcher must keep serving in-process traffic promptly.
  serve::Ticket ticket = server.submit(make_request(4, 2), 1000ms);
  ASSERT_TRUE(ticket.accepted());
  ASSERT_EQ(ticket.future().wait_for(10s), std::future_status::ready);
  EXPECT_EQ(ticket.future().get().status, serve::RequestStatus::kOk);
  // The I/O thread notices the vanished peer. The in-process solve above can
  // finish before it reads the EOF, so wait for it rather than racing stop().
  EXPECT_TRUE(wait_until([&] { return listener.counters().disconnects >= 1; }, 10000ms));

  // And the teardown path (drain + scope join) must not wedge either.
  listener.stop();
  server.shutdown();
}

TEST(NetEndToEnd, ListenerStopWhileRequestsInFlightJoinsCleanly) {
  serve::Server server(small_server());
  Listener listener(server);
  listener.start();

  Client client;
  ClientOptions copts;
  copts.port = listener.port();
  client.connect(copts);
  for (int i = 0; i < 3; ++i) (void)client.send(make_request(4, 3));

  // Stop with work still in the pipeline: in-flight requests are cancelled,
  // completions drain through the scope join, nothing leaks or races (the
  // tsan label runs this under -DPARMA_SANITIZE=thread).
  listener.stop();
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Raw-socket helpers for the hygiene and failure-mode tests.

/// Blocking IPv4 loopback connect; fails the test on any syscall error.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

void send_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  send_all(fd, bytes.data(), bytes.size());
}

/// The SIGPIPE witness for the socket-shim regression tests. sig_atomic_t
/// because the handler must stay async-signal-safe.
volatile std::sig_atomic_t g_sigpipe_seen = 0;

// ---------------------------------------------------------------------------
// Socket-shim hygiene: EPIPE stays a typed error, never a signal.

TEST(NetSocketOps, WriteToClosedPeerIsTypedEpipeNotSigpipe) {
  g_sigpipe_seen = 0;
  struct sigaction sa {};
  struct sigaction old {};
  sa.sa_handler = [](int) { g_sigpipe_seen = 1; };
  ASSERT_EQ(::sigaction(SIGPIPE, &sa, &old), 0);

  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ::close(pair[1]);  // the peer is gone before we write

  // Without MSG_NOSIGNAL in the shim this write raises SIGPIPE (default
  // disposition: process death). The contract is a typed IoCount instead.
  std::uint8_t byte = 0x5a;
  sock::IoCount io = sock::send_some(pair[0], &byte, 1);
  if (!io.failed()) io = sock::send_some(pair[0], &byte, 1);
  EXPECT_TRUE(io.failed());
  EXPECT_EQ(io.err, EPIPE) << std::strerror(io.err);

  // The gathered-write path must carry the same flag.
  iovec iov{&byte, 1};
  const sock::IoCount iov_io = sock::sendv_some(pair[0], &iov, 1);
  EXPECT_TRUE(iov_io.failed());
  EXPECT_EQ(iov_io.err, EPIPE) << std::strerror(iov_io.err);

  EXPECT_EQ(g_sigpipe_seen, 0) << "a socket write raised SIGPIPE";
  ::close(pair[0]);
  ::sigaction(SIGPIPE, &old, nullptr);
}

TEST(NetEndToEnd, PeerVanishingMidPipelineRaisesNoSignalAndServiceContinues) {
  g_sigpipe_seen = 0;
  struct sigaction sa {};
  struct sigaction old {};
  sa.sa_handler = [](int) { g_sigpipe_seen = 1; };
  ASSERT_EQ(::sigaction(SIGPIPE, &sa, &old), 0);

  serve::Server server(small_server());
  Listener listener(server);
  listener.start();

  // Pipeline two requests and vanish without reading a byte: whichever
  // response writes race the teardown must surface as typed close paths on
  // the I/O thread, never as a process-killing SIGPIPE.
  int fd = raw_connect(listener.port());
  send_all(fd, encode_request(make_wire_request(5, 1)));
  send_all(fd, encode_request(make_wire_request(5, 2)));
  ::close(fd);

  ASSERT_TRUE(wait_until([&] { return listener.counters().disconnects >= 1; }, 10000ms));

  // Service is unimpaired afterwards.
  Client client;
  ClientOptions copts;
  copts.port = listener.port();
  client.connect(copts);
  const auto reply = client.request(make_wire_request(4, 0), 10000ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok()) << client_error_name(reply->transport);

  EXPECT_EQ(g_sigpipe_seen, 0) << "a socket write raised SIGPIPE";
  client.disconnect();
  listener.stop();
  server.shutdown();
  ::sigaction(SIGPIPE, &old, nullptr);
}

// ---------------------------------------------------------------------------
// Typed client failure modes.

TEST(NetClient, ServerCloseBetweenSendAndWaitIsTypedConnectionLost) {
  // Regression: an acceptor that takes the request bytes and slams the
  // connection shut used to leave wait() spinning to its timeout with the
  // request parked forever. The outcome must be a typed kConnectionLost
  // reply -- promptly, not after the timeout.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  Client client;
  ClientOptions copts;
  copts.port = ntohs(addr.sin_port);
  client.connect(copts);
  const std::uint64_t id = client.send(make_wire_request(3, 0));

  const int peer = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  std::uint8_t sink[1024];
  (void)::recv(peer, sink, sizeof sink, 0);  // the request starts arriving...
  ::close(peer);                             // ...and the server vanishes
  ::close(lfd);

  const auto reply = client.wait(id, 5000ms);
  ASSERT_TRUE(reply.has_value()) << "wait() ran to its timeout instead of failing";
  EXPECT_EQ(reply->transport, ClientError::kConnectionLost);
  EXPECT_EQ(client.last_error(), ClientError::kConnectionLost);
  EXPECT_EQ(client.pending(), 0u);
}

TEST(NetClient, ConnectToDeadPortThrowsIoError) {
  // Find a port that is free right now by binding and releasing it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(probe);

  Client client;
  ClientOptions copts;
  copts.port = ntohs(addr.sin_port);
  copts.connect_timeout = 2000ms;
  EXPECT_THROW(client.connect(copts), IoError);
  EXPECT_EQ(client.last_error(), ClientError::kConnectFailed);
}

TEST(NetClient, ReconnectReplaysAndRecoversAfterInjectedReset) {
  serve::Server server(small_server());
  Listener listener(server);
  listener.start();

  std::vector<ConnState> states;
  Client client;
  ClientOptions copts;
  copts.port = listener.port();
  copts.reconnect = true;
  copts.reconnect_backoff = 2ms;
  copts.reconnect_backoff_cap = 20ms;
  copts.on_state = [&](ConnState s) { states.push_back(s); };
  client.connect(copts);

  // A clean round trip first (no injector active).
  const auto baseline = client.request(make_wire_request(4, 0), 20000ms);
  ASSERT_TRUE(baseline.has_value());
  ASSERT_TRUE(baseline->ok()) << client_error_name(baseline->transport);

  {
    // Exactly one reset, wherever the schedule lands it (client write,
    // client read, or the server side of the same connection): every path
    // must converge on reconnect + replay + a completed response.
    fault::ScopedInjector chaos(33);
    chaos->arm(fault::Point::kSockReset, {1.0, 1});
    const std::uint64_t id = client.send(make_wire_request(4, 0));
    const auto reply = client.wait(id, 20000ms);
    ASSERT_TRUE(reply.has_value()) << "request never terminated across the reset";
    EXPECT_TRUE(reply->ok()) << client_error_name(reply->transport);
  }

  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_NE(std::find(states.begin(), states.end(), ConnState::kReconnecting),
            states.end());
  EXPECT_EQ(states.back(), ConnState::kConnected);

  client.disconnect();
  listener.stop();
  server.shutdown();
}

TEST(NetClient, DeadlineLapsesAcrossOutageAsTypedDeadlineExceeded) {
  serve::Server server(small_server());
  Listener listener(server);
  listener.start();

  Client client;
  ClientOptions copts;
  copts.port = listener.port();
  copts.reconnect = true;
  copts.max_reconnect_attempts = 2;
  copts.reconnect_backoff = 20ms;
  copts.reconnect_backoff_cap = 40ms;
  client.connect(copts);

  listener.stop();  // the outage -- nothing is listening any more

  WireRequest req = make_wire_request(3, 0);
  req.deadline_ms = 30;  // the clock starts at send() and spans the outage
  const std::uint64_t id = client.send(std::move(req));
  std::this_thread::sleep_for(50ms);

  const auto reply = client.wait(id, 10000ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->transport, ClientError::kDeadlineExceeded)
      << client_error_name(reply->transport);
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Keepalive, dual stack, capacity, drain.

TEST(NetEndToEnd, KeepalivePingRoundTrips) {
  serve::Server server(small_server());
  Listener listener(server);
  listener.start();

  Client client;
  ClientOptions copts;
  copts.port = listener.port();
  client.connect(copts);
  EXPECT_TRUE(client.ping(5000ms));
  EXPECT_TRUE(client.ping(5000ms));
  EXPECT_EQ(listener.counters().pings, 2u);

  client.disconnect();
  listener.stop();
  server.shutdown();
}

TEST(NetEndToEnd, Ipv6LoopbackRoundTripWithBracketedHost) {
  const int probe = ::socket(AF_INET6, SOCK_STREAM, 0);
  if (probe < 0) GTEST_SKIP() << "IPv6 unsupported on this host";
  ::close(probe);

  serve::Server server(small_server());
  ListenerOptions lopts;
  lopts.host = "::1";
  Listener listener(server, lopts);
  try {
    listener.start();
  } catch (const std::exception& e) {
    GTEST_SKIP() << "IPv6 loopback unavailable: " << e.what();
  }

  Client client;
  ClientOptions copts;
  copts.host = "[::1]";  // the bracketed endpoint form parma_cli accepts
  copts.port = listener.port();
  client.connect(copts);
  const auto reply = client.request(make_wire_request(4, 0), 10000ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok()) << client_error_name(reply->transport);

  client.disconnect();
  listener.stop();
  server.shutdown();
}

TEST(NetEndToEnd, OverCapConnectionIsRejectedWithTypedBusyFrame) {
  serve::Server server(small_server());
  ListenerOptions lopts;
  lopts.max_connections = 1;
  Listener listener(server, lopts);
  listener.start();

  Client keeper;
  ClientOptions copts;
  copts.port = listener.port();
  keeper.connect(copts);
  const auto ok = keeper.request(make_wire_request(3, 0), 10000ms);
  ASSERT_TRUE(ok.has_value());  // the keeper owns the one slot

  // The over-cap dialer gets a typed kServerBusy diagnostic, then EOF -- not
  // a silent close it cannot distinguish from a crash.
  const int fd = raw_connect(listener.port());
  FrameDecoder decoder;
  Frame frame;
  std::uint8_t chunk[4096];
  bool got_busy = false;
  bool got_eof = false;
  for (int i = 0; i < 200 && !got_eof; ++i) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      got_eof = true;
      break;
    }
    decoder.feed(chunk, static_cast<std::size_t>(n));
    if (decoder.next(frame) == FrameDecoder::Result::kFrame) {
      ASSERT_EQ(frame.type, FrameType::kError);
      EXPECT_EQ(frame.error->code, ProtoCode::kServerBusy);
      got_busy = true;
    }
  }
  EXPECT_TRUE(got_busy) << "no kServerBusy frame before the close";
  EXPECT_TRUE(got_eof);
  ::close(fd);
  EXPECT_EQ(listener.counters().connections_rejected, 1u);

  keeper.disconnect();
  listener.stop();
  server.shutdown();
}

TEST(NetEndToEnd, DrainFlushesInFlightResponsesAndReportsTrue) {
  serve::Server server(small_server());
  Listener listener(server);
  listener.start();

  Client client;
  ClientOptions copts;
  copts.port = listener.port();
  client.connect(copts);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(client.send(make_request(4, 2)));

  // Drain only after the server has admitted all three -- drain stops
  // reading, so requests still in the socket would be orphaned by design.
  ASSERT_TRUE(wait_until(
      [&] { return listener.counters().requests_admitted == 3; }, 10000ms));
  EXPECT_TRUE(listener.drain(30000ms)) << "drain timed out with peers attached";
  EXPECT_EQ(listener.connection_count(), 0u);

  // Every response was flushed before the server closed the connection.
  for (const std::uint64_t id : ids) {
    const auto reply = client.wait(id, 5000ms);
    ASSERT_TRUE(reply.has_value()) << "request " << id << " lost in the drain";
    EXPECT_TRUE(reply->ok()) << client_error_name(reply->transport);
  }

  listener.stop();
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Connection hygiene: idle, slowloris, write-stall, backpressure re-arm.

TEST(NetEndToEnd, IdleConnectionIsReaped) {
  serve::Server server(small_server());
  ListenerOptions lopts;
  lopts.idle_timeout = 50ms;
  lopts.read_deadline = 0ms;
  lopts.write_stall_timeout = 0ms;
  lopts.hygiene_tick = 10ms;
  Listener listener(server, lopts);
  listener.start();

  const int fd = raw_connect(listener.port());
  EXPECT_TRUE(wait_until(
      [&] { return listener.counters().reaped_idle >= 1; }, 10000ms));
  // The reap is visible peer-side as a clean EOF.
  std::uint8_t byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  listener.stop();
  server.shutdown();
}

TEST(NetEndToEnd, HalfFrameHeldOpenIsReapedAsSlowloris) {
  serve::Server server(small_server());
  ListenerOptions lopts;
  lopts.read_deadline = 50ms;
  lopts.idle_timeout = 0ms;
  lopts.write_stall_timeout = 0ms;
  lopts.hygiene_tick = 10ms;
  Listener listener(server, lopts);
  listener.start();

  // Ten bytes of a valid frame, then silence: a classic slowloris hold. The
  // idle check alone would never fire (it is disabled here); the open frame
  // must carry its own deadline.
  const int fd = raw_connect(listener.port());
  const std::vector<std::uint8_t> frame = encode_request(make_wire_request(3, 9));
  send_all(fd, frame.data(), 10);
  EXPECT_TRUE(wait_until(
      [&] { return listener.counters().reaped_slowloris >= 1; }, 10000ms));
  ::close(fd);

  listener.stop();
  server.shutdown();
}

TEST(NetEndToEnd, PeerThatStopsReadingIsReapedAsWriteStall) {
  serve::Server server(small_server());
  ListenerOptions lopts;
  lopts.write_stall_timeout = 100ms;
  lopts.read_deadline = 0ms;
  lopts.idle_timeout = 0ms;
  lopts.hygiene_tick = 20ms;
  lopts.sndbuf_bytes = 4096;  // make the stall reachable with one response
  Listener listener(server, lopts);
  listener.start();

  // A peer with a tiny receive window pipelines a dozen requests whose
  // responses (16x16 fields, ~2 KiB each) together overrun both shrunken
  // socket buffers, then never reads a byte of them.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 2048;  // before connect, so the advertised window shrinks
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  for (std::uint64_t id = 1; id <= 12; ++id) {
    send_all(fd, encode_request(make_wire_request(16, id)));
  }

  EXPECT_TRUE(wait_until(
      [&] { return listener.counters().reaped_write_stall >= 1; }, 30000ms));
  ::close(fd);

  listener.stop();
  server.shutdown();
}

TEST(NetEndToEnd, ReadBackpressureRearmsWhenInFlightSettles) {
  serve::ServerOptions sopts = small_server();
  sopts.deferred_start = true;  // park the pipeline: nothing settles yet
  sopts.queue_capacity = 8;
  serve::Server server(sopts);
  ListenerOptions lopts;
  lopts.max_inflight_per_connection = 2;
  Listener listener(server, lopts);
  listener.start();

  Client client;
  ClientOptions copts;
  copts.port = listener.port();
  client.connect(copts);
  // Two sends first, and wait for their admission: a single burst could land
  // in one read pass, which decodes every buffered frame regardless of cap.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) ids.push_back(client.send(make_request(4, 1)));
  ASSERT_TRUE(wait_until(
      [&] { return listener.counters().requests_admitted == 2; }, 10000ms));

  // The connection is now at its in-flight cap and the pipeline is parked,
  // so nothing settles: two more requests must sit unread in the socket --
  // POLLIN has been withdrawn.
  for (int i = 0; i < 2; ++i) ids.push_back(client.send(make_request(4, 1)));
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(listener.counters().requests_admitted, 2u);

  // Releasing the pipeline settles the first two; the settle must re-arm
  // POLLIN so the remaining two are read and served. The regression mode is
  // a connection that stays deaf after hitting its cap.
  server.start();
  for (const std::uint64_t id : ids) {
    const auto reply = client.wait(id, 30000ms);
    ASSERT_TRUE(reply.has_value()) << "request " << id << " starved at the cap";
    EXPECT_TRUE(reply->ok()) << client_error_name(reply->transport);
  }
  EXPECT_EQ(listener.counters().requests_admitted, 4u);

  client.disconnect();
  listener.stop();
  server.shutdown();
}

}  // namespace
}  // namespace parma::net
