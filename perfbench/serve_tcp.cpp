// Workload `serve_tcp`: open-loop serving over loopback TCP.
//
// One pipelined net::Client sends from this thread to an in-process
// net::Listener + serve::Server (2 scheduler workers, batching on). Arrivals
// are Poisson at one fixed offered rate, drawn from the seed; requests are
// LM solves of exact measurements cycling round-robin through n = 6, 8, 10.
// Each solve takes a few ms, so queueing, batch-sibling waits, scheduler
// hops and the wire make up most of a request's latency.
//
// Latency runs from each request's *scheduled* send time to its verified
// reply, so a generator that falls behind charges the wait to the requests
// it delayed. The generator's own lateness is reported, and a window whose
// lateness exceeds kLateBoundMs at the 99th percentile is discarded, or,
// when that happens again, the run is marked invalid: a stalled generator
// must never read as a slow server.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "bench.hpp"
#include "net/client.hpp"
#include "net/listener.hpp"
#include "net/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

namespace net = parma::net;
namespace serve = parma::serve;
using std::chrono::milliseconds;

constexpr Index kShapes[] = {6, 8, 10};
constexpr std::size_t kDevicesPerShape = 32;
/// Seed of the reference devices set-up warms with. It is fixed, so the
/// set-up work is the same whatever --seed a run is given.
constexpr std::uint64_t kReferenceSeed = 0x5E7U;
/// Offered load, requests per second: half the capacity measured for this
/// mix on a 4-thread x86-64 host, taking capacity as the highest rate whose
/// op_tail_ms stays under 20 ms (about 300 req/s; replies saturate near
/// 600 req/s). See perfbench/README.md.
constexpr double kRate = 150.0;
/// A window whose generator sends later than this at p99 is discarded and
/// measured again, at most kMaxDiscardedWindows times; after that the run is
/// invalid. On a shared 4-vCPU host such stalls come from other load on the
/// machine, and the whole process runs slower through them.
constexpr double kLateBoundMs = 5.0;
constexpr int kMaxDiscardedWindows = 1;
/// Within this long of a send the generator spins instead of reading, since
/// even the shortest wait in Client::poll (up to 1 ms) could make it late.
constexpr double kSpinMs = 1.1;
/// A reply the generator finds already waiting after it spent longer than
/// this away from the socket (sending or spinning) counts as a late read:
/// its latency may include up to that much of the generator's own time.
constexpr double kLateReadMs = 0.25;
/// A poll() that returns a reply sooner than this found it already waiting.
constexpr double kImmediateMs = 0.05;
/// A traced run cuts its sending window into this many equal slices (by due
/// time) and traces every second one, so traced and untraced requests meet
/// the same host load.
constexpr std::size_t kTraceSlices = 10;
/// Untimed open-loop traffic between setup and the measured window. Without
/// it the first window ran slower than a second one on the same stack
/// (median 3.9 vs 3.2 ms) while the fresh server and host settled.
constexpr double kWarmupSeconds = 5.0;
/// How long replies may trail the end of the sending window.
constexpr double kDrainSeconds = 30.0;
constexpr int kCodecRepeats = 2000;

/// Formation runs inline on the scheduler worker (kSingleThread): LM serving
/// discards the formed system, and inline formation keeps the process at
/// three busy threads -- this one and the two scheduler workers -- so the
/// generator is not preempted by formation pools on a 4-thread host.
serve::ParametrizeRequest make_request(const Device& device) {
  serve::ParametrizeRequest request;
  request.measurement = device.measurement;
  request.options.strategy = parma::core::Strategy::kSingleThread;
  request.options.workers = 1;
  request.options.keep_system = false;
  return request;
}

struct Stack {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<net::Listener> listener;
  std::unique_ptr<net::Client> client;

  void stop() {
    if (client) client->disconnect();
    if (listener) listener->stop();
    if (server) server->shutdown();
    client.reset();
    listener.reset();
    server.reset();
  }
};

/// Server, listener and connection, warmed with one request per shape so the
/// shared formation cache holds every shape before the first timed send.
Stack set_up(const std::vector<serve::ParametrizeRequest>& warmup) {
  Stack s;
  serve::ServerOptions options;
  options.workers = 2;
  options.max_batch = 8;
  s.server = std::make_unique<serve::Server>(options);
  net::ListenerOptions listener_options;
  listener_options.max_inflight_per_connection = 64;
  s.listener = std::make_unique<net::Listener>(*s.server, listener_options);
  s.listener->start();
  s.client = std::make_unique<net::Client>();
  net::ClientOptions client_options;
  client_options.port = s.listener->port();
  s.client->connect(client_options);
  for (const serve::ParametrizeRequest& request : warmup) {
    const auto reply =
        s.client->request(net::WireRequest::from_request(request, 0), milliseconds(30'000));
    if (!reply || !reply->ok() || reply->response.status() != serve::RequestStatus::kOk) {
      throw std::runtime_error("serve_tcp: warm-up request failed");
    }
  }
  return s;
}

struct InFlight {
  std::size_t device = 0;
  Clock::time_point due;
  Clock::time_point sent;
  std::uint64_t span = 0;
  bool traced = false;
};

struct Window {
  std::vector<double> latency_s;         ///< due -> verified reply, untraced requests
  std::vector<double> traced_latency_s;  ///< the same, traced requests
  std::vector<double> late_ms;           ///< send start - due
  std::vector<double> queue_ms, form_ms, solve_ms, reconstruct_ms, unattributed_ms;
  std::size_t verified = 0;
  std::size_t traced_verified = 0;
  std::size_t replies = 0;
  std::size_t late_reads = 0;  ///< replies found waiting after > kLateReadMs away
  std::size_t transport_errors = 0;
  std::size_t not_ok = 0;
  net::WireResponse sample_reply[std::size(kShapes)];
};

double ms_between(Clock::time_point start, Clock::time_point end) {
  return seconds_between(start, end) * 1e3;
}

/// One sending window: sleeps in Client::poll, which returns as soon as a
/// reply arrives, while the next send is at least kSpinMs away, and spins
/// through the rest, so sends leave on time; then drains the outstanding
/// replies. With `alternate`, requests due in every second slice of the
/// window are traced.
Window run_window(net::Client& client, const std::vector<Device>& devices,
                  const std::vector<serve::ParametrizeRequest>& requests, double budget_seconds,
                  bool alternate, parma::Rng& arrivals, Tracer& tracer, Outcome& outcome) {
  Window w;
  std::unordered_map<std::uint64_t, InFlight> inflight;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(budget_seconds));
  const Clock::time_point drain_deadline =
      end + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(kDrainSeconds));
  const auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - arrivals.uniform()) / kRate));
  };
  Clock::time_point due = start + gap();
  std::size_t next = 0;
  Clock::time_point last_read = start;  ///< when the generator last looked for replies

  const auto handle = [&](const net::Client::Reply& reply) {
    const Clock::time_point received = Clock::now();
    const auto it = inflight.find(reply.request_id);
    if (it == inflight.end()) return;
    const InFlight f = it->second;
    inflight.erase(it);
    const std::size_t shape = f.device % std::size(kShapes);
    if (!reply.ok()) {
      ++w.transport_errors;
      ++outcome.failed;
      return;
    }
    const net::WireResponse& r = reply.response;
    if (r.status() != serve::RequestStatus::kOk) {
      ++w.not_ok;
      ++outcome.failed;
      return;
    }
    const double err = max_relative_error(r.field, devices[f.device].truth);
    if (!(err <= kMaxRelativeError)) {
      ++outcome.failed;
      ++outcome.wrong;
      std::fprintf(stderr, "serve_tcp: request %llu missed the truth (max rel err %.3g)\n",
                   static_cast<unsigned long long>(reply.request_id), err);
      return;
    }
    ++(f.traced ? w.traced_verified : w.verified);
    (f.traced ? w.traced_latency_s : w.latency_s).push_back(seconds_between(f.due, received));
    const double stages = r.queue_seconds + r.form_seconds + r.solve_seconds +
                          r.reconstruct_seconds;
    w.queue_ms.push_back(r.queue_seconds * 1e3);
    w.form_ms.push_back(r.form_seconds * 1e3);
    w.solve_ms.push_back(r.solve_seconds * 1e3);
    w.reconstruct_ms.push_back(r.reconstruct_seconds * 1e3);
    w.unattributed_ms.push_back((seconds_between(f.sent, received) - stages) * 1e3);
    w.sample_reply[shape] = r;
    if (f.traced) {
      tracer.append({f.span, 0, reply.request_id, "gen.request", f.due, received,
                     {{"queue_s", r.queue_seconds},
                      {"form_s", r.form_seconds},
                      {"solve_s", r.solve_seconds},
                      {"reconstruct_s", r.reconstruct_seconds},
                      {"n", static_cast<double>(kShapes[shape])}}});
    }
  };

  for (;;) {
    const Clock::time_point now = Clock::now();
    const bool sending = due < end;
    if (sending && now >= due) {
      const std::size_t device = next % devices.size();
      const auto slice = static_cast<std::size_t>(seconds_between(start, due) / budget_seconds *
                                                  kTraceSlices);
      const bool traced = alternate && slice % 2 == 1;
      tracer.set_enabled(traced);
      InFlight f{device, due, now, tracer.next_id(), traced};
      w.late_ms.push_back(ms_between(due, now));
      Span send(tracer, "net.Client.send", f.span);
      const std::uint64_t id = client.send(requests[device]);
      send.finish();
      inflight.emplace(id, f);
      ++outcome.attempted;
      ++next;
      due += gap();
      continue;
    }
    if (!sending && inflight.empty()) break;
    if (!sending && now >= drain_deadline) {
      outcome.failed += inflight.size();
      w.transport_errors += inflight.size();
      std::fprintf(stderr, "serve_tcp: %zu replies missing after the drain deadline\n",
                   inflight.size());
      break;
    }
    const Clock::time_point wake = sending ? due : drain_deadline;
    const double left_ms = std::chrono::duration<double, std::milli>(wake - now).count();
    if (sending && left_ms < kSpinMs) continue;
    // Client::poll(k ms) waits in ::poll for at most k-1 whole milliseconds,
    // so it wakes before the due time.
    const auto budget = milliseconds(static_cast<long>(std::clamp(left_ms, 2.0, 50.0)));
    const Clock::time_point call = Clock::now();
    const auto reply = client.poll(budget);
    const Clock::time_point back = Clock::now();
    if (reply) {
      ++w.replies;
      if (ms_between(call, back) < kImmediateMs && ms_between(last_read, call) > kLateReadMs) {
        ++w.late_reads;
      }
      handle(*reply);
    }
    last_read = back;
  }
  return w;
}

/// Nearest-rank 99th percentile of the generator's lateness.
double late_p99_ms(const Window& w) {
  if (w.late_ms.empty()) return 0.0;
  const std::vector<double> late = sorted_copy(w.late_ms);
  return late[(late.size() * 99 + 99) / 100 - 1];
}

/// Prints the window's failures, late reads and the generator's lateness; a
/// 99th percentile lateness above the bound makes the run invalid.
void report_window(const Window& w, Outcome& outcome) {
  std::printf("serve_tcp: %zu non-kOk replies, %zu transport errors, %zu of %zu replies read "
              "late\n",
              w.not_ok, w.transport_errors, w.late_reads, w.replies);
  if (w.late_ms.empty()) return;
  const double p99 = late_p99_ms(w);
  std::printf("serve_tcp: offered %.1f req/s, generator lateness p99 %.3f ms, max %.3f ms\n",
              kRate, p99, *std::max_element(w.late_ms.begin(), w.late_ms.end()));
  if (p99 > kLateBoundMs && outcome.invalid_reason.empty()) {
    char reason[128];
    std::snprintf(reason, sizeof reason,
                  "generator lateness p99 %.3f ms exceeds the %.1f ms bound", p99, kLateBoundMs);
    outcome.invalid_reason = reason;
  }
}

double median_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }
double tail_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : tail(v).value; }

/// encode_request / decode_response_body cost on this workload's frames.
void probe_codec(const std::vector<serve::ParametrizeRequest>& requests, const Window& w,
                 Tracer& tracer, Outcome& outcome) {
  double encode_s = 0.0, decode_s = 0.0, request_bytes = 0.0, response_bytes = 0.0;
  for (std::size_t k = 0; k < std::size(kShapes); ++k) {
    const net::WireRequest wire = net::WireRequest::from_request(requests[k], k + 1);
    std::size_t bytes = 0;
    {
      Span span(tracer, "net.encode_request", 0, 0);
      for (int rep = 0; rep < kCodecRepeats; ++rep) bytes = net::encode_request(wire).size();
      encode_s += span.finish();
    }
    request_bytes += static_cast<double>(bytes);

    const std::vector<std::uint8_t> frame = net::encode_response(w.sample_reply[k]);
    net::WireResponse decoded;
    {
      Span span(tracer, "net.decode_response_body", 0, 0);
      for (int rep = 0; rep < kCodecRepeats; ++rep) {
        const net::ProtocolError e = net::decode_response_body(
            frame.data() + net::kHeaderBytes, frame.size() - net::kHeaderBytes, decoded);
        if (!e.ok()) throw std::runtime_error("decode_response_body: " + e.message);
      }
      decode_s += span.finish();
    }
    response_bytes += static_cast<double>(frame.size());
  }
  const double calls = static_cast<double>(kCodecRepeats * std::size(kShapes));
  const double shapes = static_cast<double>(std::size(kShapes));
  outcome.per_layer.push_back({"net.encode_us", encode_s / calls * 1e6, "us", "mean over shapes"});
  outcome.per_layer.push_back({"net.decode_us", decode_s / calls * 1e6, "us", "mean over shapes"});
  outcome.per_layer.push_back({"net.request_bytes", request_bytes / shapes, "bytes", ""});
  outcome.per_layer.push_back({"net.response_bytes", response_bytes / shapes, "bytes", ""});
}

}  // namespace

Outcome run_serve_tcp(const Args& args, Tracer& tracer) {
  std::vector<Device> devices;
  std::vector<serve::ParametrizeRequest> requests;
  for (std::size_t d = 0; d < kDevicesPerShape * std::size(kShapes); ++d) {
    devices.push_back(make_device(kShapes[d % std::size(kShapes)], args.seed, d));
    requests.push_back(make_request(devices.back()));
  }
  // Set-up warms with reference devices, which do not depend on the seed.
  std::vector<serve::ParametrizeRequest> warmup;
  for (const Index n : kShapes) warmup.push_back(make_request(make_device(n, kReferenceSeed, 0)));

  std::vector<double> setup_seconds;
  Stack stack;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack.stop();
    const Clock::time_point start = Clock::now();
    stack = set_up(warmup);
    setup_seconds.push_back(seconds_between(start, Clock::now()));
  }
  net::Client& client = *stack.client;

  parma::Rng arrivals(args.seed ^ 0xA771BA15ULL);
  Outcome outcome;
  const bool traced = tracer.enabled();
  tracer.set_enabled(false);
  // Warm-up replies, and those of discarded windows, are verified and
  // counted like any other.
  (void)run_window(client, devices, requests, kWarmupSeconds, false, arrivals, tracer, outcome);
  std::optional<serve::Stats> stats_before = client.stats(milliseconds(10'000));
  Window w =
      run_window(client, devices, requests, args.seconds, traced, arrivals, tracer, outcome);
  int discarded = 0;
  for (; late_p99_ms(w) > kLateBoundMs && discarded < kMaxDiscardedWindows; ++discarded) {
    std::printf("serve_tcp: generator lateness p99 %.3f ms exceeds the %.1f ms bound; "
                "discarding the window\n",
                late_p99_ms(w), kLateBoundMs);
    stats_before = client.stats(milliseconds(10'000));
    w = run_window(client, devices, requests, args.seconds, traced, arrivals, tracer, outcome);
  }
  const auto stats_after = client.stats(milliseconds(10'000));
  // A traced run sends untraced and traced requests for half the window each.
  const double untraced_seconds = traced ? args.seconds / 2.0 : args.seconds;
  outcome.end_to_end = end_to_end_metrics(w.latency_s, setup_seconds,
                                          static_cast<double>(w.verified) / untraced_seconds);
  report_window(w, outcome);
  if (!traced) {
    stack.stop();
    return outcome;
  }

  outcome.traced = end_to_end_metrics(w.traced_latency_s, setup_seconds,
                                      static_cast<double>(w.traced_verified) / untraced_seconds);
  if (!stats_before || !stats_after) throw std::runtime_error("serve_tcp: stats probe failed");
  const serve::Stats& a = *stats_before;
  const serve::Stats& b = *stats_after;
  const double batches = static_cast<double>(b.batches - a.batches);
  const std::string n_note = count_note(w.queue_ms.size());
  outcome.per_layer = {
      {"serve.queue_ms.p50", median_or_zero(w.queue_ms), "ms", n_note},
      {"serve.queue_ms.tail", tail_or_zero(w.queue_ms), "ms", n_note},
      {"serve.form_ms.p50", median_or_zero(w.form_ms), "ms", n_note},
      {"serve.solve_ms.p50", median_or_zero(w.solve_ms), "ms", n_note},
      {"serve.reconstruct_ms.p50", median_or_zero(w.reconstruct_ms), "ms", n_note},
      {"serve.unattributed_ms.p50", median_or_zero(w.unattributed_ms), "ms", n_note},
      {"serve.unattributed_ms.tail", tail_or_zero(w.unattributed_ms), "ms", n_note},
      {"serve.mean_batch",
       batches > 0 ? static_cast<double>(b.batched_requests - a.batched_requests) / batches : 0.0,
       "count", "over the measured window"},
      {"serve.queue_high_water", static_cast<double>(b.queue_high_water), "count", ""},
      {"serve.retries", static_cast<double>(b.retries - a.retries), "count", ""},
      {"serve.rejected", static_cast<double>(b.rejected() - a.rejected()), "count", ""},
      {"gen.late_ms.max",
       w.late_ms.empty() ? 0.0 : *std::max_element(w.late_ms.begin(), w.late_ms.end()), "ms",
       "validity check"},
      {"gen.discarded_windows", static_cast<double>(discarded), "count", "validity check"},
      {"gen.late_reads_pct",
       w.replies > 0 ? 100.0 * static_cast<double>(w.late_reads) / static_cast<double>(w.replies)
                     : 0.0,
       "%", "replies found waiting after the generator spent > 0.25 ms away"},
  };
  tracer.set_enabled(true);
  probe_codec(requests, w, tracer, outcome);
  stack.stop();
  return outcome;
}

}  // namespace perfbench
