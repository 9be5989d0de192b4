// parma::net::Listener -- the async TCP front of serve::Server.
//
// One dedicated I/O thread runs a poll(2) readiness loop over a
// non-blocking listening socket, a self-pipe (so pipeline threads can nudge
// the loop when they queue output), and every accepted connection. The loop
// never blocks on a peer and never computes: each decoded request frame is
// bridged into the serving pipeline as a sender source --
//
//   frame -> async::Event::fire  (Server::submit_external completion)
//   event.task().then(encode + enqueue on the connection's outbox)
//
// -- with the chain spawned into a listener-owned AsyncScope. The chain
// holds only a weak_ptr to its connection, so a peer that disconnects
// mid-solve costs nothing: its in-flight requests are cancelled (they
// complete kCancelled at the next pipeline checkpoint) and any completion
// that still fires finds the weak_ptr expired and drops the response.
//
// Lifecycle: start() binds/listens and spawns the I/O thread; stop() wakes
// the loop, joins the thread, cancels every in-flight request, then joins
// the scope -- no completion can outlive the listener. drain() is the
// graceful preamble to stop(): accepting ceases, every connection winds
// down (in-flight requests complete and their responses flush), and the
// call reports whether all peers closed within the deadline. Stop the
// listener BEFORE shutting the server down: the scope join needs the
// pipeline alive to finish the cancelled chains.
//
// Connection hygiene runs on a periodic timer tick (an owned
// async::TimerQueue pokes the wake pipe; the sweep itself runs on the I/O
// thread): connections that hold a frame open past read_deadline
// (slowloris), make no write progress past write_stall_timeout, or sit
// idle past idle_timeout are reaped with a typed counter each. The
// listener binds dual-stack when given an IPv6 host ("::" accepts v4 peers
// too); over-cap connections are rejected with a best-effort kServerBusy
// error frame instead of a silent close.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "async/async_scope.hpp"
#include "async/timer_queue.hpp"
#include "net/connection.hpp"
#include "net/protocol.hpp"
#include "serve/server.hpp"

namespace parma::net {

struct ListenerOptions {
  /// IPv4 or IPv6 listen address; "::" binds dual-stack (v6 + mapped v4).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; port() reports the bound port
  int backlog = 64;
  std::uint32_t max_body_bytes = kDefaultMaxBodyBytes;
  /// Read-side backpressure: POLLIN is withdrawn from a connection at this
  /// many unanswered requests, closing the peer's TCP window instead of
  /// flooding the admission queue.
  std::size_t max_inflight_per_connection = 32;
  std::size_t max_connections = 64;

  // -- connection hygiene (0 disables a check) -------------------------------

  /// Slowloris defense: a frame (header or body) must complete within this
  /// long of starting.
  std::chrono::milliseconds read_deadline{10'000};
  /// Idle reaping: a connection with no traffic and no in-flight work for
  /// this long is closed.
  std::chrono::milliseconds idle_timeout{300'000};
  /// A connection whose queued output makes no progress for this long
  /// (peer stopped reading) is closed.
  std::chrono::milliseconds write_stall_timeout{10'000};
  /// Hygiene sweep period; 0 = auto (a quarter of the tightest enabled
  /// deadline, clamped to [10 ms, 1 s]).
  std::chrono::milliseconds hygiene_tick{0};

  /// Test knob: shrink accepted sockets' SO_SNDBUF so write-stall paths are
  /// reachable with small payloads. 0 = kernel default.
  int sndbuf_bytes = 0;
};

/// Monotonic transport counters (diagnostics / tests).
struct ListenerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  ///< over cap: kServerBusy sent
  std::uint64_t requests_admitted = 0;
  std::uint64_t responses_enqueued = 0;
  std::uint64_t responses_dropped = 0;  ///< peer gone, or cancelled by its teardown
  std::uint64_t protocol_errors = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t reaped_idle = 0;
  std::uint64_t reaped_slowloris = 0;
  std::uint64_t reaped_write_stall = 0;
  std::uint64_t pings = 0;  ///< keepalive pings answered
};

class Listener {
 public:
  /// The server must outlive the listener.
  explicit Listener(serve::Server& server, ListenerOptions options = {});
  ~Listener();  // stop()

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds, listens, and spawns the I/O thread. Throws ContractError when
  /// the address cannot be bound. No-op when already running.
  void start();

  /// Stops accepting, tears every connection down (cancelling its in-flight
  /// requests), and joins the I/O thread and the completion scope.
  /// Idempotent.
  void stop();

  /// Graceful wind-down ahead of stop(): stop accepting, let every
  /// connection finish its in-flight requests and flush its outbox, and
  /// wait until all peers have closed or `deadline` lapses. True = fully
  /// drained; false = stragglers remain (stop() will cut them off). The
  /// listener keeps running either way.
  [[nodiscard]] bool drain(std::chrono::milliseconds deadline);

  [[nodiscard]] bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (valid after start(); resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::size_t connection_count() const;
  [[nodiscard]] ListenerCounters counters() const;

 private:
  /// Why a connection is being torn down (drives the counters).
  enum class CloseReason {
    kDisconnect,
    kProtocolError,
    kIdle,
    kSlowloris,
    kWriteStall,
  };

  void io_loop();
  void accept_ready();
  /// Admission of one decoded frame: begin/track on the connection, bridge
  /// the completion through an Event into the response chain.
  void handle_request(const std::shared_ptr<Connection>& conn, WireRequest&& wire);
  void teardown(int fd, CloseReason reason);
  /// Reaps connections that violate the hygiene deadlines (I/O thread).
  void hygiene_sweep();
  /// The effective sweep period (resolves the 0 = auto rule).
  [[nodiscard]] std::chrono::milliseconds hygiene_period() const;
  void poke_wake_pipe();

  serve::Server& server_;
  const ListenerOptions options_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread io_thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> hygiene_due_{false};

  mutable std::mutex conns_mu_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  async::AsyncScope scope_;
  /// Drives the hygiene sweep; rebuilt per start() (TimerQueue::stop is
  /// terminal).
  std::unique_ptr<async::TimerQueue> timers_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> requests_admitted_{0};
  std::atomic<std::uint64_t> responses_enqueued_{0};
  std::atomic<std::uint64_t> responses_dropped_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> reaped_idle_{0};
  std::atomic<std::uint64_t> reaped_slowloris_{0};
  std::atomic<std::uint64_t> reaped_write_stall_{0};
  std::atomic<std::uint64_t> pings_{0};
};

}  // namespace parma::net
