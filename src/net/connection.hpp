// parma::net::Connection -- one accepted TCP peer inside the listener's
// readiness loop.
//
// The split of responsibilities is strict: the listener's single I/O thread
// owns the socket (reads, writev flushes, poll interest), while pipeline
// threads only ever touch the outbox -- enqueue() appends an encoded frame
// under the outbox lock and pokes the listener's wake pipe, nothing else.
// That keeps every syscall on the I/O thread and makes "a dead client never
// blocks the dispatcher" structural: a completion for a vanished peer either
// fails to lock the connection's weak_ptr (dropped) or appends to an outbox
// that is discarded with the connection; no pipeline thread ever waits on a
// socket.
//
// Backpressure is read-side: once in_flight() reaches the configured cap the
// connection withdraws POLLIN interest, the kernel receive buffer fills, and
// the peer's TCP window closes -- the bounded admission queue never sees
// more than cap frames from one connection. Write-side, frames flush with
// writev scatter-gather straight out of the deque of encoded buffers.
//
// A protocol error (FrameDecoder poisoned -- the stream has lost sync) turns
// the connection write-only: the typed kError frame is queued, reads stop,
// every in-flight request is cancelled, and the connection reports
// finished() once the error frame and any straggler responses have flushed.
//
// Hygiene: the connection tracks three wall-clock facts -- when the last
// bytes arrived, how long the current frame has been open (slowloris: a
// peer that dribbles a header forever), and how long the outbox has gone
// without write progress (a peer that stopped reading). hygiene() turns
// them into a verdict against the listener's deadlines; the listener's
// periodic sweep reaps offenders. begin_drain() is the graceful half:
// reads stop, in-flight work completes and flushes, then finished() turns
// true.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "serve/server.hpp"

namespace parma::net {

class Connection {
 public:
  /// What the I/O thread should do with the connection after an event.
  enum class IoResult {
    kKeep,           ///< still healthy
    kClose,          ///< EOF or socket error: tear down now
    kProtocolError,  ///< malformed stream: error frame queued, flush then close
  };

  /// The hygiene sweep's verdict (worst offense wins).
  enum class Health {
    kOk,
    kSlowloris,   ///< a frame has been open past the read deadline
    kWriteStall,  ///< queued output has made no progress past the timeout
    kIdle,        ///< no traffic and no work past the idle timeout
  };

  using Clock = std::chrono::steady_clock;

  /// Takes ownership of `fd` (closed on destruction). `wake_fd` is the write
  /// end of the listener's self-pipe; enqueue() pokes it so the poll loop
  /// re-evaluates this connection's POLLOUT interest.
  Connection(int fd, int wake_fd, std::string peer, std::uint32_t max_body_bytes,
             std::size_t max_inflight);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // -- I/O thread only -------------------------------------------------------

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] const std::string& peer() const { return peer_; }

  /// Current poll interest: POLLIN while reading is enabled and the
  /// in-flight cap has room, POLLOUT while the outbox holds bytes.
  [[nodiscard]] short poll_events() const;

  /// Drains the socket, feeds the decoder, and hands every complete request
  /// frame to `on_request`. Frames already buffered are always drained, even
  /// at the in-flight cap -- the cap gates POLLIN, not decoded work, so the
  /// overshoot is bounded by one read burst. kPing frames are answered with
  /// a pong in place (`on_ping` observes them, for counters); kPong frames
  /// are tolerated and dropped. kStatsRequest frames are handed to
  /// `on_stats` (the listener answers with a snapshot); without a handler
  /// they are dropped.
  [[nodiscard]] IoResult handle_readable(
      const std::function<void(WireRequest&&)>& on_request,
      const std::function<void()>& on_ping = {},
      const std::function<void(std::uint64_t)>& on_stats = {});

  /// Flushes queued frames with writev until the socket would block.
  [[nodiscard]] IoResult handle_writable();

  /// True when a poisoned or draining connection has flushed its outbox and
  /// every in-flight request has settled: safe to close without losing a
  /// reply.
  [[nodiscard]] bool finished() const;

  /// Graceful wind-down: stop reading new frames, let in-flight requests
  /// complete and their responses flush, then report finished(). Idempotent;
  /// nothing is cancelled.
  void begin_drain();

  /// Judges the connection against the listener's deadlines (a zero
  /// duration disables that check). `now` is passed in so one sweep uses
  /// one timestamp.
  [[nodiscard]] Health hygiene(Clock::time_point now,
                               std::chrono::milliseconds read_deadline,
                               std::chrono::milliseconds idle_timeout,
                               std::chrono::milliseconds write_stall) const;

  // -- any thread ------------------------------------------------------------

  /// Appends one encoded frame to the outbox and wakes the poll loop.
  void enqueue(std::vector<std::uint8_t> frame);

  /// Registers a request admitted on behalf of this peer. begin_request()
  /// runs before admission (so the in-flight count already covers a
  /// rejection that completes inline); track() parks the accepted ticket for
  /// cancel_all(); settle() runs when the completion chain has queued the
  /// response (or dropped it).
  void begin_request(std::uint64_t request_id);
  void track(std::uint64_t request_id, serve::ExternalTicket ticket);
  void settle(std::uint64_t request_id);

  /// Best-effort cancellation of everything this peer still has in flight
  /// (disconnect, protocol error, listener stop): queued requests complete
  /// kCancelled promptly instead of consuming solver time for a client that
  /// is gone.
  void cancel_all();

  /// True once cancel_all() ran. A kCancelled completion is then an
  /// artifact of this connection's teardown, not an answer: the listener
  /// drops it rather than write it to a poisoned stream, so a reconnecting
  /// client replays the request instead of taking kCancelled as final.
  [[nodiscard]] bool cancelled() const;

  [[nodiscard]] std::size_t in_flight() const;

 private:
  void wake() const;

  const int fd_;
  const int wake_fd_;
  const std::string peer_;
  const std::size_t max_inflight_;

  // I/O-thread state (no lock needed).
  FrameDecoder decoder_;
  bool reading_ = true;
  bool close_after_flush_ = false;
  Clock::time_point last_read_;               ///< connect time, then last bytes
  std::optional<Clock::time_point> frame_start_;  ///< current frame opened

  mutable std::mutex mu_;
  std::deque<std::vector<std::uint8_t>> outbox_;
  std::size_t front_offset_ = 0;  ///< bytes of outbox_.front() already sent
  std::size_t in_flight_ = 0;
  std::unordered_map<std::uint64_t, serve::ExternalTicket> tickets_;
  bool cancelled_ = false;
  /// Set while the outbox holds bytes; re-stamped on every write progress.
  /// The stall clock, not the enqueue clock.
  std::optional<Clock::time_point> write_pending_since_;
};

}  // namespace parma::net
