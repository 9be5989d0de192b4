#include "net/connection.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "net/socket_ops.hpp"

namespace parma::net {
namespace {

/// Read burst size: one kernel-buffer drain per readable event.
constexpr std::size_t kReadChunk = 64 * 1024;
/// writev gather width: frames coalesced per flush syscall.
constexpr int kMaxIov = 8;

}  // namespace

Connection::Connection(int fd, int wake_fd, std::string peer,
                       std::uint32_t max_body_bytes, std::size_t max_inflight)
    : fd_(fd),
      wake_fd_(wake_fd),
      peer_(std::move(peer)),
      max_inflight_(max_inflight),
      decoder_(max_body_bytes),
      last_read_(Clock::now()) {}

Connection::~Connection() { ::close(fd_); }

short Connection::poll_events() const {
  short events = 0;
  std::lock_guard lock(mu_);
  if (reading_ && in_flight_ < max_inflight_) events |= POLLIN;
  if (!outbox_.empty()) events |= POLLOUT;
  return events;
}

Connection::IoResult Connection::handle_readable(
    const std::function<void(WireRequest&&)>& on_request,
    const std::function<void()>& on_ping,
    const std::function<void(std::uint64_t)>& on_stats) {
  std::uint8_t chunk[kReadChunk];
  bool got_bytes = false;
  for (;;) {
    const sock::IoCount io = sock::recv_some(fd_, chunk, sizeof chunk);
    if (io.n > 0) {
      got_bytes = true;
      decoder_.feed(chunk, static_cast<std::size_t>(io.n));
      if (static_cast<std::size_t>(io.n) < sizeof chunk) break;
      continue;
    }
    if (io.n == 0) return IoResult::kClose;  // peer closed; in-flight work is moot
    if (io.would_block()) break;
    return IoResult::kClose;
  }
  if (got_bytes) last_read_ = Clock::now();

  Frame frame;
  for (;;) {
    const FrameDecoder::Result r = decoder_.next(frame);
    if (r == FrameDecoder::Result::kNeedMore) {
      // Slowloris bookkeeping: stamp when a frame opens, clear when the
      // stream is back on a frame boundary.
      if (decoder_.mid_frame()) {
        if (!frame_start_) frame_start_ = Clock::now();
      } else {
        frame_start_.reset();
      }
      return IoResult::kKeep;
    }
    if (r == FrameDecoder::Result::kError) {
      // The stream has lost frame sync: answer with the typed diagnostic,
      // stop reading, and cancel what the peer still had in flight. The
      // connection drains write-only until finished().
      WireError err;
      err.request_id = decoder_.error_request_id();
      err.code = decoder_.error().code;
      err.message = decoder_.error().message;
      enqueue(encode_error(err));
      reading_ = false;
      close_after_flush_ = true;
      cancel_all();
      return IoResult::kProtocolError;
    }
    frame_start_.reset();  // a frame completed; the boundary clock restarts
    if (frame.type == FrameType::kRequest && frame.request) {
      on_request(std::move(*frame.request));
      continue;
    }
    if (frame.type == FrameType::kPing) {
      enqueue(encode_pong(frame.request_id));
      if (on_ping) on_ping();
      continue;
    }
    if (frame.type == FrameType::kPong) continue;  // stray echo; harmless
    if (frame.type == FrameType::kStatsRequest) {
      if (on_stats) on_stats(frame.request_id);
      continue;
    }
    // A client has no business sending response/error frames; treat it as a
    // protocol violation rather than silently ignoring desynced traffic.
    WireError err;
    err.code = ProtoCode::kBadFrameType;
    err.message = "server accepts only request frames";
    enqueue(encode_error(err));
    reading_ = false;
    close_after_flush_ = true;
    cancel_all();
    return IoResult::kProtocolError;
  }
}

Connection::IoResult Connection::handle_writable() {
  for (;;) {
    iovec iov[kMaxIov];
    int iov_count = 0;
    {
      std::lock_guard lock(mu_);
      std::size_t offset = front_offset_;
      for (auto it = outbox_.begin(); it != outbox_.end() && iov_count < kMaxIov;
           ++it) {
        iov[iov_count].iov_base = const_cast<std::uint8_t*>(it->data()) + offset;
        iov[iov_count].iov_len = it->size() - offset;
        ++iov_count;
        offset = 0;
      }
    }
    if (iov_count == 0) return IoResult::kKeep;

    // The gathered buffers stay valid outside the lock: only the I/O thread
    // pops, and deque push_back never invalidates existing elements.
    const sock::IoCount io = sock::sendv_some(fd_, iov, iov_count);
    if (io.failed()) {
      if (io.would_block()) return IoResult::kKeep;
      return IoResult::kClose;  // EPIPE/ECONNRESET: peer is gone
    }

    std::lock_guard lock(mu_);
    std::size_t written = static_cast<std::size_t>(io.n);
    while (written > 0 && !outbox_.empty()) {
      const std::size_t remaining = outbox_.front().size() - front_offset_;
      if (written >= remaining) {
        written -= remaining;
        outbox_.pop_front();
        front_offset_ = 0;
      } else {
        front_offset_ += written;
        written = 0;
      }
    }
    // Progress was made: the stall clock restarts (or stops, outbox empty).
    write_pending_since_ =
        outbox_.empty() ? std::nullopt : std::make_optional(Clock::now());
    if (outbox_.empty()) return IoResult::kKeep;
  }
}

bool Connection::finished() const {
  std::lock_guard lock(mu_);
  return close_after_flush_ && outbox_.empty() && in_flight_ == 0;
}

void Connection::begin_drain() {
  reading_ = false;
  close_after_flush_ = true;
}

Connection::Health Connection::hygiene(Clock::time_point now,
                                       std::chrono::milliseconds read_deadline,
                                       std::chrono::milliseconds idle_timeout,
                                       std::chrono::milliseconds write_stall) const {
  std::lock_guard lock(mu_);
  if (write_stall.count() > 0 && write_pending_since_ &&
      now - *write_pending_since_ > write_stall) {
    return Health::kWriteStall;
  }
  if (read_deadline.count() > 0 && frame_start_ &&
      now - *frame_start_ > read_deadline) {
    return Health::kSlowloris;
  }
  if (idle_timeout.count() > 0 && in_flight_ == 0 && outbox_.empty() &&
      !frame_start_ && now - last_read_ > idle_timeout) {
    return Health::kIdle;
  }
  return Health::kOk;
}

void Connection::enqueue(std::vector<std::uint8_t> frame) {
  {
    std::lock_guard lock(mu_);
    const bool was_empty = outbox_.empty();
    outbox_.push_back(std::move(frame));
    if (was_empty) write_pending_since_ = Clock::now();
  }
  wake();
}

void Connection::begin_request(std::uint64_t /*request_id*/) {
  std::lock_guard lock(mu_);
  ++in_flight_;
}

void Connection::track(std::uint64_t request_id, serve::ExternalTicket ticket) {
  std::lock_guard lock(mu_);
  tickets_.insert_or_assign(request_id, std::move(ticket));
}

void Connection::settle(std::uint64_t request_id) {
  {
    std::lock_guard lock(mu_);
    tickets_.erase(request_id);
    if (in_flight_ > 0) --in_flight_;
  }
  // Settling may reopen POLLIN (the in-flight cap gained a slot), and the
  // usual wake via enqueue() does not happen when the response was dropped.
  wake();
}

void Connection::cancel_all() {
  std::lock_guard lock(mu_);
  cancelled_ = true;
  for (auto& [id, ticket] : tickets_) ticket.cancel();
}

bool Connection::cancelled() const {
  std::lock_guard lock(mu_);
  return cancelled_;
}

std::size_t Connection::in_flight() const {
  std::lock_guard lock(mu_);
  return in_flight_;
}

void Connection::wake() const {
  const std::uint8_t byte = 0;
  // Best effort: EAGAIN means the pipe already holds a pending wake.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &byte, 1);
}

}  // namespace parma::net
