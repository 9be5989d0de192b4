#include "net/listener.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "async/event.hpp"
#include "common/require.hpp"
#include "net/socket_ops.hpp"

namespace parma::net {
namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  PARMA_REQUIRE(flags >= 0, "fcntl(F_GETFL) failed");
  PARMA_REQUIRE(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "fcntl(F_SETFL, O_NONBLOCK) failed");
}

std::string describe_peer(const sockaddr_storage& addr) {
  if (addr.ss_family == AF_INET6) {
    const auto& v6 = reinterpret_cast<const sockaddr_in6&>(addr);
    char host[INET6_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET6, &v6.sin6_addr, host, sizeof host);
    return "[" + std::string(host) + "]:" + std::to_string(ntohs(v6.sin6_port));
  }
  const auto& v4 = reinterpret_cast<const sockaddr_in&>(addr);
  char host[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &v4.sin_addr, host, sizeof host);
  return std::string(host) + ":" + std::to_string(ntohs(v4.sin_port));
}

/// "[::1]" and "::1" are the same listen address.
std::string strip_brackets(const std::string& host) {
  if (host.size() >= 2 && host.front() == '[' && host.back() == ']') {
    return host.substr(1, host.size() - 2);
  }
  return host;
}

}  // namespace

Listener::Listener(serve::Server& server, ListenerOptions options)
    : server_(server), options_(std::move(options)) {}

Listener::~Listener() { stop(); }

void Listener::start() {
  if (running_.load(std::memory_order_acquire)) return;

  // An IPv6 literal (contains ':') binds an AF_INET6 socket; "::" clears
  // IPV6_V6ONLY so v4 peers connect too (they appear as mapped addresses).
  const std::string host = strip_brackets(options_.host);
  const bool ipv6 = host.find(':') != std::string::npos;

  listen_fd_ = ::socket(ipv6 ? AF_INET6 : AF_INET,
                        SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  PARMA_REQUIRE(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_storage addr{};
  socklen_t addr_len = 0;
  if (ipv6) {
    const int off = 0;
    ::setsockopt(listen_fd_, IPPROTO_IPV6, IPV6_V6ONLY, &off, sizeof off);
    auto& v6 = reinterpret_cast<sockaddr_in6&>(addr);
    v6.sin6_family = AF_INET6;
    v6.sin6_port = htons(options_.port);
    if (::inet_pton(AF_INET6, host.c_str(), &v6.sin6_addr) != 1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      PARMA_REQUIRE(false, "listener host is not a valid IPv6 address: " + host);
    }
    addr_len = sizeof(sockaddr_in6);
  } else {
    auto& v4 = reinterpret_cast<sockaddr_in&>(addr);
    v4.sin_family = AF_INET;
    v4.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, host.c_str(), &v4.sin_addr) != 1) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      PARMA_REQUIRE(false, "listener host is not a valid IPv4 address: " + host);
    }
    addr_len = sizeof(sockaddr_in);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), addr_len) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    PARMA_REQUIRE(false, "bind(" + options_.host + ":" +
                             std::to_string(options_.port) +
                             ") failed: " + std::strerror(err));
  }
  PARMA_REQUIRE(::listen(listen_fd_, options_.backlog) == 0, "listen() failed");

  sockaddr_storage bound{};
  socklen_t bound_len = sizeof bound;
  PARMA_REQUIRE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                              &bound_len) == 0,
                "getsockname() failed");
  port_ = bound.ss_family == AF_INET6
              ? ntohs(reinterpret_cast<const sockaddr_in6&>(bound).sin6_port)
              : ntohs(reinterpret_cast<const sockaddr_in&>(bound).sin_port);

  int pipe_fds[2];
  PARMA_REQUIRE(::pipe(pipe_fds) == 0, "pipe() failed");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);

  stop_requested_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  hygiene_due_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });

  // The hygiene clock: a periodic tick marks a sweep due and pokes the poll
  // loop awake. The sweep itself runs on the I/O thread, so connection
  // timestamps stay single-threaded.
  const std::chrono::milliseconds tick = hygiene_period();
  if (tick.count() > 0) {
    timers_ = std::make_unique<async::TimerQueue>();
    timers_->schedule_every(
        std::chrono::duration_cast<std::chrono::microseconds>(tick), [this] {
          hygiene_due_.store(true, std::memory_order_release);
          poke_wake_pipe();
        });
  }
}

std::chrono::milliseconds Listener::hygiene_period() const {
  if (options_.hygiene_tick.count() > 0) return options_.hygiene_tick;
  std::chrono::milliseconds tightest{0};
  for (const std::chrono::milliseconds t :
       {options_.read_deadline, options_.idle_timeout, options_.write_stall_timeout}) {
    if (t.count() > 0 && (tightest.count() == 0 || t < tightest)) tightest = t;
  }
  if (tightest.count() == 0) return std::chrono::milliseconds{0};  // all disabled
  return std::clamp(tightest / 4, std::chrono::milliseconds{10},
                    std::chrono::milliseconds{1000});
}

void Listener::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  stop_requested_.store(true, std::memory_order_release);
  poke_wake_pipe();
  io_thread_.join();
  // The timer thread is joined before the wake pipe closes -- a tick
  // mid-flight may still poke a live (just unwatched) pipe, never a dead fd.
  timers_.reset();

  // The loop is down; cancel what the peers still had in flight so the
  // pipeline completes those chains promptly (kCancelled), then wait for
  // every completion chain. Connections stay alive through the join --
  // straggler completions enqueue into outboxes nobody will flush, which is
  // exactly the "client is gone" contract.
  {
    std::lock_guard lock(conns_mu_);
    for (auto& [fd, conn] : conns_) conn->cancel_all();
  }
  scope_.join();
  {
    std::lock_guard lock(conns_mu_);
    conns_.clear();
  }

  ::close(listen_fd_);
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
}

bool Listener::drain(std::chrono::milliseconds deadline) {
  if (!running_.load(std::memory_order_acquire)) return true;
  draining_.store(true, std::memory_order_release);
  poke_wake_pipe();

  const auto until = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    if (connection_count() == 0) return true;
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
}

std::size_t Listener::connection_count() const {
  std::lock_guard lock(conns_mu_);
  return conns_.size();
}

ListenerCounters Listener::counters() const {
  ListenerCounters c;
  c.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  c.connections_rejected = connections_rejected_.load(std::memory_order_relaxed);
  c.requests_admitted = requests_admitted_.load(std::memory_order_relaxed);
  c.responses_enqueued = responses_enqueued_.load(std::memory_order_relaxed);
  c.responses_dropped = responses_dropped_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.disconnects = disconnects_.load(std::memory_order_relaxed);
  c.reaped_idle = reaped_idle_.load(std::memory_order_relaxed);
  c.reaped_slowloris = reaped_slowloris_.load(std::memory_order_relaxed);
  c.reaped_write_stall = reaped_write_stall_.load(std::memory_order_relaxed);
  c.pings = pings_.load(std::memory_order_relaxed);
  return c;
}

void Listener::io_loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;

  while (!stop_requested_.load(std::memory_order_acquire)) {
    const bool draining = draining_.load(std::memory_order_acquire);
    fds.clear();
    polled.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    {
      std::lock_guard lock(conns_mu_);
      // The listen fd stays armed even at the cap (and while draining):
      // accept_ready answers over-cap dialers with a typed kServerBusy
      // frame, which beats leaving them to hang in the backlog.
      fds.push_back({listen_fd_, POLLIN, 0});
      for (auto& [fd, conn] : conns_) {
        // Idempotent: every pass of a draining loop winds every peer down.
        if (draining) conn->begin_drain();
        fds.push_back({fd, conn->poll_events(), 0});
        polled.push_back(conn);
      }
    }

    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; stop() still joins cleanly
    }
    if (stop_requested_.load(std::memory_order_acquire)) break;

    if (fds[0].revents & POLLIN) {
      std::uint8_t drain_buf[256];
      while (::read(wake_read_fd_, drain_buf, sizeof drain_buf) > 0) {
      }
    }
    if (fds[1].revents & POLLIN) accept_ready();

    for (std::size_t i = 0; i < polled.size(); ++i) {
      const pollfd& pfd = fds[i + 2];
      const std::shared_ptr<Connection>& conn = polled[i];
      Connection::IoResult result = Connection::IoResult::kKeep;

      // Read first: POLLHUP often arrives with final bytes still buffered,
      // and the read pass reports the EOF itself.
      if (pfd.revents & POLLIN) {
        result = conn->handle_readable(
            [this, &conn](WireRequest&& wire) { handle_request(conn, std::move(wire)); },
            [this] { pings_.fetch_add(1, std::memory_order_relaxed); },
            [this, &conn](std::uint64_t id) {
              conn->enqueue(encode_stats_response(id, server_.stats()));
            });
      }
      if (result != Connection::IoResult::kClose && (pfd.revents & POLLOUT)) {
        const Connection::IoResult w = conn->handle_writable();
        if (result == Connection::IoResult::kKeep) result = w;
      }
      if (result == Connection::IoResult::kKeep &&
          (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (pfd.revents & POLLIN) == 0) {
        result = Connection::IoResult::kClose;
      }

      if (result == Connection::IoResult::kProtocolError) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      } else if (result == Connection::IoResult::kClose) {
        teardown(conn->fd(), CloseReason::kDisconnect);
        continue;
      }
      // A poisoned or draining connection lingers write-only until its
      // frames have flushed and its work settled, then closes.
      if (conn->finished()) teardown(conn->fd(), CloseReason::kProtocolError);
    }

    if (hygiene_due_.exchange(false, std::memory_order_acq_rel)) hygiene_sweep();
  }
}

void Listener::hygiene_sweep() {
  const Connection::Clock::time_point now = Connection::Clock::now();
  std::vector<std::pair<int, Connection::Health>> offenders;
  {
    std::lock_guard lock(conns_mu_);
    for (auto& [fd, conn] : conns_) {
      const Connection::Health verdict =
          conn->hygiene(now, options_.read_deadline, options_.idle_timeout,
                        options_.write_stall_timeout);
      if (verdict != Connection::Health::kOk) offenders.emplace_back(fd, verdict);
    }
  }
  for (const auto& [fd, verdict] : offenders) {
    switch (verdict) {
      case Connection::Health::kSlowloris:
        teardown(fd, CloseReason::kSlowloris);
        break;
      case Connection::Health::kWriteStall:
        teardown(fd, CloseReason::kWriteStall);
        break;
      case Connection::Health::kIdle:
        teardown(fd, CloseReason::kIdle);
        break;
      case Connection::Health::kOk:
        break;
    }
  }
}

void Listener::accept_ready() {
  for (;;) {
    sockaddr_storage addr{};
    socklen_t len = sizeof addr;
    const int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the loop will try again
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof options_.sndbuf_bytes);
    }

    bool over_cap;
    {
      std::lock_guard lock(conns_mu_);
      over_cap = conns_.size() >= options_.max_connections ||
                 draining_.load(std::memory_order_acquire);
    }
    if (over_cap) {
      // Typed rejection: the peer learns WHY instead of diagnosing a bare
      // RST. Best-effort single write -- the frame fits any empty socket
      // buffer; a peer too slow to take even that gets the plain close.
      // Counted before the write, so a peer that has seen the close also
      // sees the count.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      WireError busy;
      busy.code = ProtoCode::kServerBusy;
      busy.message = "listener is at its connection cap";
      const std::vector<std::uint8_t> frame = encode_error(busy);
      (void)sock::send_some(fd, frame.data(), frame.size());
      ::close(fd);
      continue;
    }

    auto conn = std::make_shared<Connection>(
        fd, wake_write_fd_, describe_peer(addr), options_.max_body_bytes,
        options_.max_inflight_per_connection);
    {
      std::lock_guard lock(conns_mu_);
      if (conns_.size() >= options_.max_connections) {
        // Raced past the capacity check; shed the newcomer.
        continue;  // conn destructor closes fd
      }
      conns_.emplace(fd, std::move(conn));
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Listener::handle_request(const std::shared_ptr<Connection>& conn,
                              WireRequest&& wire) {
  const std::uint64_t id = wire.request_id;
  conn->begin_request(id);

  // The readiness-event bridge: the pipeline completes by firing the event
  // (any thread), the spawned chain encodes and queues the response. The
  // chain is spawned before admission so an inline rejection finds the
  // continuation already parked and completes it synchronously right here.
  auto event = std::make_shared<async::Event<serve::ParametrizeResult>>();
  std::weak_ptr<Connection> weak = conn;
  scope_.spawn(event->task().then(
      [this, weak, id](serve::ParametrizeResult&& result) {
        const std::shared_ptr<Connection> live = weak.lock();
        if (!live) {
          // Peer disconnected while the request was in the pipeline; the
          // completion has nowhere to go.
          responses_dropped_.fetch_add(1, std::memory_order_relaxed);
          return async::Unit{};
        }
        if (result.status == serve::RequestStatus::kCancelled && live->cancelled()) {
          // Cancelled by this connection's own teardown: no answer to give.
          responses_dropped_.fetch_add(1, std::memory_order_relaxed);
          live->settle(id);
          return async::Unit{};
        }
        // Counted before the enqueue: the outbox lock and the socket then
        // order the increment ahead of the peer ever seeing the reply.
        responses_enqueued_.fetch_add(1, std::memory_order_relaxed);
        live->enqueue(encode_response(WireResponse::from_result(id, result)));
        live->settle(id);
        return async::Unit{};
      }));

  serve::ParametrizeRequest request;
  try {
    request = wire.to_request();
  } catch (const std::exception& e) {
    // The decoder vouched for the shape, so this is resource exhaustion or a
    // payload/shape contract the serve layer rejects harder than the wire
    // format does; complete the already-spawned chain with a rejection.
    serve::ParametrizeResult reject;
    reject.status = serve::RequestStatus::kInvalidInput;
    reject.message = e.what();
    event->fire_value(std::move(reject));
    return;
  }

  serve::ExternalTicket ticket = server_.submit_external(
      std::move(request),
      [event](serve::ParametrizeResult&& result) {
        event->fire_value(std::move(result));
      });
  if (ticket.accepted()) {
    requests_admitted_.fetch_add(1, std::memory_order_relaxed);
    conn->track(id, std::move(ticket));
  }
}

void Listener::teardown(int fd, CloseReason reason) {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard lock(conns_mu_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    conn = std::move(it->second);
    conns_.erase(it);
  }
  if (reason != CloseReason::kProtocolError) {
    // Abrupt disconnect or reaping: whatever the peer still has in the
    // pipeline is cancelled so it stops consuming solver time. (The
    // protocol-error path already cancelled at poisoning time.)
    conn->cancel_all();
  }
  switch (reason) {
    case CloseReason::kIdle:
      reaped_idle_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kSlowloris:
      reaped_slowloris_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kWriteStall:
      reaped_write_stall_.fetch_add(1, std::memory_order_relaxed);
      break;
    case CloseReason::kDisconnect:
    case CloseReason::kProtocolError:
      break;
  }
  disconnects_.fetch_add(1, std::memory_order_relaxed);
  // `conn` drops here; in-flight completions hold weak_ptrs and will find
  // them expired. The destructor closes the fd.
}

void Listener::poke_wake_pipe() {
  const std::uint8_t byte = 0;
  // Best effort: EAGAIN means the pipe already holds a pending wake.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

}  // namespace parma::net
