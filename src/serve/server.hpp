// parma::serve::Server -- the batched, backpressured parametrization service.
//
//   serve::ServerOptions opts;
//   opts.workers = 4;                       // pipeline scheduler threads
//   opts.queue_capacity = 64;               // bounded admission queue
//   opts.policy.retry.max_attempts = 3;     // composed resilience policy
//   serve::Server server(opts);
//   serve::Ticket t = server.try_submit({measurement, strategy_options});
//   if (t.admission() == serve::SubmitStatus::kQueueFull) { /* backpressure */ }
//   serve::ParametrizeResult r = t.future().get();
//   server.drain();      // stop admission, finish everything queued
//   server.shutdown();   // then stop and join the pipeline
//
// Requests flow through a staged pipeline -- admit -> form -> solve ->
// reconstruct -- assembled as a continuation chain (src/async) rather than a
// blocking per-worker loop. A single dispatcher thread pops shape-keyed
// batches (see batch_planner.hpp) from the bounded admission queue and
// spawns each as a composed async::Task into an async::AsyncScope; the
// stages hop between `workers` scheduler threads, so batch B's formation
// runs while batch A solves, and retry backoffs park on a timer queue
// instead of occupying a thread. The dispatcher holds at most
// max_inflight_batches chains in flight, which preserves the queue-depth
// backpressure semantics (degraded mode, queue high-water, deadline while
// queued). Every admitted request completes exactly once via its
// std::future, with a per-request status; a failed or expired request never
// takes down the server or poisons the rest of its batch.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "async/async_scope.hpp"
#include "async/scheduler.hpp"
#include "async/task.hpp"
#include "async/timer_queue.hpp"
#include "core/formation_cache.hpp"
#include "exec/executor.hpp"
#include "serve/batch_planner.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/request.hpp"
#include "serve/resilience.hpp"
#include "serve/stats.hpp"

namespace parma::serve {

struct ServerOptions {
  /// Capacity of the bounded admission queue (the backpressure knob).
  std::size_t queue_capacity = 64;
  /// Pipeline scheduler threads running form/solve/reconstruct stages.
  Index workers = 2;
  /// Max requests per batch; 1 disables batching (the naive
  /// one-session-per-request baseline the throughput bench compares against).
  std::size_t max_batch = 8;
  /// Lease warm executors from a shared pool (one per in-flight batch);
  /// false constructs a fresh executor per request (naive baseline).
  bool warm_executors = true;
  /// Share one FormationCache across all requests (topology/layout computed
  /// once per device shape); false gives every request a cold cache.
  bool share_cache = true;
  /// Construct stopped; call start() explicitly. Lets tests and benches
  /// stage a full queue deterministically before any worker runs.
  bool deferred_start = false;
  /// Batch chains the dispatcher keeps in flight at once (pipelining depth).
  /// 0 = auto: workers + 1, so one extra batch can form while the others
  /// solve. Larger values drain the queue more aggressively (weakening
  /// queue-depth backpressure); 1 serializes batches end to end.
  Index max_inflight_batches = 0;

  /// Composed resilience policy: retry/backoff, per-shape circuit breaker,
  /// degraded-mode load shedding, default deadline. See resilience.hpp.
  ResiliencePolicy policy;

  /// Throws core::InvalidOptions for out-of-range values (including the
  /// resilience policy).
  void validate() const;
};

namespace detail {

/// Shared state of one admitted request; owned by the queue until the
/// dispatcher takes it, and by the Ticket for cancellation.
struct PendingRequest {
  ParametrizeRequest request;
  std::promise<ParametrizeResult> promise;
  /// Externally-transported requests (submit_external) complete through this
  /// callback instead of the promise; invoked exactly once, on a pipeline
  /// thread.
  std::function<void(ParametrizeResult&&)> on_complete;
  std::atomic<bool> cancelled{false};
  std::optional<Clock::time_point> deadline;
  Clock::time_point enqueued_at{};
  Real queue_seconds = 0.0;  ///< set at batch pickup
};

}  // namespace detail

/// Handle to one submission: the admission verdict, the result future
/// (always valid -- rejected submissions carry an already-completed future
/// with status kRejected), and best-effort cancellation.
class Ticket {
 public:
  Ticket() = default;

  [[nodiscard]] SubmitStatus admission() const { return admission_; }
  [[nodiscard]] bool accepted() const { return admission_ == SubmitStatus::kAccepted; }

  /// The request's completion future. Valid exactly once per ticket.
  [[nodiscard]] std::future<ParametrizeResult>& future() { return future_; }

  /// Requests cancellation. Best-effort: a request already past its solve
  /// stage completes kOk; one still queued (or between stages) completes
  /// kCancelled. No-op on rejected tickets.
  void cancel();

 private:
  friend class Server;
  SubmitStatus admission_ = SubmitStatus::kShuttingDown;
  std::future<ParametrizeResult> future_;
  std::shared_ptr<detail::PendingRequest> pending_;
};

/// Handle to one externally-transported submission (submit_external): the
/// admission verdict plus best-effort cancellation. No future -- completion
/// arrives through the callback the transport supplied, so a dead client's
/// connection teardown can cancel everything it had in flight and the
/// dispatcher never blocks on a peer that stopped reading.
class ExternalTicket {
 public:
  ExternalTicket() = default;

  [[nodiscard]] SubmitStatus admission() const { return admission_; }
  [[nodiscard]] bool accepted() const { return admission_ == SubmitStatus::kAccepted; }

  /// Same semantics as Ticket::cancel(): a request still queued (or between
  /// stages) completes kCancelled; one past its solve completes kOk.
  void cancel();

 private:
  friend class Server;
  SubmitStatus admission_ = SubmitStatus::kShuttingDown;
  std::shared_ptr<detail::PendingRequest> pending_;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();  // shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the stage scheduler and the batch dispatcher (no-op when already
  /// started; constructor calls this unless options.deferred_start).
  void start();

  /// Non-blocking admission: kQueueFull when the bounded queue is at
  /// capacity. The ticket's future is always valid.
  [[nodiscard]] Ticket try_submit(ParametrizeRequest request);

  /// Blocking admission: waits up to `timeout` for queue space, then gives
  /// up with kQueueFull.
  [[nodiscard]] Ticket submit(ParametrizeRequest request,
                              std::chrono::milliseconds timeout);

  /// Non-blocking admission for externally-transported (already decoded)
  /// frames: identical validation/shedding/queue path to try_submit, but the
  /// result is delivered by invoking `on_complete` exactly once instead of
  /// through a future. Accepted requests complete on a pipeline thread;
  /// rejections invoke the callback inline, before this returns, so the
  /// transport can answer backpressure (kQueueFull and friends) immediately
  /// without ever blocking its I/O loop. The callback must not block.
  [[nodiscard]] ExternalTicket submit_external(
      ParametrizeRequest request, std::function<void(ParametrizeResult&&)> on_complete);

  /// Stops admission (subsequent submissions come back kShuttingDown),
  /// expedites pending retry backoffs (a request sleeping toward its next
  /// attempt completes promptly instead of holding drain for the full
  /// backoff), and blocks until every already-accepted request has
  /// completed. Requests queued on a deferred-start server that was never
  /// started complete kCancelled. Idempotent.
  void drain();

  /// drain(), then joins the dispatcher, the in-flight chains (a single
  /// async_scope::join -- pending breaker half-open probes resolve before
  /// anything is torn down), and finally the timers and the scheduler.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// Live snapshot; safe to call while the server is running.
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] const ServerOptions& options() const { return options_; }
  [[nodiscard]] const std::shared_ptr<core::FormationCache>& cache() const {
    return cache_;
  }

  /// Degraded mode active right now (low-priority submissions are shed).
  [[nodiscard]] bool degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }
  /// Breaker state of one device shape (tests/diagnostics).
  [[nodiscard]] BreakerState breaker_state(Index rows, Index cols) const {
    return breakers_.state({rows, cols});
  }

  /// Batch chains currently in flight (tests/diagnostics).
  [[nodiscard]] std::size_t inflight_batches() const;
  /// Per-stage chain latencies measured by the instrument adaptors (stage
  /// task including its scheduler hop; the Stats histograms keep their
  /// historical pure-stage semantics).
  [[nodiscard]] StageStats chain_stage_latency(const char* stage) const;

 private:
  using PendingPtr = std::shared_ptr<detail::PendingRequest>;

  /// How one pipeline attempt failed (drives the retry decision).
  enum class AttemptFailure {
    kNone,          ///< attempt produced a terminal result (ok/deadline/cancel)
    kRetryable,     ///< transient: injected fault, numerics, alloc, corruption
    kInvalidInput,  ///< measurement payload rejected (retryable: the original
                    ///< passed admission, so corruption happened in flight)
    kFatal,         ///< contract/config error; retrying cannot help
  };

  /// Outcome of one retried attempt chain: the result plus its failure class.
  struct AttemptOutcome;
  using OutcomePtr = std::shared_ptr<AttemptOutcome>;
  /// Per-batch shared context (requests, executor lease, runnable flags).
  struct BatchContext;
  using BatchPtr = std::shared_ptr<BatchContext>;
  /// Per-attempt shared context threaded through the stage tasks.
  struct AttemptState;
  using StatePtr = std::shared_ptr<AttemptState>;

  Ticket admit(ParametrizeRequest&& request, bool blocking,
               std::chrono::milliseconds timeout,
               std::function<void(ParametrizeResult&&)> on_complete = nullptr);
  /// Degraded-mode bookkeeping at admission; true when a kLow-priority
  /// request must be shed right now.
  bool should_shed(Priority priority);
  /// The dispatcher: pops batches, holds the in-flight window, spawns chains.
  void dispatcher_loop();
  void acquire_batch_slot();
  void release_batch_slot();
  /// Composes and spawns the chain of one popped batch.
  void spawn_batch(std::vector<PendingPtr> batch);
  /// Admit-stage exit checks of one batch: queue-wait accounting, cancelled/
  /// expired sweep, executor lease acquisition.
  void batch_admit(const BatchPtr& ctx);
  /// Runs a stage body under the historical exception -> status ladder.
  void run_guarded(const StatePtr& state, const std::function<void()>& body);
  /// The composed per-request chain: breaker admission around the retried
  /// attempt chain, then breaker feedback + completion.
  [[nodiscard]] async::Task<async::Unit> make_request_task(PendingPtr pending,
                                                           BatchPtr batch);
  /// One pipeline attempt: prep -> form -> solve -> reconstruct stage tasks
  /// with cancellation/deadline gates and instrument adaptors attached. All
  /// attempts of one request share `cache` (the server-wide cache when
  /// share_cache is on, a per-request one otherwise).
  [[nodiscard]] async::Task<OutcomePtr> make_attempt_task(
      PendingPtr pending, BatchPtr batch,
      std::shared_ptr<core::FormationCache> cache, int attempt);
  // Stage bodies (verbatim slices of the historical single-pass pipeline;
  // each wraps its work in the same exception->status ladder).
  void stage_prep(const StatePtr& state);
  void stage_form(const StatePtr& state);
  void stage_solve(const StatePtr& state);
  void stage_reconstruct(const StatePtr& state);
  /// Deterministically jittered exponential backoff before attempt + 1.
  [[nodiscard]] std::chrono::microseconds backoff_delay(Index attempt);
  /// Completes the promise, records end-to-end latency + status counters,
  /// and releases the drain waiter when this was the last outstanding
  /// request.
  void complete(const PendingPtr& pending, ParametrizeResult&& result);

  ServerOptions options_;
  std::shared_ptr<core::FormationCache> cache_;
  BoundedQueue<PendingPtr> queue_;
  StatsCollector stats_;
  BreakerBoard breakers_;
  exec::ExecutorPool executors_;

  // Continuation-core runtime: stage scheduler, backoff timers, and the
  // scope owning every in-flight chain (drain/shutdown = one join).
  std::unique_ptr<async::Scheduler> scheduler_;
  async::TimerQueue timers_;
  async::AsyncScope scope_;
  std::thread dispatcher_;

  // Chain-level per-stage latency (instrument adaptor sinks).
  LatencyHistogram chain_form_;
  LatencyHistogram chain_solve_;
  LatencyHistogram chain_reconstruct_;

  // Degraded-mode state: sampled at admission under state_mu_; the flag is
  // atomic so stats()/degraded() read it without the lock.
  std::atomic<bool> degraded_{false};
  std::optional<Clock::time_point> queue_hot_since_;
  std::atomic<std::uint64_t> retry_sequence_{0};

  mutable std::mutex state_mu_;
  std::condition_variable all_done_;
  std::condition_variable slot_free_;
  std::size_t inflight_batches_ = 0;
  std::size_t max_inflight_ = 1;
  std::int64_t outstanding_ = 0;  ///< accepted but not yet completed
  bool accepting_ = true;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace parma::serve
