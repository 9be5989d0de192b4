#include "serve/server.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>
#include <utility>

#include "async/adaptors.hpp"
#include "async/breaker.hpp"
#include "async/retry.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/engine.hpp"
#include "fault/injector.hpp"
#include "solver/full_system_solver.hpp"

namespace parma::serve {

namespace {

Real seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<Real>(to - from).count();
}

ParametrizeResult make_reject(std::string message) {
  ParametrizeResult r;
  r.status = RequestStatus::kRejected;
  r.message = std::move(message);
  return r;
}

}  // namespace

// request_status_name / submit_status_name moved to serve/status.cpp.

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::kLow: return "low";
    case Priority::kNormal: return "normal";
    case Priority::kHigh: return "high";
  }
  return "?";
}

void ServerOptions::validate() const {
  const auto fail = [](const char* what, auto got) {
    std::ostringstream os;
    os << "invalid ServerOptions: " << what << ", got " << got;
    throw core::InvalidOptions(os.str());
  };
  if (queue_capacity < 1) fail("queue_capacity must be >= 1", queue_capacity);
  if (workers < 1) fail("workers must be >= 1", workers);
  if (max_batch < 1) fail("max_batch must be >= 1", max_batch);
  if (max_inflight_batches < 0) {
    fail("max_inflight_batches must be >= 0", max_inflight_batches);
  }
  policy.validate();
}

void Ticket::cancel() {
  if (pending_) pending_->cancelled.store(true, std::memory_order_relaxed);
}

void ExternalTicket::cancel() {
  if (pending_) pending_->cancelled.store(true, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Chain context types.

/// Outcome of one retried attempt chain; the retry/breaker adaptors mutate
/// the result through the shared pointer (deadline-during-backoff,
/// cancelled-between-attempts).
struct Server::AttemptOutcome {
  ParametrizeResult result;
  AttemptFailure failure = AttemptFailure::kNone;
};

/// Per-batch shared context: the popped requests, which of them survived the
/// admit-stage exit checks, and the executor leased for the whole batch.
struct Server::BatchContext {
  std::vector<PendingPtr> batch;
  Index batch_size = 0;
  std::vector<char> runnable;
  exec::ExecutorPool::Lease lease;
};

/// Per-attempt state threaded through the prep/form/solve/reconstruct stage
/// tasks. `done` marks the attempt terminal (error, cancel, deadline) so
/// later stages and gates short-circuit, exactly where the historical
/// single-pass loop returned early.
struct Server::AttemptState {
  PendingPtr pending;
  BatchPtr batch;
  std::shared_ptr<core::FormationCache> cache;
  OutcomePtr out;
  int attempt = 1;
  bool done = false;
  Index total_entries = 0;
  std::optional<core::Engine> engine;
  std::optional<core::FormationResult> formation;
  solver::InverseResult inverse;

  void fail(AttemptFailure failure, RequestStatus status, std::string message) {
    out->failure = failure;
    out->result.status = status;
    out->result.message = std::move(message);
    done = true;
  }
};

// ---------------------------------------------------------------------------
// Construction / admission.

Server::Server(ServerOptions options)
    : options_(options),
      cache_(std::make_shared<core::FormationCache>()),
      queue_(options.queue_capacity),
      breakers_(options_.policy.breaker) {
  options_.validate();
  max_inflight_ = options_.max_inflight_batches > 0
                      ? static_cast<std::size_t>(options_.max_inflight_batches)
                      : static_cast<std::size_t>(options_.workers) + 1;
  scope_.attach_timers(timers_);
  if (!options_.deferred_start) start();
}

Server::~Server() { shutdown(); }

void Server::start() {
  std::lock_guard lock(state_mu_);
  PARMA_REQUIRE(!shut_down_, "cannot start a server after shutdown");
  if (started_) return;
  started_ = true;
  scheduler_ = std::make_unique<async::Scheduler>(options_.workers);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Ticket Server::try_submit(ParametrizeRequest request) {
  return admit(std::move(request), /*blocking=*/false, std::chrono::milliseconds{0});
}

Ticket Server::submit(ParametrizeRequest request, std::chrono::milliseconds timeout) {
  return admit(std::move(request), /*blocking=*/true, timeout);
}

ExternalTicket Server::submit_external(
    ParametrizeRequest request, std::function<void(ParametrizeResult&&)> on_complete) {
  PARMA_REQUIRE(on_complete != nullptr, "submit_external needs a completion callback");
  // Non-blocking by contract: the caller is a transport I/O loop, and the
  // bounded queue's backpressure must surface as an immediate rejection the
  // peer can see, not as a stalled socket reader.
  Ticket ticket = admit(std::move(request), /*blocking=*/false,
                        std::chrono::milliseconds{0}, std::move(on_complete));
  ExternalTicket external;
  external.admission_ = ticket.admission_;
  external.pending_ = std::move(ticket.pending_);
  return external;
}

Ticket Server::admit(ParametrizeRequest&& request, bool blocking,
                     std::chrono::milliseconds timeout,
                     std::function<void(ParametrizeResult&&)> on_complete) {
  stats_.on_submitted();
  Ticket ticket;

  // Callback-completing admissions never touch a promise: every rejection
  // path below funnels through this helper, and accepted requests complete
  // through PendingRequest::on_complete inside complete().
  const auto reject_now = [&ticket, &on_complete](SubmitStatus admission,
                                                  ParametrizeResult&& result) {
    ticket.admission_ = admission;
    if (on_complete) {
      on_complete(std::move(result));
    } else {
      std::promise<ParametrizeResult> promise;
      ticket.future_ = promise.get_future();
      promise.set_value(std::move(result));
    }
  };

  // Admission-time validation -- the single validation the request ever
  // gets; the pipeline hot path (Engine::form_equations overload) skips it.
  std::string invalid;
  bool bad_payload = false;
  try {
    request.options.validate();
    PARMA_REQUIRE(request.options.timing_mode == core::TimingMode::kRealThreads,
                  "serving runs on real threads; kVirtualReplay is not servable");
    request.measurement.spec.validate();
    PARMA_REQUIRE(request.measurement.z.rows() == request.measurement.spec.rows &&
                      request.measurement.z.cols() == request.measurement.spec.cols,
                  "measurement matrix does not match device");
    // Opt-in robustness: a payload whose invalid Z entries can be masked away
    // is admissible. Validation runs on a masked probe copy -- the request
    // itself stays pristine so the per-attempt masking sees (and counts)
    // every invalid entry, admission-time and injected alike.
    if (request.auto_mask_invalid) {
      mea::Measurement probe = request.measurement;
      mea::mask_invalid_entries(probe);
      mea::validate_measurement(probe);
    } else {
      mea::validate_measurement(request.measurement);
    }
  } catch (const mea::InvalidMeasurement& e) {
    invalid = e.what();
    bad_payload = true;
  } catch (const std::exception& e) {
    invalid = e.what();
  }
  if (!invalid.empty()) {
    stats_.on_rejected_invalid();
    ParametrizeResult reject = make_reject(std::move(invalid));
    if (bad_payload) reject.status = RequestStatus::kInvalidInput;
    reject_now(SubmitStatus::kInvalidOptions, std::move(reject));
    return ticket;
  }

  // Degraded-mode shedding: evaluated on every admission (the bookkeeping has
  // to see queue pressure even from high-priority traffic), sheds only kLow.
  if (should_shed(request.priority)) {
    stats_.on_rejected_load_shed();
    reject_now(SubmitStatus::kLoadShed,
               make_reject("degraded mode: low-priority request shed at admission"));
    return ticket;
  }

  auto pending = std::make_shared<detail::PendingRequest>();
  pending->request = std::move(request);
  pending->on_complete = std::move(on_complete);
  pending->enqueued_at = Clock::now();
  if (pending->request.timeout) {
    pending->deadline = pending->enqueued_at + *pending->request.timeout;
  } else if (options_.policy.default_deadline) {
    pending->deadline = pending->enqueued_at + *options_.policy.default_deadline;
  }
  if (!pending->on_complete) ticket.future_ = pending->promise.get_future();

  // Rejection after `pending` exists: the promise (or callback) lives there
  // now, so the outcome must flow through it. Runs outside state_mu_ -- a
  // transport completion callback may re-enter the server.
  const auto deliver = [](const std::shared_ptr<detail::PendingRequest>& p,
                          ParametrizeResult&& result) {
    if (p->on_complete) {
      p->on_complete(std::move(result));
    } else {
      p->promise.set_value(std::move(result));
    }
  };

  bool closed_at_admission = false;
  {
    std::lock_guard lock(state_mu_);
    if (!accepting_ || shut_down_) {
      closed_at_admission = true;
    } else {
      // Counted before the push so drain() cannot observe a zero-outstanding
      // instant between admission and enqueue.
      ++outstanding_;
    }
  }
  if (closed_at_admission) {
    stats_.on_rejected_shutting_down();
    ticket.admission_ = SubmitStatus::kShuttingDown;
    deliver(pending, make_reject("server is shutting down"));
    return ticket;
  }

  const bool pushed =
      blocking ? queue_.push(pending, timeout) : queue_.try_push(pending);
  if (!pushed) {
    {
      std::lock_guard lock(state_mu_);
      --outstanding_;
      if (outstanding_ == 0) all_done_.notify_all();
    }
    const bool closed = queue_.closed();
    if (closed) {
      stats_.on_rejected_shutting_down();
    } else {
      stats_.on_rejected_queue_full();
    }
    ticket.admission_ = closed ? SubmitStatus::kShuttingDown : SubmitStatus::kQueueFull;
    deliver(pending, make_reject(closed ? "server is shutting down"
                                        : "admission queue full"));
    return ticket;
  }

  stats_.on_accepted();
  ticket.admission_ = SubmitStatus::kAccepted;
  ticket.pending_ = std::move(pending);
  return ticket;
}

bool Server::should_shed(Priority priority) {
  if (options_.policy.shedding.high_water <= 0.0) return false;
  const auto threshold = static_cast<std::size_t>(std::ceil(
      options_.policy.shedding.high_water * static_cast<Real>(options_.queue_capacity)));
  const std::size_t depth = queue_.size();
  const Clock::time_point now = Clock::now();
  std::lock_guard lock(state_mu_);
  if (depth >= threshold) {
    if (!queue_hot_since_) queue_hot_since_ = now;
    if (!degraded_.load(std::memory_order_relaxed) &&
        now - *queue_hot_since_ >= options_.policy.shedding.sustain) {
      degraded_.store(true, std::memory_order_relaxed);
      stats_.on_degraded_entered();
    }
  } else if (depth * 2 < threshold) {
    // Hysteresis: exit only once the queue has fallen below half the
    // threshold, so degraded mode does not flap at the boundary.
    queue_hot_since_.reset();
    degraded_.store(false, std::memory_order_relaxed);
  } else if (!degraded_.load(std::memory_order_relaxed)) {
    // Pressure relaxed before the sustain window elapsed.
    queue_hot_since_.reset();
  }
  return degraded_.load(std::memory_order_relaxed) && priority == Priority::kLow;
}

std::chrono::microseconds Server::backoff_delay(Index attempt) {
  const Real base_ms = static_cast<Real>(options_.policy.retry.backoff.count());
  const Real cap_ms = static_cast<Real>(options_.policy.retry.backoff_cap.count());
  const int doublings = static_cast<int>(std::min<Index>(attempt > 0 ? attempt - 1 : 0, 20));
  const Real ms = std::min(std::ldexp(base_ms, doublings), cap_ms);
  // One deterministic jitter draw per retry server-wide: with a fixed seed
  // and submission order, the backoff schedule replays exactly.
  Rng rng(options_.policy.retry.jitter_seed +
          retry_sequence_.fetch_add(1, std::memory_order_relaxed));
  const Real jitter = rng.uniform(0.5, 1.0);
  return std::chrono::microseconds(static_cast<std::int64_t>(ms * 1000.0 * jitter));
}

// ---------------------------------------------------------------------------
// Dispatcher: pops shape-keyed batches and spawns their chains.

void Server::dispatcher_loop() {
  const auto can_batch = [](const PendingPtr& front, const PendingPtr& candidate) {
    return batchable(front->request, candidate->request);
  };
  for (;;) {
    // The in-flight window is the backpressure hinge: the dispatcher only
    // pops another batch when fewer than max_inflight_ chains are running,
    // so the admission queue keeps filling (degraded mode, high-water, and
    // deadline-while-queued semantics survive the async re-plumb).
    acquire_batch_slot();
    std::vector<PendingPtr> batch = queue_.pop_batch(options_.max_batch, can_batch);
    if (batch.empty()) {
      release_batch_slot();
      return;  // queue closed and drained
    }
    spawn_batch(std::move(batch));
  }
}

void Server::acquire_batch_slot() {
  std::unique_lock lock(state_mu_);
  slot_free_.wait(lock, [&] { return inflight_batches_ < max_inflight_; });
  ++inflight_batches_;
}

void Server::release_batch_slot() {
  {
    std::lock_guard lock(state_mu_);
    --inflight_batches_;
  }
  slot_free_.notify_one();
}

std::size_t Server::inflight_batches() const {
  std::lock_guard lock(state_mu_);
  return inflight_batches_;
}

void Server::spawn_batch(std::vector<PendingPtr> batch) {
  auto ctx = std::make_shared<BatchContext>();
  ctx->batch = std::move(batch);
  ctx->batch_size = static_cast<Index>(ctx->batch.size());
  ctx->runnable.assign(ctx->batch.size(), 0);

  // The batch chain: admit-stage exit checks, then the per-request chains
  // strictly in batch order (breaker feedback from request k is visible to
  // request k+1's admission, as in the historical loop), then teardown.
  // sequence() guarantees one request's failure never poisons the rest.
  std::vector<std::function<async::Task<async::Unit>()>> steps;
  steps.reserve(ctx->batch.size() + 1);
  steps.push_back([this, ctx] {
    return async::schedule(*scheduler_).then([this, ctx] { batch_admit(ctx); });
  });
  for (std::size_t i = 0; i < ctx->batch.size(); ++i) {
    steps.push_back([this, ctx, i]() -> async::Task<async::Unit> {
      if (ctx->runnable[i] == 0) return async::just();
      return make_request_task(ctx->batch[i], ctx);
    });
  }
  scope_.spawn(async::sequence(std::move(steps)).then([this, ctx] {
    ctx->lease.release();
    release_batch_slot();
  }));
}

void Server::batch_admit(const BatchPtr& ctx) {
  stats_.on_batch(ctx->batch.size());
  const Clock::time_point picked_up = Clock::now();

  // Admit-stage exit checks: cancelled or expired requests leave the batch
  // here, before any formation work.
  const PendingPtr* first_runnable = nullptr;
  for (std::size_t i = 0; i < ctx->batch.size(); ++i) {
    const PendingPtr& p = ctx->batch[i];
    p->queue_seconds = seconds_between(p->enqueued_at, picked_up);
    stats_.queue_wait.record(p->queue_seconds);
    if (p->cancelled.load(std::memory_order_relaxed)) {
      ParametrizeResult r;
      r.status = RequestStatus::kCancelled;
      r.message = "cancelled while queued";
      r.queue_seconds = p->queue_seconds;
      complete(p, std::move(r));
      continue;
    }
    if (p->deadline && picked_up >= *p->deadline) {
      ParametrizeResult r;
      r.status = RequestStatus::kDeadlineExceeded;
      r.message = "deadline passed while queued";
      r.queue_seconds = p->queue_seconds;
      complete(p, std::move(r));
      continue;
    }
    ctx->runnable[i] = 1;
    if (first_runnable == nullptr) first_runnable = &p;
  }
  if (first_runnable == nullptr) return;

  // One leased executor serves the whole batch (the requests agreed on
  // backend + workers via the batch key). warm_executors = false is the
  // naive baseline: the form stage lets the engine build a fresh executor
  // per request.
  if (options_.warm_executors) {
    const BatchKey key = batch_key((*first_runnable)->request);
    ctx->lease = executors_.acquire(key.backend, key.workers);
  }
}

// ---------------------------------------------------------------------------
// Per-request chain: breaker around retry around the staged attempt.

async::Task<async::Unit> Server::make_request_task(PendingPtr pending, BatchPtr batch) {
  const BreakerBoard::Shape shape{pending->request.measurement.spec.rows,
                                  pending->request.measurement.spec.cols};
  const std::shared_ptr<core::FormationCache> cache =
      options_.share_cache ? cache_ : std::make_shared<core::FormationCache>();

  async::RetryOptions<OutcomePtr> retry;
  retry.max_attempts = static_cast<int>(options_.policy.retry.max_attempts);
  retry.should_retry = [](const async::Try<OutcomePtr>& t) {
    const AttemptFailure failure = t.get()->failure;
    return failure == AttemptFailure::kRetryable ||
           failure == AttemptFailure::kInvalidInput;
  };
  retry.backoff_for = [this](int next_attempt) {
    stats_.on_retry();
    return backoff_delay(static_cast<Index>(next_attempt) - 1);
  };
  retry.before_wait = [pending](int, std::chrono::microseconds delay,
                                async::Try<OutcomePtr>& t) {
    if (pending->deadline && Clock::now() + delay >= *pending->deadline) {
      ParametrizeResult& result = t.get()->result;
      result.status = RequestStatus::kDeadlineExceeded;
      result.message = "deadline would pass during retry backoff";
      return false;
    }
    return true;
  };
  retry.after_wait = [pending](int, async::Try<OutcomePtr>& t) {
    if (pending->cancelled.load(std::memory_order_relaxed)) {
      ParametrizeResult& result = t.get()->result;
      result.status = RequestStatus::kCancelled;
      result.message = "cancelled between attempts";
      return false;
    }
    return true;
  };
  async::Task<OutcomePtr> attempts = async::retry_with_backoff<OutcomePtr>(
      [this, pending, batch, cache](int attempt) {
        async::Task<OutcomePtr> task = make_attempt_task(pending, batch, cache, attempt);
        return task;
      },
      std::move(retry), timers_);

  // Breaker feedback: only solver failures trip it -- deadline, cancel, and
  // invalid input say nothing about the shape's health. A degraded result is
  // a *successful* pipeline run (the quality floor is about the input, not
  // the shape), so it counts as a success. The fast-fail path reports
  // nothing, exactly like the historical early return.
  async::BreakerHooks<OutcomePtr> hooks;
  hooks.admit = [this, shape] { return breakers_.allow(shape, Clock::now()); };
  hooks.rejected = [pending, batch] {
    auto out = std::make_shared<AttemptOutcome>();
    out->result.batch_size = batch->batch_size;
    out->result.queue_seconds = pending->queue_seconds;
    out->result.status = RequestStatus::kBreakerOpen;
    out->result.message = "circuit breaker open for this device shape";
    return async::Try<OutcomePtr>::from_value(std::move(out));
  };
  hooks.classify = [](const async::Try<OutcomePtr>& t) {
    switch (t.get()->result.status) {
      case RequestStatus::kOk:
      case RequestStatus::kDegradedResult: return async::BreakerOutcome::kSuccess;
      case RequestStatus::kSolverFailed: return async::BreakerOutcome::kFailure;
      default: return async::BreakerOutcome::kNeutral;
    }
  };
  hooks.report = [this, shape](async::BreakerOutcome outcome) {
    switch (outcome) {
      case async::BreakerOutcome::kSuccess: breakers_.on_success(shape); break;
      case async::BreakerOutcome::kFailure: breakers_.on_failure(shape, Clock::now()); break;
      case async::BreakerOutcome::kNeutral: breakers_.on_neutral(shape); break;
    }
  };

  // Keep the request chain's completion at the very end so every path
  // (fast-fail included) funnels through exactly one complete().
  return async::with_breaker(std::move(attempts), std::move(hooks))
      .then([this, pending](OutcomePtr out) {
        if (out->result.has_result() && out->result.attempts > 1) {
          stats_.on_retry_success();
        }
        complete(pending, std::move(out->result));
      });
}

async::Task<Server::OutcomePtr> Server::make_attempt_task(
    PendingPtr pending, BatchPtr batch, std::shared_ptr<core::FormationCache> cache,
    int attempt) {
  auto state = std::make_shared<AttemptState>();
  state->pending = std::move(pending);
  state->batch = std::move(batch);
  state->cache = std::move(cache);
  state->out = std::make_shared<AttemptOutcome>();
  state->out->result.batch_size = state->batch->batch_size;
  state->out->result.queue_seconds = state->pending->queue_seconds;
  state->attempt = attempt;

  // Each stage is its own scheduler task, so stages of different batches
  // interleave on the same threads (batch B forms while batch A solves).
  // The cancellation/deadline gates and the instrument sinks attach as
  // adaptors around the stage tasks, at exactly the historical checkpoints.
  std::vector<std::function<async::Task<async::Unit>()>> stages;
  stages.reserve(4);
  stages.push_back([this, state] {
    return async::schedule(*scheduler_).then([this, state] { stage_prep(state); });
  });
  stages.push_back([this, state] {
    async::Task<async::Unit> t = async::instrument(
        async::schedule(*scheduler_).then([this, state] { stage_form(state); }),
        [this, state](double seconds) {
          if (!state->done) chain_form_.record(seconds);
        });
    t = async::with_cancellation(
        std::move(t),
        [state] {
          return !state->done &&
                 state->pending->cancelled.load(std::memory_order_relaxed);
        },
        [state](async::Try<async::Unit>&) {
          state->out->result.status = RequestStatus::kCancelled;
          state->out->result.message = "cancelled after formation";
          state->done = true;
        });
    t = async::with_deadline(
        std::move(t),
        [state] {
          return !state->done && state->pending->deadline &&
                 Clock::now() >= *state->pending->deadline;
        },
        [state](async::Try<async::Unit>&) {
          state->out->result.status = RequestStatus::kDeadlineExceeded;
          state->out->result.message = "deadline passed after formation";
          state->done = true;
        });
    return t;
  });
  stages.push_back([this, state] {
    async::Task<async::Unit> t = async::instrument(
        async::schedule(*scheduler_).then([this, state] { stage_solve(state); }),
        [this, state](double seconds) {
          if (!state->done) chain_solve_.record(seconds);
        });
    t = async::with_cancellation(
        std::move(t),
        [state] {
          return !state->done &&
                 state->pending->cancelled.load(std::memory_order_relaxed);
        },
        [state](async::Try<async::Unit>&) {
          state->out->result.status = RequestStatus::kCancelled;
          state->out->result.message = "cancelled after solve";
          state->done = true;
        });
    t = async::with_deadline(
        std::move(t),
        [state] {
          return !state->done && state->pending->deadline &&
                 Clock::now() >= *state->pending->deadline;
        },
        [state](async::Try<async::Unit>&) {
          state->out->result.status = RequestStatus::kDeadlineExceeded;
          state->out->result.message = "deadline passed after solve";
          state->done = true;
        });
    return t;
  });
  stages.push_back([this, state] {
    return async::instrument(
        async::schedule(*scheduler_).then([this, state] { stage_reconstruct(state); }),
        [this, state](double seconds) {
          if (!state->done) chain_reconstruct_.record(seconds);
        });
  });

  return async::sequence(std::move(stages)).then([state] {
    state->out->result.attempts = static_cast<Index>(state->attempt);
    return state->out;
  });
}

// ---------------------------------------------------------------------------
// Stage bodies (verbatim slices of the historical run_attempt).

void Server::run_guarded(const StatePtr& state, const std::function<void()>& body) {
  // Any stage throwing fails this attempt alone -- the server and the rest
  // of the batch carry on; the failure class tells the retry adaptor whether
  // another attempt can help.
  try {
    body();
  } catch (const mea::InvalidMeasurement& e) {
    // The original payload passed admission validation, so the corruption
    // happened in flight (e.g. an injected fault): retrying the pristine
    // copy can succeed.
    state->fail(AttemptFailure::kInvalidInput, RequestStatus::kInvalidInput, e.what());
  } catch (const ContractError& e) {
    // Config/contract bug; retry can't help.
    state->fail(AttemptFailure::kFatal, RequestStatus::kSolverFailed, e.what());
  } catch (const std::bad_alloc&) {
    state->fail(AttemptFailure::kRetryable, RequestStatus::kSolverFailed,
                "allocation failure in the pipeline");
  } catch (const std::exception& e) {
    // NumericalError, fault::InjectedFault, and anything else transient.
    state->fail(AttemptFailure::kRetryable, RequestStatus::kSolverFailed, e.what());
  }
}

void Server::stage_prep(const StatePtr& state) {
  if (state->done) return;
  run_guarded(state, [&] {
    // Retries need the original payload intact, so every attempt runs on a
    // copy of the measurement.
    mea::Measurement measurement = state->pending->request.measurement;
    if (fault::should_fire(fault::Point::kDropMeasurement)) {
      measurement.z(measurement.z.rows() / 2, measurement.z.cols() / 2) =
          std::numeric_limits<Real>::quiet_NaN();
    }
    if (fault::should_fire(fault::Point::kNoiseMeasurement)) {
      Real& entry = measurement.z(0, measurement.z.cols() - 1);
      entry = -entry;  // flips sign: physically impossible, caught on admit
    }
    // Per-attempt auto-masking: recovers entries an injected fault (or the
    // transport) corrupted after admission, the same way admission recovered
    // the original payload's invalid entries.
    Index auto_masked = 0;
    if (state->pending->request.auto_mask_invalid) {
      auto_masked = mea::mask_invalid_entries(measurement);
    }
    state->total_entries = measurement.z.rows() * measurement.z.cols();
    ParametrizeResult& result = state->out->result;
    result.quality.masked_entries = mea::masked_entry_count(measurement);
    result.quality.auto_masked = auto_masked;
    result.quality.masked_fraction =
        state->total_entries > 0
            ? static_cast<Real>(result.quality.masked_entries) /
                  static_cast<Real>(state->total_entries)
            : 0.0;
    state->engine.emplace(std::move(measurement));
  });
}

void Server::stage_form(const StatePtr& state) {
  if (state->done) return;
  run_guarded(state, [&] {
    if (fault::should_fire(fault::Point::kAllocFailure)) throw std::bad_alloc{};
    Stopwatch form_clock;
    core::StrategyOptions form_options = state->pending->request.options;
    if (state->pending->request.solve_method == SolveMethod::kFullSystem) {
      form_options.keep_system = true;  // the full-system solver consumes it
    }
    exec::Executor* executor = state->batch->lease.get();
    state->formation.emplace(
        (executor != nullptr) ? state->engine->form_equations(form_options, *executor)
                              : state->engine->form_equations(form_options));
    ParametrizeResult& result = state->out->result;
    result.form_seconds = form_clock.elapsed_seconds();
    stats_.form.record(result.form_seconds);
    result.equations = state->engine->spec().num_equations();
    result.equation_bytes = state->formation->equation_bytes;
  });
}

void Server::stage_solve(const StatePtr& state) {
  if (state->done) return;
  run_guarded(state, [&] {
    Stopwatch solve_clock;
    solver::InverseResult inverse;
    if (state->pending->request.solve_method == SolveMethod::kFullSystem) {
      // The kernel context hands the solver the batch's leased executor and
      // the shape-shared symbolic analysis, so repeated requests of one
      // shape skip the pattern computation entirely.
      solver::KernelContext kernel_context;
      kernel_context.executor = state->batch->lease.get();
      kernel_context.symbolic = state->cache->system_symbolic(state->formation->system);
      solver::FullSystemResult full = solver::solve_full_system(
          state->formation->system, state->engine->measurement(),
          state->pending->request.full_system, kernel_context);
      inverse.recovered = std::move(full.recovered);
      inverse.iterations = full.iterations;
      inverse.converged = full.converged;
      inverse.final_misfit = full.final_residual_rms;
      inverse.misfit_history = std::move(full.residual_history);
      inverse.diagnostics = full.diagnostics;
      inverse.termination = full.termination;
      inverse.robust = std::move(full.robust);
    } else {
      inverse = state->engine->recover(state->pending->request.inverse);
    }
    ParametrizeResult& result = state->out->result;
    result.solve_diagnostics = inverse.diagnostics;
    result.solve_seconds = solve_clock.elapsed_seconds();
    stats_.solve.record(result.solve_seconds);
    state->inverse = std::move(inverse);
  });
}

void Server::stage_reconstruct(const StatePtr& state) {
  if (state->done) return;
  run_guarded(state, [&] {
    // Assemble the response; the shape's topology report comes from the
    // FormationCache (one analysis per shape).
    Stopwatch reconstruct_clock;
    ParametrizeResult& result = state->out->result;
    solver::InverseResult& inverse = state->inverse;
    result.topology = state->cache->topology(*state->engine);
    if (state->pending->request.anomaly_threshold) {
      const auto& grid = inverse.recovered;
      for (Index i = 0; i < grid.rows(); ++i) {
        for (Index j = 0; j < grid.cols(); ++j) {
          if (grid.at(i, j) > *state->pending->request.anomaly_threshold) {
            ++result.anomalies;
          }
        }
      }
    }
    // Quality report: robust-estimation and conditioning diagnostics of the
    // solve, then the request's QualityFloor verdict.
    result.quality.outlier_entries =
        static_cast<Index>(inverse.robust.downweighted_entries.size());
    const Index unmasked = state->total_entries - result.quality.masked_entries;
    result.quality.outlier_fraction =
        unmasked > 0 ? static_cast<Real>(result.quality.outlier_entries) /
                           static_cast<Real>(unmasked)
                     : 0.0;
    result.quality.robust_scale = inverse.robust.final_scale;
    result.quality.condition_estimate = inverse.robust.condition_estimate;
    result.quality.numerical_breakdown =
        inverse.termination == solver::TerminationReason::kNumericalBreakdown;
    result.quality.converged = inverse.converged;
    result.inverse = std::move(inverse);
    result.status = RequestStatus::kOk;

    const QualityFloor& floor = state->pending->request.quality_floor;
    if (floor.enabled()) {
      std::ostringstream why;
      if (result.quality.masked_fraction > floor.max_masked_fraction) {
        why << "masked fraction " << result.quality.masked_fraction << " > "
            << floor.max_masked_fraction << "; ";
      }
      if (result.quality.outlier_fraction > floor.max_outlier_fraction) {
        why << "outlier fraction " << result.quality.outlier_fraction << " > "
            << floor.max_outlier_fraction << "; ";
      }
      if (floor.max_condition_estimate > 0.0 &&
          !(result.quality.condition_estimate <= floor.max_condition_estimate)) {
        why << "condition estimate " << result.quality.condition_estimate << " > "
            << floor.max_condition_estimate << "; ";
      }
      if (floor.require_convergence && !result.quality.converged) {
        why << "solver did not converge; ";
      }
      if (floor.demote_on_breakdown && result.quality.numerical_breakdown) {
        why << "numerical breakdown; ";
      }
      const std::string reasons = why.str();
      if (!reasons.empty()) {
        result.quality.degraded = true;
        result.status = RequestStatus::kDegradedResult;
        result.message = "quality floor: " + reasons.substr(0, reasons.size() - 2);
      }
    }
    result.reconstruct_seconds = reconstruct_clock.elapsed_seconds();
    stats_.reconstruct.record(result.reconstruct_seconds);
  });
}

// ---------------------------------------------------------------------------
// Completion / lifecycle.

void Server::complete(const PendingPtr& pending, ParametrizeResult&& result) {
  switch (result.status) {
    case RequestStatus::kOk: stats_.on_completed_ok(); break;
    case RequestStatus::kDeadlineExceeded: stats_.on_deadline_exceeded(); break;
    case RequestStatus::kCancelled: stats_.on_cancelled(); break;
    case RequestStatus::kSolverFailed: stats_.on_solver_failed(); break;
    case RequestStatus::kInvalidInput: stats_.on_invalid_input(); break;
    case RequestStatus::kBreakerOpen: stats_.on_breaker_open(); break;
    case RequestStatus::kDegradedResult: stats_.on_degraded_result(); break;
    case RequestStatus::kRejected: break;  // rejections never reach here
  }
  if (result.has_result()) {
    stats_.on_solve(result.inverse.iterations, result.inverse.converged,
                    result.solve_diagnostics.tikhonov_retries,
                    result.solve_diagnostics.dense_fallbacks,
                    result.solve_diagnostics.cg_iterations);
    stats_.on_quality(result.quality.masked_entries, result.quality.auto_masked,
                      result.quality.outlier_entries, result.quality.numerical_breakdown);
  }
  stats_.end_to_end.record(seconds_between(pending->enqueued_at, Clock::now()));
  if (pending->on_complete) {
    pending->on_complete(std::move(result));
  } else {
    pending->promise.set_value(std::move(result));
  }
  std::lock_guard lock(state_mu_);
  --outstanding_;
  if (outstanding_ == 0) all_done_.notify_all();
}

void Server::drain() {
  bool flush_unstarted = false;
  {
    std::lock_guard lock(state_mu_);
    accepting_ = false;
    flush_unstarted = !started_;
  }
  if (flush_unstarted) {
    // No pipeline exists to serve what's queued; cancel it explicitly so
    // every accepted future still completes exactly once.
    for (PendingPtr& p : queue_.drain_now()) {
      ParametrizeResult r;
      r.status = RequestStatus::kCancelled;
      r.message = "server drained before start";
      complete(p, std::move(r));
    }
  }
  // Expedite pending retry backoffs: a request parked on the timer queue
  // runs its remaining attempts back to back instead of holding drain for
  // the full backoff. In particular a breaker half-open probe waiting out a
  // backoff resolves *now*, deterministically before shutdown tears the
  // pipeline down.
  timers_.flush();
  std::unique_lock lock(state_mu_);
  all_done_.wait(lock, [&] { return outstanding_ == 0; });
}

void Server::shutdown() {
  drain();
  std::thread dispatcher;
  {
    std::lock_guard lock(state_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    dispatcher = std::move(dispatcher_);
  }
  queue_.close();  // wakes the dispatcher; pop_batch returns empty
  if (dispatcher.joinable()) dispatcher.join();
  // One join owns every in-flight chain: drain already flushed the timers,
  // so chains parked in backoff finish promptly, and nothing is torn down
  // under a live continuation.
  scope_.join();
  timers_.stop();
  if (scheduler_) scheduler_->stop();
}

Stats Server::stats() const {
  Stats s = stats_.snapshot(queue_.high_water(), breakers_.opened_events());
  s.breaker_open_shapes = breakers_.open_shapes();
  s.degraded = degraded_.load(std::memory_order_relaxed);
  const core::FormationCache::Stats cache_stats = cache_->stats();
  s.symbolic_cache_hits = cache_stats.symbolic_hits;
  s.symbolic_cache_misses = cache_stats.symbolic_misses;
  return s;
}

StageStats Server::chain_stage_latency(const char* stage) const {
  if (std::strcmp(stage, "form") == 0) return chain_form_.snapshot();
  if (std::strcmp(stage, "solve") == 0) return chain_solve_.snapshot();
  if (std::strcmp(stage, "reconstruct") == 0) return chain_reconstruct_.snapshot();
  return StageStats{};
}

}  // namespace parma::serve
