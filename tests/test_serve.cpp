// Tests for src/serve: the batched, backpressured parametrization service.
// Backpressure against a bounded queue (nothing lost, nothing
// double-completed), deadline/cancellation paths, drain-then-shutdown
// ordering, failure isolation inside a batch, and the equivalence guarantee
// that a request served through parma::serve recovers bit-identical
// resistances to the same measurement run through a bare core::Session.
// Carries the `tsan` ctest label; run under -DPARMA_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/session.hpp"
#include "mea/generator.hpp"
#include "mea/measurement.hpp"
#include "serve/bounded_queue.hpp"
#include "serve/server.hpp"

namespace parma::serve {
namespace {

using namespace std::chrono_literals;

mea::Measurement make_measurement(Index n, std::uint64_t seed = 7) {
  Rng rng(seed + static_cast<std::uint64_t>(n));
  const mea::DeviceSpec spec = mea::square_device(n);
  const auto truth = mea::generate_field(spec, mea::random_scenario(spec, 1, rng), rng);
  return mea::measure_exact(spec, truth);
}

ParametrizeRequest make_request(Index n, Index iterations = 1) {
  ParametrizeRequest request;
  request.measurement = make_measurement(n);
  request.options.strategy = core::Strategy::kFineGrained;
  request.options.workers = 2;
  request.options.chunk = 2;
  request.options.keep_system = false;
  request.inverse.max_iterations = iterations;
  return request;
}

TEST(Serve, StatusNamesAreStable) {
  EXPECT_STREQ(request_status_name(RequestStatus::kOk), "ok");
  EXPECT_STREQ(request_status_name(RequestStatus::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_STREQ(request_status_name(RequestStatus::kCancelled), "cancelled");
  EXPECT_STREQ(request_status_name(RequestStatus::kRejected), "rejected");
  EXPECT_STREQ(request_status_name(RequestStatus::kSolverFailed), "solver-failed");
  EXPECT_STREQ(request_status_name(RequestStatus::kInvalidInput), "invalid-input");
  EXPECT_STREQ(request_status_name(RequestStatus::kBreakerOpen), "breaker-open");
  EXPECT_STREQ(request_status_name(RequestStatus::kDegradedResult), "degraded-result");
  EXPECT_STREQ(submit_status_name(SubmitStatus::kAccepted), "accepted");
  EXPECT_STREQ(submit_status_name(SubmitStatus::kQueueFull), "queue-full");
  EXPECT_STREQ(submit_status_name(SubmitStatus::kShuttingDown), "shutting-down");
  EXPECT_STREQ(submit_status_name(SubmitStatus::kInvalidOptions), "invalid-options");
  EXPECT_STREQ(submit_status_name(SubmitStatus::kLoadShed), "load-shed");
  EXPECT_STREQ(priority_name(Priority::kLow), "low");
  EXPECT_STREQ(priority_name(Priority::kNormal), "normal");
  EXPECT_STREQ(priority_name(Priority::kHigh), "high");
}

TEST(Serve, StatusToStringIsExhaustive) {
  // The switches below have no default, so adding an enumerator without a
  // name trips -Wswitch at compile time; at run time every value must map to
  // a real name, never the "?" fallback.
  const auto check_request = [](RequestStatus s) {
    switch (s) {
      case RequestStatus::kOk:
      case RequestStatus::kDeadlineExceeded:
      case RequestStatus::kCancelled:
      case RequestStatus::kRejected:
      case RequestStatus::kSolverFailed:
      case RequestStatus::kInvalidInput:
      case RequestStatus::kBreakerOpen:
      case RequestStatus::kDegradedResult:
        EXPECT_EQ(to_string(s), request_status_name(s));
        EXPECT_NE(to_string(s), "?");
        return;
    }
    ADD_FAILURE() << "unnamed RequestStatus " << static_cast<int>(s);
  };
  for (int v = 0; v <= static_cast<int>(RequestStatus::kDegradedResult); ++v) {
    check_request(static_cast<RequestStatus>(v));
  }

  const auto check_submit = [](SubmitStatus s) {
    switch (s) {
      case SubmitStatus::kAccepted:
      case SubmitStatus::kQueueFull:
      case SubmitStatus::kShuttingDown:
      case SubmitStatus::kInvalidOptions:
      case SubmitStatus::kLoadShed:
        EXPECT_EQ(to_string(s), submit_status_name(s));
        EXPECT_NE(to_string(s), "?");
        return;
    }
    ADD_FAILURE() << "unnamed SubmitStatus " << static_cast<int>(s);
  };
  for (int v = 0; v <= static_cast<int>(SubmitStatus::kLoadShed); ++v) {
    check_submit(static_cast<SubmitStatus>(v));
  }
}

TEST(Serve, StatusWireCodesRoundTrip) {
  // Wire codes are a cross-process contract: every status must map to a
  // stable nonzero code, distinct within its block, and decode back to
  // itself. The switches have no default, so a new enumerator that is not
  // given a code trips -Wswitch here at compile time.
  const auto check_request = [](RequestStatus s) {
    switch (s) {
      case RequestStatus::kOk:
      case RequestStatus::kDeadlineExceeded:
      case RequestStatus::kCancelled:
      case RequestStatus::kRejected:
      case RequestStatus::kSolverFailed:
      case RequestStatus::kInvalidInput:
      case RequestStatus::kBreakerOpen:
      case RequestStatus::kDegradedResult: {
        const std::uint16_t code = status_wire_code(s);
        EXPECT_GE(code, 100) << request_status_name(s);
        EXPECT_LT(code, 200) << request_status_name(s);
        const auto back = request_status_from_wire(code);
        ASSERT_TRUE(back.has_value()) << request_status_name(s);
        EXPECT_EQ(*back, s);
        return;
      }
    }
    ADD_FAILURE() << "RequestStatus without wire code " << static_cast<int>(s);
  };
  for (int v = 0; v <= static_cast<int>(RequestStatus::kDegradedResult); ++v) {
    check_request(static_cast<RequestStatus>(v));
  }

  const auto check_submit = [](SubmitStatus s) {
    switch (s) {
      case SubmitStatus::kAccepted:
      case SubmitStatus::kQueueFull:
      case SubmitStatus::kShuttingDown:
      case SubmitStatus::kInvalidOptions:
      case SubmitStatus::kLoadShed: {
        const std::uint16_t code = status_wire_code(s);
        EXPECT_GE(code, 200) << submit_status_name(s);
        EXPECT_LT(code, 300) << submit_status_name(s);
        const auto back = submit_status_from_wire(code);
        ASSERT_TRUE(back.has_value()) << submit_status_name(s);
        EXPECT_EQ(*back, s);
        return;
      }
    }
    ADD_FAILURE() << "SubmitStatus without wire code " << static_cast<int>(s);
  };
  for (int v = 0; v <= static_cast<int>(SubmitStatus::kLoadShed); ++v) {
    check_submit(static_cast<SubmitStatus>(v));
  }

  // Unknown codes degrade to nullopt, never to a misdecoded enum.
  EXPECT_FALSE(request_status_from_wire(0).has_value());
  EXPECT_FALSE(request_status_from_wire(199).has_value());
  EXPECT_FALSE(submit_status_from_wire(0).has_value());
  EXPECT_FALSE(submit_status_from_wire(299).has_value());
}

TEST(Serve, ServerOptionsValidate) {
  ServerOptions bad;
  bad.queue_capacity = 0;
  EXPECT_THROW(bad.validate(), core::InvalidOptions);
  bad = ServerOptions{};
  bad.workers = 0;
  EXPECT_THROW(bad.validate(), core::InvalidOptions);
  bad = ServerOptions{};
  bad.max_batch = 0;
  EXPECT_THROW(bad.validate(), core::InvalidOptions);
  EXPECT_THROW(Server{bad}, core::InvalidOptions);
  bad = ServerOptions{};
  bad.max_inflight_batches = -1;
  EXPECT_THROW(bad.validate(), core::InvalidOptions);
  bad = ServerOptions{};
  bad.policy.retry.max_attempts = 0;
  EXPECT_THROW(bad.validate(), core::InvalidOptions);
  bad = ServerOptions{};
  bad.policy.retry.backoff_cap = 0ms;
  bad.policy.retry.backoff = 10ms;  // cap below base
  EXPECT_THROW(bad.validate(), core::InvalidOptions);
  bad = ServerOptions{};
  bad.policy.breaker.failure_threshold = -1;
  EXPECT_THROW(bad.validate(), core::InvalidOptions);
  bad = ServerOptions{};
  bad.policy.shedding.high_water = 1.5;
  EXPECT_THROW(bad.validate(), core::InvalidOptions);
  bad = ServerOptions{};
  bad.policy.default_deadline = 0ms;
  EXPECT_THROW(bad.validate(), core::InvalidOptions);
}

TEST(BoundedQueue, BackpressureAndBatchedPop) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full
  EXPECT_FALSE(queue.push(3, 10ms));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.high_water(), 2u);

  const auto batch =
      queue.pop_batch(8, [](const int&, const int&) { return true; });
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0], 1);
  EXPECT_EQ(batch[1], 2);

  queue.close();
  EXPECT_FALSE(queue.try_push(4));
  EXPECT_TRUE(queue.pop_batch(1, [](const int&, const int&) { return true; }).empty());
}

TEST(BoundedQueue, CapacityZeroViolatesTheContract) {
  EXPECT_THROW(BoundedQueue<int>{0}, ContractError);
}

TEST(BoundedQueue, CapacityOneAlternatesPushAndPop) {
  BoundedQueue<int> queue(1);
  const auto any = [](const int&, const int&) { return true; };
  for (int v = 0; v < 4; ++v) {
    EXPECT_TRUE(queue.try_push(v));
    EXPECT_FALSE(queue.try_push(v + 100));  // full at one item
    const auto batch = queue.pop_batch(8, any);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0], v);
  }
  EXPECT_EQ(queue.high_water(), 1u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueue, BlockedPushIsReleasedByClose) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.try_push(1));  // now full
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread blocked([&] {
    // Blocks for space; close() must wake it with a false verdict well
    // before the timeout.
    push_result.store(queue.push(2, 10'000ms));
    push_returned.store(true);
  });
  std::this_thread::sleep_for(20ms);  // let the thread block
  EXPECT_FALSE(push_returned.load());
  queue.close();
  blocked.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_FALSE(push_result.load());
  EXPECT_TRUE(queue.closed());
  // The item admitted before the close is still drainable.
  EXPECT_EQ(queue.drain_now(), std::vector<int>{1});
}

TEST(BoundedQueue, ConcurrentTryPushVersusDrainConservesItems) {
  BoundedQueue<int> queue(8);
  constexpr int kPushers = 4;
  constexpr int kPerPusher = 200;
  std::atomic<int> pushed{0};
  std::atomic<int> drained{0};
  std::atomic<bool> stop{false};

  std::thread drainer([&] {
    while (!stop.load()) {
      drained.fetch_add(static_cast<int>(queue.drain_now().size()));
    }
    drained.fetch_add(static_cast<int>(queue.drain_now().size()));
  });
  std::vector<std::thread> pushers;
  pushers.reserve(kPushers);
  for (int t = 0; t < kPushers; ++t) {
    pushers.emplace_back([&] {
      for (int i = 0; i < kPerPusher; ++i) {
        if (queue.try_push(i)) pushed.fetch_add(1);
      }
    });
  }
  for (std::thread& p : pushers) p.join();
  stop.store(true);
  drainer.join();

  // Every successfully admitted item comes back out exactly once.
  EXPECT_EQ(pushed.load(), drained.load());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_LE(queue.high_water(), 8u);
}

TEST(BoundedQueue, PredicateSelectsNonAdjacentItems) {
  BoundedQueue<int> queue(8);
  for (const int v : {1, 1, 2, 1, 2}) EXPECT_TRUE(queue.try_push(v));
  const auto same = [](const int& a, const int& b) { return a == b; };
  const auto ones = queue.pop_batch(8, same);
  EXPECT_EQ(ones, (std::vector<int>{1, 1, 1}));
  const auto twos = queue.pop_batch(8, same);
  EXPECT_EQ(twos, (std::vector<int>{2, 2}));
}

TEST(LatencyHistogram, QuantilesBracketTheSamples) {
  LatencyHistogram histogram;
  for (int i = 0; i < 100; ++i) histogram.record(1e-3);
  const StageStats s = histogram.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.mean_seconds, 1e-3, 1e-5);
  EXPECT_NEAR(s.max_seconds, 1e-3, 1e-5);
  // Bucket-boundary estimates: within the sample's power-of-two bucket.
  EXPECT_GE(s.p50_seconds, 0.5e-3);
  EXPECT_LE(s.p50_seconds, 1.1e-3);
  EXPECT_LE(s.p50_seconds, s.p99_seconds);
}

TEST(Serve, BackpressureIsDeterministicWithDeferredStart) {
  ServerOptions options;
  options.queue_capacity = 2;
  options.workers = 1;
  options.deferred_start = true;
  Server server(options);

  Ticket t1 = server.try_submit(make_request(5));
  Ticket t2 = server.try_submit(make_request(5));
  EXPECT_EQ(t1.admission(), SubmitStatus::kAccepted);
  EXPECT_EQ(t2.admission(), SubmitStatus::kAccepted);

  // Queue is at capacity and no worker is draining it: both the
  // non-blocking and the timed-blocking admission must report kQueueFull,
  // and the rejected futures must still complete (status kRejected).
  Ticket t3 = server.try_submit(make_request(5));
  EXPECT_EQ(t3.admission(), SubmitStatus::kQueueFull);
  const ParametrizeResult r3 = t3.future().get();
  EXPECT_EQ(r3.status, RequestStatus::kRejected);
  EXPECT_EQ(r3.message, "admission queue full");

  Ticket t4 = server.submit(make_request(5), 30ms);
  EXPECT_EQ(t4.admission(), SubmitStatus::kQueueFull);
  EXPECT_EQ(t4.future().get().status, RequestStatus::kRejected);

  server.start();
  EXPECT_EQ(t1.future().get().status, RequestStatus::kOk);
  EXPECT_EQ(t2.future().get().status, RequestStatus::kOk);

  const Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected_queue_full, 2u);
  EXPECT_EQ(stats.completed_ok, 2u);
  EXPECT_EQ(stats.queue_high_water, 2u);
  EXPECT_EQ(stats.end_to_end.count, 2u);
}

TEST(Serve, ConcurrentSubmittersAgainstSmallQueue) {
  ServerOptions options;
  options.queue_capacity = 4;
  options.workers = 2;
  options.max_batch = 4;
  Server server(options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> locally_accepted{0};
  std::atomic<int> locally_rejected{0};
  std::atomic<int> completions{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Ticket ticket = server.try_submit(make_request(5, 100 + t));
        if (!ticket.accepted()) {
          // Backpressure observed; fall back to the blocking admission.
          ticket = server.submit(make_request(5, 100 + t), 200ms);
        }
        if (ticket.accepted()) {
          locally_accepted.fetch_add(1);
          const ParametrizeResult r = ticket.future().get();
          EXPECT_NE(r.status, RequestStatus::kRejected);
          completions.fetch_add(1);
        } else {
          locally_rejected.fetch_add(1);
          EXPECT_EQ(ticket.future().get().status, RequestStatus::kRejected);
        }
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  server.drain();

  const Stats stats = server.stats();
  // Conservation: every admission call is accounted for, every accepted
  // request completed exactly once, and nothing was lost.
  EXPECT_EQ(stats.accepted + stats.rejected(), stats.submitted);
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(locally_accepted.load()));
  EXPECT_EQ(stats.completed(), stats.accepted);
  EXPECT_EQ(completions.load(), locally_accepted.load());
  EXPECT_GE(stats.queue_high_water, 1u);
  EXPECT_LE(stats.queue_high_water, options.queue_capacity);
  EXPECT_EQ(stats.end_to_end.count, stats.accepted);
}

TEST(Serve, DeadlineExceededWhileQueued) {
  ServerOptions options;
  options.workers = 1;
  options.deferred_start = true;
  Server server(options);

  ParametrizeRequest request = make_request(5);
  request.timeout = 0ms;  // already expired at admission
  Ticket ticket = server.try_submit(std::move(request));
  ASSERT_TRUE(ticket.accepted());
  server.start();
  const ParametrizeResult r = ticket.future().get();
  EXPECT_EQ(r.status, RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
}

TEST(Serve, CancellationWhileQueued) {
  ServerOptions options;
  options.workers = 1;
  options.deferred_start = true;
  Server server(options);

  Ticket ticket = server.try_submit(make_request(5));
  ASSERT_TRUE(ticket.accepted());
  ticket.cancel();
  server.start();
  const ParametrizeResult r = ticket.future().get();
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(Serve, InvalidRequestsRejectedAtAdmission) {
  Server server;

  ParametrizeRequest bad_workers = make_request(5);
  bad_workers.options.workers = 0;
  Ticket t1 = server.try_submit(std::move(bad_workers));
  EXPECT_EQ(t1.admission(), SubmitStatus::kInvalidOptions);
  const ParametrizeResult r1 = t1.future().get();
  EXPECT_EQ(r1.status, RequestStatus::kRejected);
  EXPECT_NE(r1.message.find("workers"), std::string::npos);

  ParametrizeRequest bad_mode = make_request(5);
  bad_mode.options.timing_mode = core::TimingMode::kVirtualReplay;
  EXPECT_EQ(server.try_submit(std::move(bad_mode)).admission(),
            SubmitStatus::kInvalidOptions);

  ParametrizeRequest bad_shape = make_request(5);
  bad_shape.measurement.z = linalg::DenseMatrix(2, 2);
  EXPECT_EQ(server.try_submit(std::move(bad_shape)).admission(),
            SubmitStatus::kInvalidOptions);

  EXPECT_EQ(server.stats().rejected_invalid, 3u);
}

TEST(Serve, SolverFailureDoesNotPoisonTheBatch) {
  ServerOptions options;
  options.workers = 1;
  options.max_batch = 8;
  options.deferred_start = true;
  Server server(options);

  // Same shape: both requests ride in one batch; the first one's solve
  // stage throws (max_iterations = 0 violates the solver's contract).
  ParametrizeRequest failing = make_request(5);
  failing.inverse.max_iterations = 0;
  Ticket t1 = server.try_submit(std::move(failing));
  Ticket t2 = server.try_submit(make_request(5));
  ASSERT_TRUE(t1.accepted());
  ASSERT_TRUE(t2.accepted());
  server.start();

  const ParametrizeResult r1 = t1.future().get();
  EXPECT_EQ(r1.status, RequestStatus::kSolverFailed);
  EXPECT_NE(r1.message.find("iteration"), std::string::npos);
  EXPECT_EQ(t2.future().get().status, RequestStatus::kOk);

  const Stats stats = server.stats();
  EXPECT_EQ(stats.solver_failed, 1u);
  EXPECT_EQ(stats.completed_ok, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch, 2u);
}

TEST(Serve, BatchesGroupByDeviceShape) {
  ServerOptions options;
  options.workers = 1;
  options.max_batch = 8;
  options.queue_capacity = 8;
  options.deferred_start = true;
  Server server(options);

  std::vector<Ticket> tickets;
  for (const Index n : {Index{5}, Index{5}, Index{6}, Index{5}, Index{6}}) {
    tickets.push_back(server.try_submit(make_request(n)));
    ASSERT_TRUE(tickets.back().accepted());
  }
  server.start();
  server.drain();
  for (Ticket& t : tickets) EXPECT_EQ(t.future().get().status, RequestStatus::kOk);

  // FIFO batching by shape: {5,5,5} then {6,6}.
  const Stats stats = server.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_batch, 3u);
  EXPECT_NEAR(stats.mean_batch_size, 2.5, 1e-12);
  EXPECT_EQ(stats.queue_high_water, 5u);
}

TEST(Serve, DrainThenShutdownOrdering) {
  ServerOptions options;
  options.workers = 2;
  Server server(options);

  std::vector<Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    Ticket t = server.submit(make_request(5), 500ms);
    ASSERT_TRUE(t.accepted());
    tickets.push_back(std::move(t));
  }
  server.drain();

  // After drain every accepted future is already completed...
  for (Ticket& t : tickets) {
    ASSERT_EQ(t.future().wait_for(0ms), std::future_status::ready);
    EXPECT_EQ(t.future().get().status, RequestStatus::kOk);
  }
  // ...and admission is closed.
  Ticket late = server.try_submit(make_request(5));
  EXPECT_EQ(late.admission(), SubmitStatus::kShuttingDown);
  EXPECT_EQ(late.future().get().status, RequestStatus::kRejected);

  server.shutdown();
  server.shutdown();  // idempotent
  const Stats stats = server.stats();
  EXPECT_EQ(stats.completed_ok, 6u);
  EXPECT_EQ(stats.rejected_shutting_down, 1u);
}

TEST(Serve, DrainBeforeStartCancelsQueuedRequests) {
  ServerOptions options;
  options.deferred_start = true;
  Server server(options);
  Ticket ticket = server.try_submit(make_request(5));
  ASSERT_TRUE(ticket.accepted());
  server.drain();
  EXPECT_EQ(ticket.future().get().status, RequestStatus::kCancelled);
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(Serve, ServedRequestMatchesBareSessionBitIdentically) {
  const mea::Measurement measurement = make_measurement(8, 99);

  core::StrategyOptions strategy;
  strategy.strategy = core::Strategy::kFineGrained;
  strategy.workers = 4;
  strategy.chunk = 3;
  solver::InverseOptions inverse;
  inverse.max_iterations = 12;
  inverse.workers = 2;

  // Bare Session path.
  const core::Session session =
      core::Session::on(measurement).options(strategy).build();
  const core::FormationResult bare_formation = session.form();
  const solver::InverseResult bare = session.recover(inverse);

  // Serve path: same measurement, same configuration, through the batched
  // pipeline with a warmed executor.
  Server server;
  ParametrizeRequest request;
  request.measurement = measurement;
  request.options = strategy;
  request.inverse = inverse;
  Ticket ticket = server.try_submit(std::move(request));
  ASSERT_TRUE(ticket.accepted());
  const ParametrizeResult served = ticket.future().get();
  ASSERT_EQ(served.status, RequestStatus::kOk) << served.message;

  // Formation summary agrees with the bare run.
  EXPECT_EQ(served.equations, measurement.spec.num_equations());
  EXPECT_EQ(served.equation_bytes, bare_formation.equation_bytes);

  // The recovery must be bit-identical: same iterations, same misfit, and
  // exactly equal resistances everywhere.
  EXPECT_EQ(served.inverse.iterations, bare.iterations);
  EXPECT_EQ(served.inverse.converged, bare.converged);
  EXPECT_EQ(served.inverse.final_misfit, bare.final_misfit);
  ASSERT_EQ(served.inverse.recovered.rows(), bare.recovered.rows());
  ASSERT_EQ(served.inverse.recovered.cols(), bare.recovered.cols());
  for (Index i = 0; i < bare.recovered.rows(); ++i) {
    for (Index j = 0; j < bare.recovered.cols(); ++j) {
      EXPECT_EQ(served.inverse.recovered.at(i, j), bare.recovered.at(i, j))
          << "cell (" << i << ", " << j << ")";
    }
  }

  // Topology report comes from the server's FormationCache.
  EXPECT_EQ(served.topology.intrinsic_parallelism, 49);
  EXPECT_TRUE(served.topology.proposition1_holds);
}

TEST(Serve, AnomalyThresholdCountsInReconstructStage) {
  Server server;
  ParametrizeRequest request = make_request(6, /*iterations=*/25);
  request.anomaly_threshold = 0.0;  // every cell is above 0 kOhm
  Ticket ticket = server.try_submit(std::move(request));
  ASSERT_TRUE(ticket.accepted());
  const ParametrizeResult r = ticket.future().get();
  ASSERT_EQ(r.status, RequestStatus::kOk) << r.message;
  EXPECT_EQ(r.anomalies, 36);
  EXPECT_GT(r.form_seconds, 0.0);
  EXPECT_GT(r.solve_seconds, 0.0);
  EXPECT_EQ(r.batch_size, 1);
}

}  // namespace
}  // namespace parma::serve
