// Workload `recover`: offline recovery, closed loop, one caller.
//
// One op is a size ladder: core::Session::recover (Levenberg-Marquardt,
// 4 sweep workers) on one n = 16, 24 and 32 device in turn, each answer
// checked against the generated truth. The solver does nearly all the work
// -- the O(n^5) pair sweep and the O(n^6) dense normal solve -- while serve,
// net and equation formation are bypassed.
//
// The seed draws kDeviceSets devices of each size, more sets than a run has
// ladders, and an untraced run gives every ladder a set of its own. How long
// LM takes depends on the device (its iteration count), so with few devices
// a run's median would describe those devices more than the code.
//
// Traced runs alternate untraced and traced ladders, so both halves meet
// the same host load, then add per-size layer probes timed from outside:
// one sweep of equations::solve_pair + impedance_gradient over all n^2 pairs
// at the starting grid, and one linalg::solve_dense of the damped
// n^2 x n^2 normal system built from that sweep. What a recovery spends
// beyond sweeps x sweep time + solves x solve time is reported as
// lm_other_s: normal assembly, per-call thread spawn and bookkeeping.
#include <array>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "core/session.hpp"
#include "equations/pair_system.hpp"
#include "linalg/dense_solve.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {
namespace {

using parma::core::Session;

constexpr std::array<Index, 3> kSizes = {16, 24, 32};
constexpr std::size_t kDeviceSets = 16;
constexpr Index kWorkers = 4;
constexpr int kProbeRepeats = 3;

using Ladder = std::array<Device, kSizes.size()>;
using LadderSessions = std::vector<Session>;

std::string tag(Index n) { return "n" + std::to_string(n); }

parma::solver::InverseOptions lm_options() {
  parma::solver::InverseOptions options;
  options.workers = kWorkers;
  return options;
}

Session build_session(const Device& device) {
  return Session::on(device.measurement)
      .strategy(parma::core::Strategy::kFineGrained)
      .workers(kWorkers)
      .build();
}

/// Samples of one measurement window. Every ladder counts towards the
/// per-size samples; the ladder times are split by whether it was traced.
struct Window {
  std::vector<double> ladder_seconds;
  std::vector<double> traced_ladder_seconds;
  std::size_t verified = 0;
  std::size_t traced_verified = 0;
  std::array<std::vector<double>, kSizes.size()> seconds;
  std::array<std::vector<double>, kSizes.size()> iterations;
  std::array<std::vector<double>, kSizes.size()> linear_solves;
};

/// Runs ladders for `budget_seconds`, each on the next device set. With
/// `alternate`, each set runs twice in a row, untraced and then traced, so
/// both kinds of ladder see the same devices.
Window run_window(const std::vector<LadderSessions>& sessions, const std::vector<Ladder>& ladders,
                  double budget_seconds, bool alternate, Tracer& tracer, std::uint64_t& op_id,
                  Outcome& outcome) {
  Window w;
  const Clock::time_point start = Clock::now();
  for (std::size_t op = 0; seconds_between(start, Clock::now()) < budget_seconds; ++op) {
    const bool traced = alternate && op % 2 == 1;
    tracer.set_enabled(traced);
    const std::size_t set = (alternate ? op / 2 : op) % ladders.size();
    ++op_id;
    Span ladder(tracer, "bench.ladder", 0, op_id);
    bool ok = true;
    for (std::size_t k = 0; k < kSizes.size(); ++k) {
      Span span(tracer, "core.Session.recover", ladder.id(), op_id);
      const parma::solver::InverseResult r = sessions[set][k].recover(lm_options());
      span.attr("n", static_cast<double>(kSizes[k]));
      span.attr("iterations", static_cast<double>(r.iterations));
      span.attr("linear_solves", static_cast<double>(r.diagnostics.linear_solves));
      const double seconds = span.finish();
      const double err = max_relative_error(r.recovered.flat(), ladders[set][k].truth);
      w.seconds[k].push_back(seconds);
      w.iterations[k].push_back(static_cast<double>(r.iterations));
      w.linear_solves[k].push_back(static_cast<double>(r.diagnostics.linear_solves));
      if (!r.converged || !(err <= kMaxRelativeError)) {
        ok = false;
        ++outcome.wrong;
        std::fprintf(stderr, "recover: n=%lld miss (converged=%d, max rel err %.3g)\n",
                     static_cast<long long>(kSizes[k]), r.converged ? 1 : 0, err);
      }
    }
    (traced ? w.traced_ladder_seconds : w.ladder_seconds).push_back(ladder.finish());
    ++outcome.attempted;
    if (ok) {
      ++(traced ? w.traced_verified : w.verified);
    } else {
      ++outcome.failed;
    }
  }
  return w;
}

struct Probe {
  double sweep_seconds = 0.0;
  double solve_seconds = 0.0;
};

/// Layer probes at the LM starting grid R0 = Z.
Probe probe_layers(const Device& device, parma::parallel::ThreadPool& pool, Tracer& tracer,
                   std::uint64_t op_id) {
  const parma::mea::Measurement& m = device.measurement;
  const Index n = device.n;
  const Index pairs = n * n;
  const double volts = m.spec.drive_voltage;
  parma::circuit::ResistanceGrid grid(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) grid.at(i, j) = m.z(i, j);
  }

  parma::linalg::DenseMatrix jacobian(pairs, pairs);
  std::vector<double> residual(static_cast<std::size_t>(pairs));
  parma::parallel::ForOptions loop;
  loop.schedule = parma::parallel::Schedule::kDynamic;
  loop.chunk = 4;
  std::vector<double> sweeps;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    Span span(tracer, "equations.pair_sweep", 0, op_id);
    span.attr("n", static_cast<double>(n));
    parma::parallel::parallel_for(
        pool, 0, pairs,
        [&](Index p) {
          const Index i = p / n;
          const Index j = p % n;
          const parma::equations::PairSolution pair =
              parma::equations::solve_pair(grid, i, j, volts);
          const std::vector<double> grad = parma::equations::impedance_gradient(grid, pair);
          residual[static_cast<std::size_t>(p)] = pair.z_model - m.z(i, j);
          for (Index e = 0; e < pairs; ++e) {
            jacobian(p, e) = grad[static_cast<std::size_t>(e)] *
                             grid.flat()[static_cast<std::size_t>(e)];
          }
        },
        loop);
    sweeps.push_back(span.finish());
  }

  // The damped system LM solves on its first step (lambda = 1e-3).
  const parma::linalg::DenseMatrix jt = jacobian.transpose();
  parma::linalg::DenseMatrix damped = jt.multiply(jacobian);
  for (Index d = 0; d < pairs; ++d) damped(d, d) += 1e-3 * std::max(damped(d, d), 1e-12);
  std::vector<double> rhs = jt.multiply(residual);
  for (double& v : rhs) v = -v;
  std::vector<double> solves;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    Span span(tracer, "linalg.solve_dense", 0, op_id);
    span.attr("n", static_cast<double>(n));
    const std::vector<double> delta = parma::linalg::solve_dense(damped, rhs);
    solves.push_back(span.finish());
    if (delta.size() != rhs.size()) throw std::runtime_error("solve_dense size mismatch");
  }
  return {median(sweeps), median(solves)};
}

}  // namespace

Outcome run_recover(const Args& args, Tracer& tracer) {
  // Setup: the seed's devices -- each field and its exact measurement from
  // the mea generator -- and a session for each. No untimed warm-up runs:
  // the median over many ladders absorbs a slower first one.
  std::vector<double> setup_seconds;
  std::vector<Ladder> ladders;
  std::vector<LadderSessions> sessions;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point start = Clock::now();
    ladders.assign(kDeviceSets, Ladder{});
    sessions.assign(kDeviceSets, LadderSessions{});
    for (std::size_t set = 0; set < kDeviceSets; ++set) {
      for (std::size_t k = 0; k < kSizes.size(); ++k) {
        ladders[set][k] = make_device(kSizes[k], args.seed, set);
        sessions[set].push_back(build_session(ladders[set][k]));
      }
    }
    setup_seconds.push_back(seconds_between(start, Clock::now()));
  }

  Outcome outcome;
  std::uint64_t op_id = 0;
  const bool traced = tracer.enabled();
  const Window w = run_window(sessions, ladders, args.seconds, traced, tracer, op_id, outcome);
  outcome.end_to_end = end_to_end_metrics(w.ladder_seconds, setup_seconds,
                                          closed_loop_goodput(w.verified, w.ladder_seconds));
  if (!traced) return outcome;

  outcome.traced =
      end_to_end_metrics(w.traced_ladder_seconds, setup_seconds,
                         closed_loop_goodput(w.traced_verified, w.traced_ladder_seconds));
  tracer.set_enabled(true);
  parma::parallel::ThreadPool pool(kWorkers);
  for (std::size_t k = 0; k < kSizes.size(); ++k) {
    const std::string t = tag(kSizes[k]);
    const Probe probe = probe_layers(ladders[0][k], pool, tracer, ++op_id);
    const double recover_s = median(w.seconds[k]);
    const double solves = median(w.linear_solves[k]);
    const std::string n_note = count_note(w.seconds[k].size());
    outcome.per_layer.push_back({"recover_s." + t, recover_s, "s", n_note});
    outcome.per_layer.push_back(
        {"solver.lm_iterations." + t, median(w.iterations[k]), "count", n_note});
    outcome.per_layer.push_back({"solver.lm_linear_solves." + t, solves, "count", n_note});
    outcome.per_layer.push_back({"equations.pair_sweep_s." + t, probe.sweep_seconds, "s",
                                 count_note(kProbeRepeats)});
    outcome.per_layer.push_back({"linalg.dense_solve_s." + t, probe.solve_seconds, "s",
                                 count_note(kProbeRepeats)});
    outcome.per_layer.push_back(
        {"solver.lm_other_s." + t,
         recover_s - (solves + 1.0) * probe.sweep_seconds - solves * probe.solve_seconds, "s",
         "recover_s - (solves+1) x sweep - solves x dense solve"});
  }
  return outcome;
}

}  // namespace perfbench
