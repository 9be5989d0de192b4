// parma_cli -- command-line front end to the Parma pipeline.
//
//   parma_cli generate  <n> <out.txt> [--anomalies k] [--noise f] [--seed s]
//                       [--truth out_truth.txt]
//       synthesize a measurement file in the wet-lab text format
//   parma_cli topology  <n>
//       print the homology report of an n x n device
//   parma_cli form      <measurement.txt> <out_dir> [--workers k]
//       form the joint-constraint system and write the equation shards
//   parma_cli solve     <measurement.txt> [--threshold kOhm] [--workers k]
//                       [--truth truth.txt]
//       recover the resistance field and print the anomaly map
//   parma_cli render    <measurement.txt> <out.pgm> [--scale s]
//       recover the field and write it as a grayscale image
//   parma_cli serve-bench [--requests r] [--shapes 6,8,10] [--workers k]
//                         [--queue q] [--batch b] [--seed s]
//       drive a serve::Server with synthetic requests and print its stats
//   parma_cli serve-net --listen <host:port|[v6]:port|port> [--workers k]
//                       [--queue q] [--batch b]
//       serve parametrization requests over TCP until stdin closes
//   parma_cli serve-net --connect <host:port|[v6]:port|port> [--requests r]
//                       [--shapes 6,8,10] [--seed s]
//       drive a remote serve-net listener with synthetic requests
//   parma_cli serve-cluster [--cluster-workers n] [--replicas r] [--requests r]
//                           [--shapes 6,8,10] [--seed s] [--kill-worker i]
//                           [--worker-bin path]
//       supervise a sharded worker fleet, route synthetic requests through
//       the consistent-hash ring, and print the merged cluster-wide stats
//
// Exit status: 0 on success, 1 on usage errors, 2 on runtime failures.
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/router.hpp"
#include "cluster/supervisor.hpp"
#include "core/parma.hpp"
#include "net/client.hpp"
#include "net/listener.hpp"

namespace {

using namespace parma;

struct Args {
  std::vector<std::string> positional;
  std::optional<std::string> flag(const std::string& name) const {
    for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
      if (raw[i] == "--" + name) return raw[i + 1];
    }
    return std::nullopt;
  }
  std::vector<std::string> raw;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) args.raw.emplace_back(argv[i]);
  for (std::size_t i = 0; i < args.raw.size(); ++i) {
    if (args.raw[i].rfind("--", 0) == 0) {
      ++i;  // skip the flag's value
    } else {
      args.positional.push_back(args.raw[i]);
    }
  }
  return args;
}

int usage() {
  std::cerr << "usage:\n"
               "  parma_cli generate <n> <out.txt> [--anomalies k] [--noise f]"
               " [--seed s] [--truth out_truth.txt]\n"
               "  parma_cli topology <n>\n"
               "  parma_cli form <measurement.txt> <out_dir> [--workers k]\n"
               "  parma_cli solve <measurement.txt> [--threshold kOhm]"
               " [--workers k] [--truth truth.txt]\n"
               "  parma_cli render <measurement.txt> <out.pgm> [--scale s]\n"
               "  parma_cli serve-bench [--requests r] [--shapes 6,8,10]"
               " [--workers k] [--queue q] [--batch b] [--seed s]\n"
               "  parma_cli serve-net --listen <host:port|[v6]:port|port> [--workers k]"
               " [--queue q] [--batch b]\n"
               "  parma_cli serve-net --connect <host:port|[v6]:port|port> [--requests r]"
               " [--shapes 6,8,10] [--seed s]\n"
               "  parma_cli serve-cluster [--cluster-workers n] [--replicas r]"
               " [--requests r] [--shapes 6,8,10] [--seed s] [--kill-worker i]"
               " [--worker-bin path]\n";
  return 1;
}

int cmd_generate(const Args& args) {
  if (args.positional.size() != 2) return usage();
  const Index n = parse_index(args.positional[0], "n");
  const std::string out = args.positional[1];
  const Index anomalies = args.flag("anomalies") ? parse_index(*args.flag("anomalies"), "anomalies") : 1;
  const Real noise = args.flag("noise") ? parse_real(*args.flag("noise"), "noise") : 0.0;
  const auto seed = static_cast<std::uint64_t>(
      args.flag("seed") ? parse_index(*args.flag("seed"), "seed") : 42);

  Rng rng(seed);
  const mea::DeviceSpec spec = mea::square_device(n);
  mea::GeneratorOptions scenario = mea::random_scenario(spec, anomalies, rng);
  scenario.jitter_fraction = 0.01;
  const circuit::ResistanceGrid truth = mea::generate_field(spec, scenario, rng);
  mea::MeasurementOptions mopt;
  mopt.noise_fraction = noise;
  const mea::Measurement sweep = mea::measure(spec, truth, mopt, rng);
  mea::write_measurement(out, sweep);
  std::cout << "wrote " << out << " (" << n << "x" << n << ", " << anomalies
            << " anomalies, noise " << noise << ")\n";
  if (const auto truth_path = args.flag("truth")) {
    mea::write_truth(*truth_path, spec, truth);
    std::cout << "wrote ground truth " << *truth_path << "\n";
  }
  return 0;
}

int cmd_topology(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const Index n = parse_index(args.positional[0], "n");
  const mea::DeviceSpec spec = mea::square_device(n);
  // A dummy uniform measurement suffices; topology depends only on shape.
  mea::Measurement m;
  m.spec = spec;
  m.z = linalg::DenseMatrix(n, n);
  m.u = linalg::DenseMatrix(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      m.z(i, j) = 1000.0;
      m.u(i, j) = spec.drive_voltage;
    }
  }
  const core::TopologyReport report = core::Engine(m).analyze_topology(n <= 12);
  std::cout << "device " << n << "x" << n << "\n"
            << "  joints (0-simplices)      " << report.num_joints << "\n"
            << "  total simplices           " << report.num_simplices << "\n"
            << "  complex dimension         " << report.complex_dimension << "\n"
            << "  beta_0 (components)       " << report.betti0 << "\n"
            << "  beta_1 (Kirchhoff loops)  " << report.betti1 << "\n"
            << "  cyclomatic number         " << report.cyclomatic_number << "\n"
            << "  intrinsic parallelism     " << report.intrinsic_parallelism << "\n"
            << "  Proposition 1 holds       " << (report.proposition1_holds ? "yes" : "no")
            << "\n";
  return 0;
}

int cmd_form(const Args& args) {
  if (args.positional.size() != 2) return usage();
  const mea::LoadedMeasurement loaded = mea::read_measurement(args.positional[0]);
  const Index workers = args.flag("workers") ? parse_index(*args.flag("workers"), "workers") : 4;

  core::Engine engine(loaded.measurement);
  core::StrategyOptions options;
  options.workers = workers;
  options.keep_system = false;  // shards are streamed
  const core::IoResult io = engine.write_equations(args.positional[1], options);
  std::cout << "formed " << engine.spec().num_equations() << " equations in "
            << io.formation.generation_seconds << " s, wrote " << io.bytes_written
            << " bytes across " << io.shard_paths.size() << " shards ("
            << io.write_seconds << " s)\n"
            << "end-to-end with " << workers << " workers (real threads): "
            << io.virtual_end_to_end << " s\n";
  return 0;
}

int cmd_solve(const Args& args) {
  if (args.positional.size() != 1) return usage();
  const mea::LoadedMeasurement loaded = mea::read_measurement(args.positional[0]);
  const Real threshold = args.flag("threshold") ? parse_real(*args.flag("threshold"), "threshold")
                                                : mea::default_threshold();

  core::Engine engine(loaded.measurement);
  solver::InverseOptions options;
  options.max_iterations = 80;
  if (const auto workers = args.flag("workers")) {
    options.workers = parse_index(*workers, "workers");
  }
  const solver::InverseResult result = engine.recover(options);
  std::cout << "recovery: " << result.iterations << " iterations, misfit "
            << result.final_misfit << " ("
            << (result.converged ? "converged"
                                 : solver::termination_reason_name(result.termination))
            << ")\n";
  const auto report = mea::detect_anomalies(result.recovered, threshold);
  std::cout << "anomalies above " << threshold << " kOhm ('#'):\n"
            << mea::render_mask(report.detected, engine.spec().rows, engine.spec().cols);
  if (const auto truth_path = args.flag("truth")) {
    const circuit::ResistanceGrid truth = mea::read_truth(*truth_path);
    const auto truth_mask = mea::anomaly_mask(truth, threshold);
    const auto scored = mea::detect_anomalies(result.recovered, threshold, truth_mask);
    std::cout << "vs ground truth: precision " << scored.precision() << ", recall "
              << scored.recall() << ", F1 " << scored.f1() << ", max rel. error "
              << result.max_relative_error(truth) << "\n";
  }
  return 0;
}

int cmd_render(const Args& args) {
  if (args.positional.size() != 2) return usage();
  const mea::LoadedMeasurement loaded = mea::read_measurement(args.positional[0]);
  const Index scale = args.flag("scale") ? parse_index(*args.flag("scale"), "scale") : 8;
  core::Engine engine(loaded.measurement);
  solver::InverseOptions options;
  options.max_iterations = 80;
  const solver::InverseResult result = engine.recover(options);
  mea::write_pgm(args.positional[1], result.recovered, scale);
  std::cout << "recovered field (misfit " << result.final_misfit << ") written to "
            << args.positional[1] << "\n"
            << mea::render_heatmap(result.recovered);
  return 0;
}

int cmd_serve_bench(const Args& args) {
  if (!args.positional.empty()) return usage();
  const Index requests =
      args.flag("requests") ? parse_index(*args.flag("requests"), "requests") : 32;
  const auto seed = static_cast<std::uint64_t>(
      args.flag("seed") ? parse_index(*args.flag("seed"), "seed") : 2022);
  std::vector<Index> shapes;
  for (const std::string& tok : split(args.flag("shapes").value_or("6,8,10"), ',')) {
    shapes.push_back(parse_index(tok, "shapes"));
  }
  PARMA_REQUIRE(!shapes.empty(), "serve-bench: --shapes must name at least one size");
  PARMA_REQUIRE(requests >= 1, "serve-bench: --requests must be >= 1");

  serve::ServerOptions sopts;
  if (const auto w = args.flag("workers")) sopts.workers = parse_index(*w, "workers");
  if (const auto q = args.flag("queue")) sopts.queue_capacity = parse_index(*q, "queue");
  if (const auto b = args.flag("batch")) sopts.max_batch = parse_index(*b, "batch");
  serve::Server server(sopts);

  // Pre-generate the measurements so the timed section is pure serving.
  std::vector<serve::ParametrizeRequest> pending;
  pending.reserve(static_cast<std::size_t>(requests));
  Rng rng(seed);
  for (Index i = 0; i < requests; ++i) {
    const Index n = shapes[static_cast<std::size_t>(i) % shapes.size()];
    const mea::DeviceSpec spec = mea::square_device(n);
    const auto truth = mea::generate_field(spec, mea::random_scenario(spec, 1, rng), rng);
    serve::ParametrizeRequest request;
    request.measurement = mea::measure_exact(spec, truth);
    request.options.strategy = core::Strategy::kFineGrained;
    request.options.workers = 2;
    request.options.chunk = 4;
    request.options.keep_system = false;
    request.inverse.max_iterations = 20;
    pending.push_back(std::move(request));
  }

  Stopwatch wall;
  std::vector<serve::Ticket> tickets;
  tickets.reserve(pending.size());
  for (serve::ParametrizeRequest& request : pending) {
    tickets.push_back(server.submit(std::move(request), std::chrono::seconds(30)));
  }
  server.drain();
  const Real wall_seconds = wall.elapsed_seconds();
  Index ok = 0;
  for (serve::Ticket& t : tickets) {
    if (t.accepted() && t.future().get().status == serve::RequestStatus::kOk) ++ok;
  }
  server.shutdown();

  const serve::Stats stats = server.stats();
  std::cout << "served " << ok << "/" << requests << " requests in " << wall_seconds
            << " s (" << static_cast<Real>(requests) / wall_seconds << " req/s), "
            << stats.batches << " batches, mean batch " << stats.mean_batch_size
            << ", queue high-water " << stats.queue_high_water << "/"
            << sopts.queue_capacity << "\n";
  Table table({"stage", "count", "mean_ms", "p50_ms", "p99_ms", "max_ms"});
  const auto add_stage = [&table](const char* name, const serve::StageStats& s) {
    table.add(name, static_cast<std::uint64_t>(s.count), s.mean_seconds * 1e3,
              s.p50_seconds * 1e3, s.p99_seconds * 1e3, s.max_seconds * 1e3);
  };
  add_stage("queue_wait", stats.queue_wait);
  add_stage("form", stats.form);
  add_stage("solve", stats.solve);
  add_stage("reconstruct", stats.reconstruct);
  add_stage("end_to_end", stats.end_to_end);
  table.write_pretty(std::cout);

  // Resilience counters: all zero on a healthy run; retries/fallback rungs/
  // breaker events say where the serving layer absorbed trouble.
  std::cout << "resilience: retries " << stats.retries << " (successful "
            << stats.retry_successes << "), solver not-converged "
            << stats.solver_not_converged << ", fallback rungs tikhonov "
            << stats.fallback_tikhonov << " dense " << stats.fallback_dense
            << ", breaker opened " << stats.breaker_opened_events
            << " (open shapes " << stats.breaker_open_shapes
            << "), load-shed " << stats.rejected_load_shed
            << ", degraded entered " << stats.degraded_entered
            << ", invalid input " << stats.invalid_input + stats.rejected_invalid
            << "\n";
  // Input-quality counters: masked / auto-masked Z entries, robustly
  // down-weighted outliers, degraded completions, numerical breakdowns.
  std::cout << "quality: masked entries " << stats.masked_entries << " (auto "
            << stats.auto_masked_entries << "), outliers down-weighted "
            << stats.outliers_downweighted << ", degraded results "
            << stats.degraded_results << ", numerical breakdowns "
            << stats.numerical_breakdowns << "\n";
  return 0;
}

/// "host:port", "[v6host]:port", or bare "port" (host defaults to
/// 127.0.0.1). IPv6 literals need the brackets: "::1:5555" is ambiguous,
/// "[::1]:5555" is not.
std::pair<std::string, std::uint16_t> parse_endpoint(const std::string& spec) {
  std::string host = "127.0.0.1";
  std::string port_str = spec;
  if (!spec.empty() && spec.front() == '[') {
    const std::size_t close = spec.find(']');
    PARMA_REQUIRE(close != std::string::npos && close + 1 < spec.size() &&
                      spec[close + 1] == ':',
                  "serve-net: bracketed endpoints look like [host]:port");
    host = spec.substr(1, close - 1);
    port_str = spec.substr(close + 2);
  } else if (const std::size_t colon = spec.rfind(':'); colon != std::string::npos) {
    PARMA_REQUIRE(spec.find(':') == colon,
                  "serve-net: IPv6 endpoints need brackets: [host]:port");
    host = spec.substr(0, colon);
    port_str = spec.substr(colon + 1);
  }
  const Index port = parse_index(port_str, "port");
  PARMA_REQUIRE(port >= 0 && port <= 65535, "serve-net: port out of range");
  return {host, static_cast<std::uint16_t>(port)};
}

int cmd_serve_net(const Args& args) {
  const auto listen_spec = args.flag("listen");
  const auto connect_spec = args.flag("connect");
  if (static_cast<bool>(listen_spec) == static_cast<bool>(connect_spec)) {
    return usage();  // exactly one of --listen / --connect
  }

  if (listen_spec) {
    const auto [host, port] = parse_endpoint(*listen_spec);
    serve::ServerOptions sopts;
    if (const auto w = args.flag("workers")) sopts.workers = parse_index(*w, "workers");
    if (const auto q = args.flag("queue")) sopts.queue_capacity = parse_index(*q, "queue");
    if (const auto b = args.flag("batch")) sopts.max_batch = parse_index(*b, "batch");
    serve::Server server(sopts);

    net::ListenerOptions lopts;
    lopts.host = host;
    lopts.port = port;
    net::Listener listener(server, lopts);
    listener.start();
    std::cout << "serving on " << host << ":" << listener.port()
              << " (close stdin to stop)\n";

    // Foreground service loop: the listener's I/O thread does the work; the
    // main thread just waits for the operator to close stdin (or EOF under
    // a pipe) and then tears down in order -- graceful drain (in-flight
    // requests finish and their responses flush), then transport, then
    // pipeline.
    while (std::cin.get() != std::char_traits<char>::eof()) {
    }
    if (!listener.drain(std::chrono::seconds(10))) {
      std::cerr << "drain: stragglers remained after 10 s; cutting them off\n";
    }
    listener.stop();
    server.shutdown();

    const net::ListenerCounters c = listener.counters();
    std::cout << "connections " << c.connections_accepted << " (rejected "
              << c.connections_rejected << "), requests " << c.requests_admitted
              << ", responses " << c.responses_enqueued << " (dropped "
              << c.responses_dropped << "), protocol errors " << c.protocol_errors
              << ", disconnects " << c.disconnects << ", pings " << c.pings
              << ", reaped idle/slowloris/write-stall " << c.reaped_idle << "/"
              << c.reaped_slowloris << "/" << c.reaped_write_stall << "\n";
    return 0;
  }

  const auto [host, port] = parse_endpoint(*connect_spec);
  const Index requests =
      args.flag("requests") ? parse_index(*args.flag("requests"), "requests") : 16;
  const auto seed = static_cast<std::uint64_t>(
      args.flag("seed") ? parse_index(*args.flag("seed"), "seed") : 2022);
  std::vector<Index> shapes;
  for (const std::string& tok : split(args.flag("shapes").value_or("6,8,10"), ',')) {
    shapes.push_back(parse_index(tok, "shapes"));
  }
  PARMA_REQUIRE(!shapes.empty(), "serve-net: --shapes must name at least one size");
  PARMA_REQUIRE(requests >= 1, "serve-net: --requests must be >= 1");

  std::vector<serve::ParametrizeRequest> pending;
  pending.reserve(static_cast<std::size_t>(requests));
  Rng rng(seed);
  for (Index i = 0; i < requests; ++i) {
    const Index n = shapes[static_cast<std::size_t>(i) % shapes.size()];
    const mea::DeviceSpec spec = mea::square_device(n);
    const auto truth = mea::generate_field(spec, mea::random_scenario(spec, 1, rng), rng);
    serve::ParametrizeRequest request;
    request.measurement = mea::measure_exact(spec, truth);
    request.options.strategy = core::Strategy::kFineGrained;
    request.options.workers = 2;
    request.options.chunk = 4;
    request.options.keep_system = false;
    request.inverse.max_iterations = 20;
    pending.push_back(std::move(request));
  }

  net::Client client;
  net::ClientOptions copts;
  copts.host = host;
  copts.port = port;
  client.connect(copts);
  std::cout << "connected to " << host << ":" << port << "\n";

  Stopwatch wall;
  std::vector<std::uint64_t> ids;
  ids.reserve(pending.size());
  for (serve::ParametrizeRequest& request : pending) {
    ids.push_back(client.send(request));
  }
  Index ok = 0;
  for (const std::uint64_t id : ids) {
    const auto reply = client.wait(id, std::chrono::seconds(60));
    if (!reply) {
      std::cerr << "request " << id << " timed out\n";
      continue;
    }
    if (reply->is_error) {
      std::cerr << "request " << id << ": protocol error "
                << net::proto_code_name(reply->error.code) << " -- "
                << reply->error.message << "\n";
      continue;
    }
    const auto status = reply->response.status();
    if (status == serve::RequestStatus::kOk) {
      ++ok;
    } else {
      std::cerr << "request " << id << ": "
                << (status ? serve::request_status_name(*status) : "unknown status")
                << (reply->response.message.empty() ? "" : " -- " + reply->response.message)
                << "\n";
    }
  }
  const Real wall_seconds = wall.elapsed_seconds();
  std::cout << "served " << ok << "/" << requests << " requests in " << wall_seconds
            << " s (" << static_cast<Real>(requests) / wall_seconds << " req/s)\n";
  return ok == requests ? 0 : 2;
}

/// The worker binary normally sits next to parma_cli (both are built into
/// build/examples/), so resolve it relative to our own image by default.
std::string default_worker_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "./parma_cluster_worker";
  const std::string self(buf, static_cast<std::size_t>(n));
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "./parma_cluster_worker";
  return self.substr(0, slash + 1) + "parma_cluster_worker";
}

int cmd_serve_cluster(const Args& args) {
  if (!args.positional.empty()) return usage();
  const Index workers = args.flag("cluster-workers")
                            ? parse_index(*args.flag("cluster-workers"), "cluster-workers")
                            : 3;
  const Index requests =
      args.flag("requests") ? parse_index(*args.flag("requests"), "requests") : 24;
  const auto seed = static_cast<std::uint64_t>(
      args.flag("seed") ? parse_index(*args.flag("seed"), "seed") : 2022);
  std::vector<Index> shapes;
  for (const std::string& tok : split(args.flag("shapes").value_or("6,8,10"), ',')) {
    shapes.push_back(parse_index(tok, "shapes"));
  }
  PARMA_REQUIRE(workers >= 1, "serve-cluster: --cluster-workers must be >= 1");
  PARMA_REQUIRE(!shapes.empty(), "serve-cluster: --shapes must name at least one size");
  PARMA_REQUIRE(requests >= 1, "serve-cluster: --requests must be >= 1");

  cluster::RouterOptions ropts;
  if (const auto r = args.flag("replicas")) {
    ropts.replicas = static_cast<std::size_t>(parse_index(*r, "replicas"));
  }
  cluster::Router router(ropts);

  cluster::SupervisorOptions sopts;
  sopts.worker_binary = args.flag("worker-bin").value_or(default_worker_binary());
  sopts.workers = static_cast<int>(workers);
  if (const auto w = args.flag("workers")) sopts.server_workers = parse_index(*w, "workers");
  if (const auto q = args.flag("queue")) {
    sopts.queue_capacity = static_cast<std::size_t>(parse_index(*q, "queue"));
  }
  if (const auto b = args.flag("batch")) {
    sopts.max_batch = static_cast<std::size_t>(parse_index(*b, "batch"));
  }
  cluster::Supervisor supervisor(
      sopts, [&router](const cluster::WorkerEndpoint& e) { router.worker_up(e); },
      [&router](Index id) { router.worker_down(id); });
  supervisor.start();
  std::cout << "cluster up: " << router.live_workers() << " workers ("
            << ropts.replicas << "-way placement), worker binary "
            << sopts.worker_binary << "\n";

  std::vector<serve::ParametrizeRequest> pending;
  pending.reserve(static_cast<std::size_t>(requests));
  Rng rng(seed);
  for (Index i = 0; i < requests; ++i) {
    const Index n = shapes[static_cast<std::size_t>(i) % shapes.size()];
    const mea::DeviceSpec spec = mea::square_device(n);
    const auto truth = mea::generate_field(spec, mea::random_scenario(spec, 1, rng), rng);
    serve::ParametrizeRequest request;
    request.measurement = mea::measure_exact(spec, truth);
    request.options.strategy = core::Strategy::kFineGrained;
    request.options.workers = 2;
    request.options.chunk = 4;
    request.options.keep_system = false;
    request.inverse.max_iterations = 20;
    pending.push_back(std::move(request));
  }

  // Optional mid-run chaos: SIGKILL one worker after half the requests so an
  // operator can watch failover + supervised restart happen live.
  const std::optional<std::string> kill_flag = args.flag("kill-worker");
  const Index kill_after = static_cast<Index>(pending.size() / 2);

  Stopwatch wall;
  Index ok = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (kill_flag && static_cast<Index>(i) == kill_after) {
      const Index victim = parse_index(*kill_flag, "kill-worker");
      std::cout << "killing worker " << victim << " mid-run\n";
      supervisor.kill_worker(victim);
    }
    const cluster::Router::RouteResult routed = router.dispatch(pending[i]);
    if (routed.ok() && routed.reply.response.status() == serve::RequestStatus::kOk) {
      ++ok;
    } else if (routed.reply.transport != net::ClientError::kNone) {
      std::cerr << "request " << i << ": transport "
                << net::client_error_name(routed.reply.transport) << " after "
                << routed.attempts << " attempts\n";
    } else if (routed.reply.is_error) {
      std::cerr << "request " << i << ": protocol error "
                << net::proto_code_name(routed.reply.error.code) << "\n";
    } else {
      const auto status = routed.reply.response.status();
      std::cerr << "request " << i << ": "
                << (status ? serve::request_status_name(*status) : "unknown status")
                << "\n";
    }
  }
  const Real wall_seconds = wall.elapsed_seconds();

  std::size_t reporting = 0;
  const serve::Stats stats = router.cluster_stats(&reporting);
  const cluster::RouterCounters rc = router.counters();
  std::cout << "served " << ok << "/" << requests << " requests in " << wall_seconds
            << " s (" << static_cast<Real>(requests) / wall_seconds
            << " req/s) across " << reporting << " reporting workers\n";
  std::cout << "routing: dispatched " << rc.dispatched << ", failovers "
            << rc.failovers << ", breaker skips/opened " << rc.breaker_skips << "/"
            << rc.breaker_opened << ", exhausted " << rc.exhausted
            << ", workers lost/joined " << rc.workers_lost << "/"
            << rc.workers_joined << ", restarts " << supervisor.restarts() << "\n";
  std::cout << "cluster-wide: " << stats.submitted << " submitted / "
            << stats.completed_ok << " ok, "
            << stats.batches << " batches, mean batch " << stats.mean_batch_size
            << ", queue high-water " << stats.queue_high_water << "\n";
  Table table({"stage", "count", "mean_ms", "p50_ms", "p99_ms", "max_ms"});
  const auto add_stage = [&table](const char* name, const serve::StageStats& s) {
    table.add(name, static_cast<std::uint64_t>(s.count), s.mean_seconds * 1e3,
              s.p50_seconds * 1e3, s.p99_seconds * 1e3, s.max_seconds * 1e3);
  };
  add_stage("queue_wait", stats.queue_wait);
  add_stage("form", stats.form);
  add_stage("solve", stats.solve);
  add_stage("reconstruct", stats.reconstruct);
  add_stage("end_to_end", stats.end_to_end);
  table.write_pretty(std::cout);

  supervisor.stop();
  return ok == requests ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse(argc, argv);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "topology") return cmd_topology(args);
    if (command == "form") return cmd_form(args);
    if (command == "solve") return cmd_solve(args);
    if (command == "render") return cmd_render(args);
    if (command == "serve-bench") return cmd_serve_bench(args);
    if (command == "serve-net") return cmd_serve_net(args);
    if (command == "serve-cluster") return cmd_serve_cluster(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
