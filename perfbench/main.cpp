// perfbench -- the repository benchmark program.
//
//   perfbench --workload <recover|serve_tcp> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <spans.jsonl>]
//
// Generates the workload's inputs from the seed with the mea generator,
// sets the system up several times (setup_s is the median), measures ops for
// --seconds, and checks every answer against the generated truth. Prints a
// human-readable report, then, as the last line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) interleave untraced and traced ops in one window, report every
// per-layer metric plus the tracing overhead between the two kinds of op, and
// write the recorded spans to --trace-out. Per-layer metrics of layers the
// workload bypasses read 0.
//
// Exit codes: 0 = answers verified; 1 = a wrong answer; 2 = bad arguments or
// an error; 3 = the run is invalid (e.g. the open-loop generator stalled).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace perfbench {

Outcome run_recover(const Args& args, Tracer& tracer);
Outcome run_serve_tcp(const Args& args, Tracer& tracer);

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric lists BENCHMARK.json declares, in its order. op_tail_ms is
// printed in the report but kept out of the JSON: on a loaded host its
// spread across seeds (40 % for serve_tcp) exceeds any usable bound.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"goodput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    // recover
    {"recover_s.n16", "s"}, {"recover_s.n24", "s"}, {"recover_s.n32", "s"},
    {"solver.lm_iterations.n16", "count"}, {"solver.lm_iterations.n24", "count"},
    {"solver.lm_iterations.n32", "count"},
    {"solver.lm_linear_solves.n16", "count"}, {"solver.lm_linear_solves.n24", "count"},
    {"solver.lm_linear_solves.n32", "count"},
    {"equations.pair_sweep_s.n16", "s"}, {"equations.pair_sweep_s.n24", "s"},
    {"equations.pair_sweep_s.n32", "s"},
    {"linalg.dense_solve_s.n16", "s"}, {"linalg.dense_solve_s.n24", "s"},
    {"linalg.dense_solve_s.n32", "s"},
    {"solver.lm_other_s.n16", "s"}, {"solver.lm_other_s.n24", "s"},
    {"solver.lm_other_s.n32", "s"},
    // serve_tcp
    {"serve.queue_ms.p50", "ms"}, {"serve.queue_ms.tail", "ms"},
    {"serve.form_ms.p50", "ms"}, {"serve.solve_ms.p50", "ms"},
    {"serve.reconstruct_ms.p50", "ms"}, {"serve.unattributed_ms.p50", "ms"},
    {"serve.unattributed_ms.tail", "ms"}, {"serve.mean_batch", "count"},
    {"serve.queue_high_water", "count"}, {"serve.retries", "count"},
    {"serve.rejected", "count"}, {"net.encode_us", "us"}, {"net.decode_us", "us"},
    {"net.request_bytes", "bytes"}, {"net.response_bytes", "bytes"},
    {"gen.late_ms.max", "ms"}, {"gen.discarded_windows", "count"},
    {"gen.late_reads_pct", "%"},
    // every workload
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <recover|serve_tcp> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

/// The JSON line: `specs` in order, values from `measured`; 0 when absent or
/// not finite (a window too short to hold an op), so the line stays JSON.
std::string json_line(const Outcome& o, bool correct, const MetricSpec* specs,
                      std::size_t count, const std::vector<Metric>& measured) {
  std::map<std::string, double> values;
  for (const Metric& m : measured) values[m.name] = m.value;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(specs[i].name);
    char value[64];
    const double v = it == values.end() ? 0.0 : it->second;
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(v) ? v : 0.0);
    out += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  Tracer tracer(args.trace);
  Outcome outcome;
  try {
    if (args.workload == "recover") {
      outcome = run_recover(args, tracer);
    } else if (args.workload == "serve_tcp") {
      outcome = run_serve_tcp(args, tracer);
    } else {
      usage("unknown workload " + args.workload);
    }
    if (args.trace) {
      outcome.per_layer.push_back(trace_overhead(outcome));
      if (!args.trace_out.empty()) tracer.write_jsonl(args.trace_out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::printf("workload %s seed %llu: %llu ops attempted, %llu failed, %llu wrong\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.wrong));
  print_metrics("end-to-end (untraced ops):", outcome.end_to_end);
  if (args.trace) {
    print_metrics("end-to-end (traced ops):", outcome.traced);
    print_metrics("per-layer:", outcome.per_layer);
    if (!args.trace_out.empty()) {
      std::printf("spans: %zu written to %s\n", tracer.size(), args.trace_out.c_str());
    }
  }
  if (!outcome.invalid_reason.empty()) {
    std::printf("INVALID RUN: %s\n", outcome.invalid_reason.c_str());
  }

  const bool correct = outcome.wrong == 0 && outcome.invalid_reason.empty();
  const std::string line =
      args.trace ? json_line(outcome, correct, kPerLayer, std::size(kPerLayer), outcome.per_layer)
                 : json_line(outcome, correct, kEndToEnd, std::size(kEndToEnd),
                             outcome.end_to_end);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  if (outcome.wrong > 0) return 1;
  return outcome.invalid_reason.empty() ? 0 : 3;
}
