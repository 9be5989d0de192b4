#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <recover|serve_tcp> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
`perfbench` CMake package (perfbench/CMakeLists.txt, which compiles ../src)
under .bench_build/ (or $CARGO_TARGET_DIR when set); later runs only check
that the build is current. Build output goes to stderr, so the last line on
stdout is always the benchmark's JSON result. Traced runs also write their
spans to .bench_build/trace/<workload>-seed<n>.jsonl.

Exit status: the benchmark's own (0 = verified, 1 = wrong answer,
3 = invalid run), or 2 when the build or the run itself fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("recover", "serve_tcp")
RUN_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(build_dir: Path) -> bool:
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j4"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(trace: bool):
    """Metric names BENCHMARK.json declares for this kind of run, if present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    declared = json.loads(spec.read_text())
    return {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"no Parma sources under {ROOT / 'src'}; run from a full checkout")

    out_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_root / "perfbench"
    if not build(build_dir):
        return fail("build failed")

    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_dir = out_root / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]

    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines:
        return fail(f"benchmark printed nothing (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(run.stdout)
        return fail(f"last line is not a JSON result (exit {run.returncode})")

    expected = expected_metrics(bool(args.trace))
    if expected is not None and set(result["metrics"]) != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail("metrics disagree with BENCHMARK.json: "
                    f"{sorted(set(result['metrics']) ^ expected)}")
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
