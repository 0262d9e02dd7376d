#!/usr/bin/env python3
"""Builds the mmjoin benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); segment files live in a per-process
directory under .bench_build that is removed when the run ends; traced
runs keep their span files under .bench_build/perfbench-traces/.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (every end-to-end metric of BENCHMARK.json, or with
--trace 1 every per-layer metric). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Offered load of the service phase, queries per second: a fixed absolute
# rate, never derived from a measurement of the program. 120/s sends the
# 1200 requests a p99 with ten samples beyond it needs within the service
# phase (23 % of the run) of a run of about 45 s.
SERVICE_RATE_QPS = 120
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds mmbench; returns the binary's path."""
    out = os.path.join(bench_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "mmbench")


def run_mmbench(binary, args, work_dir):
    """Runs mmbench to completion; returns (exit code, stdout lines)."""
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"mmbench did not finish within {RUN_TIMEOUT_S}s")
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode, out.splitlines()


def checked_result(lines, spec, trace):
    """Parses mmbench's JSON line and holds it to BENCHMARK.json: the
    metrics must be exactly the declared end-to-end (or, traced, per-layer)
    metrics, each in its declared unit."""
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        wrong = sorted(set(got.items()) ^ set(declared.items()))
        raise ValueError("metrics differ from BENCHMARK.json in "
                         + ", ".join(f"{n} ({u})" for n, u in wrong))
    return result


def self_test(binary, spec):
    """Feeds every workload a wrong expected value (at a small size): each
    run must come back incorrect, with failed operations, and exit 1."""
    ok = True
    work_dir = os.path.join(bench_dir(), f"perfbench-work-{os.getpid()}")
    for w in spec["workloads"]:
        code, lines = run_mmbench(binary, [
            "--workload", w["name"], "--seed", "1", "--seconds", "1",
            "--trace", "0", "--self-test", "--rate", str(SERVICE_RATE_QPS),
            "--work-dir", work_dir, "--trace-dir", work_dir], work_dir)
        result = json.loads(lines[-1]) if lines else {}
        caught = (code == 1 and result.get("correct") is False
                  and result.get("failed", 0) > 0)
        print(f"self-test {w['name']}: exit {code}, correct "
              f"{result.get('correct')}, failed {result.get('failed')} of "
              f"{result.get('attempted')} -> "
              f"{'wrong expectation caught' if caught else 'NOT CAUGHT'}")
        ok = ok and caught
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rate", type=float, default=SERVICE_RATE_QPS,
                   help="service phase offered load, queries/s")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    spec = load_spec()
    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    if args.self_test:
        return 0 if self_test(binary, spec) else 1

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; one of {names}")
        return 2
    seconds = args.seconds or spec["run_seconds"]
    work_dir = os.path.join(bench_dir(), f"perfbench-work-{os.getpid()}")
    trace_dir = os.path.join(bench_dir(), "perfbench-traces",
                             f"{args.workload}-seed{args.seed}")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    code, lines = run_mmbench(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--rate", str(args.rate), "--work-dir", work_dir,
        "--trace-dir", trace_dir], work_dir)
    if not lines:
        log(f"mmbench exited {code} without a result")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = checked_result(lines, spec, args.trace == 1)
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        log(f"bad result: {e}")
        return 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
