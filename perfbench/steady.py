#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, compared metric by metric.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--sets 2]
                                [--first-seed 1] [--seconds S]

Every run gets its own seed (set k uses first-seed + k*runs ...). For each
end-to-end metric the tool prints, per set, the median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median. The sets
agree when, against the bounds in BENCHMARK.json:
  * every spread is within the metric's bound,
  * no set's median is worse than the first set's by more than the bound
    (in the metric's "better" direction), and
  * the share of failed operations is the same in every set.
Exits 0 when they agree. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for k in range(args.sets):
        runs = []
        for r in range(args.runs):
            seed = args.first_seed + k * args.runs + r
            result = run_once(args.workload, seed, seconds)
            runs.append(result)
            print(f"set {k} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in
                sorted(result["metrics"].items())), flush=True)
        sets.append(runs)

    agree = True
    failed_shares = [sum(r["failed"] for r in runs) /
                     sum(r["attempted"] for r in runs) for runs in sets]
    if len(set(failed_shares)) > 1:
        agree = False
    print(f"\n{args.workload}: {args.sets} set(s) x {args.runs} runs of "
          f"{seconds}s; failed share per set {failed_shares}")
    print(f"{'metric':<20} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    names = sorted(set().union(*(r["metrics"] for runs in sets for r in runs)))
    for name in names:
        spec_m = metrics.get(name)
        if spec_m is None:
            print(f"{name}: not declared in BENCHMARK.json")
            agree = False
            continue
        bound = spec_m["bound"]
        base = None
        for k, runs in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r["metrics"]]
            s = summarize(values)
            verdict = "ok"
            if s["spread"] > bound:
                verdict = "SPREAD"
            if base is None:
                base = s["median"]
            else:
                worse = (s["median"] - base if spec_m["better"] == "lower"
                         else base - s["median"])
                if worse > bound * base:
                    verdict = "SHIFT"
            if verdict != "ok":
                agree = False
            print(f"{name:<20} {k:>3} {s['median']:>14.6g} {s['q1']:>14.6g} "
                  f"{s['q3']:>14.6g} {s['spread']:>8.3f} {bound:>6.2f}  "
                  f"{verdict}")
    print("agree" if agree else "DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
