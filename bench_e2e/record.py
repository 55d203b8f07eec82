#!/usr/bin/env python3
"""Records the benchmark's own noise, the source of BENCHMARK.json's bounds.

    python3 bench_e2e/record.py [--sets 2] [--seeds 1-10] [--workloads a,b]
                                [--out bench_e2e/results/BENCH_e2e.json]

Run from the repository root. For each set, runs each workload once per
seed, one workload after the other (untraced, BENCHMARK.json's run_seconds),
through bench_e2e/run.py and records every end-to-end metric. Prints, per
workload and metric, each set's median and spread (q3 - q1) / median, and
how far the set medians are apart; "NOISY" marks a spread above a third of
the metric's bound (setup_s exempt) or medians further apart than the bound.
Writes the values, medians and quartiles (statistics.quantiles(values, n=4))
to --out under a machine/commit header; --commit labels a tree outside git.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec):
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: output checks failed")
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def machine():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    done = subprocess.run([os.path.join(out, "bench_e2e"), "--machine"],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def commit():
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True,
                               stdout=subprocess.PIPE, text=True).stdout.strip()
        return head + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default=os.path.join(HERE, "results", "BENCH_e2e.json"))
    parser.add_argument("--commit", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    metrics = bench["end_to_end"]

    sets = []
    for s in range(args.sets):
        values = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for w in workloads:
            for seed in seeds:
                result = run_once(w, seed, bench["run_seconds"])
                for m in metrics:
                    values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{m['name']}={values[w][m['name']][-1]:.6g}" for m in metrics),
                    file=sys.stderr, flush=True)
        sets.append({"seeds": seeds, "workloads": {
            w: {m["name"]: dict(unit=m["unit"], **summary(values[w][m["name"]]))
                for m in metrics} for w in workloads}})

    print(f"{'workload':16} {'metric':20} {'bound':>6} " +
          " ".join(f"{'median' + str(i + 1):>11} {'spread' + str(i + 1):>8}"
                   for i in range(len(sets))) + f" {'drift':>7}  verdict")
    for w in workloads:
        for m in metrics:
            row = [s["workloads"][w][m["name"]] for s in sets]
            spreads = [(r["q3"] - r["q1"]) / r["median"] for r in row]
            drift = abs(row[-1]["median"] - row[0]["median"]) / row[0]["median"]
            steady = m["name"] == "setup_s" or all(x < m["bound"] / 3 for x in spreads)
            verdict = "ok" if steady and drift < m["bound"] else "NOISY"
            print(f"{w:16} {m['name']:20} {m['bound']:6.3f} " +
                  " ".join(f"{r['median']:11.5g} {x:8.4f}" for r, x in zip(row, spreads)) +
                  f" {drift:7.4f}  {verdict}")

    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"machine": machine(), "commit": args.commit or commit(),
                   "run_seconds": bench["run_seconds"], "sets": sets}, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
