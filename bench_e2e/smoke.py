#!/usr/bin/env python3
"""Self-test of the benchmark harness (the bench_e2e_smoke ctest).

    python3 smoke.py --bench BENCH_E2E --cli AUTODETECT_CLI
                     --benchmark-json BENCHMARK.json --work-dir DIR

Runs every workload of BENCHMARK.json with --smoke (a 1000-column serving
model, one 1 s round, a 2000-column train_web), untraced and traced. Each run
must exit 0 with correct outputs and report every end-to-end (untraced) or
per-layer (traced) metric BENCHMARK.json names, and nothing else.
"""

import argparse
import json
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True)
    parser.add_argument("--cli", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    with open(args.benchmark_json) as f:
        bench = json.load(f)
    expected = {"0": {m["name"] for m in bench["end_to_end"]},
                "1": {m["name"] for m in bench["per_layer"]}}

    failures = []
    start = time.monotonic()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            run = subprocess.run(
                [args.bench, "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--cli", args.cli, "--work-dir", args.work_dir, "--smoke"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            label = f"{workload} --trace {trace}"
            before = len(failures)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                failures.append(f"{label}: exit {run.returncode}\n{run.stderr}")
            else:
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    failures.append(f"{label}: output checks failed\n{run.stderr}")
                names = set(result["metrics"])
                if names != expected[trace]:
                    failures.append(f"{label}: missing {sorted(expected[trace] - names)}, "
                                    f"unexpected {sorted(names - expected[trace])}")
            print(f"{label}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    print(f"smoke: {time.monotonic() - start:.1f} s")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
