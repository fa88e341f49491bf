#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed, as the benchmark is driven (the
BENCHMARK.json command plus `--workload W --seed N --seconds S --trace 0`,
from the repository root), and prints for every end-to-end metric the
distance between the first and third quartile of its values, as a share
of their median (Python's statistics.quantiles(values, n=4)). Time and
rate metrics are shown raw (their `wall.*` lines) and host-scaled, next
to the form the benchmark reports.

    python3 perfbench/spread.py --workload thm11-solve --seeds 1-10
    python3 perfbench/spread.py --workload serve-http --seeds 1-5 --log runs.jsonl
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL = re.compile(r"^\s+wall\.(\S+) (\S+) [^;]*; scaled (\S+)")


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    forms = {}
    for line in lines:
        m = WALL.match(line)
        if m:
            forms[m.group(1)] = {"raw": float(m.group(2)), "scaled": float(m.group(3))}
    return result, forms


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--log", help="append each run's result as a JSON line here")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    reported, forms = {}, {}
    for seed in seeds(args.seeds):
        result, wall = run_once(bench["command"], args.workload, seed, seconds)
        if not result["correct"]:
            sys.exit(f"seed {seed}: run is not correct: {result}")
        for name, metric in result["metrics"].items():
            reported.setdefault(name, []).append(metric["value"])
        for name, pair in wall.items():
            for form, value in pair.items():
                forms.setdefault(name, {}).setdefault(form, []).append(value)
        if args.log:
            with open(args.log, "a") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed,
                                      "result": result, "wall": wall}) + "\n")
        print(f"seed {seed}: " + ", ".join(f"{k} {v:.4g}" for k, v in
                                           ((k, m["value"]) for k, m in result["metrics"].items())),
              flush=True)

    print(f"\n{args.workload}, {len(reported['setup_s'])} runs of {seconds} s")
    print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6} {'raw':>8} {'scaled':>8}")
    for name, values in reported.items():
        both = forms.get(name, {})
        raw = f"{spread(both['raw']):.4f}" if "raw" in both else ""
        scaled = f"{spread(both['scaled']):.4f}" if "scaled" in both else ""
        print(f"{name:<16} {statistics.median(values):>12.4f} {spread(values):>8.4f} "
              f"{bounds.get(name, float('nan')):>6} {raw:>8} {scaled:>8}")


if __name__ == "__main__":
    main()
