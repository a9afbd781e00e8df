"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads torus_link,class_queries \
        --seeds 1-10 [--seconds 18] [--out spread.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, from
the root of the checkout, and reports for each workload and metric the
median, the quartiles and the spread (Q3 - Q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them.  Each spread is compared
with the metric's bound in BENCHMARK.json.  The raw wall-clock throughput
and latency are summarised beside the reported ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# wall-clock figures from the info line, shown beside the scaled ones
RAW = ("ops_per_s", "op_p50_ms")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong answers")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    raw = json.loads(lines[-2])["info"]["raw"]
    values.update({f"raw.{k}": raw[k] for k in RAW})
    return values


def summarise(values: list, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "within_third": spread < bound / 3,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None,
                   help="defaults to run_seconds in BENCHMARK.json")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update({f"raw.{k}": bounds[k] for k in RAW})
    seconds = args.seconds or spec["run_seconds"]

    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds) for s in seeds(args.seeds)]
        report["workloads"][workload] = {
            name: summarise([r[name] for r in runs], bound)
            for name, bound in bounds.items()}
        for name, s in report["workloads"][workload].items():
            print(f"{workload:14} {name:17} median {s['median']:12.5g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})",
                  flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
