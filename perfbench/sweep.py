"""Run the benchmark over several seeds, each run in a fresh process.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0|1]
                               [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` on every workload of ``BENCHMARK.json``, one
workload and one seed at a time, in sequence, from the checkout root, with
``run_seconds`` from ``BENCHMARK.json``.  For every metric it prints the
median over the seeds and the spread: the distance between the first and
third quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  With ``--out`` the runs,
the summary and the machine they ran on are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"environment": {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": cpu_model(), "run_seconds": seconds, "trace": args.trace},
        "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {}
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs not correct "
                      f"({result['failed']} of {result['attempted']} failed)")
            runs[seed] = result
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace), flush=True)
        summary = {}
        names = next(iter(runs.values()))["metrics"]
        print(f"\n{workload}: {len(runs)} runs")
        for name, first in names.items():
            values = [r["metrics"][name]["value"] for r in runs.values()]
            summary[name] = {"median": statistics.median(values),
                             "spread": spread(values), "unit": first["unit"]}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and \
                    summary[name]["spread"] > bound / 3:
                flag = f"  spread above a third of the bound {bound}"
            print(f"  {name:44s} median {summary[name]['median']:14.6f} "
                  f"{first['unit']:6s} spread {summary[name]['spread']:.4f}"
                  f"{flag}")
        report["workloads"][workload] = {
            "summary": summary,
            "runs": {str(s): r for s, r in runs.items()}}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
