"""Benchmark for sphtrop: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload cli_corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The workload's inputs are generated from ``--seed``.  A pass runs
the workload's fixed job list once, one job after another in this single
thread; passes repeat until ``--seconds`` have gone by.  Each pass runs on a
copy of the library imported afresh before it, outside the timed region, so
no state kept at module level (a memo cache, say) carries over from one pass
to the next.  Every job's output is checked against a reference.

Times are scaled to a fixed machine speed.  On a shared virtual machine the
CPU can run at half speed for seconds at a time (measured on a 2-core Intel
Xeon VM), which made the same pass take from 2.9 to 4.4 s.  So a short,
fixed piece of standard-library work (the probe, about 3 ms) runs before
every job, and each job's time is multiplied by ``PROBE_NOMINAL_S`` over the
median probe time of the five jobs around it.  This cut the spread of one
job's time over a minute from 20% to 6-8%.  The raw times are printed
alongside.

With ``--trace 0`` the end-to-end metrics are reported: ``setup_s`` (import,
input generation and one warm-up job; median of nine set-ups), ``wall_s``
(the sum over the jobs of each job's median time over the passes),
``job_p50_ms`` and ``job_p90_ms`` (over every job run) and ``peak_rss_mb``
(this process).  With ``--trace 1``
the library's public functions are wrapped and one traced pass gives the
per-layer metrics; its outputs must match those of the untraced passes
before it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import types
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_tmp")
TRACE_OUT = os.path.join(ROOT, ".perfbench_out")
MODULES = ("linalg", "polyhedra", "puiseux", "spherical", "troposphere",
           "fundthm", "grobtrop", "jsonio", "render", "examples", "cli")
SETUPS = 9
PROBE_VALUES = tuple(Fraction(i % 7 - 3, i % 4 + 1) for i in range(64))
# Median probe time on an idle 2-core Intel Xeon VM with CPython 3.11.7.
PROBE_NOMINAL_S = 0.003

import tracer  # noqa: E402  (sibling module of this script)
import workloads  # noqa: E402


class SetupError(Exception):
    pass


def probe() -> float:
    """Seconds for a fixed mix of Fraction sums, tuple hashing, dict inserts
    and sorting, the kind of work the library does."""
    start = perf_counter()
    seen = {}
    for i in range(150):
        v = tuple(PROBE_VALUES[i * j % 64] + PROBE_VALUES[j] for j in range(4))
        seen[v] = sorted(v)
    return perf_counter() - start


def speed_factors(probes: list[float]) -> list[float]:
    """Per job: nominal over measured probe time, median of five around it."""
    return [PROBE_NOMINAL_S / statistics.median(probes[max(0, i - 2):i + 3])
            for i in range(len(probes))]


def import_library() -> types.SimpleNamespace:
    """Import sphtrop afresh from this checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "sphtrop", "__init__.py")):
        raise SetupError(f"no sphtrop sources under {SRC}")
    for name in [n for n in sys.modules
                 if n == "sphtrop" or n.startswith("sphtrop.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("sphtrop")
    if os.path.dirname(os.path.abspath(package.__file__)) != \
            os.path.join(SRC, "sphtrop"):
        raise SetupError(f"imported sphtrop from {package.__file__}")
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"sphtrop.{m}") for m in MODULES})


def set_up(workload: str, seed: int, workdir: str):
    """Import, generate the inputs and warm up on the first job.

    Returns (raw seconds, scaled seconds, workload)."""
    probes = [probe() for _ in range(3)]
    start = perf_counter()
    lib = import_library()
    wl = workloads.WORKLOADS[workload](lib, seed, workdir)
    wl.jobs[0].run()
    raw = perf_counter() - start
    probes += [probe() for _ in range(3)]
    return raw, raw * PROBE_NOMINAL_S / statistics.median(probes), wl


class Pass:
    """One run of the job list: raw job seconds, speed factors, outputs."""

    def __init__(self, jobs, tracer_=None):
        self.latencies, probes, self.outputs = [], [], []
        for i, job in enumerate(jobs):
            probes.append(probe())
            if tracer_ is not None:
                tracer_.job = i
            start = perf_counter()
            try:
                out, err = job.run(), None
            except Exception as e:  # a failing job is counted, not fatal
                out, err = None, f"{type(e).__name__}: {e}"
            self.latencies.append(perf_counter() - start)
            self.outputs.append((out, err))
        self.factors = speed_factors(probes)
        self.scaled = [t * f for t, f in zip(self.latencies, self.factors)]

    def seconds(self) -> float:
        return sum(self.scaled)


class Tally:
    """Errors, mismatches and their descriptions over the passes checked."""

    def __init__(self):
        self.attempted = self.errors = self.mismatches = 0
        self.problems: list[str] = []

    def check(self, jobs, outputs) -> list[str | None]:
        """Check each job's output; return the per-job digests."""
        digests = []
        for job, (out, err) in zip(jobs, outputs):
            self.attempted += 1
            if err is not None:
                self.errors += 1
                self.problems.append(f"error in [{job.label}]: {err}")
                digests.append(None)
                continue
            why = job.check(out)
            if why is not None:
                self.mismatches += 1
                self.problems.append(f"mismatch in [{job.label}]: {why}")
            digests.append(job.digest(out))
        return digests


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[k]


def fresh_library(wl):
    """Point the workload's jobs at a newly imported copy of the library,
    after the previous copy has been collected."""
    wl.lib = None
    gc.collect()
    wl.lib = import_library()


def repeat_passes(wl, seconds: float, tally: Tally):
    """Untraced passes until `seconds` have gone by; returns the passes and
    the digests of the last one."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        fresh_library(wl)
        passes.append(Pass(wl.jobs))
        digests = tally.check(wl.jobs, passes[-1].outputs)
        # Keep no outputs across passes, so peak_rss_mb does not grow with
        # the number of passes that fit in the run.
        passes[-1].outputs = None
    return passes, digests


def end_to_end(args, workdir, tally: Tally) -> dict:
    setups = []
    for _ in range(SETUPS):
        # Drop the previous set-up's library and workload before the next.
        wl = None
        gc.collect()
        raw, scaled, wl = set_up(args.workload, args.seed, workdir)
        setups.append((raw, scaled))
    passes, _ = repeat_passes(wl, args.seconds, tally)
    scaled = [t for p in passes for t in p.scaled]
    raw = [t for p in passes for t in p.latencies]
    # Each job's median over the passes: a slow spell that the probe does
    # not fully correct moves wall_s only if it hits a job in most passes.
    wall = sum(map(statistics.median, zip(*(p.scaled for p in passes))))
    wall_raw = sum(map(statistics.median,
                       zip(*(p.latencies for p in passes))))
    n = len(scaled)
    if n < 100:
        print(f"warning: only {n} job samples, so job_p90_ms has fewer than "
              "ten beyond it", file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(s for _, s in setups), "s",
                    f"median of {SETUPS} set-ups; raw "
                    f"{statistics.median(r for r, _ in setups):.4f} s"),
        "wall_s": (wall, "s",
                   f"{len(wl.jobs)} jobs, each the median of {len(passes)} "
                   f"passes; raw {wall_raw:.4f} s"),
        "job_p50_ms": (percentile(scaled, 50) * 1e3, "ms",
                       f"n={n}; raw {percentile(raw, 50) * 1e3:.3f} ms"),
        "job_p90_ms": (percentile(scaled, 90) * 1e3, "ms",
                       f"n={n}; raw {percentile(raw, 90) * 1e3:.3f} ms"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of this process"),
    }


def traced(args, workdir, tally: Tally) -> dict:
    _, _, wl = set_up(args.workload, args.seed, workdir)
    untraced, reference = repeat_passes(wl, args.seconds / 2, tally)

    fresh_library(wl)
    t = tracer.Tracer()
    t.install()
    traced_pass = Pass(wl.jobs, t)
    digests = tally.check(wl.jobs, traced_pass.outputs)
    differ = sum(a != b for a, b in zip(reference, digests))
    if differ:
        tally.mismatches += differ
        tally.problems.append(f"{differ} traced outputs differ from the "
                              "untraced ones")

    guard = t.guard(args.workload)
    if guard:
        raise tracer.TraceError("wrapper guard: " + "; ".join(guard))
    os.makedirs(TRACE_OUT, exist_ok=True)
    t.write(os.path.join(TRACE_OUT,
                         f"trace-{args.workload}-seed{args.seed}.json"),
            [job.label for job in wl.jobs], traced_pass.factors)
    overhead = traced_pass.seconds() / statistics.median(
        p.seconds() for p in untraced)
    units = dict(tracer.METRICS)
    return {k: (v, units[k], "")
            for k, v in t.metrics(traced_pass.factors, overhead).items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    tally = Tally()
    try:
        run = traced if args.trace else end_to_end
        metrics = run(args, workdir, tally)
    except (SetupError, tracer.TraceError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    for line in tally.problems[:20]:
        print(line, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  jobs attempted {tally.attempted}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit:6s} {note}")
    print(f"  {'error_rate':44s} {tally.errors}/{tally.attempted}")
    print(f"  {'mismatch_rate':44s} {tally.mismatches}/{tally.attempted}")
    failed = tally.errors + tally.mismatches
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
