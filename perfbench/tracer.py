"""Spans and counters around the public functions of each ``sphtrop`` module.

Everything is patched from outside the library: methods of ``Cone`` and
``ValuedPolynomial`` are replaced on the class, so internal
``cls.from_generators(...)`` calls are seen too, and module-level functions
are replaced in every ``sphtrop`` module that imported them by name.
Spans live in memory with a parent link and the index of the job that
caused them, and are written out once the traced pass has finished.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# Layer metric prefix -> (module, attributes).  Several attributes may share
# one prefix; "Class.method" names are patched on the class.
SPANNED = {
    "polyhedra.from_generators": ("polyhedra", ["Cone.from_generators"]),
    "polyhedra.from_inequalities": ("polyhedra", ["Cone.from_inequalities"]),
    "polyhedra.faces": ("polyhedra", ["Cone.faces"]),
    "polyhedra.intersect": ("polyhedra", ["Cone.intersect"]),
    "polyhedra.is_face_of": ("polyhedra", ["Cone.is_face_of"]),
    "polyhedra.quotient_chart": ("polyhedra", ["quotient_chart"]),
    "polyhedra.affine_feasible": ("polyhedra", ["affine_feasible"]),
    "fundthm.trop_hypersurface": ("fundthm", ["trop_hypersurface"]),
    "fundthm.extended_trop_sets": ("fundthm", ["extended_trop_sets"]),
    "fundthm.membership_set1": ("fundthm", ["membership_set1"]),
    "fundthm.membership_set2": ("fundthm", ["membership_set2"]),
    "spherical.validate_fan": ("spherical", ["validate_colored_fan"]),
    "spherical.validate_cone": ("spherical", ["validate_colored_cone"]),
    "spherical.colored_faces": ("spherical", ["colored_faces"]),
    "troposphere.tropicalize": ("troposphere", ["tropicalize_embedding"]),
    "grobtrop.grobner": ("grobtrop", ["grobner_tropicalize_embedding"]),
    "grobtrop.compare": ("grobtrop", ["compare_tropicalizations"]),
    "render.ascii": ("render", ["render_ascii"]),
    "render.svg": ("render", ["render_svg"]),
    "jsonio.load": ("jsonio", ["datum_from_json", "fan_from_json",
                               "trop_from_json", "polynomial_from_json",
                               "complex_from_json"]),
    "jsonio.dump": ("jsonio", ["dumps", "datum_to_json", "fan_to_json",
                               "trop_to_json", "polynomial_to_json",
                               "complex_to_json"]),
    "cli.main": ("cli", ["main"]),
    "puiseux.parse": ("puiseux", ["ValuedPolynomial.parse", "parse_weight"]),
    "puiseux.trop_eval": ("puiseux", ["ValuedPolynomial.trop_eval"]),
    "puiseux.initial_form": ("puiseux", ["ValuedPolynomial.initial_form"]),
    "puiseux.restrict_to_orbit": ("puiseux",
                                  ["ValuedPolynomial.restrict_to_orbit"]),
}

# Called far too often for a span each: counted only.
COUNTED = {
    "linalg.dot": ("linalg", ["dot"]),
    "linalg.rref": ("linalg", ["rref"]),
    "linalg.primitive": ("linalg", ["primitive"]),
}

# The per-layer metrics, in the order they are reported, with their units.
METRICS = [
    ("polyhedra.from_generators.calls", "count"),
    ("polyhedra.from_generators.distinct", "count"),
    ("polyhedra.from_generators.distinct_ratio", "ratio"),
    ("polyhedra.from_generators.self_s", "s"),
    ("polyhedra.from_inequalities.calls", "count"),
    ("polyhedra.faces.calls", "count"),
    ("polyhedra.faces.s", "s"),
    ("polyhedra.intersect.calls", "count"),
    ("polyhedra.is_face_of.calls", "count"),
    ("polyhedra.quotient_chart.calls", "count"),
    ("polyhedra.affine_feasible.calls", "count"),
    ("polyhedra.affine_feasible.s", "s"),
    ("polyhedra.affine_feasible.feasible_ratio", "ratio"),
    ("fundthm.trop_hypersurface.calls", "count"),
    ("fundthm.trop_hypersurface.s", "s"),
    ("fundthm.trop_hypersurface.cells", "count"),
    ("fundthm.extended_trop_sets.s", "s"),
    ("fundthm.membership_set1.calls", "count"),
    ("fundthm.membership_set1.s", "s"),
    ("fundthm.membership_set2.s", "s"),
    ("linalg.dot.calls", "count"),
    ("linalg.rref.calls", "count"),
    ("linalg.primitive.calls", "count"),
    ("spherical.validate_fan.calls", "count"),
    ("spherical.validate_fan.s", "s"),
    ("spherical.validate_cone.calls", "count"),
    ("spherical.colored_faces.calls", "count"),
    ("spherical.colored_faces.s", "s"),
    ("troposphere.tropicalize.s", "s"),
    ("troposphere.strata", "count"),
    ("grobtrop.grobner.s", "s"),
    ("grobtrop.compare.s", "s"),
    ("grobtrop.compare.strata_checked", "count"),
    ("render.ascii.calls", "count"),
    ("render.ascii.s", "s"),
    ("render.svg.s", "s"),
    ("jsonio.load.calls", "count"),
    ("jsonio.load.s", "s"),
    ("jsonio.dump.calls", "count"),
    ("jsonio.dump.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("puiseux.parse.s", "s"),
    ("puiseux.trop_eval.calls", "count"),
    ("puiseux.initial_form.calls", "count"),
    ("puiseux.initial_form.s", "s"),
    ("puiseux.restrict_to_orbit.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
]

CLI, TORIC, HYPER = "cli_corpus", "toric_arrangement", "hypersurface"
ALL = {CLI, TORIC, HYPER}
CONES = {CLI, TORIC}
POLYS = {CLI, HYPER}

# Wrapper guard: the workloads on which each boundary must be called ...
EXERCISED_BY = {
    "polyhedra.from_generators": CONES,
    "polyhedra.from_inequalities": CONES,
    "polyhedra.faces": CONES,
    "polyhedra.intersect": CONES,
    "polyhedra.is_face_of": CONES,
    "polyhedra.quotient_chart": CONES,
    "polyhedra.affine_feasible": POLYS,
    "fundthm.trop_hypersurface": POLYS,
    "fundthm.extended_trop_sets": {HYPER},
    "fundthm.membership_set1": {HYPER},
    "fundthm.membership_set2": {HYPER},
    "linalg.dot": ALL,
    "linalg.rref": CONES,
    "linalg.primitive": ALL,
    "spherical.validate_fan": CONES,
    "spherical.validate_cone": CONES,
    "spherical.colored_faces": CONES,
    "troposphere.tropicalize": CONES,
    "grobtrop.grobner": CONES,
    "grobtrop.compare": CONES,
    "render.ascii": {CLI},
    "render.svg": {CLI},
    "jsonio.load": {CLI},
    "jsonio.dump": {CLI},
    "cli.main": {CLI},
    "puiseux.parse": POLYS,
    "puiseux.trop_eval": POLYS,
    "puiseux.initial_form": POLYS,
    "puiseux.restrict_to_orbit": {HYPER},
}

# ... and the boundaries each workload is predicted to bypass entirely.
BYPASSED_BY = {
    HYPER: ["polyhedra.from_generators"],
    TORIC: ["polyhedra.affine_feasible"],
}


class TraceError(Exception):
    """A boundary could not be patched or did not behave as predicted."""


def _sphtrop_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sphtrop"
                                  or name.startswith("sphtrop."))]


class Tracer:
    """Patches the boundaries of the imported library and records spans."""

    def __init__(self):
        self.names: list[str] = []
        # [name index, job, parent span index, start, end]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.distinct: set = set()

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = _sphtrop_modules()
        by_name = {m.__name__: m for m in modules}
        for table, make in ((SPANNED, self._span_wrapper),
                            (COUNTED, self._count_wrapper)):
            for prefix, (module, attrs) in table.items():
                home = by_name.get(f"sphtrop.{module}")
                if home is None:
                    raise TraceError(f"module sphtrop.{module} is not loaded")
                for attr in attrs:
                    self._patch(modules, home, attr, make(prefix))

    def _patch(self, modules, home, attr, make):
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name, None)
            raw = getattr(owner, "__dict__", {}).get(method)
            if raw is None:
                raise TraceError(f"{home.__name__}.{attr} not found")
            if isinstance(raw, classmethod):
                setattr(owner, method, classmethod(make(raw.__func__)))
            else:
                setattr(owner, method, make(raw))
            return
        original = getattr(home, attr, None)
        if original is None:
            raise TraceError(f"{home.__name__}.{attr} not found")
        wrapped = make(original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)

    def _span_wrapper(self, prefix):
        index = len(self.names)
        self.names.append(prefix)
        spans, stack = self.spans, self.stack
        on_result = self._result_hooks().get(prefix)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                record = [index, self.job, stack[-1] if stack else -1,
                          perf_counter(), 0.0]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[4] = perf_counter()
                    stack.pop()
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper
        return make

    def _count_wrapper(self, prefix):
        counts = self.counts
        counts[prefix] += 0

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[prefix] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _result_hooks(self):
        counts = self.counts

        def count(key, size):
            def hook(result):
                counts[key] += size(result)
            return hook
        return {
            "polyhedra.from_generators":
                lambda cone: self.distinct.add(cone.canonical_key()),
            "polyhedra.affine_feasible":
                count("polyhedra.affine_feasible.feasible", bool),
            "fundthm.trop_hypersurface":
                count("fundthm.trop_hypersurface.cells",
                      lambda cx: len(cx.cells)),
            "troposphere.tropicalize":
                count("troposphere.strata", lambda t: len(t.strata)),
            "grobtrop.compare":
                count("grobtrop.compare.strata_checked",
                      lambda r: r.strata_checked),
        }

    # -- results -----------------------------------------------------------

    def aggregate(self, factors=None) -> dict[str, dict[str, float]]:
        """Per prefix: calls, inclusive seconds and self seconds.

        Inclusive time skips spans nested inside a span of the same prefix,
        so recursion is not counted twice; self time is a span's duration
        minus that of its direct children.  With ``factors``, each span's
        duration is scaled by the speed factor of its job.
        """
        spans = self.spans
        duration = [(end - start) * (factors[job] if factors else 1.0)
                    for _, job, _, start, end in spans]
        child_time = [0.0] * len(spans)
        for i, (_, _, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += duration[i]
        stats = {p: {"calls": 0, "s": 0.0, "self_s": 0.0} for p in self.names}
        for i, (name, _, parent, _, _) in enumerate(spans):
            entry = stats[self.names[name]]
            entry["calls"] += 1
            entry["self_s"] += duration[i] - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][2]
            if p < 0:
                entry["s"] += duration[i]
        for prefix, n in self.counts.items():
            if prefix in COUNTED:
                stats[prefix] = {"calls": n}
        return stats

    def metrics(self, factors, overhead_ratio: float) -> dict[str, float]:
        """The per-layer metrics, times scaled by the jobs' speed factors."""
        stats = self.aggregate(factors)
        values = {}
        for prefix, entry in stats.items():
            for key, value in entry.items():
                values[f"{prefix}.{key}"] = value
        calls = stats["polyhedra.from_generators"]["calls"]
        values["polyhedra.from_generators.distinct"] = len(self.distinct)
        values["polyhedra.from_generators.distinct_ratio"] = (
            len(self.distinct) / calls if calls else 0.0)
        fm_calls = stats["polyhedra.affine_feasible"]["calls"]
        values["polyhedra.affine_feasible.feasible_ratio"] = (
            self.counts["polyhedra.affine_feasible.feasible"] / fm_calls
            if fm_calls else 0.0)
        for key in ("fundthm.trop_hypersurface.cells", "troposphere.strata",
                    "grobtrop.compare.strata_checked"):
            values[key] = self.counts[key]
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: values[name] for name, _ in METRICS}

    def guard(self, workload: str) -> list[str]:
        """Boundaries whose call counts contradict the prediction."""
        stats = self.aggregate()
        problems = []
        for prefix, workloads in EXERCISED_BY.items():
            if workload in workloads and stats[prefix]["calls"] == 0:
                problems.append(f"{prefix} was never called")
        for prefix in BYPASSED_BY.get(workload, []):
            if stats[prefix]["calls"] != 0:
                problems.append(f"{prefix} was called "
                                f"{stats[prefix]['calls']} times")
        return problems

    def write(self, path: str, labels: list[str], factors: list[float]):
        """Spans as [name index, job, parent, start, end], raw times in
        microseconds from the first span, with each job's speed factor."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "jobs": labels,
                "speed_factors": factors,
                "counts": dict(self.counts),
                "spans": [[n, j, p, round((s - t0) * 1e6), round((e - t0) * 1e6)]
                          for n, j, p, s, e in self.spans],
            }, fh, separators=(",", ":"))
