"""The three benchmark workloads: seeded inputs, job lists and reference checks.

A workload is built from the imported library (``lib``, a namespace of the
``sphtrop`` modules), a seed and a scratch directory.  It exposes ``jobs``, a
fixed list of ``Job``s that make up one pass.  Each job's ``run`` calls into
the library through the workload's ``lib`` attribute and returns its raw
result; the inputs hold no library objects, so ``lib`` can be replaced by a
freshly imported copy between passes.  ``check`` compares that result with a
reference that does not come from the code under test and returns ``None`` or
a one-line description of the mismatch; ``digest`` condenses the result so a
traced pass can be compared with an untraced one.

The reference checks use ``rank`` below, an elimination written here rather
than taken from ``sphtrop.linalg``.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_FILE = os.path.join(HERE, "cli_digests.json")


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    digest: Callable[[Any], str]


def sha256(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def rank(rows) -> int:
    """Rank of a rational matrix by plain Gaussian elimination."""
    mat = [[F(x) for x in r] for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][c] != 0:
                q = mat[i][c] / mat[r][c]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def strata_shapes(trop_json: dict) -> list:
    return sorted(((s["quotient_dim"], tuple(s["colors"]))
                   for s in trop_json["strata"]), reverse=True)


# -- cli_corpus ------------------------------------------------------------

# Witness points of acceptance criterion 9, as CLI text.
WITNESSES = [
    ("x1 + x2 + 1", "t; -1 - t"),
    ("x1 + x2 + 1", "-1 - t^2; t^2"),
    ("x1*x2 - 1", "t; t^-1"),
    ("x1 - x2", "1 + t; 1 + t"),
    ("x1^2 - x2", "t; t^2"),
    ("x1^2 - x2", "1 + t; 1 + 2*t + t^2"),
    ("x1 + x2 + t", "t; -2*t"),
    ("2*x1 + 3*x2", "3; -2"),
    ("x1*x2 + x1 + x2 + 1", "-1; 5"),
    ("x1^3 - t", "t^(1/3)"),
]

# Values of the worked polynomial at (-2, 0), from acceptance criterion 3.
E3_TROP_AT_W1 = "-4\n"
E3_INIT_AT_W1 = "-6*x1^2 + 4*x1*x2\n"

RANDOM_FANS_PER_RANK = 3
# Rays of each random fan's maximal cone, by rank: a ray (the fan is the ray
# and the origin) in ranks 1 and 3, two rays (a two-dimensional cone and its
# faces) in rank 2.  The shape is fixed because a rank-3 fan of the family
# can have up to 11 cones and a trop job of up to 720 ms, which would make
# the pass time depend on the seed.
RANDOM_FAN_RAYS = {1: 1, 2: 2, 3: 1}


def _nonzero(rng, m):
    v = [rng.randint(-2, 2) for _ in range(m)]
    if not any(v):
        v[rng.randrange(m)] = rng.choice((-1, 1))
    return tuple(v)


def random_valid_fan(lib, rng, m, nrays):
    """One valid colored fan of rank m from the criterion-6 family (up to
    three colors, random valuation cone): a simplicial cone on ``nrays``
    rays and all its faces.  Returns the datum, the fan and the strata
    shapes the fan must give.

    The fan is built valid rather than sampled until valid, so making it
    costs about the same for every seed.  The valuation cone is spanned by
    the rays and up to m random vectors, so every face's relative interior
    meets it.  A color goes on the cone only when its image is a positive
    multiple of one of the rays, and then on exactly the faces that hold
    that ray."""
    sp, Cone = lib.spherical, lib.polyhedra.Cone
    rays = [_nonzero(rng, m)]
    if nrays == 2:
        assert m == 2
        b = _nonzero(rng, m)
        rays.append(b if rank([rays[0], b]) == 2
                    else (-rays[0][1], rays[0][0]))
    palette, on_ray = [], {}
    for i in range(rng.randint(0, 3)):
        name = f"D{i}"
        if rng.random() < 0.5:
            j, c = rng.randrange(nrays), rng.randint(1, 2)
            palette.append(sp.Color(name, tuple(c * x for x in rays[j])))
            if rng.random() < 0.6:
                on_ray[name] = j
        else:
            palette.append(sp.Color(name, _nonzero(rng, m)))
    extra = [_nonzero(rng, m) for _ in range(rng.randint(0, m))]
    datum = sp.SphericalDatum(m, Cone.from_generators(rays + extra, m),
                              tuple(palette))
    members, shapes = [], []
    for size in range(nrays + 1):
        for face in itertools.combinations(range(nrays), size):
            colors = frozenset(c for c, j in on_ray.items() if j in face)
            members.append(sp.ColoredCone(
                Cone.from_generators([rays[j] for j in face], m), colors))
            shapes.append((m - size, tuple(sorted(colors))))
    return datum, sp.ColoredFan(tuple(members)), sorted(shapes, reverse=True)


class CliCorpus:
    """In-process ``sphtrop.cli.main`` calls on the builtin corpus and on
    seeded random valid fans written to JSON."""

    name = "cli_corpus"

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.workdir = workdir
        self.digests = {"stdout": {}, "files": {}}
        if os.path.exists(DIGESTS_FILE):
            with open(DIGESTS_FILE) as fh:
                self.digests = json.load(fh)
        rng = random.Random(seed)
        random_cases = []
        for m in (1, 2, 3):
            for i in range(RANDOM_FANS_PER_RANK):
                datum, fan, shapes = random_valid_fan(lib, rng, m,
                                                      RANDOM_FAN_RAYS[m])
                stem = f"rand{m}-{i}"
                self._write(f"{stem}.datum.json",
                            lib.jsonio.datum_to_json(datum))
                self._write(f"{stem}.fan.json", lib.jsonio.fan_to_json(fan))
                random_cases.append((stem, shapes))
        self.builtin = self._builtin_jobs()
        self.jobs = self.builtin + self._random_jobs(random_cases)

    def _write(self, name: str, payload: dict):
        with open(os.path.join(self.workdir, name), "w") as fh:
            fh.write(self.lib.jsonio.dumps(payload))

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.lib.cli.main(argv)
            except SystemExit as e:
                rc = e.code
        return rc, out.getvalue()

    def _job(self, argv, want_rc=0, extra: Callable[[str], str | None]
             = lambda out: None, recorded=True) -> Job:
        label = " ".join(argv)

        def check(result):
            rc, out = result
            if rc != want_rc:
                return f"exit code {rc}, expected {want_rc}"
            if recorded and sha256(out) != self.digests["stdout"].get(label):
                return "stdout differs from the recorded digest"
            return extra(out)
        return Job(label, lambda: self._call(argv), check,
                   lambda result: sha256(f"{result[0]}\n{result[1]}"))

    def _written_digests(self, out: str) -> dict[str, str]:
        """Digest of each file that an ``examples`` command printed."""
        digests = {}
        for line in out.splitlines():
            name = os.path.basename(line)
            with open(os.path.join(self.workdir, name), "rb") as fh:
                digests[name] = sha256(fh.read())
        return digests

    def _files_check(self, out: str) -> str | None:
        for name, digest in self._written_digests(out).items():
            if digest != self.digests["files"].get(name):
                return f"{name} differs from the recorded digest"
        return None

    @staticmethod
    def _shapes_check(expected):
        def check(out):
            got = strata_shapes(json.loads(out))
            return None if got == expected else f"strata shapes {got}"
        return check

    @staticmethod
    def _field_check(key, want):
        def check(out):
            got = json.loads(out)[key]
            return None if got == want else f"{key} is {got!r}"
        return check

    def _builtin_jobs(self) -> list[Job]:
        expected = {}
        for name, _, _, shapes in self.lib.examples.all_fans():
            stem = name.replace("/", ".")
            if stem == "p1xp1":
                pair = ("p1xp1.datum.json", "p1xp1.fan.json")
            else:
                table = stem.split(".")[0]
                pair = (f"{table}.datum.json", f"{stem}.fan.json")
            expected[stem] = (pair, sorted(
                ((d, tuple(c)) for d, c in shapes), reverse=True))
        expected["blowup-a4"] = (("blowup-a4.datum.json",
                                  "blowup-a4.fan.json"),
                                 expected["table2.Bl0A4"][1])

        jobs = [self._job(["examples", n, "--out", "."],
                          extra=self._files_check)
                for n in ("table1", "table2", "blowup-a4", "p1xp1", "e3")]
        for stem, ((datum, fan), shapes) in expected.items():
            jobs.append(self._job(
                ["validate", "--datum", datum, "--fan", fan],
                extra=self._field_check("ok", True)))
            jobs.append(self._job(
                ["trop", "--datum", datum, "--fan", fan, "--mode", "both"],
                extra=self._shapes_check(shapes)))
        jobs.append(self._job(["compare", "blowup-a4.trop.json",
                               "table2.Bl0A4.trop.json"],
                              extra=self._field_check("equal", True)))
        jobs.append(self._job(["compare", "table2.A4.trop.json",
                               "table2.P4.trop.json"], want_rc=1,
                              extra=self._field_check("equal", False)))
        # ASCII renders of rank-2 strata are the slowest jobs; the second
        # extent doubles them so job_p90_ms falls inside that group.
        for stem in expected:
            render = ["render", "--trop", f"{stem}.trop.json", "--format"]
            jobs.append(self._job(render + ["ascii"]))
            jobs.append(self._job(render + ["ascii", "--extent", "3"]))
            jobs.append(self._job(render + ["svg"]))

        def equals(want):
            return lambda out: None if out == want else f"printed {out!r}"
        jobs.append(self._job(["poly", "trop", "--poly", "e3.poly.json",
                               "--weight", "(-2,0)"],
                              extra=equals(E3_TROP_AT_W1)))
        jobs.append(self._job(["poly", "init", "--poly", "e3.poly.json",
                               "--weight", "(-2,0)"],
                              extra=equals(E3_INIT_AT_W1)))
        jobs.append(self._job(["poly", "hypersurface", "--poly",
                               "e3.poly.json"]))
        for poly, witness in WITNESSES:
            jobs.append(self._job(["ftt", "--poly", poly, "--witness",
                                   witness],
                                  extra=self._field_check("ok", True)))
        return jobs

    def _random_jobs(self, cases) -> list[Job]:
        jobs = []
        for stem, shapes in cases:
            pair = ["--datum", f"{stem}.datum.json",
                    "--fan", f"{stem}.fan.json"]
            jobs.append(self._job(["validate"] + pair, recorded=False,
                                  extra=self._field_check("ok", True)))

            def check_trop(out, shapes=shapes):
                data = json.loads(out)
                if not data["comparison"]["equal"]:
                    return "face-wise and Groebner routes differ"
                got = strata_shapes(data)
                return None if got == shapes else f"strata shapes {got}"
            jobs.append(self._job(["trop"] + pair + ["--mode", "both"],
                                  recorded=False, extra=check_trop))
        return jobs

    def builtin_outputs(self) -> dict:
        """Digests of the builtin corpus outputs, as stored in the digest file."""
        stdout, files = {}, {}
        for job in self.builtin:
            rc, out = job.run()
            stdout[job.label] = sha256(out)
            if job.label.startswith("examples"):
                files.update(self._written_digests(out))
        return {"stdout": stdout, "files": files}


# -- toric_arrangement ------------------------------------------------------

# (rank m, hyperplanes k, fans per pass).  Hyperplanes are in general
# position, so every fan of one class has the same number of cones.  The
# classes' costs barely overlap, so job_p50_ms falls inside the (2, 2) class
# and job_p90_ms in the middle of the (2, 3) class.  Rank 3 with two or
# three hyperplanes (0.7 to 5 s per fan) does not fit a pass that runs
# several times in run_seconds.
TORIC_CLASSES = [(2, 1, 8), (3, 1, 8), (2, 2, 14), (2, 3, 9)]


def _general_position(normals, m) -> bool:
    if len(normals) <= m:
        return rank(normals) == len(normals)
    return all(rank(pair) == 2 for pair in itertools.combinations(normals, 2))


def _expected_cone_count(m, k) -> int:
    """Faces of a central arrangement of k hyperplanes in general position."""
    if k <= m:
        return 3 ** k
    assert m == 2
    return 4 * k + 1


class ToricArrangement:
    """Complete fans cut out by seeded hyperplanes, empty palette, valuation
    cone the whole space; each job builds the fan and runs both routes."""

    name = "toric_arrangement"

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        rng = random.Random(seed)
        self.jobs = []
        for m, k, count in TORIC_CLASSES:
            for i in range(count):
                while True:
                    normals = [tuple(rng.randint(-2, 2) for _ in range(m))
                               for _ in range(k)]
                    if all(any(h) for h in normals) and \
                            _general_position(normals, m):
                        break
                self.jobs.append(Job(
                    f"m={m} k={k} #{i} normals={normals}",
                    lambda m=m, n=normals: self._run(m, n),
                    lambda r, m=m, k=k: self._check(r, m, k),
                    self._digest))

    def _run(self, m, normals):
        lib = self.lib
        Cone = lib.polyhedra.Cone
        cones = {}
        for signs in itertools.product((-1, 0, 1), repeat=len(normals)):
            ineqs = []
            for s, h in zip(signs, normals):
                if s == 0:
                    ineqs += [h, tuple(-x for x in h)]
                else:
                    ineqs.append(tuple(s * x for x in h))
            cone = Cone.from_inequalities(ineqs, m)
            cones.setdefault(cone.canonical_key(), cone)
        sp = lib.spherical
        datum = sp.SphericalDatum(m, Cone.full_space(m), ())
        fan = sp.ColoredFan(tuple(sp.ColoredCone(c) for c in cones.values()))
        report = sp.validate_colored_fan(datum, fan)
        facewise = lib.troposphere.tropicalize_embedding(datum, fan)
        grobner = lib.grobtrop.grobner_tropicalize_embedding(datum, fan)
        comparison = lib.grobtrop.compare_tropicalizations(facewise, grobner)
        return list(cones.values()), report, facewise, grobner, comparison

    @staticmethod
    def _check(result, m, k):
        """Classical toric oracle: one stratum per cone, the full quotient
        space N_Q / span(cone), no labels."""
        members, report, facewise, grobner, comparison = result
        if len(members) != _expected_cone_count(m, k):
            return f"{len(members)} cones, expected {_expected_cone_count(m, k)}"
        if not report.ok:
            return f"fan rejected: {report.failures}"
        if not comparison.equal:
            return "face-wise and Groebner routes differ"
        for route, trop in (("face-wise", facewise), ("Groebner", grobner)):
            by_face = {s.face.cone.canonical_key(): s
                       for s in trop.strata.values()}
            if len(trop.strata) != len(members):
                return f"{route}: {len(trop.strata)} strata"
            for cone in members:
                s = by_face.get(cone.canonical_key())
                qdim = m - rank(cone.generators)
                if s is None or s.quotient_dim != qdim or s.labels:
                    return f"{route}: wrong stratum for {cone.rays}"
                image = s.valuation_cone_image
                if image.rays or rank(image.lineality or [[0] * qdim]) != qdim:
                    return f"{route}: image is not the full quotient space"
        return None

    @staticmethod
    def _digest(result):
        _, report, facewise, grobner, comparison = result
        rows = [report.ok, comparison.equal]
        for trop in (facewise, grobner):
            rows.append(sorted(
                (repr(k), s.quotient_dim, sorted(s.labels),
                 repr(s.valuation_cone_image.canonical_key()),
                 sorted(map(repr, trop.adjacency.get(k, ()))))
                for k, s in trop.strata.items()))
        return sha256(repr(rows))


# -- hypersurface -----------------------------------------------------------

# (variables, terms, exponent bound, polynomials per pass).  Three cost
# groups that barely overlap: job_p50_ms falls inside the (4, 6) group and
# job_p90_ms in the middle of the (2, 10) + (3, 9) group.  Larger sizes are
# left out because Fourier-Motzkin cost explodes with them (3 variables and
# 12 terms take 0.5 to 1.1 s, 14 terms 6 s).
HYPERSURFACE_CLASSES = [(2, 6, 3, 16), (3, 6, 2, 16), (4, 6, 2, 28),
                        (2, 10, 3, 10), (3, 9, 2, 10)]


def _random_polynomial_text(rng, m, nterms, degree) -> str:
    monomials = set()
    while len(monomials) < nterms:
        monomials.add(tuple(rng.randint(0, degree) for _ in range(m)))
    terms = []
    for u in sorted(monomials):
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        exponent = F(rng.randint(-4, 4), rng.choice((1, 2)))
        text = f"{coeff}*t^({exponent})"
        text += "".join(f"*x{i + 1}^{a}" for i, a in enumerate(u) if a)
        terms.append(text)
    return " + ".join(terms)


class Hypersurface:
    """Seeded ordinary polynomials through the fundamental-theorem checks."""

    name = "hypersurface"

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        rng = random.Random(seed)
        self.jobs = []
        for m, nterms, degree, count in HYPERSURFACE_CLASSES:
            for i in range(count):
                text = _random_polynomial_text(rng, m, nterms, degree)
                finite = tuple(F(rng.randint(-4, 4), 2) for _ in range(m))
                samples = [finite]
                for n_inf in (1, m - 1):
                    w = list(finite)
                    for j in rng.sample(range(m), n_inf):
                        w[j] = None  # inf, filled in by the job
                    samples.append(tuple(w))
                self.jobs.append(Job(
                    f"m={m} terms={nterms} #{i}",
                    lambda t=text, s=samples, m=m: self._run(t, s, m),
                    lambda r, n=nterms: self._check(r, n),
                    self._digest))

    def _run(self, text, samples, m):
        lib = self.lib
        fundthm = lib.fundthm
        f = lib.puiseux.ValuedPolynomial.parse(text, nvars=m, laurent=False)
        samples = [tuple(lib.puiseux.INF if x is None else x for x in w)
                   for w in samples]
        cx = fundthm.trop_hypersurface(f)
        orbits = fundthm.extended_trop_sets(f)
        report = fundthm.check_equivalence(f, samples)
        grid = [(cx.contains(w), fundthm.membership_set2(f, w))
                for w in itertools.product((F(-1), F(0), F(1)), repeat=m)]
        return f, cx, orbits, report, grid

    @staticmethod
    def _check(result, nterms):
        f, cx, orbits, report, grid = result
        if len(f.terms) != nterms:
            return f"parsed {len(f.terms)} terms"
        if not report.ok:
            return "fundamental-theorem sets disagree on a sample weight"
        if any(a != b for a, b in grid):
            return "complex and initial-form criterion disagree on the grid"
        return None

    @staticmethod
    def _digest(result):
        f, cx, orbits, report, grid = result
        rows = [cx.cells, sorted((sorted(k), v.cells)
                                 for k, v in orbits.items()),
                json.dumps(report.to_json(), sort_keys=True), grid]
        return sha256(repr(rows))


WORKLOADS = {w.name: w for w in (CliCorpus, ToricArrangement, Hypersurface)}
