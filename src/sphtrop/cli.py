"""Command-line interface.

Subcommands: validate, trop, compare, poly, ftt, examples, render.
Exit codes: 0 success, 1 domain failure (invalid fan, mismatch, nonmember),
2 input error (unreadable file, malformed JSON or polynomial text).  ``main``
maps errors to them in one place: a ``DomainError`` exits 1, any other
``ValueError`` (``InputError`` among them) exits 2, each with one line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import examples as ex
from . import jsonio
from .fundthm import (
    WitnessPoint,
    check_equivalence,
    trop_hypersurface,
)
from .grobtrop import compare_tropicalizations, grobner_tropicalize_embedding
from .linalg import InputError, rational_from_input
from .puiseux import PuiseuxScalar, ValuedPolynomial, parse_weight
from .render import render_ascii, render_svg
from .spherical import validate_colored_fan
from .troposphere import tropicalize_embedding


class DomainError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeError) as e:
        raise InputError(f"cannot read {path}: {e}")


def _write(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}")


def _decoded(what: str, build, *args, **kwargs):
    """build(*args), an error in it reported under `what`; the arguments,
    files already read and decoded, keep their own errors."""
    try:
        return build(*args, **kwargs)
    except (KeyError, ValueError, TypeError, RecursionError) as e:
        raise InputError(f"{what}: {e}")


def _load_json(path: str) -> dict:
    return _decoded(f"malformed JSON in {path}", json.loads, _read(path))


def _load_pair(args):
    return _decoded("bad datum/fan structure", jsonio.pair_from_json,
                    _load_json(args.datum), _load_json(args.fan))


def _load_poly(source: str, laurent: bool) -> ValuedPolynomial:
    if source.endswith(".json"):
        return _decoded("cannot parse polynomial",
                        jsonio.polynomial_from_json, _load_json(source))
    text = _read(source) if os.path.exists(source) else source
    return _decoded("cannot parse polynomial", ValuedPolynomial.parse, text,
                    laurent=laurent)


def _load_trop(path: str):
    return _decoded("bad tropicalization file", jsonio.trop_from_json,
                    _load_json(path))


def _emit(text: str, out: str | None):
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    datum, fan = _load_pair(args)
    report = validate_colored_fan(datum, fan)
    _emit(jsonio.dumps(report.to_json()), args.out)
    return 0 if report.ok else 1


def _tropicalize(datum, fan, mode: str):
    try:
        if mode == "grobner":
            return grobner_tropicalize_embedding(datum, fan), None
        facewise = tropicalize_embedding(datum, fan)
        if mode == "facewise":
            return facewise, None
        grobner = grobner_tropicalize_embedding(datum, fan)
        return facewise, compare_tropicalizations(facewise, grobner)
    except ValueError as e:
        raise DomainError(str(e))


def cmd_trop(args) -> int:
    datum, fan = _load_pair(args)
    trop, comparison = _tropicalize(datum, fan, args.mode)
    payload = jsonio.trop_to_json(trop)
    rc = 0
    if comparison is not None:
        payload["comparison"] = comparison.to_json()
        rc = 0 if comparison.equal else 1
    _emit(jsonio.dumps(payload), args.out)
    return rc


def cmd_compare(args) -> int:
    report = _decoded("bad tropicalization file", compare_tropicalizations,
                      _load_trop(args.left), _load_trop(args.right))
    _emit(jsonio.dumps(report.to_json()), args.out)
    return 0 if report.equal else 1


def cmd_poly(args) -> int:
    f = _load_poly(args.poly, laurent=not args.ordinary)
    if args.action == "hypersurface":
        cx = trop_hypersurface(f)
        _emit(jsonio.dumps(jsonio.complex_to_json(cx)), args.out)
        return 0
    if args.weight is None:
        raise InputError("--weight is required for this action")
    w = parse_weight(args.weight, f.nvars)
    value = f.trop_eval(w) if args.action == "trop" else f.initial_form(w)
    _emit(f"{value}\n", args.out)
    return 0


def cmd_ftt(args) -> int:
    f = _load_poly(args.poly, laurent=not args.ordinary)
    samples = [parse_weight(w, f.nvars) for w in args.weight or []]
    witnesses = [
        WitnessPoint(tuple(_parse_scalar(c) for c in wtext.split(";")))
        for wtext in args.witness or []]
    report = check_equivalence(f, samples, witnesses)
    _emit(jsonio.dumps(report.to_json()), args.out)
    return 0 if report.ok else 1


def _parse_scalar(text: str) -> PuiseuxScalar:
    terms = dict(ValuedPolynomial.parse(text, nvars=1, laurent=True).terms)
    if terms.keys() - {(0,)}:
        raise ValueError(f"witness coordinate is not a scalar: {text}")
    return terms.get((0,), PuiseuxScalar.zero())


def _embedding_files(name: str, datum, fans: dict):
    """The datum, then a fan file and a tropicalization file per fan suffix."""
    yield f"{name}.datum.json", jsonio.datum_to_json(datum)
    for suffix, fan in fans.items():
        yield f"{name}{suffix}.fan.json", jsonio.fan_to_json(fan)
        yield (f"{name}{suffix}.trop.json",
               jsonio.trop_to_json(tropicalize_embedding(datum, fan)))


def _table_files(name: str, datum, fans: dict):
    return _embedding_files(
        name, datum, {f".{f}": fan for f, (fan, _) in fans.items()})


def _pair_files(name: str, datum, fan):
    return _embedding_files(name, datum, {"": fan})


# Example name -> the (file name, JSON payload) pairs it writes, in order.
EXAMPLES = {
    "table1": lambda n: _table_files(n, ex.table1_datum(), ex.table1_fans()),
    "table2": lambda n: _table_files(n, ex.table2_datum(), ex.table2_fans()),
    "blowup-a4": lambda n: _pair_files(n, *ex.blowup_a4()),
    "p1xp1": lambda n: _pair_files(n, *ex.p1xp1()),
    "e3": lambda n: [(f"{n}.poly.json",
                      jsonio.polynomial_to_json(ex.e3_polynomial()))],
}


def cmd_examples(args) -> int:
    outdir = args.out or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot write {outdir}: {e}")
    for name, payload in EXAMPLES[args.name](args.name):
        path = os.path.join(outdir, name)
        _write(path, jsonio.dumps(payload))
        print(path)
    return 0


def cmd_render(args) -> int:
    # --extent is checked only: a figure is the same at every extent.
    try:
        extent = rational_from_input(args.extent)
    except InputError:
        extent = None
    if extent is None or extent <= 0:
        raise InputError(f"--extent must be a positive rational, "
                         f"got {args.extent!r}")
    trop = _load_trop(args.trop)
    try:
        figure = render_svg(trop) if args.format == "svg" else render_ascii(trop)
    except ValueError as e:
        raise DomainError(str(e))
    _emit(figure, args.out)
    return 0


# Built once per process: parse_args keeps no state in the parser and
# returns a fresh namespace on every call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sphtrop",
        description="Colored fans and extended tropicalization of "
                    "spherical embeddings, with exact arithmetic.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_pair(sp):
        sp.add_argument("--datum", required=True, help="datum JSON file")
        sp.add_argument("--fan", required=True, help="fan JSON file")
        sp.add_argument("--out", help="output file (default stdout)")

    sp = sub.add_parser("validate", help="check the colored-fan axioms")
    add_pair(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("trop", help="extended tropicalization of a fan")
    add_pair(sp)
    sp.add_argument("--mode", choices=["facewise", "grobner", "both"],
                    default="facewise")
    sp.set_defaults(func=cmd_trop)

    sp = sub.add_parser("compare", help="diff two tropicalization files")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("poly", help="tropical polynomial queries")
    sp.add_argument("action", choices=["trop", "init", "hypersurface"])
    sp.add_argument("--poly", required=True,
                    help="polynomial text, text file, or JSON file")
    sp.add_argument("--weight", help='weight vector, e.g. "(-2,0)" or "1,inf"')
    sp.add_argument("--ordinary", action="store_true",
                    help="restrict to nonnegative exponents")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_poly)

    sp = sub.add_parser("ftt", help="fundamental-theorem set comparison")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--weight", action="append",
                    help="sample weight (repeatable)")
    sp.add_argument("--witness", action="append",
                    help='witness point, coordinates separated by ";"')
    sp.add_argument("--ordinary", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_ftt)

    sp = sub.add_parser("examples", help="write the builtin corpus")
    sp.add_argument("name", choices=list(EXAMPLES))
    sp.add_argument("--out", help="output directory (default cwd)")
    sp.set_defaults(func=cmd_examples)

    sp = sub.add_parser("render", help="SVG or ASCII figure of a trop file")
    sp.add_argument("--trop", required=True)
    sp.add_argument("--format", choices=["svg", "ascii"], default="svg")
    sp.add_argument("--extent", default="2",
                    help="positive rational; the figure is the same at "
                         "every extent")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_render)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
