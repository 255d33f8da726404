"""Command-line surface.

Verbs: ``build``, ``cayley``, ``factorize``, ``d``, ``verify``,
``enumerate``, ``golden``, ``verify-rep``.  JSON output is byte-identical
for a fixed seed and inputs; table output rounds to 12 significant digits.

Exit codes: 0 success / all checks pass, 1 usage or parse errors,
2 check failures (with a machine-readable report on stdout).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import golden as golden_mod
from .bruhat import ROUTES, NonGenericError, check_draw, cross_check, ldu, max_cross_gap, run_route
from .cayley import cayley
from .components import enumerate_components, limit_check
from .linalg import matrix_from_json, matrix_to_json
from .repcompat import verify_conjugacy
from .spaces import (
    FAMILIES,
    FAMILY,
    SpaceSpec,
    ViolationReport,
    build_tangent,
    coordinates_from_json,
    coordinates_from_payload,
    spec_from_family,
)

class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with status 1 on usage errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(kind: type, holds, what: str):
    """An argparse ``type`` that parses ``kind`` and refuses values for which
    ``holds`` is false, so the usage error names the flag."""
    def parse(text: str):
        try:
            value = kind(text)
            if holds(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


#: Check tolerance of ``verify`` and ``d --method all`` without ``--tol``.
_DEFAULT_TOL = 1e-9
_COUNT = _checked(int, lambda v: v >= 1, "an integer of at least 1")
_SEED = _checked(int, lambda v: v >= 0, "a non-negative integer")
_TOL = _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "a finite number >= 0")
_RADIUS = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "a finite number > 0")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bruhatdiag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")

    def add_seed(p):
        p.add_argument("--seed", type=_SEED, default=0)

    def add_space(p):
        p.add_argument("--family", choices=FAMILIES)
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--p", type=int)
        p.add_argument("--q", type=int)

    p = sub.add_parser("build", help="assemble a tangent matrix from a payload")
    add_common(p), add_space(p)
    p.add_argument("--payload", required=True, help="inline JSON or @file")

    p = sub.add_parser("cayley", help="map a tangent matrix to the group")
    add_common(p), add_space(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--payload", help="inline JSON or @file")
    source.add_argument("--matrix", help="tangent matrix as JSON or @file")

    p = sub.add_parser("factorize", help="unpivoted LDU of a square matrix")
    add_common(p)
    p.add_argument("--matrix", required=True, help="matrix as JSON or @file")

    p = sub.add_parser("d", help="diagonal factor of the Cayley image")
    add_common(p), add_space(p)
    p.add_argument("--tol", type=_TOL, help='check tolerance of "--method all" (default 1e-9)')
    p.add_argument("--payload", required=True, help="inline JSON or @file")
    p.add_argument("--method", choices=(*ROUTES, "all"), default="cayley_det")

    p = sub.add_parser("verify", help="cross-check all routes on random draws")
    add_common(p), add_space(p), add_seed(p)
    p.add_argument("--tol", type=_TOL, default=_DEFAULT_TOL, help="check tolerance (default 1e-9)")
    p.add_argument("--draws", type=_COUNT, default=100)
    p.add_argument("--radius", type=_RADIUS, default=0.7)

    p = sub.add_parser("enumerate", help="component representatives")
    add_common(p), add_space(p)
    p.add_argument("--check-limits", action="store_true")

    p = sub.add_parser("golden", help="closed-form fixture suites")
    add_common(p), add_seed(p)
    p.add_argument("--suite", default="all",
                   help=f"one of {golden_mod.suite_names()} or 'all'")
    p.add_argument("--draws", type=_COUNT, default=golden_mod.GOLDEN_DRAWS)

    p = sub.add_parser("verify-rep", help="representation conjugacy checks")
    add_common(p), add_seed(p)
    p.add_argument("--n", type=_COUNT, required=True)
    p.add_argument("--samples", type=_COUNT, default=100)

    return parser


_DIMENSIONS = ("m", "n", "p", "q")


def _dimension_flags(args, family) -> dict:
    """The dimension flags given; with a ``family``, one it does not take
    is refused."""
    flags = {k: getattr(args, k) for k in _DIMENSIONS if getattr(args, k) is not None}
    for name in flags:
        if family and name not in FAMILY[family].params:
            raise ValueError(f'family {family} takes no flag "--{name}"')
    return flags


def _refuse_space_flags(args, why: str) -> None:
    for name in ("family",) + _DIMENSIONS:
        if getattr(args, name) is not None:
            raise ValueError(f'flag "--{name}" is not read {why}')


def _spec_from_args(args) -> SpaceSpec:
    if not args.family:
        raise ValueError('missing required flag "--family"')
    params = _dimension_flags(args, args.family)
    for name in FAMILY[args.family].params:
        if name not in params:
            raise ValueError(f'family {args.family} requires flag "--{name}"')
    return spec_from_family(args.family, **params)


def _load_json_arg(text: str, what: str):
    raw = text
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {what} file {text[1:]!r}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f'malformed JSON in "{what}": {exc}') from exc


def _tangent_from_args(args) -> tuple[SpaceSpec, np.ndarray]:
    obj = _load_json_arg(args.payload, "--payload")
    if isinstance(obj, dict) and "payload" in obj:
        _refuse_space_flags(args, "with a coordinates object, which names its own space")
        spec, coords = coordinates_from_json(obj)
    else:
        spec = _spec_from_args(args)
        coords = coordinates_from_payload(spec, obj)
    return spec, build_tangent(spec, coords)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt(z.real)
    return f"{_fmt(z.real)}{'-' if z.imag < 0 else '+'}{_fmt(abs(z.imag))}i"


def _emit(obj, fmt: str, table_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for line in table_lines:
            print(line)


def _matrix_table(A) -> list[str]:
    return ["  ".join(_fmt_complex(z) for z in row) for row in np.asarray(A)]


def _report_json(fields: dict, report: ViolationReport, tol_key: str = "tol") -> dict:
    """``fields`` with the report's worst values, its tolerance under
    ``tol_key`` and its verdict under ``"ok"``."""
    return {**fields, **report.violations, tol_key: report.tolerance, "ok": report.ok}


def _cmd_build(args) -> int:
    spec, X = _tangent_from_args(args)
    _emit(matrix_to_json(X), args.format, _matrix_table(X))
    return 0


def _cmd_cayley(args) -> int:
    if args.payload is not None:
        _, X = _tangent_from_args(args)
    else:
        _refuse_space_flags(args, 'with "--matrix"')
        X = matrix_from_json(_load_json_arg(args.matrix, "--matrix"))
    g = cayley(X)
    _emit(matrix_to_json(g), args.format, _matrix_table(g))
    return 0


def _cmd_factorize(args) -> int:
    g = matrix_from_json(_load_json_arg(args.matrix, "--matrix"))
    fac = ldu(g)
    obj = {"L": matrix_to_json(fac.L), "D": matrix_to_json(fac.D),
           "U": matrix_to_json(fac.U)}
    lines = (["L:"] + _matrix_table(fac.L) + ["D:"] + _matrix_table(fac.D)
             + ["U:"] + _matrix_table(fac.U))
    _emit(obj, args.format, lines)
    return 0


def _cmd_d(args) -> int:
    if args.method != "all" and args.tol is not None:
        raise ValueError('flag "--tol" is not read without "--method all"')
    spec, X = _tangent_from_args(args)
    if args.method == "all":
        reports = cross_check(X, spec)
        tol = _DEFAULT_TOL if args.tol is None else args.tol
        verdict = ViolationReport({"max_gap": max_cross_gap(reports)}, tol)
        lines = [f"{k}: " + "  ".join(_fmt_complex(z) for z in r.entries)
                 for k, r in sorted(reports.items())]
        lines.append(f"max gap {_fmt(verdict.violations['max_gap'])}  "
                     f"({'OK' if verdict.ok else 'FAIL'})")
        _emit(_report_json({"reports": {k: r.to_json_dict() for k, r in reports.items()}},
                           verdict), args.format, lines)
        return 0 if verdict.ok else 2
    report = run_route(args.method, X, spec)
    lines = ["  ".join(_fmt_complex(z) for z in report.entries)]
    _emit(report.to_json_dict(), args.format, lines)
    return 0


def _cmd_verify(args) -> int:
    """One report per family (every family without ``--family``); each
    starts from its defaults and takes the dimension flags given that it
    reads."""
    families = [args.family] if args.family else list(FAMILIES)
    flags = _dimension_flags(args, args.family)
    results = []
    for family in families:
        params = {**FAMILY[family].defaults,
                  **{k: v for k, v in flags.items() if k in FAMILY[family].params}}
        spec = spec_from_family(family, **params)
        rng = np.random.default_rng(args.seed)
        worst = [0.0, 0.0, 0.0]
        for _ in range(args.draws):
            draw = check_draw(spec, rng, args.radius)
            seen = (draw.gap, draw.membership, draw.reports["cayley_det"].lemma3_residual)
            worst = [max(w, v) for w, v in zip(worst, seen)]
        report = ViolationReport(dict(zip(("max_route_gap", "max_membership_violation",
                                           "max_minor_identity_residual"), worst)), args.tol)
        results.append(_report_json({"family": family, "params": spec.params_dict(),
                                     "draws": args.draws}, report))
    all_ok = all(r["ok"] for r in results)
    lines = [
        f"{r['family']:<11} gap={_fmt(r['max_route_gap'])} member="
        f"{_fmt(r['max_membership_violation'])} minors="
        f"{_fmt(r['max_minor_identity_residual'])} "
        f"{'OK' if r['ok'] else 'FAIL'}"
        for r in results
    ]
    _emit({"results": results, "ok": all_ok}, args.format, lines)
    return 0 if all_ok else 2


def _cmd_enumerate(args) -> int:
    spec = _spec_from_args(args)
    reps = enumerate_components(spec)
    items = []
    all_converged = True
    lines = []
    for rep in reps:
        entry = {"signs": rep.label(), "alpha": list(rep.alpha)}
        line = rep.label()
        if args.check_limits:
            lr = limit_check(rep)
            entry["deviations"] = lr.deviations
            entry["converged"] = lr.converged
            all_converged &= lr.converged
            last = lr.deviations[-1]
            line += "  final_dev=" + (
                "n/a" if last is None else _fmt(last)
            ) + ("  converged" if lr.converged else "  NOT-CONVERGED")
        items.append(entry)
        lines.append(line)
    obj = {"family": spec.family, "params": spec.params_dict(),
           "count": len(reps), "components": items}
    if args.check_limits:
        obj["all_converged"] = all_converged
    _emit(obj, args.format, lines)
    return 0 if (not args.check_limits or all_converged) else 2


def _cmd_golden(args) -> int:
    if args.suite != "all" and args.suite not in golden_mod.suite_names():
        raise ValueError(f'unknown suite {args.suite!r} for "--suite"; choose from '
                         f"{golden_mod.suite_names()} or 'all'")
    names = golden_mod.suite_names() if args.suite == "all" else (args.suite,)
    reports = {name: golden_mod.run_suite(name, draws=args.draws, seed=args.seed)
               for name in names}
    ok = all(r.ok for r in reports.values())
    lines = [f"{name:<8} max_dev={_fmt(r.violations['max_deviation'])} "
             f"tol={_fmt(r.tolerance)}  {'PASS' if r.ok else 'FAIL'}"
             for name, r in reports.items()]
    results = [_report_json({"suite": name, "draws": args.draws}, r, "tolerance")
               for name, r in reports.items()]
    _emit({"results": results, "ok": ok}, args.format, lines)
    return 0 if ok else 2


def _cmd_verify_rep(args) -> int:
    report = verify_conjugacy(args.n, samples=args.samples,
                              rng=np.random.default_rng(args.seed))
    v = report.violations
    lines = [f"n={args.n} orth={_fmt(v['max_orthogonal_dev'])} "
             f"fixed={_fmt(v['max_orthogonal_fixed_dev'])} "
             f"sympl={_fmt(v['max_symplectic_dev'])} {'OK' if report.ok else 'FAIL'}"]
    _emit(_report_json({"n": args.n, "samples": args.samples}, report, "tolerance"),
          args.format, lines)
    return 0 if report.ok else 2


_COMMANDS = {
    "build": _cmd_build,
    "cayley": _cmd_cayley,
    "factorize": _cmd_factorize,
    "d": _cmd_d,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "golden": _cmd_golden,
    "verify-rep": _cmd_verify_rep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NonGenericError as exc:
        print(json.dumps({"error": {
            "kind": "non_generic", "index": exc.index,
            "magnitude": exc.magnitude, "route": exc.route,
        }, "ok": False}, sort_keys=True, indent=2))
        return 2
    except ValueError as exc:
        print(f"bruhatdiag: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
