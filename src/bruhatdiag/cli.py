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
import sys

import numpy as np

from . import golden as golden_mod
from .bruhat import (
    NonGenericError,
    cross_check,
    diagonal_via_cayley,
    diagonal_via_coroots,
    diagonal_via_fredholm,
    diagonal_via_gauss,
    diagonal_via_minors,
    ldu,
    max_cross_gap,
)
from .cayley import cayley, verify_image
from .components import enumerate_components, limit_check
from .linalg import matrix_from_json, matrix_to_json
from .repcompat import verify_conjugacy
from .spaces import (
    FAMILIES,
    SpaceSpec,
    build_tangent,
    coordinates_from_json,
    coordinates_from_payload,
    random_coordinates,
    spec_from_family,
)

_FAMILY_PARAMS = {
    "AIII": ("m", "n"),
    "DIII": ("n",),
    "CI": ("n",),
    "CII": ("p", "q"),
    "BDI_even": ("p", "q"),
    "BDI_oddodd": ("p", "q"),
}

_ACCEPTED_METHODS = ("cayley_det", "gauss", "minor_ratio", "fredholm",
                     "coroot_product", "all")


class CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with status 1 on usage errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bruhatdiag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="check tolerance (default 1e-9)")
        p.add_argument("--seed", type=int, default=0)

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
    p.add_argument("--payload", help="inline JSON or @file")
    p.add_argument("--matrix", help="tangent matrix as JSON or @file")

    p = sub.add_parser("factorize", help="unpivoted LDU of a square matrix")
    add_common(p)
    p.add_argument("--matrix", required=True, help="matrix as JSON or @file")

    p = sub.add_parser("d", help="diagonal factor of the Cayley image")
    add_common(p), add_space(p)
    p.add_argument("--payload", required=True, help="inline JSON or @file")
    p.add_argument("--method", choices=_ACCEPTED_METHODS, default="cayley_det")

    p = sub.add_parser("verify", help="cross-check all routes on random draws")
    add_common(p), add_space(p)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--radius", type=float, default=0.7)

    p = sub.add_parser("enumerate", help="component representatives")
    add_common(p), add_space(p)
    p.add_argument("--check-limits", action="store_true")

    p = sub.add_parser("golden", help="closed-form fixture suites")
    add_common(p)
    p.add_argument("--suite", default="all",
                   help=f"one of {golden_mod.suite_names()} or 'all'")
    p.add_argument("--draws", type=int, default=golden_mod.GOLDEN_DRAWS)

    p = sub.add_parser("verify-rep", help="representation conjugacy checks")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)

    return parser


def _spec_from_args(args) -> SpaceSpec:
    if not args.family:
        raise CliInputError('missing required flag "--family"')
    params = {}
    for name in _FAMILY_PARAMS[args.family]:
        value = getattr(args, name)
        if value is None:
            raise CliInputError(
                f'family {args.family} requires flag "--{name}"')
        params[name] = value
    try:
        return spec_from_family(args.family, **params)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _load_json_arg(text: str, what: str):
    raw = text
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CliInputError(f"cannot read {what} file {text[1:]!r}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliInputError(f'malformed JSON in "{what}": {exc}') from exc


def _tangent_from_args(args) -> tuple[SpaceSpec, np.ndarray]:
    obj = _load_json_arg(args.payload, "--payload")
    try:
        if isinstance(obj, dict) and "payload" in obj:
            spec, coords = coordinates_from_json(obj)
        else:
            spec = _spec_from_args(args)
            coords = coordinates_from_payload(spec, obj)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    return spec, build_tangent(spec, coords)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt(z.real)
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}i"


def _emit(obj, fmt: str, table_lines=None) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for line in table_lines if table_lines is not None else [json.dumps(obj)]:
            print(line)


def _matrix_table(A) -> list[str]:
    return ["  ".join(_fmt_complex(z) for z in row) for row in np.asarray(A)]


def _cmd_build(args) -> int:
    spec, X = _tangent_from_args(args)
    _emit(matrix_to_json(X), args.format, _matrix_table(X))
    return 0


def _cmd_cayley(args) -> int:
    if args.payload:
        _, X = _tangent_from_args(args)
    elif args.matrix:
        X = matrix_from_json(_load_json_arg(args.matrix, "--matrix"))
    else:
        raise CliInputError('need either "--payload" or "--matrix"')
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
    spec, X = _tangent_from_args(args)
    if args.method == "all":
        reports = cross_check(X, spec)
        gap = max_cross_gap(reports)
        ok = gap <= args.tol
        obj = {
            "reports": {k: r.to_json_dict() for k, r in reports.items()},
            "max_gap": gap,
            "tol": args.tol,
            "ok": ok,
        }
        lines = [f"{k}: " + "  ".join(_fmt_complex(z) for z in r.entries)
                 for k, r in sorted(reports.items())]
        lines.append(f"max gap {_fmt(gap)}  ({'OK' if ok else 'FAIL'})")
        _emit(obj, args.format, lines)
        return 0 if ok else 2
    route = {
        "cayley_det": lambda: diagonal_via_cayley(X, spec),
        "gauss": lambda: diagonal_via_gauss(cayley(X)),
        "minor_ratio": lambda: diagonal_via_minors(cayley(X)),
        "fredholm": lambda: diagonal_via_fredholm(X),
        "coroot_product": lambda: diagonal_via_coroots(spec, X),
    }[args.method]
    report = route()
    lines = ["  ".join(_fmt_complex(z) for z in report.entries)]
    _emit(report.to_json_dict(), args.format, lines)
    return 0


def _cmd_verify(args) -> int:
    families = [args.family] if args.family else list(FAMILIES)
    defaults = {
        "AIII": {"m": 2, "n": 3}, "DIII": {"n": 3}, "CI": {"n": 3},
        "CII": {"p": 2, "q": 2}, "BDI_even": {"p": 4, "q": 3},
        "BDI_oddodd": {"p": 3, "q": 3},
    }
    results = []
    all_ok = True
    for fam in families:
        params = {k: getattr(args, k) for k in _FAMILY_PARAMS[fam]
                  if getattr(args, k) is not None} or defaults[fam]
        spec = spec_from_family(fam, **params)
        rng = np.random.default_rng(args.seed)
        worst_gap = worst_member = worst_lemma = 0.0
        for _ in range(args.draws):
            X = build_tangent(spec, random_coordinates(spec, rng, args.radius))
            reports = cross_check(X, spec)
            worst_gap = max(worst_gap, max_cross_gap(reports))
            worst_lemma = max(worst_lemma, reports["cayley_det"].lemma3_residual)
            img = verify_image(spec, cayley(X), tol=args.tol)
            worst_member = max(worst_member, max(img.violations.values()))
        ok = worst_gap <= args.tol and worst_member <= args.tol and worst_lemma <= args.tol
        all_ok &= ok
        results.append({
            "family": fam, "params": spec.params_dict(), "draws": args.draws,
            "max_route_gap": worst_gap, "max_membership_violation": worst_member,
            "max_minor_identity_residual": worst_lemma, "tol": args.tol, "ok": ok,
        })
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
            entry["deviations"] = [None if d is None else d for d in lr.deviations]
            entry["converged"] = lr.converged
            all_converged &= lr.converged
            last = lr.deviations[-1] if lr.deviations else None
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
    names = golden_mod.suite_names() if args.suite == "all" else (args.suite,)
    for name in names:
        if name not in golden_mod.suite_names():
            raise CliInputError(
                f'unknown suite {name!r} for "--suite"; choose from '
                f"{golden_mod.suite_names()} or 'all'")
    results = [golden_mod.run_suite(name, draws=args.draws, seed=args.seed)
               for name in names]
    ok = all(r.ok for r in results)
    lines = [f"{r.suite:<8} max_dev={_fmt(r.max_deviation)} "
             f"tol={_fmt(r.tolerance)}  {'PASS' if r.ok else 'FAIL'}"
             for r in results]
    _emit({"results": [r.to_json_dict() for r in results], "ok": ok},
          args.format, lines)
    return 0 if ok else 2


def _cmd_verify_rep(args) -> int:
    if args.n < 1:
        raise CliInputError('flag "--n" must be at least 1')
    rng = np.random.default_rng(args.seed)
    report = verify_conjugacy(args.n, samples=args.samples, rng=rng)
    obj = {
        "n": report.n, "samples": report.samples,
        "max_orthogonal_dev": report.max_orthogonal_dev,
        "max_orthogonal_fixed_dev": report.max_orthogonal_fixed_dev,
        "max_symplectic_dev": report.max_symplectic_dev,
        "tolerance": report.tolerance, "ok": report.ok,
    }
    lines = [f"n={report.n} orth={_fmt(report.max_orthogonal_dev)} "
             f"fixed={_fmt(report.max_orthogonal_fixed_dev)} "
             f"sympl={_fmt(report.max_symplectic_dev)} "
             f"{'OK' if report.ok else 'FAIL'}"]
    _emit(obj, args.format, lines)
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
    except CliInputError as exc:
        print(f"bruhatdiag: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bruhatdiag: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
