"""The three benchmark workloads and the correctness gate for each operation.

An operation is one seeded draw (``verify_small``, ``verify_large``), or
one component enumeration or limit check (``limits``).  A workload runs
in rounds: one operation per layout for the sweeps, every enumeration
and limit check once for ``limits``.  Rounds always complete.

Draws follow ``bruhatdiag.cli._cmd_verify`` exactly: one generator per
layout seeded with the workload seed, then ``random_coordinates`` ->
``build_tangent`` -> ``cross_check`` -> ``max_cross_gap`` ->
``verify_image(cayley(X))``.  A sweep replays the first ``draws`` draws of
each layout: after that many rounds every generator is reset to its
seeded state, so the inputs are the ones ``bruhatdiag verify --seed
<seed> --draws <draws>`` checks, and they do not grow with run length.

Every timed operation passes on the parent code.  The inputs on which the
parent fails (ROADMAP item 3) are measured by :func:`defect_probes`,
outside the timed operations.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from bruhatdiag import (
    ComponentRep,
    NonGenericError,
    aiii,
    bdi,
    build_tangent,
    cayley,
    ci,
    cii,
    construct_witness,
    cross_check,
    diagonal_via_cayley,
    diagonal_via_coroots,
    diagonal_via_fredholm,
    diagonal_via_gauss,
    diagonal_via_minors,
    diii,
    enumerate_components,
    limit_check,
    max_cross_gap,
    random_coordinates,
    verify_image,
)
from bruhatdiag import cli
from bruhatdiag.components import LIMIT_TOL
from bruhatdiag.linalg import EXPANSION_CAP

from tracing import NO_TRACE, OP_SPAN, patched_layers

#: The CLI's ``verify`` defaults (radius, tol) drive both the parity check
#: and the sweeps, so the benchmark follows them if they change.
VERIFY_DEFAULTS = cli._build_parser().parse_args(["verify"])
RADIUS = VERIFY_DEFAULTS.radius
TOL = VERIFY_DEFAULTS.tol

#: ``bruhatdiag verify`` default layouts, in the CLI's family order.
CLI_LAYOUTS = (aiii(2, 3), diii(3), ci(3), cii(2, 2), bdi(4, 3), bdi(3, 3))
#: The defaults without CII(2, 2): about 1 in 4000 of its draws misses
#: ``TOL`` (the gauss route drifts when ``d`` is large), which would make
#: runs fail by seed.
VERIFY_SMALL = tuple(s for s in CLI_LAYOUTS if s.family != "CII")
#: N = 20 and 50, above ``EXPANSION_CAP``.  At N >= 50 only rank-5 AIII
#: passed every draw tried on the parent code; other layouts there refuse
#: or miss ``TOL`` on 0.25-2% of draws (ROADMAP item 3), and AIII(5, 95)
#: on about 1 in 1700, which would make runs fail by seed.
VERIFY_LARGE = (aiii(10, 10), aiii(5, 45))
#: Draws per layout replayed by each sweep.
POOL_DRAWS = {"verify_small": 10, "verify_large": 8}
#: Draws per layout compared with ``bruhatdiag verify`` before timing.
PARITY_DRAWS = 5
#: Layouts whose every representative is limit-checked, with the expected
#: representative count: C(m + n, m) for AIII, 2**n for CI.
LIMIT_LAYOUTS = ((aiii(5, 5), math.comb(10, 5)), (ci(8), 2 ** 8))
#: Negatives per block of the timed AIII(60, 60) representatives.
N120_NEGATIVES = (4, 12, 20, 28, 36, 44)
#: Inputs the parent fails on, probed only: AIII(60, 60) representatives
#: whose last grid point overflows (item 3a), AIII(50, 50) draws
#: ``cayley_det`` refuses (item 3b) and draws, as (layout, seed, index),
#: whose route gap exceeds ``TOL``.
PROBE_NEGATIVES = (52, 60)
PROBE_LAYOUT = aiii(50, 50)
PROBE_DRAWS = 3
PROBE_GAP_DRAWS = ((cii(2, 2), 36, 33), (cii(2, 2), 106, 14),
                   (aiii(5, 95), 128, 2))

#: Failure kinds that mean the program handed back a value no tolerance
#: can make right, as opposed to refusing an input or missing a tolerance
#: (which ``bruhatdiag verify`` itself reports as a failed check).  Any of
#: these makes the run incorrect.
WRONG_KINDS = frozenset({"non_finite", "enumeration_count"})
ROUTES = ("gauss", "minor_ratio", "cayley_det", "fredholm", "coroot_product")


def label(spec) -> str:
    params = ",".join(str(v) for v in spec.params_dict().values())
    return f"{spec.family}({params})"


def rep_label(rep) -> str:
    """Layout label of a representative; the identity's limit check does no
    work, so it is kept apart from the layout's timings."""
    return label(rep.spec) + ("/identity" if rep.is_identity else "")


@dataclass
class Outcome:
    """What the gate found for one operation; it passed if ``kinds`` is empty."""

    kinds: list[str] = field(default_factory=list)
    route_steps: list[tuple[str, int]] = field(default_factory=list)
    gap: float = 0.0
    lemma: float = 0.0
    member: float = 0.0
    skipped_points: int = 0
    converged_flag: bool = False

    def refuse(self, route: str, exc: Exception) -> None:
        if isinstance(exc, NonGenericError):
            self.kinds.append("non_generic")
            self.route_steps.append((route, exc.index))
        else:
            self.kinds.append("error")
            self.route_steps.append((route, -1))


@dataclass
class Tally:
    """Per-operation records, per-window throughput and failure counts.

    A window is the unit the run is timed in: one round of a sweep, one
    slice of a ``limits`` pass.
    """

    records: list[tuple[str, float, bool]] = field(default_factory=list)
    windows: list[tuple[int, float]] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    route_steps: Counter = field(default_factory=Counter)
    passed: int = 0
    skipped_points: int = 0
    converged_but_failed: int = 0

    def add(self, layout: str, seconds: float, out: Outcome) -> None:
        ok = not out.kinds
        self.records.append((layout, seconds, ok))
        self.passed += ok
        self.kinds.update(set(out.kinds))
        self.route_steps.update(out.route_steps)
        self.skipped_points += out.skipped_points
        if out.kinds and out.converged_flag:
            self.converged_but_failed += 1

    @contextlib.contextmanager
    def window(self):
        before = self.passed
        start = time.perf_counter()
        yield
        self.windows.append((self.passed - before, time.perf_counter() - start))

    @property
    def wall(self) -> float:
        return sum(seconds for _, seconds in self.windows)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return self.attempted - self.passed

    @property
    def wrong(self) -> int:
        return sum(n for k, n in self.kinds.items() if k in WRONG_KINDS)

    def per_layout(self) -> dict[str, list[int]]:
        """``[attempted, passed]`` per layout."""
        out: dict[str, list[int]] = {}
        for layout, _, ok in self.records:
            counts = out.setdefault(layout, [0, 0])
            counts[0] += 1
            counts[1] += ok
        return out


# --- correctness gate -------------------------------------------------------

def _judge_draw(out: Outcome, reports: dict) -> Outcome:
    """A draw passes when every route returned, the routes agree, the image
    lies on the space and the minor identity holds, all within ``TOL``."""
    values = [out.gap, out.lemma, out.member]
    finite = all(math.isfinite(v) for v in values) and all(
        bool(np.all(np.isfinite(r.entries))) for r in reports.values())
    if not finite:
        out.kinds.append("non_finite")
        return out
    if out.gap > TOL:
        out.kinds.append("gap_over_tol")
    if out.member > TOL:
        out.kinds.append("membership_over_tol")
    if out.lemma > TOL:
        out.kinds.append("lemma3_over_tol")
    return out


def draw_cli_order(spec, rng, tracer=NO_TRACE) -> Outcome:
    """One draw exactly as ``bruhatdiag verify`` makes it.

    Only timed untraced; ``tracer`` keeps the signature of
    :func:`draw_isolated`.
    """
    X = build_tangent(spec, random_coordinates(spec, rng, RADIUS))
    out = Outcome()
    try:
        reports = cross_check(X, spec)
    except NonGenericError as exc:
        out.refuse(exc.route, exc)
        return out
    except (ValueError, ArithmeticError) as exc:
        out.refuse("cross_check", exc)
        return out
    out.gap = max_cross_gap(reports)
    out.lemma = reports["cayley_det"].lemma3_residual
    out.member = max(verify_image(spec, cayley(X), tol=TOL).violations.values())
    return _judge_draw(out, reports)


def draw_isolated(spec, rng, tracer=NO_TRACE) -> Outcome:
    """The same draw with each route called on its own, so one route's
    refusal does not hide what the others cost on that tangent."""
    call = tracer.call
    coords = call("spaces.random_coordinates", random_coordinates, spec, rng, RADIUS)
    X = call("spaces.build_tangent", build_tangent, spec, coords)
    g = call("cayley.cayley", cayley, X)
    routes = [("gauss", diagonal_via_gauss, (g,)),
              ("minor_ratio", diagonal_via_minors, (g,)),
              ("cayley_det", diagonal_via_cayley, (X, spec))]
    if X.shape[0] <= EXPANSION_CAP:
        routes.append(("fredholm", diagonal_via_fredholm, (X,)))
    routes.append(("coroot_product", diagonal_via_coroots, (spec, X)))
    out = Outcome()
    reports = {}
    for route, fn, args in routes:
        try:
            reports[route] = call("bruhat." + route, fn, *args)
        except (ValueError, ArithmeticError) as exc:
            out.refuse(route, exc)
    out.gap = call("bruhat.max_cross_gap", max_cross_gap, reports)
    if "cayley_det" in reports:
        out.lemma = reports["cayley_det"].lemma3_residual
    image = call("cayley.verify_image", verify_image, spec,
                 call("cayley.cayley", cayley, X), TOL)
    out.member = max(image.violations.values())
    return _judge_draw(out, reports)


def limit_op(rep, tracer=NO_TRACE) -> Outcome:
    """Witness and limit check for one representative.

    Passes only when the last grid point was computed and its deviation is
    within ``LIMIT_TOL``; ``LimitReport.converged`` is recorded, not trusted.
    """
    X = tracer.call("components.construct_witness", construct_witness, rep)
    report = tracer.call("components.limit_check", limit_check, rep, X)
    out = Outcome(skipped_points=sum(d is None for d in report.deviations),
                  converged_flag=report.converged)
    last = report.deviations[-1]
    if last is None:
        out.kinds.append("skipped_point")
    elif not math.isfinite(last):
        out.kinds.append("non_finite")
    elif last > LIMIT_TOL:
        out.kinds.append("limit_dev_over_tol")
    return out


def enumerate_op(spec, expected: int, found: list, tracer=NO_TRACE) -> Outcome:
    """Enumerate the representatives of ``spec`` into ``found`` and check
    their count."""
    reps = tracer.call("components.enumerate_components", enumerate_components, spec)
    found.extend(reps)
    out = Outcome()
    if len(reps) != expected:
        out.kinds.append("enumeration_count")
    return out


def n120_reps(negatives=N120_NEGATIVES) -> list[ComponentRep]:
    spec = aiii(60, 60)
    return [ComponentRep(spec, tuple([-1] * j + [1] * (60 - j)) * 2)
            for j in negatives]


def defect_probes(seed: int) -> dict[str, int]:
    """Count the parent's known failures on inputs kept out of the timed
    operations: failed ``PROBE_LAYOUT`` draws at ``seed``, failed
    ``PROBE_GAP_DRAWS`` and skipped grid points of the ``PROBE_NEGATIVES``
    representatives.  The parent reads 3, 3 and 2."""
    rng = np.random.default_rng(seed)
    failed = sum(bool(draw_cli_order(PROBE_LAYOUT, rng).kinds)
                 for _ in range(PROBE_DRAWS))
    gap_failed = 0
    for spec, draw_seed, index in PROBE_GAP_DRAWS:
        rng = np.random.default_rng(draw_seed)
        for _ in range(index):
            random_coordinates(spec, rng, RADIUS)
        gap_failed += bool(draw_cli_order(spec, rng).kinds)
    skipped = sum(limit_op(rep).skipped_points
                  for rep in n120_reps(PROBE_NEGATIVES))
    return {"probe.aiii50.failed_draws": failed,
            "probe.gap.failed_draws": gap_failed,
            "probe.aiii60.skipped_points": skipped}


# --- workloads --------------------------------------------------------------

def _timed(tally: Tally, layout: str, tracer, fn: Callable, *args) -> None:
    tracer.begin_op()
    start = time.perf_counter()
    out = tracer.call(OP_SPAN, fn, *args)
    tally.add(layout, time.perf_counter() - start, out)


class SweepWorkload:
    """Round-robin seeded draws over a fixed list of layouts; a round (one
    draw per layout) is one window.  After ``draws`` rounds the generators
    return to their seeded state."""

    def __init__(self, specs, draws, small, large):
        self.specs = specs
        self.draws = draws
        self.tiers = {"small": label(small), "large": label(large)}

    def start(self, seed: int):
        return {"round": 0, "layouts": [(label(s), s, np.random.default_rng(seed))
                                        for s in self.specs]}

    def round(self, state, tally: Tally, tracer, draw: Callable) -> None:
        if state["round"] % self.draws == 0:
            seeded = state.setdefault("seeded", [rng.bit_generator.state
                                                 for _, _, rng in state["layouts"]])
            for (_, _, rng), seeded_state in zip(state["layouts"], seeded):
                rng.bit_generator.state = seeded_state
        state["round"] += 1
        with tally.window():
            for layout, spec, rng in state["layouts"]:
                _timed(tally, layout, tracer, draw, spec, rng, tracer)


class LimitsWorkload:
    """Every representative of the small layouts plus the AIII(60, 60) set.

    A round is one pass, cut into one slice (window) per AIII(60, 60)
    representative.  The small representatives are dealt over the slices
    in a seeded order that changes each pass; the first slice also holds
    the two enumerations.  ``draw`` is unused: limit checks have no routes
    to isolate.
    """

    tiers = {"small": label(aiii(5, 5)), "large": label(aiii(60, 60))}

    def start(self, seed: int):
        return np.random.default_rng(seed), n120_reps()

    def round(self, state, tally: Tally, tracer, draw: Callable = None) -> None:
        rng, large = state
        small: list = []
        for k in range(len(large)):
            with tally.window():
                if k == 0:
                    for spec, expected in LIMIT_LAYOUTS:
                        _timed(tally, label(spec), tracer, enumerate_op,
                               spec, expected, small, tracer)
                    picks = np.array_split(rng.permutation(len(small)), len(large))
                    bigs = rng.permutation(len(large))
                for rep in [large[bigs[k]]] + [small[i] for i in picks[k]]:
                    _timed(tally, rep_label(rep), tracer, limit_op, rep, tracer)


WORKLOADS = {
    "verify_small": SweepWorkload(VERIFY_SMALL, POOL_DRAWS["verify_small"],
                                  small=aiii(2, 3), large=bdi(4, 3)),
    "verify_large": SweepWorkload(VERIFY_LARGE, POOL_DRAWS["verify_large"],
                                  small=aiii(10, 10), large=aiii(5, 45)),
    "limits": LimitsWorkload(),
}


def run(workload, seed: int, seconds: float, after_round: Callable = None) -> Tally:
    """Time whole CLI-order rounds until ``seconds`` have passed.

    ``after_round(tally)`` runs between rounds, outside every window.
    """
    state = workload.start(seed)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        workload.round(state, tally, NO_TRACE, draw_cli_order)
        if after_round is not None:
            after_round(tally)
    return tally


def run_traced(workload, seed: int, seconds: float, tracer):
    """Run each round twice on the same inputs, untraced then traced.

    Both passes call every route on its own.  Pairing the passes round by
    round keeps drift in machine speed out of the tracing overhead.
    Returns the untraced and the traced tally.
    """
    state = workload.start(seed)
    plain, traced = Tally(), Tally()
    while plain.wall + traced.wall < seconds:
        replay = copy.deepcopy(state)
        workload.round(state, plain, NO_TRACE, draw_isolated)
        with patched_layers(tracer):
            workload.round(replay, traced, tracer, draw_isolated)
    return plain, traced


# --- CLI parity -------------------------------------------------------------

def cli_parity(seed: int, draws: int = PARITY_DRAWS) -> list[str]:
    """Compare the sweep pipeline against ``bruhatdiag verify --format json``.

    Runs both at ``seed`` for ``draws`` draws per layout and returns the
    mismatches; the worst values must agree exactly.  A failed check in
    the CLI (exit 2) is not a mismatch as long as it reports the values.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--format", "json", "--seed", str(seed),
                         "--draws", str(draws)])
    report = json.loads(buf.getvalue()) if code in (0, 2) else {}
    shipped = report.get("results")
    if shipped is None:
        return [f"bruhatdiag verify exited {code} without results: {report}"]
    if len(shipped) != len(CLI_LAYOUTS):
        return [f"bruhatdiag verify reported {len(shipped)} families"]
    problems = []
    for spec, ref in zip(CLI_LAYOUTS, shipped):
        if (ref["family"], ref["params"]) != (spec.family, spec.params_dict()):
            problems.append(f"layout {label(spec)} vs {ref['family']} {ref['params']}")
            continue
        rng = np.random.default_rng(seed)
        gap = member = lemma = 0.0
        for _ in range(draws):
            out = draw_cli_order(spec, rng)
            if "non_generic" in out.kinds or "error" in out.kinds:
                problems.append(f"{label(spec)}: draw refused {out.route_steps}")
                break
            gap = max(gap, out.gap)
            lemma = max(lemma, out.lemma)
            member = max(member, out.member)
        mine = {"max_route_gap": gap, "max_membership_violation": member,
                "max_minor_identity_residual": lemma}
        for key, value in mine.items():
            if value != ref[key]:
                problems.append(f"{label(spec)} {key}: bench {value!r} cli {ref[key]!r}")
    return problems
