"""Benchmark for bruhatdiag: verified-draw goodput and component limits.

Run from the repository root:

    python3 bench/run.py --workload verify_small --seed 1 --seconds 38 --trace 0

``--trace 0`` times the workload end to end and prints the end-to-end
metrics; ``--trace 1`` runs every round twice, untraced and then traced
with a span around every layer call, and prints the per-layer metrics.
Every invocation first checks the sweep pipeline against
``bruhatdiag verify`` (exit 3 on a mismatch) and gates every operation it
times.  ``--seconds`` is the measured time, set-up launches included.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``detail``, holds the machine record, sample counts and failures.

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits 2 and prints no result.  ``bench/README.md``
says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import os

#: One process, one BLAS thread: the host has two shared cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh processes launched per run to time set-up, spread over the run;
#: the median is reported.
SETUP_LAUNCHES = 15

#: Set-up as a user pays it: import, then a first cross-check on a fixed
#: AIII(1, 1) tangent.  Prints the route gap so the launch can be checked.
SETUP_CODE = """
import sys
from pathlib import Path
import bruhatdiag as bd
if not Path(bd.__file__).resolve().is_relative_to(Path(sys.argv[1])):
    sys.exit(f"bruhatdiag imported from {bd.__file__}")
import numpy as np
spec = bd.aiii(1, 1)
X = bd.build_tangent(spec, bd.Coordinates(family="AIII", Z=np.array([[0.5 + 0.25j]])))
print(bd.max_cross_gap(bd.cross_check(X, spec)))
"""


def load_program():
    """Import bruhatdiag from this checkout's ``src/`` or exit 2."""
    if not (SRC / "bruhatdiag" / "__init__.py").is_file():
        print(f"bench: no bruhatdiag sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bruhatdiag

    if not Path(bruhatdiag.__file__).resolve().is_relative_to(SRC):
        print(f"bench: bruhatdiag imported from {bruhatdiag.__file__}", file=sys.stderr)
        sys.exit(2)


class SetupTimer:
    """Times set-up in fresh processes and checks what each one printed.

    A launch that crashes or prints a non-finite gap counts against
    ``correct``, like the same outcome of a timed operation; the gap
    itself is gated by the workloads, not here.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        self.times: list[float] = []
        self.problems: list[str] = []
        self.start = time.perf_counter()

    def launch(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        self.times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            self.problems.append(f"exit {proc.returncode}: {proc.stderr.strip()}")
        elif not math.isfinite(float(proc.stdout.split()[-1])):
            self.problems.append(f"cross-check gap {proc.stdout.strip()}")

    def spread_over(self, seconds: float):
        """An ``after_round`` hook that launches set-up at even intervals
        of ``seconds`` from now."""
        self.start = time.perf_counter()

        def after_round(tally) -> None:
            elapsed = time.perf_counter() - self.start
            if (len(self.times) < SETUP_LAUNCHES
                    and elapsed >= seconds * len(self.times) / SETUP_LAUNCHES):
                self.launch()
        return after_round


def machine_record(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(workload, tally, setup: SetupTimer) -> tuple[dict, dict]:
    """Metric name -> (value, unit, samples) for an untraced run, plus the
    typical (median) and tail (p90) figures behind them.

    The host's slow phases can last longer than a run, so the bounded
    timings take the fastest sample: the shortest passed operation of a
    layout and the best window's goodput.  Interference only ever adds
    time, so these move with the program and least with the host.
    """
    def tier_ms(tier: str) -> list[float]:
        return [s * 1e3 for layout, s, ok in tally.records
                if ok and layout == workload.tiers[tier]]

    rates = [passed / seconds for passed, seconds in tally.windows]
    small, large = tier_ms("small"), tier_ms("large")
    metrics = {
        "setup_s": (_pct(setup.times, 50), "s", len(setup.times)),
        "peak_goodput_per_s": (max(rates, default=0.0), "1/s", len(rates)),
        "pass_share": (tally.passed / tally.attempted, "ratio", tally.attempted),
        "op_min_ms.small": (min(small, default=0.0), "ms", len(small)),
        "op_min_ms.large": (min(large, default=0.0), "ms", len(large)),
    }
    all_ms = [s * 1e3 for _, s, ok in tally.records if ok]
    typical = {
        "goodput_per_s.p50": _pct(rates, 50),
        "goodput_per_s.overall": tally.passed / tally.wall,
        "op_ms.small": [_pct(small, 50), _pct(small, 90)],
        "op_ms.large": [_pct(large, 50), _pct(large, 90)],
        "op_ms.all_passed": [_pct(all_ms, 50), _pct(all_ms, 90)],
        "setup_s.all": setup.times,
    }
    return metrics, typical


def per_layer(tracer, tally, overhead_s: float, probes: dict) -> dict:
    """Metric name -> (value, unit, samples) for a traced run."""
    from workloads import ROUTES

    ops = tally.attempted
    units = {"us_p50": "us", "us_p90": "us", "calls_per_op": "count",
             "self_us_per_op": "us"}
    values = {name: (v, units[name.rsplit(".", 1)[1]], ops)
              for name, v in layer_metrics(tracer, ops).items()}
    for route in ROUTES:
        fails = sum(n for (r, _), n in tally.route_steps.items() if r == route)
        values[f"bruhat.{route}.fail"] = (fails, "count", ops)
    values["components.limit_check.skipped_points"] = (tally.skipped_points, "count", ops)
    values.update({name: (n, "count", 1) for name, n in probes.items()})
    values["trace_overhead_s"] = (overhead_s, "s", ops)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_small", "verify_large", "limits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import workloads as wl

    # Overflow inside det at large scale is counted through the gate
    # (skipped grid points, non-finite values); the warnings add nothing.
    warnings.simplefilter("ignore", RuntimeWarning)

    problems = wl.cli_parity(args.seed)
    if problems:
        print("bench: sweep pipeline differs from `bruhatdiag verify`:", file=sys.stderr)
        for p in problems:
            print("  " + p, file=sys.stderr)
        return 3

    workload = wl.WORKLOADS[args.workload]
    detail = {"workload": args.workload, "machine": machine_record(args.seed)}
    if args.trace == 0:
        setup = SetupTimer()
        tally = wl.run(workload, args.seed, args.seconds, setup.spread_over(args.seconds))
        metrics, detail["typical_p50_p90"] = end_to_end(workload, tally, setup)
        wrong = tally.wrong + len(setup.problems)
        detail["setup_problems"] = setup.problems
    else:
        tracer = Tracer()
        plain, tally = wl.run_traced(workload, args.seed, args.seconds, tracer)
        probes = wl.defect_probes(args.seed)
        metrics = per_layer(tracer, tally, tally.wall - plain.wall, probes)
        wrong = tally.wrong + plain.wrong
        detail["spans"] = len(tracer.spans)
        detail["untraced_wall_s"] = plain.wall

    detail.update({
        "wall_s": tally.wall, "windows": len(tally.windows),
        "attempted": tally.attempted, "failed": tally.failed,
        "layouts": tally.per_layout(), "fail_kinds": dict(tally.kinds),
        "route_step_fails": {f"{r}@{k}": n
                             for (r, k), n in sorted(tally.route_steps.items())},
        "skipped_points": tally.skipped_points,
        "converged_flag_on_failed": tally.converged_but_failed,
        "samples": {name: n for name, (_, _, n) in metrics.items()},
    })
    for name, (value, unit, _) in metrics.items():
        print(f"{args.workload:<13} {name:<46} {value:>14.6g} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
