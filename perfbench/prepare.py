"""Benchmark set-up: a cold start (import biharm.cli in a fresh interpreter
and pay the lazy first-call costs), then one workload's fixture.

The benchmark repeats the cold start in child processes to report its
median, so this file also runs as a script that does one cold start and
prints its timings, raw and scaled to the reference speed of speed.py, as
one JSON line:

    python3 perfbench/prepare.py

Only the standard library is imported at module level: numpy, scipy and
biharm are imported inside `cold_start`, so the import is part of what it
times.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

from speed import Meter, python_probe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The program is single-threaded; a multi-threaded BLAS would only add noise.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("paper_solves", "coverage_solves", "analysis")

# Acceptance cases of tests/test_acceptance.py: (n, p - p_c, r_max) at alpha = 1.
PAPER_CASES = {"A": (13, 0.5, 1e4), "B": (15, 1.0, 1e4), "C": (13, 0.0, 1e4)}

# Off-paper cells with their outcome at the commit that defined this benchmark.
# The failing ones are kept on purpose: a change in any outcome is reported.
COVERAGE_SEED_OUTCOMES = {
    "n20_10pc": "ok",
    "n15_p2": "check:check_monotone_y",
    "n20_pc": "NoConvergence",
    "n13_10pc": "StepFailure",
}

ANALYSIS_DRAWS = 4000   # compute_spectrum calls per analysis pass
ANALYSIS_P_SPAN = 50.0  # p is drawn from [p_c, p_c + ANALYSIS_P_SPAN]


def pin_single_thread_env() -> dict[str, str]:
    """Force single-threaded BLAS for this process and its children."""
    for key in BLAS_ENV:
        os.environ[key] = "1"
    return {key: os.environ[key] for key in BLAS_ENV}


def use_repo_sources() -> None:
    """Import biharm from the checkout's src/, here and in child processes."""
    if not (SRC / "biharm" / "__init__.py").is_file():
        raise SystemExit(f"error: no biharm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")


@dataclass
class Fixture:
    """Inputs of one workload, built in set-up from the seed."""

    cases: dict = field(default_factory=dict)    # label -> (ProblemParams, r_max)
    ladders: dict = field(default_factory=dict)  # n -> CriticalLadder
    solution: object = None                      # analysis: case A, solved once
    draws: list = field(default_factory=list)    # analysis: (n, fraction of span)


def _warm_up(bh) -> None:
    # First calls of every layer: brentq, the lru caches, solve_ivp with
    # events and dense output in both charts.
    params = bh.ProblemParams(13, bh.compute_pc(13) + 0.5)
    bh.compute_spectrum(params)
    bh.compute_ladder(13)
    bh.parity_boundary_check(13)
    bh.integrate_radial(params, 1.0, -1.0, 20.0)


def build_fixture(bh, workload: str, seed: int) -> Fixture:
    fx = Fixture()
    if workload in ("paper_solves", "analysis"):
        for label, (n, dp, r_max) in PAPER_CASES.items():
            fx.ladders[n] = bh.compute_ladder(n)
            fx.cases[label] = (bh.ProblemParams(n, fx.ladders[n].p_c + dp), r_max)
    if workload == "coverage_solves":
        pc13, pc20 = bh.compute_pc(13), bh.compute_pc(20)
        fx.cases = {
            "n20_10pc": (bh.ProblemParams(20, 10.0 * pc20), 1e4),
            "n15_p2": (bh.ProblemParams(15, bh.compute_ladder(15).rungs[1]), 2000.0),
            "n20_pc": (bh.ProblemParams(20, pc20), 1e4),
            "n13_10pc": (bh.ProblemParams(13, 10.0 * pc13), 1e4),
        }
    if workload == "analysis":
        params, r_max = fx.cases["A"]
        fx.solution = bh.shoot(params, 1.0, r_max)
        rng = random.Random(seed)
        fx.draws = [(rng.randint(13, 200), rng.random()) for _ in range(ANALYSIS_DRAWS)]
    return fx


def cold_start(meter: Meter):
    """Import biharm.cli and warm every layer; returns biharm and the
    intervals of the import and of the whole cold start."""
    start = meter.mark()
    import biharm.cli  # noqa: F401  (the import users pay on every CLI call)
    imported = meter.since(start)
    import biharm as bh

    _warm_up(bh)
    return bh, {"cold": meter.since(start), "import": imported}


def seconds(meter: Meter, intervals: dict) -> dict[str, float]:
    """Wall seconds of each interval, raw as `<name>_raw_s` and scaled to the
    reference speed as `<name>_s`."""
    out = {}
    for name, iv in intervals.items():
        out[f"{name}_raw_s"] = iv.wall
        out[f"{name}_s"] = meter.scaled(iv)[0]
    return out


if __name__ == "__main__":
    pin_single_thread_env()
    use_repo_sources()
    with Meter(python_probe) as meter:
        _, intervals = cold_start(meter)
        meter.fill()
    print(json.dumps(seconds(meter, intervals)))
