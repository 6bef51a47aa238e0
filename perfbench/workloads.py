"""One timed pass of each workload.

Every call into the program goes through a `Layers` object, which holds the
public biharm functions either as they are or wrapped in tracing spans.
A pass is a fixed list of steps (a case, a ladder, a spectrum draw, a
round), each timed on its own.  Outputs are checked after the pass's timer
stops, except where a check is itself part of the workload (the per-solve
checks of paper_solves and coverage_solves).
"""

from __future__ import annotations

import io
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import biharm.expansion
import biharm.ladder
import biharm.shooting
import biharm.spectrum
import biharm.verify
from biharm.errors import BiharmError
from biharm.params import ProblemParams

import checks
from prepare import ANALYSIS_P_SPAN
from speed import Interval

ANALYSIS_ROUNDS = 40
ANALYSIS_N = range(13, 201)

# benchmark-side name -> span name; the span prefix names the module
_LAYER_FUNCTIONS = {
    "shoot": "shooting.shoot",
    "check_positivity": "shooting.checks",
    "check_monotone_y": "shooting.checks",
    "emden_fowler_residual": "shooting.checks",
    "decay_slope": "shooting.checks",
    "y_integral_identity_check": "shooting.checks",
    "dump_solution": "shooting.dump",
    "detect_regime": "expansion.detect_regime",
    "fit_expansion": "expansion.fit_expansion",
    "window_shift_stability": "expansion.window_shift_stability",
    "representation_check": "expansion.representation_check",
    "compute_spectrum": "spectrum.compute_spectrum",
    "compute_pc": "ladder.compute_pc",
    "compute_ladder": "ladder.compute_ladder",
    "parity_boundary_check": "ladder.parity_boundary_check",
    "run_checks": "verify.run_checks",
}
_MODULES = {
    "shooting": biharm.shooting,
    "expansion": biharm.expansion,
    "spectrum": biharm.spectrum,
    "ladder": biharm.ladder,
    "verify": biharm.verify,
}


class Layers:
    """The public functions the workloads call, traced when given a tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        for attr, span in _LAYER_FUNCTIONS.items():
            fn = getattr(_MODULES[span.split(".")[0]], attr)
            setattr(self, attr, tracer.wrap(span, fn) if tracer else fn)

    @contextmanager
    def active(self):
        """While open, a traced Layers also records the solve_ivp calls that
        biharm.shooting makes, by swapping the name it imported."""
        if self.tracer is None:
            yield
            return
        plain = biharm.shooting.solve_ivp
        biharm.shooting.solve_ivp = self.tracer.wrap_solve_ivp(plain)
        try:
            yield
        finally:
            biharm.shooting.solve_ivp = plain

    @staticmethod
    def clear_ladder_caches() -> None:
        # a `biharm critical` or `sweep` process starts from cold caches
        biharm.ladder.compute_pc.cache_clear()
        biharm.ladder.compute_ladder.cache_clear()


@dataclass
class PassRecord:
    """One timed pass.  Every pass of a run repeats the same steps, so `steps`
    and `solves` have the same keys in each pass.  Times are Intervals of
    the run's speed.Meter, scaled once the run is over."""

    total: Interval = None
    steps: dict = field(default_factory=dict)   # step key -> Interval
    solves: dict = field(default_factory=dict)  # solve key -> shoot Interval (analysis: round)
    outcomes: list = field(default_factory=list)  # (case, label, shoot wall s)
    attempted: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)


def paper_pass(layers: Layers, fx, rng, meter) -> PassRecord:
    """Shoot the three acceptance cases, each followed by criteria 6-9."""
    rec = PassRecord()
    order = sorted(fx.cases)
    rng.shuffle(order)
    pass_start = meter.mark()
    for label in order:
        params, r_max = fx.cases[label]
        start = meter.mark()
        try:
            sol = layers.shoot(params, 1.0, r_max)
        except BiharmError as exc:
            raise checks.WrongOutput(f"case {label}: {type(exc).__name__}: {exc}")
        shot = meter.since(start)
        checks.check_paper_solution(layers, label, sol, fx.ladders[params.n], r_max, shot.wall)
        rec.steps[label] = meter.since(start)
        rec.solves[label] = shot
        rec.outcomes.append((label, "ok", shot.wall))
        rec.counts["bisect_steps"] += sol.n_bisect
    rec.total = meter.since(pass_start)
    rec.attempted = len(order)
    return rec


def coverage_pass(layers: Layers, fx, rng, meter) -> PassRecord:
    """Shoot the off-paper cells; each ends ok, check:<name> or a typed error."""
    rec = PassRecord()
    order = sorted(fx.cases)
    rng.shuffle(order)
    pass_start = meter.mark()
    for label in order:
        params, r_max = fx.cases[label]
        start = meter.mark()
        try:
            sol = layers.shoot(params, 1.0, r_max)
        except BiharmError as exc:
            shot = meter.since(start)
            outcome = type(exc).__name__
        else:
            shot = meter.since(start)
            rec.counts["bisect_steps"] += sol.n_bisect
            bad = checks.solve_check_failure(layers, sol, r_max)
            outcome = "ok" if bad is None else f"check:{bad}"
        rec.steps[label] = meter.since(start)
        rec.solves[label] = shot
        rec.outcomes.append((label, outcome, shot.wall))
    rec.total = meter.since(pass_start)
    rec.attempted = len(order)
    rec.failed = sum(outcome != "ok" for _, outcome, _ in rec.outcomes)
    return rec


def analysis_pass(layers: Layers, fx, rng, meter) -> PassRecord:
    """Ladder sweep from cold caches, a seeded spectrum draw, the algebra
    checks, and rounds of fitting, checking and dumping one solution."""
    rec = PassRecord()
    sol = fx.solution
    spec = sol.spectrum
    ladder13 = fx.ladders[13]
    layers.clear_ladder_caches()
    pass_start = meter.mark()
    pcs, ladders, parities = {}, [], []
    for n in ANALYSIS_N:
        start = meter.mark()
        pcs[n] = layers.compute_pc(n)
        ladders.append((n, layers.compute_ladder(n)))
        if n % 2:
            parities.append((n, layers.parity_boundary_check(n)))
        rec.steps["ladder", n] = meter.since(start)
    spectra = []
    for i, (n, u) in enumerate(fx.draws):
        start = meter.mark()
        spectra.append(layers.compute_spectrum(ProblemParams(n, pcs[n] + ANALYSIS_P_SPAN * u)))
        rec.steps["spectrum", i] = meter.since(start)
    start = meter.mark()
    verify_results = layers.run_checks("algebra")
    rec.steps["verify"] = meter.since(start)
    rounds = []
    for j in range(ANALYSIS_ROUNDS):
        start = meter.mark()
        regime = layers.detect_regime(sol.params, ladder13)
        fit = layers.fit_expansion(sol, spec, regime)
        drift = layers.window_shift_stability(sol, spec, regime)
        rep = layers.representation_check(sol)
        yid = layers.y_integral_identity_check(sol)
        ef = layers.emden_fowler_residual(sol)
        buf = io.StringIO()
        layers.dump_solution(sol, buf)
        text = buf.getvalue()
        rec.steps["round", j] = rec.solves[j] = meter.since(start)
        rounds.append((fit, drift, rep, yid, ef, text.count("\n") - 1, len(text)))
    rec.total = meter.since(pass_start)

    failures = []
    failures += [f"ladder n={n}" for n, lad in ladders if not checks.ladder_ok(n, lad)]
    failures += [f"parity n={n}" for n, pb in parities if not checks.parity_ok(n, pb)]
    failures += [f"spectrum {s.params}" for s in spectra if not checks.spectrum_ok(s)]
    failures += [f"verify {r.name}: {r.detail}" for r in verify_results if not r.passed]
    for i, (fit, drift, rep, yid, ef, rows, _) in enumerate(rounds):
        bad = checks.fit_failures("A", sol, fit, drift)
        if not rep < checks.REPRESENTATION_MAX:
            bad.append("representation")
        if not yid < checks.IDENTITY_MAX:
            bad.append("identity")
        if not ef < checks.EMDEN_FOWLER_MAX:
            bad.append("emden_fowler")
        if rows != sol.s_grid.size:
            bad.append(f"dump rows {rows} != {sol.s_grid.size}")
        failures += [f"round {i}: {b}" for b in bad]
    if failures:
        raise checks.WrongOutput(f"{len(failures)} wrong outputs, first: {failures[0]}")

    rec.attempted = len(ladders) + len(parities) + len(spectra) + len(verify_results) + len(rounds)
    rec.counts["rungs"] = sum(len(lad.rungs) for _, lad in ladders)
    rec.counts["checks_failed"] = sum(not r.passed for r in verify_results)
    rec.counts["dump_bytes"] = sum(r[-1] for r in rounds)
    return rec


PASSES = {
    "paper_solves": paper_pass,
    "coverage_solves": coverage_pass,
    "analysis": analysis_pass,
}
