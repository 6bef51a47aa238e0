"""Checks on the program's outputs, with every bound in one place.

The solve bounds are those of acceptance criteria 6-9 in
tests/test_acceptance.py, frozen fit bands included; they are restated here
because the benchmark uses only the package's public functions, not its tests.
"""

from __future__ import annotations

import math

from biharm.errors import BiharmError
from biharm.ladder import ladder_length_formula
from biharm.spectrum import eigen_poly_eval, q4_eval

# criterion 6
TARGET_RESIDUAL_MAX = 1e-2
EMDEN_FOWLER_MAX = 1e-4
SHOOT_SECONDS_MAX = 120.0
# criterion 7: |decay slope - lam3| <= DECAY_REL * |lam3|
DECAY_REL = 0.1
# criterion 8
A0_REL = 1e-3
SLOPE_SLACK = 0.15  # residual slope <= lam2 + lam3 + SLOPE_SLACK * |lam3|
DRIFT_MAX = 3.0     # window-shift drift in standard errors
# criterion 9
REPRESENTATION_MAX = 1e-3
IDENTITY_MAX = 1e-3
# criterion 1: root residual relative to the polynomial's scale, and the
# absolute pair-symmetry defect
SPECTRUM_REL = 1e-9
PARITY_REL = 1e-8

# Frozen fit coefficients of the acceptance cases: (value, band); a fit
# passes when |got - value| <= band + 1e-6 * |value|.
FROZEN_FITS = {
    "A": {"a0": (1.1305079576448616, 1e-6), "a1": (-69.77312139489808, 0.12),
          "a2": (-8547.618066299876, 10500.0), "b1": (99.7272239330794, 0.4)},
    "B": {"a0": (2.5987677396836504, 1e-6), "a1": (-491.43283605260825, 0.6),
          "a2": (-872996.1805059953, 1.4e6), "b1": (38493.28957132448, 1740.0)},
    "C": {"a0": (1.1338521716155632, 1e-6), "b1": (-23.324770599703996, 0.05),
          "a1": (30.895579083949904, 0.12), "b2": (-2569.454021938733, 1250.0)},
}


class WrongOutput(Exception):
    """An output of the program failed its check; the benchmark stops."""


def solve_check_failure(layers, sol, r_max: float) -> str | None:
    """Name of the first solve check (criteria 6 and 7) the solution fails,
    or None.  A check that raises a typed error counts as failed."""
    lam3 = sol.spectrum.lambdas[2]
    checks = (
        ("r_max", lambda: sol.s_grid[-1] >= math.log(r_max) - 1e-9),
        ("target_residual", lambda: abs(sol.target_residual) < TARGET_RESIDUAL_MAX),
        ("check_positivity", lambda: layers.check_positivity(sol)),
        ("check_monotone_y", lambda: layers.check_monotone_y(sol)),
        ("emden_fowler_residual",
         lambda: layers.emden_fowler_residual(sol) < EMDEN_FOWLER_MAX),
        ("decay_slope", lambda: abs(
            layers.decay_slope(sol, critical=sol.spectrum.degenerate) - lam3
        ) <= DECAY_REL * abs(lam3)),
    )
    for name, passed in checks:
        try:
            if not passed():
                return name
        except BiharmError:
            return name
    return None


def fit_failures(label: str, sol, fit, drift: dict) -> list[str]:
    """Criterion 8 on one fit of an acceptance case."""
    spec = sol.spectrum
    lam3 = spec.lambdas[2]
    bad = []
    if abs(fit.coefficients["a0"].value - spec.L) >= A0_REL * spec.L:
        bad.append("a0")
    if fit.residual_slope > fit.theoretical_slope + SLOPE_SLACK * abs(lam3):
        bad.append("residual_slope")
    if max(drift.values()) > DRIFT_MAX:
        bad.append("window_shift_drift")
    for name, (frozen, band) in FROZEN_FITS[label].items():
        if abs(fit.coefficients[name].value - frozen) > band + 1e-6 * abs(frozen):
            bad.append(f"frozen_{name}")
    return bad


def check_paper_solution(layers, label: str, sol, ladder, r_max: float,
                         shoot_s: float) -> None:
    """Criteria 6-9 on one acceptance case; raises WrongOutput on a failure.

    Calls the solve checks, detect_regime, fit_expansion,
    window_shift_stability, representation_check and
    y_integral_identity_check through `layers`, so they are timed with it.
    """
    failed = solve_check_failure(layers, sol, r_max)
    if failed is not None:
        raise WrongOutput(f"case {label}: solve check {failed} failed")
    if shoot_s >= SHOOT_SECONDS_MAX:
        raise WrongOutput(f"case {label}: shoot took {shoot_s:.1f} s")
    regime = layers.detect_regime(sol.params, ladder)
    fit = layers.fit_expansion(sol, sol.spectrum, regime)
    drift = layers.window_shift_stability(sol, sol.spectrum, regime)
    bad = fit_failures(label, sol, fit, drift)
    if bad:
        raise WrongOutput(f"case {label}: fit checks {bad} failed")
    rep = layers.representation_check(sol)
    yid = layers.y_integral_identity_check(sol)
    if not (rep < REPRESENTATION_MAX and yid < IDENTITY_MAX):
        raise WrongOutput(f"case {label}: representation {rep:.3g}, identity {yid:.3g}")


def spectrum_ok(spec) -> bool:
    """Criterion 1: ordering chain, pair symmetry, and the eigenvalue
    polynomial vanishing at each root."""
    params = spec.params
    l1, l2, l3, l4 = spec.lambdas
    ls = spec.lambda_star
    if not (l1 < 2 * ls < l2 <= ls <= l3 < 0 < l4):
        return False
    scale = 1.0 + abs(params.p * q4_eval(params.n, params.m))
    residual = max(abs(eigen_poly_eval(params, lam)) for lam in spec.lambdas) / scale
    symmetry = max(abs(l1 + l4 - 2 * ls), abs(l2 + l3 - 2 * ls))
    return residual < SPECTRUM_REL and symmetry < SPECTRUM_REL


def ladder_ok(n: int, ladder) -> bool:
    rungs = ladder.rungs
    return (
        ladder.n == n
        and ladder.N == ladder_length_formula(n) == len(rungs)
        and rungs[0] == ladder.p_c
        and all(a < b for a, b in zip(rungs, rungs[1:]))
    )


def parity_ok(n: int, boundary) -> bool:
    return boundary.rel_diff <= PARITY_REL and boundary.positive == (n >= 20)
