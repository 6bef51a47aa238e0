"""Named verification suites over all modules, runnable from the CLI.

Each check reproduces one structural claim (eigenvalue identities, sign
tables, ladder counts, shooting monotonicity, ...) at desk scale and returns
a CheckResult; `biharm verify` prints one pass/fail line per check.  The
solve and expansion invariants, their bounds and the JSON reports of
`biharm solve` and `biharm expand` are written here too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BiharmError
from .expansion import (
    Nonlinearity,
    _window_drift,
    detect_regime,
    fit_expansion,
    g_eval,
    regime_ordering_ok,
    representation_check,
    taylor_coeffs,
)
from .ladder import (
    _rk_rows,
    compute_ladder,
    compute_pc,
    f_quartic,
    parity_boundary_check,
    rk_eval,
    tail_limit,
)
from .params import ProblemParams
from .shooting import (
    check_monotone_y,
    check_positivity,
    decay_slope,
    emden_fowler_residual,
    shoot,
    y_integral_identity_check,
)
from .spectrum import compute_spectrum, eigen_poly_eval, q4_eval

_SEED = 20240813


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _run(name, fn):
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except BiharmError as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


# --------------------------------------------------------------------------
# algebraic checks
# --------------------------------------------------------------------------

def _spectral_identities():
    worst_res = worst_sym = 0.0
    for n in range(13, 61):
        pc = compute_pc(n)
        for p in np.linspace(pc, pc + 50.0, 5):
            params = ProblemParams(n, float(p))
            s = compute_spectrum(params)  # raises InvalidParams when the ordering chain breaks
            scale = 1.0 + abs(p * q4_eval(n, params.m))
            worst_res = max(
                worst_res,
                max(abs(eigen_poly_eval(params, lam)) for lam in s.lambdas) / scale,
            )
            l1, l2, l3, l4 = s.lambdas
            worst_sym = max(
                worst_sym,
                abs(l1 + l4 - 2 * s.lambda_star),
                abs(l2 + l3 - 2 * s.lambda_star),
            )
    ok = worst_res < 1e-9 and worst_sym < 1e-9
    return ok, f"max poly residual {worst_res:.2e}, max symmetry defect {worst_sym:.2e}"


def _double_root_at_pc():
    worst = 0.0
    for n in range(13, 61):
        s = compute_spectrum(ProblemParams(n, compute_pc(n)))
        if not s.degenerate:
            return False, f"no double root flagged at n={n}"
        worst = max(worst, abs(s.lambdas[1] - s.lambdas[2]) / abs(s.lambda_star))
    return worst < 1e-5, f"max |lam2-lam3|/|lam*| at p_c: {worst:.2e}"


def _reflection_symmetry():
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for n in (13, 20, 37, 60):
        pc = compute_pc(n)
        for dp in (0.0, 3.0, 40.0):
            params = ProblemParams(n, pc + dp)
            ls = params.m - (n - 4.0) / 2.0
            scale = 1.0 + abs(params.p * q4_eval(n, params.m))
            lam = rng.uniform(ls - 30.0, ls + 30.0, size=100)
            d = np.abs(eigen_poly_eval(params, lam) - eigen_poly_eval(params, 2 * ls - lam))
            worst = max(worst, float(np.max(d)) / scale)
    return worst < 1e-10, f"max reflection defect {worst:.2e} (relative)"


def _q4_sign_structure():
    rng = np.random.default_rng(_SEED)
    for n in range(13, 61):
        for root in (0.0, -2.0, n - 2.0, n - 4.0):
            if q4_eval(n, root) != 0.0:
                return False, f"Q4({root}) != 0 at n={n}"
        a = rng.uniform(0.0, n - 4.0, 100)
        a = a[(a > 1e-9) & (a < n - 4.0 - 1e-9)]
        if not np.all(q4_eval(n, a) > 0.0):
            return False, f"Q4 not positive on (0, n-4) at n={n}"
        b = rng.uniform(-2.0, 0.0, 100)
        b = b[(b > -2.0 + 1e-9) & (b < -1e-9)]
        if not np.all(q4_eval(n, b) < 0.0):
            return False, f"Q4 not negative on (-2, 0) at n={n}"
    return True, "roots exact, signs correct on (-2,0) and (0,n-4) for n=13..60"


def _ladder_formula():
    worst = 0.0
    for n in range(13, 61):
        lad = compute_ladder(n)  # raises LadderMismatch when N disagrees with the formula
        for k, p_k in enumerate(lad.rungs, start=1):
            if k == 1:
                continue
            spec = compute_spectrum(ProblemParams(n, p_k))
            l2, l3 = spec.lambdas[1], spec.lambdas[2]
            worst = max(worst, abs(l2 - k * l3) / abs(l3))
            if abs(rk_eval(n, k, p_k)) >= 1e-8 * p_k**4:
                return False, f"rung residual too large at (n={n}, k={k})"
    return worst < 1e-5, f"N matches formula for n=13..60; max |lam2-k*lam3|/|lam3| = {worst:.2e}"


def _sign_criterion():
    rng = np.random.default_rng(_SEED)
    checked = skipped = 0
    while checked + skipped < 200:
        n = int(rng.integers(13, 41))
        lad = compute_ladder(n)
        p = lad.p_c + float(rng.uniform(0.0, 20.0))
        k = int(rng.integers(1, lad.N + 2))
        near_rung = any(abs(p - p_k) < 1e-6 * max(1.0, p_k) for p_k in lad.rungs)
        spec = compute_spectrum(ProblemParams(n, p))
        l2, l3 = spec.lambdas[1], spec.lambdas[2]
        if near_rung:
            skipped += 1
            continue
        lhs = rk_eval(n, k, p) < 0.0
        rhs = l2 > k * l3
        if lhs != rhs:
            return False, f"criterion mismatch at (n={n}, p={p}, k={k})"
        checked += 1
    return True, f"{checked} random samples agree ({skipped} inside the rung band)"


def _rk_root_count():
    for n in range(13, 41):
        lad = compute_ladder(n)
        ks = range(2, lad.N + 1)
        grid = np.geomspace(lad.p_c * (1 + 1e-9), 1e6, 10_000)
        for k, vals in zip(ks, _rk_rows(n, ks, grid)):
            signs = np.sign(vals)
            crossings = int(np.count_nonzero(signs[:-1] != signs[1:]))
            if crossings != 1:
                return False, f"{crossings} sign changes above p_c at (n={n}, k={k})"
    return True, "exactly one root above p_c for every rung k = 2..N (n=13..40)"


def _sign_tables():
    for n in range(13, 61):
        lad = compute_ladder(n)
        pc = lad.p_c
        for k in list(range(1, lad.N + 2)) + [n // 2 - 1, n // 2 + 1, n]:
            if not (rk_eval(n, k, 1.0) < 0.0 and rk_eval(n, k, n / (n - 4.0)) > 0.0):
                return False, f"table R1 fails at (n={n}, k={k})"
            # R_1(p_c) = 0 exactly (lam2 = lam3 there); the p_c entry needs k >= 2
            if k >= 2 and rk_eval(n, k, pc) >= 0.0:
                return False, f"table R1 fails at p_c for (n={n}, k={k})"
            if n <= 2 * (k + 1):
                if not (rk_eval(n, k, -1.0) <= 0.0 and rk_eval(n, k, -1.0 / 3.0) > 0.0):
                    return False, f"table R2 fails at (n={n}, k={k})"
            elif rk_eval(n, k, -1.0) <= 0.0:
                return False, f"table R3 fails at (n={n}, k={k})"
        if not (f_quartic(n, 1.0 - n / 2.0) < 0.0 and f_quartic(n, -1.0) > 0.0
                and f_quartic(n, 0.0) < 0.0 and f_quartic(n, 1.0) > 0.0):
            return False, f"table F1 fails at n={n}"
        if not (f_quartic(n, n / 2.0 - 5.0) > 0.0 and f_quartic(n, n / 2.0 - 4.0) < 0.0):
            return False, f"fourth-root bracket fails at n={n}"
        if n % 2 == 1:
            parity_boundary_check(n)  # raises on disagreement
    return True, "R1/R2/R3, F1, fourth-root bracket and parity boundary hold for n=13..60"


def _limit_ap():
    for a in (1.0, 2.0, 4.0):
        vals = []
        for j in range(2, 7):
            eps = 10.0**-j
            vals.append(eps**4 * q4_eval(13, a / eps))
        # error is linear in eps, so adjacent Richardson kills the first order
        rich = (10.0 * vals[-1] - vals[-2]) / 9.0
        if abs(rich - a**4) > 1e-4 * a**4:
            return False, f"limit defect {abs(rich - a**4):.2e} at a={a}"
    return True, "(p-1)^4 Q4(a/(p-1)) -> a^4 confirmed by Richardson extrapolation"


def _tail_limit_convergence():
    p = 1e8
    for n in range(13, 41):
        lad = compute_ladder(n)
        for k in range(1, lad.N + 2):
            t = tail_limit(n, k)
            if t == 0.0:
                continue
            if abs(rk_eval(n, k, p) / p**4 - t) >= 1e-3 * abs(t):
                return False, f"tail not reached at (n={n}, k={k})"
    return True, "R_k(p)/p^4 within 1e-3 of the tail limit at p=1e8"


def _taylor_consistency():
    rng = np.random.default_rng(_SEED)
    for p, L in ((9.5, 1.7), (12.0, 0.8), (8.2, 2.3)):
        nl = Nonlinearity(L=L, p=p)
        d = taylor_coeffs(p, L, 7)
        y = rng.uniform(-L / 2.0, L / 2.0, 100)
        series = sum(d[j - 2] * y**j for j in range(2, 7))
        err = np.abs(g_eval(nl, y) - series)
        # evaluating g costs ~eps * L^p of cancellation; allow that floor
        bound = 2.0 * abs(d[5]) * np.abs(y) ** 7 + 1e3 * np.finfo(float).eps * L**p
        if not np.all(err <= bound):
            return False, f"truncation bound violated at (p={p}, L={L})"
    # integer exponent terminates exactly
    d = taylor_coeffs(3.0, 2.0, 8)
    if not (d[0] == 6.0 and d[1] == 1.0 and all(v == 0.0 for v in d[2:])):
        return False, "integer-exponent termination failed"
    return True, "g matches its Taylor truncation within the next-term bound"


# --------------------------------------------------------------------------
# shooting / expansion checks (desk scale)
# --------------------------------------------------------------------------

# The bound of each solve and expansion invariant, written only here.
BOUNDS = {
    "target_residual": 1e-2,      # |r^m phi(r_max)/L - 1|
    "transform_residual": 1e-4,   # Emden-Fowler residual over max W^p
    "decay_slope": 0.1,           # |slope - lam3|, in units of |lam3|
    "integral_identity": 1e-3,    # relative deviation of the Y identity
    "a0_matches_L": 1e-3,         # |a0 - L|, in units of L
    "remainder_slope_ok": 0.15,   # slack over lam2 + lam3, in units of |lam3|
    "window_shift_stable": 3.0,   # coefficient drift, in standard errors
    "representation_ok": 1e-3,    # variation-of-parameters deviation
}


@dataclass(frozen=True)
class Invariant:
    """A measured value and the bound it must not exceed (None: a yes/no check)."""

    name: str
    value: float | bool
    bound: float | None = None

    @property
    def passed(self) -> bool:
        return bool(self.value if self.bound is None else self.value <= self.bound)

    def __str__(self) -> str:
        if self.bound is None:
            return f"{self.name} {self.value}"
        return f"{self.name} {self.value:.3g} {'<=' if self.passed else '>'} {self.bound:.3g}"


def invariant_payload(invariants) -> dict:
    """{name: {value, bound, passed}} of Invariant records, the one form in
    which every report and record holds them."""
    return {r.name: {"value": r.value, "bound": r.bound, "passed": r.passed}
            for r in invariants}


def record_payload(record) -> dict:
    """A shooting.SolveRecord as JSON: per chart ("r", each shot's one
    leg of Taylor steps, and "v", the tangent's complex-step leg, one per
    solve, at eps, keyed "1e-16") its legs (calls), their Taylor steps
    (nfev), those keyed by the decade of each leg's tolerance, as "1e-10"
    (nfev_by_rtol), and the legs that ended in a step failure; stage 1's
    trials and bracket; each finished collocation round."""
    charts = {chart: {"calls": 0, "nfev": 0, "nfev_by_rtol": {}, "step_failures": 0}
              for chart in ("r", "v")}
    for chart, tol, nfev, status in record.legs:
        work, decade = charts[chart], f"{10.0 ** math.floor(math.log10(tol)):.0e}"
        work["calls"] += 1
        work["nfev"] += nfev
        work["nfev_by_rtol"][decade] = work["nfev_by_rtol"].get(decade, 0) + nfev
        work["step_failures"] += int(status == -1)
    rounds = [dict(zip(("nodes", "newton", "max_rms", "predicted"), r)) for r in record.rounds]
    return {"charts": charts, "trials": record.trials, "bracket": record.bracket,
            "rounds": rounds}


def error_payload(exc) -> dict:
    """{error, message} of a typed error, and its solve's record when it
    carries one, as every error out of shooting.shoot does."""
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if exc.record is not None:
        payload["record"] = record_payload(exc.record)
    return payload


def solve_payload(sol, r_max, invariants) -> dict:
    """`biharm solve`'s report of sol, solved to r_max; invariants are
    Invariant records, or the typed error their checks raised."""
    return {"n": sol.params.n, "p": sol.params.p, "alpha": sol.alpha, "r_max": r_max,
            "v0": sol.v0, "target_residual": sol.target_residual,
            "seam_residual": sol.seam_residual,
            "invariants": (error_payload(invariants) if isinstance(invariants, BiharmError)
                           else invariant_payload(invariants)),
            "record": record_payload(sol.record)}


def fit_payload(sol, fit, drift, invariants) -> dict:
    """`biharm expand`'s report of the fit, drift and invariants of
    run_expansion on sol."""
    coefficients = {name: {"value": est.value, "stderr": est.stderr, "resolved": est.resolved}
                    for name, est in fit.coefficients.items()}
    return {"n": sol.params.n, "p": sol.params.p, "regime": fit.regime.kind, "k": fit.regime.k,
            "window": list(fit.window), "coefficients": coefficients,
            "theoretical_slope": fit.theoretical_slope,
            "L": sol.spectrum.L, "window_shift_drift_se": dict(drift),
            "invariants": invariant_payload(invariants)}


def solve_invariants(sol) -> tuple[Invariant, ...]:
    """The invariants of a shooting solution, in report order."""
    lam3 = sol.spectrum.lambdas[2]
    return (
        Invariant("target_residual", abs(sol.target_residual), BOUNDS["target_residual"]),
        Invariant("phi_positive", check_positivity(sol)),
        Invariant("Y_negative_nondecreasing", check_monotone_y(sol)),
        Invariant("transform_residual", emden_fowler_residual(sol), BOUNDS["transform_residual"]),
        Invariant("decay_slope", abs(decay_slope(sol) - lam3), BOUNDS["decay_slope"] * abs(lam3)),
        Invariant("integral_identity", y_integral_identity_check(sol),
                  BOUNDS["integral_identity"]),
    )


def expansion_invariants(spec, fit, drift, rep) -> tuple[Invariant, ...]:
    """The invariants of an expansion fit, its window-shift drift and its
    representation deviation, in report order."""
    lam3 = spec.lambdas[2]
    return (
        Invariant("a0_matches_L", abs(fit.coefficients["a0"].value - spec.L),
                  BOUNDS["a0_matches_L"] * spec.L),
        Invariant("remainder_slope_ok", fit.residual_slope,
                  fit.theoretical_slope + BOUNDS["remainder_slope_ok"] * abs(lam3)),
        Invariant("window_shift_stable", max(drift.values()), BOUNDS["window_shift_stable"]),
        Invariant("regime_ordering_chain", regime_ordering_ok(spec, fit.regime)),
        Invariant("representation_ok", rep, BOUNDS["representation_ok"]),
    )


def run_expansion(sol, regime, window=None):
    """`biharm expand`'s pipeline on a solve: the fit on window (None: the
    default window), its window-shift drift and the five expansion
    invariants; returns (fit, drift, invariants).  The drift is
    window_shift_stability's, read against this fit."""
    spec = sol.spectrum
    fit = fit_expansion(sol, spec, regime, window)
    drift = _window_drift(sol, spec, fit)
    return fit, drift, expansion_invariants(spec, fit, drift, representation_check(sol))


def _verdict(invariants):
    return all(r.passed for r in invariants), ", ".join(map(str, invariants))


def _shooting_quick():
    sol = shoot(ProblemParams(13, compute_pc(13) + 0.5), alpha=1.0, r_max=500.0)
    return _verdict(solve_invariants(sol))


def _scaling_covariance():
    # case A at phi(0) = 10: the scale map of its phi(0) = 1 solve
    sol = shoot(ProblemParams(13, compute_pc(13) + 0.5), alpha=10.0, r_max=1e4)
    passed, detail = _verdict(solve_invariants(sol))
    dev = abs(float(sol.phi[0]) / 10.0 - 1.0)
    return passed and dev < 1e-6, f"phi at the first node / 10 - 1 = {dev:.2e}, {detail}"


def _expansion_quick():
    params = ProblemParams(13, compute_pc(13) + 0.5)
    sol = shoot(params, alpha=1.0, r_max=2000.0)
    return _verdict(run_expansion(sol, detect_regime(params, compute_ladder(13)))[2])


_ALGEBRA = (
    ("spectral_identities", _spectral_identities),
    ("double_root_at_pc", _double_root_at_pc),
    ("reflection_symmetry", _reflection_symmetry),
    ("q4_sign_structure", _q4_sign_structure),
    ("ladder_formula", _ladder_formula),
    ("sign_criterion", _sign_criterion),
    ("rk_root_count", _rk_root_count),
    ("sign_tables", _sign_tables),
    ("limit_ap", _limit_ap),
    ("tail_limit_convergence", _tail_limit_convergence),
    ("taylor_consistency", _taylor_consistency),
)

_SHOOTING = (
    ("shooting_quick", _shooting_quick),
    ("scaling_covariance", _scaling_covariance),
)

_FULL_EXTRA = (
    ("expansion_quick", _expansion_quick),
)

SCOPES = {
    "algebra": _ALGEBRA,
    "shooting": _SHOOTING,
    "default": _ALGEBRA + _SHOOTING,
    "full": _ALGEBRA + _SHOOTING + _FULL_EXTRA,
}


def run_checks(scope: str = "default") -> list[CheckResult]:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {sorted(SCOPES)}")
    return [_run(name, fn) for name, fn in SCOPES[scope]]
