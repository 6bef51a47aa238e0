"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the expensive shooting cases are shared session fixtures.
"""

import time

import numpy as np

from biharm import (
    ProblemParams,
    compute_ladder,
    compute_pc,
    compute_spectrum,
    f_quartic,
    ladder_length_formula,
    parity_boundary_check,
    q4_eval,
    rk_eval,
)
from biharm.expansion import (
    detect_regime,
    fit_expansion,
    representation_check,
    variation_kernel,
    window_shift_stability,
)
from biharm.shooting import (
    check_monotone_y,
    check_positivity,
    decay_slope,
    emden_fowler_residual,
    y_integral_identity_check,
)
from biharm.spectrum import eigen_poly_eval

from fdiff import diff_uniform


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_spectral_identities():
    t0 = time.perf_counter()
    worst_res = worst_sym = 0.0
    for n in range(13, 61):
        pc = compute_pc(n)
        for p in np.linspace(pc, pc + 50.0, 5):
            params = ProblemParams(n, float(p))
            s = compute_spectrum(params)
            scale = 1.0 + abs(p * q4_eval(n, params.m))
            worst_res = max(
                worst_res,
                max(abs(eigen_poly_eval(params, lam)) for lam in s.lambdas) / scale,
            )
            l1, l2, l3, l4 = s.lambdas
            assert l1 < 2 * s.lambda_star < l2 <= s.lambda_star <= l3 < 0 < l4
            worst_sym = max(
                worst_sym,
                abs(l1 + l4 - 2 * s.lambda_star),
                abs(l2 + l3 - 2 * s.lambda_star),
            )
    dt = time.perf_counter() - t0
    ok = worst_res < 1e-9 and worst_sym < 1e-9 and dt < 5.0
    _report(1, ok, f"residual {worst_res:.1e}, symmetry {worst_sym:.1e}, {dt:.2f}s")


def test_criterion_2_double_root_at_pc():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(13, 61):
        s = compute_spectrum(ProblemParams(n, compute_pc(n)))
        assert s.degenerate
        worst = max(worst, abs(s.lambdas[1] - s.lambdas[2]) / abs(s.lambda_star))
    dt = time.perf_counter() - t0
    ok = worst < 1e-5 and dt < 5.0
    _report(2, ok, f"max |lam2-lam3|/|lam*| = {worst:.1e}, {dt:.2f}s")


def test_criterion_3_ladder_formula_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(13, 61):
        lad = compute_ladder(n)
        assert lad.N == ladder_length_formula(n)
        for k, p_k in enumerate(lad.rungs, start=1):
            if k == 1:
                continue
            spec = compute_spectrum(ProblemParams(n, p_k))
            l2, l3 = spec.lambdas[1], spec.lambdas[2]
            worst = max(worst, abs(l2 - k * l3) / abs(l3))
    dt = time.perf_counter() - t0
    ok = worst < 1e-5 and dt < 30.0
    _report(3, ok, f"N matches for n=13..60, max rung defect {worst:.1e}, {dt:.2f}s")


def test_criterion_4_sign_criterion_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240813)
    checked = skipped = 0
    while checked + skipped < 200:
        n = int(rng.integers(13, 41))
        lad = compute_ladder(n)
        p = lad.p_c + float(rng.uniform(0.0, 20.0))
        k = int(rng.integers(1, lad.N + 2))
        if any(abs(p - p_k) < 1e-6 * max(1.0, p_k) for p_k in lad.rungs):
            skipped += 1
            continue
        spec = compute_spectrum(ProblemParams(n, p))
        l2, l3 = spec.lambdas[1], spec.lambdas[2]
        assert (rk_eval(n, k, p) < 0.0) == (l2 > k * l3), (n, p, k)
        checked += 1
    dt = time.perf_counter() - t0
    ok = dt < 10.0
    _report(4, ok, f"{checked} samples, zero mismatches, {skipped} in rung band, {dt:.2f}s")


def test_criterion_5_sign_tables():
    t0 = time.perf_counter()
    for n in range(13, 61):
        lad = compute_ladder(n)
        for k in list(range(1, lad.N + 2)) + [n // 2 - 1, n // 2 + 1, n]:
            if k < 1:
                continue
            assert rk_eval(n, k, 1.0) < 0.0
            assert rk_eval(n, k, n / (n - 4.0)) > 0.0
            if k >= 2:
                # at k = 1 the p_c value is itself the rung, where R_1 = 0
                assert rk_eval(n, k, lad.p_c) < 0.0
            if n <= 2 * (k + 1):
                assert rk_eval(n, k, -1.0) <= 0.0
                assert rk_eval(n, k, -1.0 / 3.0) > 0.0
            else:
                assert rk_eval(n, k, -1.0) > 0.0
        assert f_quartic(n, 1.0 - n / 2.0) < 0.0
        assert f_quartic(n, -1.0) > 0.0
        assert f_quartic(n, 0.0) < 0.0
        assert f_quartic(n, 1.0) > 0.0
        assert f_quartic(n, n / 2.0 - 5.0) > 0.0
        assert f_quartic(n, n / 2.0 - 4.0) < 0.0
        if n % 2 == 1:
            pb = parity_boundary_check(n)
            assert pb.rel_diff <= 1e-8
    dt = time.perf_counter() - t0
    ok = dt < 10.0
    _report(5, ok, f"R1/R2/R3, F1, fourth-root bracket, parity agreement, {dt:.2f}s")


def test_criterion_6_shooting_convergence(sol_a, sol_b, sol_c, shoot_timings):
    details = []
    for label, sol in (("13/pc+0.5", sol_a), ("15/pc+1", sol_b), ("13/pc", sol_c)):
        assert sol.s_grid[-1] >= np.log(1e4) - 1e-9
        assert abs(sol.target_residual) < 1e-2
        assert check_positivity(sol)
        assert check_monotone_y(sol)
        ef = emden_fowler_residual(sol)
        assert ef < 1e-4
        details.append(f"{label}: ratio defect {abs(sol.target_residual):.1e}, "
                       f"transform {ef:.1e}")
    assert all(dt < 120.0 for dt in shoot_timings.values())
    _report(6, True, "; ".join(details)
            + f"; times {sorted(round(v, 1) for v in shoot_timings.values())}s")


def test_criterion_7_decay_rates(sol_a, sol_b, sol_c):
    details = []
    for label, sol in (("13/pc+0.5", sol_a), ("15/pc+1", sol_b), ("13/pc", sol_c)):
        lam3 = sol.spectrum.lambdas[2]
        slope = decay_slope(sol, critical=sol.spectrum.degenerate)
        assert abs(slope - lam3) <= 0.1 * abs(lam3), label
        details.append(f"{label}: slope {slope:.3f} vs lam3 {lam3:.3f}")
    _report(7, True, "; ".join(details))


# frozen regression fixtures for the fitted coefficients (canonical runs at
# alpha = 1, r_max = 1e4, default controls); tolerances are 3 jackknife
# standard errors of the frozen run plus a small relative slack
_FROZEN_FITS = {
    "A": {"a0": (1.1305079576448616, 1e-6), "a1": (-69.77312139489808, 0.12),
          "a2": (-8547.618066299876, 10500.0), "b1": (99.7272239330794, 0.4)},
    "B": {"a0": (2.5987677396836504, 1e-6), "a1": (-491.43283605260825, 0.6),
          "a2": (-872996.1805059953, 1.4e6), "b1": (38493.28957132448, 1740.0)},
    "C": {"a0": (1.1338521716155632, 1e-6), "b1": (-23.324770599703996, 0.05),
          "a1": (30.895579083949904, 0.12), "b2": (-2569.454021938733, 1250.0)},
}


def test_criterion_8_expansion_fits(sol_a, sol_b, sol_c):
    details = []
    for label, sol in (("A", sol_a), ("B", sol_b), ("C", sol_c)):
        spec = sol.spectrum
        regime = detect_regime(sol.params, compute_ladder(sol.params.n))
        fit = fit_expansion(sol, spec, regime)
        a0 = fit.coefficients["a0"]
        assert abs(a0.value - spec.L) < 1e-3 * spec.L, label
        lam3 = spec.lambdas[2]
        assert fit.residual_slope <= fit.theoretical_slope + 0.15 * abs(lam3), label
        drift = window_shift_stability(sol, spec, regime)
        assert max(drift.values()) <= 3.0, (label, drift)
        for name, (frozen, band) in _FROZEN_FITS[label].items():
            got = fit.coefficients[name].value
            assert abs(got - frozen) <= band + 1e-6 * abs(frozen), (label, name, got)
        details.append(
            f"{label}: a0 defect {abs(a0.value - spec.L) / spec.L:.1e}, slope "
            f"{fit.residual_slope:.2f} <= {fit.theoretical_slope:.2f}+slack, "
            f"drift {max(drift.values()):.2f} se"
        )
    _report(8, True, "; ".join(details))


def test_criterion_9_representation_and_integrals(sol_a, sol_b, sol_c):
    details = []
    for label, sol in (("A", sol_a), ("B", sol_b), ("C", sol_c)):
        rep = representation_check(sol)
        yid = y_integral_identity_check(sol)
        assert rep < 1e-3, label
        assert yid < 1e-3, label
        details.append(f"{label}: representation {rep:.1e}, integral {yid:.1e}")

    # closed-form kernel oracle: exponential forcing, stencil-applied operator
    spec = sol_a.spectrum
    l1, l2, l3, _ = spec.lambdas
    kern = variation_kernel(spec, s0=0.0)
    mu = 0.5 * l3
    h = 0.01
    s = h * np.arange(0, 601)

    def conv(lam):
        return (np.exp(mu * s) - np.exp(lam * s)) / (mu - lam)

    z = sum(b * conv(lam) for b, lam in zip(kern.betas, (l1, l2, l3)))
    d1 = diff_uniform(z, h, 1, acc=6)
    d2 = diff_uniform(z, h, 2, acc=6)
    d3 = diff_uniform(z, h, 3, acc=6)
    m = (z.size - d3.size) // 2
    k1 = (d1.size - d3.size) // 2
    k2 = (d2.size - d3.size) // 2
    applied = (
        d3
        - (l1 + l2 + l3) * d2[k2 : k2 + d3.size]
        + (l1 * l2 + l1 * l3 + l2 * l3) * d1[k1 : k1 + d3.size]
        - l1 * l2 * l3 * z[m:-m]
    )
    inner = s[m:-m]
    sel = inner > 2.0
    oracle_resid = float(
        np.max(np.abs(applied[sel] - np.exp(mu * inner[sel])) / np.exp(mu * inner[sel]))
    )
    assert oracle_resid < 1e-8
    _report(9, True, "; ".join(details) + f"; kernel oracle residual {oracle_resid:.1e}")
