import math
import re
from dataclasses import replace

import numpy as np
import pytest

from biharm import (
    DomainError,
    IllConditioned,
    InvalidParams,
    ProblemParams,
    SubcriticalInput,
    compute_ladder,
)
from biharm.expansion import (
    _kernel_convolutions,
    Nonlinearity,
    Regime,
    VariationKernel,
    detect_regime,
    fit_expansion,
    g_eval,
    regime_ordering_ok,
    representation_check,
    taylor_coeffs,
    variation_kernel,
    window_shift_stability,
)
from biharm.errors import WindowTooShort
from biharm.shooting import shoot
from biharm.spectrum import compute_spectrum

from fdiff import diff_uniform


# --------------------------------------------------------------------------
# nonlinearity
# --------------------------------------------------------------------------

def test_g_at_zero():
    nl = Nonlinearity(L=1.7, p=9.5)
    assert g_eval(nl, 0.0) == 0.0


def test_g_linear_part_removed():
    nl = Nonlinearity(L=1.7, p=9.5)
    ratios = [abs(g_eval(nl, 10.0**-j)) / 10.0**-j for j in range(2, 9)]
    for a, b in zip(ratios, ratios[1:]):
        assert b < a / 5.0  # geometric decay of g(y)/y


def test_g_quadratic_limit_matches_d2():
    p, L = 9.5, 1.7
    nl = Nonlinearity(L=L, p=p)
    # Richardson-extrapolated second-difference oracle for g''(0)/2
    vals = [g_eval(nl, 10.0**-j) / 10.0**-(2 * j) for j in (3, 4)]
    extrap = (10.0 * vals[1] - vals[0]) / 9.0
    d2 = taylor_coeffs(p, L, 2)[0]
    assert d2 == pytest.approx(p * (p - 1.0) * L ** (p - 2.0) / 2.0, rel=1e-12)
    assert extrap == pytest.approx(d2, rel=1e-6)


def test_g_domain_error():
    nl = Nonlinearity(L=1.7, p=9.5)
    with pytest.raises(DomainError):
        g_eval(nl, -1.7)
    with pytest.raises(DomainError):
        g_eval(nl, np.array([0.0, -2.0]))


def test_taylor_integer_exponent_terminates():
    d = taylor_coeffs(3.0, 2.0, 9)
    assert d[0] == 3.0 * 2.0  # d2 = 3 L
    assert d[1] == 1.0        # d3
    assert all(v == 0.0 for v in d[2:])


def test_taylor_truncation_bound_moderate_p():
    rng = np.random.default_rng(7)
    for p, L in ((9.5, 1.7), (11.0, 0.6)):
        nl = Nonlinearity(L=L, p=p)
        d = taylor_coeffs(p, L, 7)
        y = rng.uniform(-L / 2.0, L / 2.0, 100)
        series = sum(d[j - 2] * y**j for j in range(2, 7))
        err = np.abs(g_eval(nl, y) - series)
        bound = 2.0 * abs(d[5]) * np.abs(y) ** 7 + 1e3 * np.finfo(float).eps * L**p
        assert np.all(err <= bound)


def test_taylor_lagrange_bound_large_p(sol_a):
    # at large p the factor-2 bound fails on (-L/2, L/2); the Lagrange-form
    # constant C = |C(p, J+1)| max (L +/- L/2)^{p-J-1} is the rigorous one
    p, L = sol_a.params.p, sol_a.spectrum.L
    nl = Nonlinearity(L=L, p=p)
    J = 6
    d = taylor_coeffs(p, L, J + 1)
    binom = d[J - 1] / L ** (p - (J + 1))  # C(p, J+1)
    C = abs(binom) * max((0.5 * L) ** (p - J - 1), (1.5 * L) ** (p - J - 1))
    rng = np.random.default_rng(11)
    y = rng.uniform(-L / 2.0, L / 2.0, 200)
    series = sum(d[j - 2] * y**j for j in range(2, J + 1))
    err = np.abs(g_eval(nl, y) - series)
    bound = C * np.abs(y) ** (J + 1) + 1e3 * np.finfo(float).eps * L**p
    assert np.all(err <= bound)


# --------------------------------------------------------------------------
# variation-of-parameters kernel
# --------------------------------------------------------------------------

def _exact_conv(lam, mu, s, s0):
    # int_{s0}^{s} e^{lam (s-tau)} e^{mu tau} dtau, closed form for mu != lam
    return (np.exp(mu * s) - np.exp(lam * (s - s0) + mu * s0)) / (mu - lam)


def test_beta_partial_fraction_identities(sol_a):
    spec = sol_a.spectrum
    kern = variation_kernel(spec, s0=0.0)
    l1, l2, l3, _ = spec.lambdas
    b = kern.betas
    # residue identities of 1/((x-l1)(x-l2)(x-l3))
    assert b[0] + b[1] + b[2] == pytest.approx(0.0, abs=1e-12)
    assert b[0] * l1 + b[1] * l2 + b[2] * l3 == pytest.approx(0.0, abs=1e-12)
    assert b[0] * l1**2 + b[1] * l2**2 + b[2] * l3**2 == pytest.approx(1.0, rel=1e-10)


def test_kernel_closed_form_oracle(sol_a):
    # forcing e^{mu tau}: the beta-weighted convolution solves the factored
    # third-order equation; residual of the operator applied by stencils
    spec = sol_a.spectrum
    l1, l2, l3, _ = spec.lambdas
    kern = variation_kernel(spec, s0=0.0)
    mu = 0.5 * l3
    h = 0.01
    s = h * np.arange(0, 601)
    conv = sum(
        b * _exact_conv(lam, mu, s, 0.0)
        for b, lam in zip(kern.betas, (l1, l2, l3))
    )
    # particular solution away from the transient: e^{mu s}/prod(mu - lam_i)
    denom = (mu - l1) * (mu - l2) * (mu - l3)
    tail = s > 4.0
    assert np.allclose(conv[tail], np.exp(mu * s[tail]) / denom, rtol=1e-8)
    # operator residual: (D-l1)(D-l2)(D-l3) conv = e^{mu s}
    d1 = diff_uniform(conv, h, 1, acc=6)
    d2 = diff_uniform(conv, h, 2, acc=6)
    d3 = diff_uniform(conv, h, 3, acc=6)
    m = (conv.size - d3.size) // 2
    k1 = (d1.size - d3.size) // 2
    k2 = (d2.size - d3.size) // 2
    applied = (
        d3
        - (l1 + l2 + l3) * d2[k2 : k2 + d3.size]
        + (l1 * l2 + l1 * l3 + l2 * l3) * d1[k1 : k1 + d3.size]
        - l1 * l2 * l3 * conv[m:-m]
    )
    inner = s[m:-m]
    sel = inner > 2.0  # past the fast homogeneous transient
    resid = np.abs(applied[sel] - np.exp(mu * inner[sel]))
    assert np.max(resid / np.exp(mu * inner[sel])) < 1e-8


def test_two_eigenvalue_step(sol_a):
    # the inner double integral collapses to the divided-difference kernel,
    # which solves the factored second-order equation
    spec = sol_a.spectrum
    l1, l2 = spec.lambdas[0], spec.lambdas[1]
    mu = -1.0
    h = 0.01
    s = h * np.arange(0, 501)
    conv = (_exact_conv(l1, mu, s, 0.0) - _exact_conv(l2, mu, s, 0.0)) / (l1 - l2)
    d1 = diff_uniform(conv, h, 1, acc=6)
    d2 = diff_uniform(conv, h, 2, acc=6)
    m = (conv.size - d2.size) // 2
    k = (d1.size - d2.size) // 2
    applied = d2 + (-(l1 + l2)) * d1[k : k + d2.size] + (l1 * l2) * conv[m:-m]
    inner = s[m:-m]
    sel = inner > 2.0
    resid = np.abs(applied[sel] - np.exp(mu * inner[sel]))
    assert np.max(resid / np.exp(mu * inner[sel])) < 1e-8


def test_double_convolution_matches_single_kernel(sol_a):
    # two nested first-order solves equal the divided-difference kernel
    spec = sol_a.spectrum
    l1, l2 = spec.lambdas[0], spec.lambdas[1]
    mu = -0.8
    s = np.linspace(0.0, 5.0, 2001)
    from biharm.shooting import exp_kernel_convolve

    inner = _exact_conv(l1, mu, s, 0.0)          # first-order solve at l1
    outer = exp_kernel_convolve(l2, s, inner)    # numeric second solve
    direct = (_exact_conv(l1, mu, s, 0.0) - _exact_conv(l2, mu, s, 0.0)) / (l1 - l2)
    assert np.max(np.abs(outer - direct)) < 1e-4 * np.max(np.abs(direct))


def test_degenerate_kernel_limit():
    l3 = -4.0
    delta = np.linspace(0.0, 3.0, 301)
    for eps in (1e-3, 1e-5):
        l2 = l3 + eps
        divided = (np.exp(l2 * delta) - np.exp(l3 * delta)) / (l2 - l3)
        weighted = delta * np.exp(l3 * delta)
        assert np.max(np.abs(divided - weighted)) < 2.0 * eps


def test_weighted_kernel_convolve_oracle():
    lam, mu = -3.0, -1.0
    s = np.linspace(0.0, 6.0, 1201)
    g = np.exp(mu * s)
    got = _kernel_convolutions([(lam, 1)], s, g)[0]
    # d/dlam of the plain closed form
    exact = (
        -s * np.exp(lam * s) / (mu - lam)
        + (np.exp(mu * s) - np.exp(lam * s)) / (mu - lam) ** 2
    )
    assert np.max(np.abs(got - exact)) < 1e-4 * np.max(np.abs(exact))


def test_degenerate_kernel_betas(sol_c):
    spec = sol_c.spectrum
    assert spec.degenerate
    kern = variation_kernel(spec, s0=0.0)
    l1, _, l3, _ = spec.lambdas
    d = l1 - l3
    assert kern.betas == pytest.approx((1.0 / d**2, -1.0 / d**2, 1.0 / (l3 - l1)))
    assert kern.degenerate


# --------------------------------------------------------------------------
# representation of Z
# --------------------------------------------------------------------------

def test_representation_check(sol_a):
    dev = representation_check(sol_a)
    assert dev < 1e-3


def test_representation_s0_invariance(sol_a):
    spec = sol_a.spectrum
    zmax = np.max(np.abs(sol_a.Z))
    idx = np.nonzero(np.abs(sol_a.Z) >= 1e-8 * zmax)[0]
    window = (float(sol_a.s_grid[idx[0]] + 1.0), float(sol_a.s_grid[idx[-1]]))
    recons = []
    for s0 in (window[0] - 1.0, window[0] - 0.3):
        kern = variation_kernel(spec, s0=s0)
        dev, details = representation_check(
            sol_a, kern=kern, window=window, return_details=True
        )
        assert dev < 1e-3
        recons.append(details.recon)
    scale = np.max(np.abs(recons[0]))
    assert np.max(np.abs(recons[0] - recons[1])) < 1e-3 * scale


def test_representation_needs_forcing(sol_a):
    # with the convolution part zeroed out the homogeneous fit degrades
    base = representation_check(sol_a)
    zmax = np.max(np.abs(sol_a.Z))
    idx = np.nonzero(np.abs(sol_a.Z) >= 1e-8 * zmax)[0]
    window = (float(sol_a.s_grid[idx[0]]), float(sol_a.s_grid[idx[-1]]))
    hollow = VariationKernel(s0=window[0], betas=(0.0, 0.0, 0.0), degenerate=False)
    dev = representation_check(sol_a, kern=hollow, window=window)
    assert dev > 10.0 * base


def test_representation_degenerate_case(sol_c):
    assert representation_check(sol_c) < 1e-3


def test_kernel_ode_duality_closed_loop(sol_a):
    # the factored operator applied (by stencils) to the reconstructed Z
    # must reproduce the forcing g(Y) on the interior window
    spec = sol_a.spectrum
    l1, l2, l3, _ = spec.lambdas
    _, details = representation_check(sol_a, return_details=True)
    s, recon = details.s, details.recon
    h = s[1] - s[0]
    d1 = diff_uniform(recon, h, 1, acc=6)
    d2 = diff_uniform(recon, h, 2, acc=6)
    d3 = diff_uniform(recon, h, 3, acc=6)
    m = (recon.size - d3.size) // 2
    k1 = (d1.size - d3.size) // 2
    k2 = (d2.size - d3.size) // 2
    applied = (
        d3
        - (l1 + l2 + l3) * d2[k2 : k2 + d3.size]
        + (l1 * l2 + l1 * l3 + l2 * l3) * d1[k1 : k1 + d3.size]
        - l1 * l2 * l3 * recon[m:-m]
    )
    nl = Nonlinearity(L=spec.L, p=sol_a.params.p)
    g = g_eval(nl, np.interp(s, sol_a.s_grid, sol_a.Y))[m:-m]
    rel = np.max(np.abs(applied - g)) / np.max(np.abs(g))
    assert rel < 1e-4


# --------------------------------------------------------------------------
# regime detection and fitting
# --------------------------------------------------------------------------

def test_detect_regime(pc13, pc15):
    lad13 = compute_ladder(13)
    assert detect_regime(ProblemParams(13, pc13), lad13) == Regime("c", 1)
    assert detect_regime(ProblemParams(13, pc13 + 0.5), lad13) == Regime("a", 1)
    lad15 = compute_ladder(15)
    p2 = lad15.rungs[1]
    assert detect_regime(ProblemParams(15, p2), lad15) == Regime("b", 2)
    assert detect_regime(ProblemParams(15, p2 + 1.0), lad15) == Regime("a", 2)
    assert detect_regime(ProblemParams(15, p2 - 0.5), lad15) == Regime("a", 1)
    with pytest.raises(SubcriticalInput):
        detect_regime(ProblemParams(15, pc15 - 0.01), lad15)


@pytest.mark.parametrize("n", [13, 20])
def test_detect_regime_rejects_subcritical_p_where_the_spectrum_does(n):
    # one sub-critical line: just below p_c, inside the rung band about p_c,
    # detect_regime raises compute_spectrum's own SubcriticalInput; at and
    # just above p_c both accept, in regime c
    lad = compute_ladder(n)
    for f in (1e-6, 1e-5, 5e-5):
        params = ProblemParams(n, lad.p_c * (1.0 - f))
        with pytest.raises(SubcriticalInput) as by_spectrum:
            compute_spectrum(params)
        with pytest.raises(SubcriticalInput) as by_regime:
            detect_regime(params, lad)
        assert str(by_regime.value) == str(by_spectrum.value)
    for p in (lad.p_c, lad.p_c * (1.0 + 1e-9)):
        params = ProblemParams(n, p)
        compute_spectrum(params)
        assert detect_regime(params, lad) == Regime("c", 1)


def test_regime_b_eigenvalue_coincidence(sol_rung):
    spec = sol_rung.spectrum
    l2, l3 = spec.lambdas[1], spec.lambdas[2]
    assert abs(l2 / l3 - 2.0) < 1e-5


def test_regime_ordering_chain(sol_a):
    regime = detect_regime(sol_a.params, compute_ladder(13))
    assert regime == Regime("a", 1)
    assert regime_ordering_ok(sol_a.spectrum, regime)


def _synthetic_solution(template, spec, coeffs, kind, k, noise=1e-12, seed=3):
    lam2, lam3 = spec.lambdas[1], spec.lambdas[2]
    s = np.arange(2.0, 7.0, 0.01)
    W = np.full_like(s, coeffs["a0"])
    if kind == "a":
        for j in range(1, k + 2):
            W = W + coeffs[f"a{j}"] * np.exp(j * lam3 * s)
        W = W + coeffs["b1"] * np.exp(lam2 * s)
    elif kind == "b":
        for j in range(1, k):
            W = W + coeffs[f"a{j}"] * np.exp(j * lam3 * s)
        W = W + (coeffs["b1"] * s + coeffs[f"a{k}"]) * np.exp(k * lam3 * s)
    else:
        W = W + (coeffs["b1"] * s + coeffs["a1"]) * np.exp(lam3 * s)
        W = W + coeffs["b2"] * s**2 * np.exp(2.0 * lam3 * s)
    rng = np.random.default_rng(seed)
    W = W + noise * rng.standard_normal(s.size)
    # the fit reads W alone: W' .. W''' are NaN, so a read of them shows
    X = np.vstack((W, np.full((3, s.size), np.nan)))
    return replace(template, spectrum=spec, s_grid=s, X=X)


def test_fit_recovers_synthetic_coefficients(sol_quick, pc13):
    spec = compute_spectrum(ProblemParams(13, pc13 + 1.0))
    truth = {"a0": spec.L, "a1": -3.5, "a2": 40.0, "b1": 7.5}
    fake = _synthetic_solution(sol_quick, spec, truth, "a", 1)
    fit = fit_expansion(fake, spec, Regime("a", 1), window=(2.2, 6.5))
    for name, val in truth.items():
        est = fit.coefficients[name]
        assert est.value == pytest.approx(val, rel=1e-4, abs=5e-7), name


@pytest.mark.parametrize("window", [(5.0, 3.0), (5.0, 5.0), (np.nan, 5.0), (5.0, np.inf)])
def test_windows_that_are_not_finite_and_ascending_are_rejected(sol_quick, window):
    # such a window selects no node, which the fit read as WindowTooShort
    # ("0 nodes cannot support 4 coefficients") and the representation check
    # as an IndexError (NaN); it is invalid input, named
    regime = detect_regime(sol_quick.params, compute_ladder(13))
    with pytest.raises(InvalidParams, match=r"fit window .* must be finite with s_lo < s_hi"):
        fit_expansion(sol_quick, sol_quick.spectrum, regime, window)
    with pytest.raises(InvalidParams, match="fit window"):
        window_shift_stability(sol_quick, sol_quick.spectrum, regime, window)
    with pytest.raises(InvalidParams, match="fit window"):
        representation_check(sol_quick, window=window)


def test_fit_recovers_synthetic_regime_c(sol_quick, pc13):
    spec = compute_spectrum(ProblemParams(13, pc13))
    truth = {"a0": spec.L, "b1": -23.0, "a1": 31.0, "b2": -2500.0}
    fake = _synthetic_solution(sol_quick, spec, truth, "c", 1)
    fit = fit_expansion(fake, spec, Regime("c", 1), window=(2.2, 6.5))
    for name, val in truth.items():
        est = fit.coefficients[name]
        assert est.value == pytest.approx(val, rel=5e-4, abs=1e-6), name


def test_fit_recovers_synthetic_regime_b(sol_rung):
    spec = sol_rung.spectrum
    truth = {"a0": spec.L, "a1": -11.0, "b1": 230.0, "a2": -95.0}
    fake = _synthetic_solution(sol_rung, spec, truth, "b", 2)
    fit = fit_expansion(fake, spec, Regime("b", 2), window=(2.2, 6.5))
    for name, val in truth.items():
        est = fit.coefficients[name]
        assert est.value == pytest.approx(val, rel=1e-3, abs=1e-6), name


def test_fit_on_converged_solution(sol_a):
    spec = sol_a.spectrum
    regime = detect_regime(sol_a.params, compute_ladder(13))
    fit = fit_expansion(sol_a, spec, regime)
    a0 = fit.coefficients["a0"]
    assert abs(a0.value - spec.L) < 1e-3 * spec.L
    assert a0.resolved
    lam3 = spec.lambdas[2]
    assert fit.residual_slope <= fit.theoretical_slope + 0.15 * abs(lam3)
    drift = window_shift_stability(sol_a, spec, regime)
    assert max(drift.values()) <= 3.0


def test_window_shift_moves_left_at_the_last_node(sol_a):
    # a window that ends at the lattice's last node would pass it moved
    # right, so it moves left by a tenth of its width: the drift is that
    # between the fits on the two windows.  The move is never zero: pulled
    # back to end at the last node, the moved window rounded to the window
    # itself on case A, and every drift read 0.
    spec, s_max = sol_a.spectrum, float(sol_a.s_grid[-1])
    regime = detect_regime(sol_a.params, compute_ladder(13))
    window = (5.0, s_max)
    step = 0.1 * (s_max - 5.0)
    base = fit_expansion(sol_a, spec, regime, window)
    moved = fit_expansion(sol_a, spec, regime, (5.0 - step, s_max - step))
    drift = window_shift_stability(sol_a, spec, regime, window)
    assert drift == {
        name: abs(moved.coefficients[name].value - est.value) / max(est.stderr, 1e-300)
        for name, est in base.coefficients.items()
    }
    assert all(value > 0.0 for value in drift.values())


@pytest.mark.parametrize("cell", ["sol_a", "sol_c"])
def test_drift_covers_exactly_the_fit_coefficients(cell, request):
    # both fits of the drift report share one regime, so every coefficient
    # of the fit gets a drift, and no other name appears
    sol = request.getfixturevalue(cell)
    regime = detect_regime(sol.params, compute_ladder(13))
    fit = fit_expansion(sol, sol.spectrum, regime)
    drift = window_shift_stability(sol, sol.spectrum, regime)
    assert list(drift) == list(fit.coefficients)
    assert all(math.isfinite(value) and value >= 0.0 for value in drift.values())


def test_fit_regime_b_on_rung_solution(sol_rung):
    spec = sol_rung.spectrum
    regime = detect_regime(sol_rung.params, compute_ladder(15))
    assert regime == Regime("b", 2)
    fit = fit_expansion(sol_rung, spec, regime)
    assert abs(fit.coefficients["a0"].value - spec.L) < 1e-3 * spec.L
    assert "b1" in fit.coefficients and "a2" in fit.coefficients


def test_fit_regime_c_b2_resolved(sol_c):
    regime = Regime("c", 1)
    fit = fit_expansion(sol_c, sol_c.spectrum, regime)
    assert fit.coefficients["b2"].resolved


def test_plain_basis_degenerates_on_rung(sol_rung):
    # lam2 = 2 lam3 exactly on the rung: the regime-a columns collide
    with pytest.raises(IllConditioned):
        fit_expansion(sol_rung, sol_rung.spectrum, Regime("a", 1))


def test_window_too_short(sol_a):
    with pytest.raises(WindowTooShort):
        fit_expansion(sol_a, sol_a.spectrum, Regime("a", 1), window=(3.0, 3.1))


@pytest.fixture(scope="module")
def sol_n40():
    """n = 40 at p_c + 0.5 and at 10 p_c, r_max 1e4 (about 0.25 s each)."""
    lad = compute_ladder(40)
    return {label: shoot(ProblemParams(40, p), alpha=1.0, r_max=1e4)
            for label, p in (("pc+0.5", lad.p_c + 0.5), ("10pc", 10.0 * lad.p_c))}


def test_representation_evaluates_g_from_w_near_the_origin(sol_n40):
    # At r = 1e-3, W = 2.3e-14 against L = 1.47e5, so Y = W - L rounds to
    # exactly -L, where g_eval is undefined; g from W stays finite there
    # (measured deviation 1.4e-9)
    sol = sol_n40["pc+0.5"]
    with pytest.raises(DomainError):
        g_eval(Nonlinearity(L=sol.spectrum.L, p=sol.params.p), sol.Y)
    assert representation_check(sol) < 1e-8


def test_ill_conditioned_fit_names_regime_k_columns_and_condition(sol_n40):
    # p = 10 p_c is regime a with k = 15, far from any rung: the message
    # names the regime, k, the column count and the condition, and gives no
    # rung hint (measured condition 1.41e13)
    sol = sol_n40["10pc"]
    regime = detect_regime(sol.params, compute_ladder(40))
    assert regime == Regime("a", 15)
    with pytest.raises(IllConditioned) as info:
        fit_expansion(sol, sol.spectrum, regime)
    message = str(info.value)
    found = re.fullmatch(
        r"fit design matrix condition (\S+) > 1e\+12 in regime a, k = 15, with 18 columns",
        message,
    )
    assert found is not None, message
    assert float(found[1]) > 1e12
    assert "rung" not in message and "log-corrected" not in message


def test_vanished_column_is_a_typed_refusal(sol_n200_10pc):
    # n = 200 at 10 p_c is regime a with k = 95: of its 98 columns e^{j lam3 s},
    # a58 on underflow to exactly 0 on the default window, whose 0/0 scaling
    # made np.linalg.cond raise a bare LinAlgError
    sol = sol_n200_10pc
    regime = detect_regime(sol.params, compute_ladder(200))
    assert regime == Regime("a", 95)
    with pytest.raises(IllConditioned) as info:
        fit_expansion(sol, sol.spectrum, regime)
    assert str(info.value) == (
        "fit design matrix: column a58 has maximum 0.0 on the window in regime a, k = 95, "
        "with 98 columns"
    )
