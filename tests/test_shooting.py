import builtins
import io
import math
import random
import re
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from biharm import (
    BracketNotFound,
    GridTooCoarse,
    InvalidParams,
    NoConvergence,
    ProblemParams,
    StepFailure,
    compute_pc,
    compute_spectrum,
)
from biharm.fdiff import central_offsets, diff_uniform, fd_weights
from biharm.ivp import solve_ivp
import biharm.shooting
from biharm.shooting import (
    _CHORD_SWITCH,
    _DS,
    _EXT_NODES,
    _MAX_BISECT,
    _PROBE_HI,
    _PROBE_LO,
    _PUSH,
    _R_SEED,
    _R_SERIES_CAP,
    _R_SWITCH,
    BlowUp,
    RadialSolution,
    ShootControls,
    SignLoss,
    _Best,
    _bisect,
    _chord_trial,
    _Integrator,
    _power,
    _refine_unstable,
    _s_operator_coeffs,
    check_monotone_y,
    check_positivity,
    decay_slope,
    dump_solution,
    emden_fowler_residual,
    exp_kernel_convolve,
    integrate_radial,
    rescale_solution,
    resolved_top_index,
    shoot,
    y_integral_identity_check,
)


def test_fd_weights_reproduce_exponential():
    # stencils generated from the moment system must differentiate e^{cs}
    c, h = 1.7, 0.01
    s = h * np.arange(-6, 7)
    y = np.exp(c * s)
    for deriv in (1, 2, 3, 4):
        offs = central_offsets(deriv, 4)
        w = fd_weights(offs, deriv) / h**deriv
        approx = sum(wj * math.exp(c * o * h) for wj, o in zip(w, offs))
        assert approx == pytest.approx(c**deriv, rel=1e-6)


def test_diff_uniform_interior():
    h = 0.01
    s = h * np.arange(200)
    y = np.exp(-2.0 * s)
    d3 = diff_uniform(y, h, 3, acc=4)
    margin = (y.size - d3.size) // 2
    expected = -8.0 * np.exp(-2.0 * s[margin:-margin])
    assert np.allclose(d3, expected, rtol=1e-8)
    with pytest.raises(GridTooCoarse):
        diff_uniform(y[:6], h, 4, acc=4)


def test_v0_zero_blows_up(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    out = integrate_radial(params, alpha=1.0, v0=0.0, r_max=100.0)
    assert isinstance(out, BlowUp)
    out = integrate_radial(params, alpha=1.0, v0=-1e-6, r_max=100.0)
    assert isinstance(out, BlowUp)


def test_too_negative_v0_loses_sign(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    out = integrate_radial(params, alpha=1.0, v0=-100.0, r_max=100.0)
    assert isinstance(out, SignLoss)
    assert out.r > 0.0


@pytest.mark.parametrize("n, p_of_pc", [
    (13, lambda pc: pc + 0.5),
    (20, lambda pc: 10.0 * pc),
    (100, lambda pc: pc),
])
def test_scalar_rhs_matches_array_reference(n, p_of_pc):
    # the scalar right-hand sides must reproduce the array formula built on
    # _power bit for bit, including u < 0, u = 0 and u above the power cap
    params = ProblemParams(n, p_of_pc(compute_pc(n)))
    integ = _Integrator(params, 1.0, ShootControls())
    c = _s_operator_coeffs(n, params.m)
    nm1, cap = n - 1.0, integ.pow_cap
    rng = np.random.default_rng(20240)
    states = rng.normal(size=(64, 4)) * 10.0 ** rng.uniform(-6.0, 3.0, size=(64, 1))
    states[:8, 0] = -np.abs(states[:8, 0])
    states[8:12, 0] = 0.0
    states[12:16, 0] = min(cap * 10.0, 1e300) * rng.uniform(0.2, 1.0, size=4)
    assert np.all(states[12:16, 0] > cap)
    for y, r in zip(states, rng.uniform(1e-3, 12.0, size=64)):
        u, w, v, z = y
        ref_r = (w, v - nm1 * w / r, z, _power(u, params.p, cap) - nm1 * z / r)
        ref_s = (w, v, z, _power(u, params.p, cap) - (c[1] * z + c[2] * v + c[3] * w + c[4] * u))
        for ref, got in ((ref_r, integ.rhs_r(r, y)), (ref_s, integ.rhs_s(math.log(r), y))):
            ref, got = np.array(ref, dtype=float), np.array(got, dtype=float)
            assert np.all(got == ref)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


# --- the series start --------------------------------------------------------

def _taylor_seed(n, p, alpha, v0, r):
    """The 4th-order Taylor start the series replaced: u through r^4, u'
    through r^3, Delta u through r^4, (Delta u)' through r^3."""
    c2 = 1.0 / (2.0 * n)
    c4 = 1.0 / (8.0 * n * (n + 2.0))
    ap = alpha**p
    u = alpha + v0 * c2 * r**2 + ap * c4 * r**4
    w = v0 * r / n + ap * r**3 / (2.0 * n * (n + 2.0))
    v = v0 + ap * c2 * r**2 + p * alpha ** (p - 1.0) * v0 * c4 * r**4
    z = ap * r / n + p * alpha ** (p - 1.0) * v0 * r**3 / (2.0 * n * (n + 2.0))
    return np.array([u, w, v, z])


_SERIES_CELLS = {
    "A": (13, lambda pc: pc + 0.5),
    "n13_10pc": (13, lambda pc: 10.0 * pc),
    "n20_100pc": (20, lambda pc: 100.0 * pc),
}


def _series_integrator(cell):
    n, p_of_pc = _SERIES_CELLS[cell]
    return _Integrator(ProblemParams(n, p_of_pc(compute_pc(n))), 1.0, ShootControls())


@pytest.mark.parametrize("cell", list(_SERIES_CELLS))
@pytest.mark.parametrize("v0", [_PROBE_HI, -0.3, -30.0, _PROBE_LO])
def test_series_solves_the_equation_at_its_start(cell, v0):
    # Delta^2 u - u^p of the truncated series at r0, with Delta^2 x^k =
    # 2k (2k-2) (2k+n-2) (2k+n-4) x^(k-2), is at the rounding of its two
    # sides: a few eps of the terms' sum and of u^p, whose condition is p
    # (measured: at most 0.5 eps of those)
    integ = _series_integrator(cell)
    n, p = integ.n, integ.p
    r0, (u, _, _, _) = integ.start(v0, _R_SWITCH)
    assert _R_SEED <= r0 <= _R_SERIES_CAP
    x = r0 * r0
    terms = [a_k * (2 * k) * (2 * k - 2) * (2 * k + n - 2) * (2 * k + n - 4) * x ** (k - 2)
             for k, a_k in enumerate(integ.series(v0).coeffs[0]) if k >= 2]
    eps = np.finfo(float).eps
    assert abs(math.fsum(terms) - u**p) <= 4.0 * eps * (math.fsum(map(abs, terms)) + p * u**p)


@pytest.mark.parametrize("cell", list(_SERIES_CELLS))
@pytest.mark.parametrize("v0", [_PROBE_HI, -0.3, -30.0, _PROBE_LO])
def test_series_extends_the_taylor_seed(cell, v0):
    # at r = 1e-3 the series and the old 4th-order seed differ by that
    # seed's first omitted term (a_3 r^6 in u, 6 a_3 r^5 in u', b_3 r^6 and
    # 6 b_3 r^5 in Delta u and its derivative) and the rounding
    integ = _series_integrator(cell)
    r = 1e-3
    series = integ.series(v0)
    got = np.array(series.state(r))
    old = _taylor_seed(integ.n, integ.p, 1.0, v0, r)
    omitted = np.array([abs(c[3 - e]) * r**e * r ** (2 * (3 - e))
                        for c, e in zip(series.coeffs, (0, 1, 0, 1))])
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - old) <= 2.0 * omitted + 4.0 * eps * np.abs(old))


@pytest.mark.parametrize("u_coeffs, w_max, r0", [
    # u = 1 - r^2 reaches zero at r_cap = 1: the sign guard halves x once
    ([1.0, -1.0], math.inf, math.sqrt(0.5)),
    # u = 1 + r^2 with r^m u at r = 1 above w_max = 1.5: the amplitude guard
    ([1.0, 1.0], 1.5, math.sqrt(0.5)),
    # w_max below r^m u at every r > _R_SEED (r^m > 0.36 there): no radius
    # passes, and the start falls back to _R_SEED
    ([1.0, 1.0], 0.3, _R_SEED),
])
def test_series_start_keeps_escape_events_ahead(u_coeffs, w_max, r0):
    # exact polynomials, whose truncation bound is 0, so only the event
    # guards limit the start radius
    integ = _series_integrator("A")
    series = integ.series(-0.3)
    zeros = [0.0] * len(series.coeffs[1])
    series.coeffs = (u_coeffs + [0.0] * (len(series.coeffs[0]) - 2), zeros, zeros, zeros[1:])
    assert series.seed_radius(integ.m, w_max, 1.0) == pytest.approx(r0, rel=1e-15)


@pytest.mark.parametrize("cell, v0", [("A", None), ("n13_10pc", -0.3), ("n13_10pc", _PROBE_HI)])
def test_series_start_matches_an_r_leg_from_the_taylor_seed(cell, v0, sol_a):
    # the state at r0 against DOP853 from the old seed at r = 1e-3
    # (measured: at most 3e-13 relative, per entry)
    integ = _series_integrator(cell)
    v0 = sol_a.v0 if v0 is None else v0
    r0, y0 = integ.start(v0, _R_SWITCH)
    assert r0 > 1e-3
    rhs, events = integ.charts["r"]
    leg = solve_ivp(rhs, (1e-3, r0), _taylor_seed(integ.n, integ.p, 1.0, v0, 1e-3),
                    rtol=ShootControls().rtol, atol=1e-2 * ShootControls().rtol, events=events)
    assert leg.status == 0 and leg.t[-1] == r0
    assert np.all(np.abs(np.array(y0) - leg.y[:, -1]) <= 1e-11 * np.abs(leg.y[:, -1]))


@pytest.mark.parametrize("cell, v0, outcome, r_event", [
    # outcomes and event radii of full shots from the old seed at r = 1e-3
    ("n13_10pc", _PROBE_HI, BlowUp, 2.2081259296854427),
    ("n13_10pc", _PROBE_LO, SignLoss, 0.16124515530126685),
    ("n20_100pc", _PROBE_HI, BlowUp, 2.716346218170594),
    ("n20_100pc", _PROBE_LO, SignLoss, 0.20000000044319394),
])
def test_series_start_keeps_the_ladder_end_outcomes(cell, v0, outcome, r_event):
    integ = _series_integrator(cell)
    out, _, _ = integ.shot(v0, 1e4 * math.exp((_EXT_NODES + 1) * _DS))
    assert type(out) is outcome
    assert out.r == pytest.approx(r_event, rel=1e-9)


def _threshold_side(thr, trials):
    # blow-up side at and above thr; records every point it is asked about
    def side(x):
        trials.append(x)
        return 1 if x >= thr else -1
    return side


def test_bisect_collapses_to_adjacent_floats():
    trials = []
    steps, _, _ = _bisect(_threshold_side(0.3, trials), 1.0, 0.0)
    assert steps == len(trials) < _MAX_BISECT
    up = min(x for x in trials if x >= 0.3)
    dn = max(x for x in trials if x < 0.3)
    assert np.nextafter(dn, math.inf) == up


def test_bisect_done_stops_early():
    trials = []
    steps, _, _ = _bisect(_threshold_side(0.3, trials), 1.0, 0.0, done=lambda up, dn: up - dn < 1e-3)
    # 2^-10 < 1e-3 < 2^-9: the tenth halving is the first that satisfies done
    assert steps == len(trials) == 10


def test_bisect_stops_at_step_cap():
    # the threshold sits among the subnormals, more than _MAX_BISECT halvings below 1
    trials = []
    steps, _, _ = _bisect(_threshold_side(5e-324, trials), 1.0, 0.0)
    assert steps == len(trials) == _MAX_BISECT


def _escape_law_side(root, slope_up, slope_dn, trials):
    # escape-law values linear in x on each side of root, one slope per side
    def side(x):
        trials.append(x)
        return (slope_up if x >= root else slope_dn) * (x - root)
    return side


def _assert_straddles(trials, root):
    up = min(x for x in trials if x >= root)
    dn = max(x for x in trials if x < root)
    assert np.nextafter(dn, math.inf) == up


# case A's ladder bracket and converged v0
_A_UP, _A_DN, _A_ROOT = -0.1, -0.31622776601683794, -0.26689115343676695


def test_bisect_returns_collapsed_bracket():
    # the returned (up, dn) are the adjacent floats straddling the threshold,
    # for pure midpoints and for model steps alike
    trials = []
    steps, up, dn = _bisect(_threshold_side(0.3, trials), 1.0, 0.0)
    assert steps == len(trials)
    assert up >= 0.3 > dn and np.nextafter(dn, math.inf) == up
    side = _escape_law_side(_A_ROOT, 2.3e12, 4.6e11, [])
    steps, up, dn = _bisect(side, _A_UP, _A_DN, ends=(side(_A_UP), side(_A_DN)))
    assert up >= _A_ROOT > dn and np.nextafter(dn, math.inf) == up


def test_model_step_collapses_case_a_side():
    # case A's measured slopes per unit v0: 2.3e12 on the blow-up side and
    # 4.6e11 on the sign-loss side; bisection needs 52 trials here
    trials = []
    side = _escape_law_side(_A_ROOT, 2.3e12, 4.6e11, trials)
    ends = (side(_A_UP), side(_A_DN))
    steps, _, _ = _bisect(side, _A_UP, _A_DN, ends=ends)
    assert steps == len(trials) - 2 <= 20
    _assert_straddles(trials, _A_ROOT)


def test_model_step_within_three_bisections_on_wrong_models():
    # Sides with the right signs whose models mislead: magnitudes drawn
    # anywhere in 1e-300..1e300, and sides flat at the root, |x - x*|^k, on
    # which unguarded model steps creep (k = 8 and 16 then hit _MAX_BISECT).
    # The safeguard still collapses within 3x the bisection count.
    n_bisect, _, _ = _bisect(_threshold_side(_A_ROOT, []), _A_UP, _A_DN)

    def drawn(seed):
        rng = np.random.default_rng(seed)
        return lambda x: 10.0 ** rng.uniform(-300.0, 300.0)

    def flat(k):
        return lambda x: abs(x - _A_ROOT) ** k

    for magnitude in [drawn(seed) for seed in range(200)] + [flat(k) for k in (2, 4, 8, 16)]:
        trials = []

        def side(x):
            trials.append(x)
            return (1.0 if x >= _A_ROOT else -1.0) * magnitude(x)

        ends = (side(_A_UP), side(_A_DN))
        steps, _, _ = _bisect(side, _A_UP, _A_DN, ends=ends)
        assert steps == len(trials) - 2 <= 3 * n_bisect
        _assert_straddles(trials, _A_ROOT)


def test_escape_law_values():
    # survivors give their end residual; escapes carry their event amplitude
    # (0.5 at blow-up, -1 at sign loss) to the horizon along e^{lam4 s}
    lam4, s_end = 3.0, math.log(100.0)
    outcomes = {1.0: BlowUp(r=10.0), 2.0: SignLoss(r=50.0), 3.0: -0.25, 4.0: 0.125,
                5.0: BlowUp(r=1e-300)}
    best = _Best(outcomes.__getitem__, lam4, s_end)
    assert best.side(1.0) == pytest.approx(0.5 * 10.0**lam4, rel=1e-12)
    assert best.side(2.0) == pytest.approx(-(2.0**lam4), rel=1e-12)
    assert best.side(3.0) == -0.25
    assert best.side(4.0) == 0.125
    assert best.side(5.0) == 0.5 * math.exp(700.0)  # capped, still finite
    assert (best.x, best.rho) == (4.0, 0.125)
    assert sorted(best.g) == sorted(outcomes)


def test_case_a_root_search_work(sol_a):
    # deterministic work count over all stages; bisection took 118 trials
    assert sol_a.n_bisect < 100


def test_case_b_refinement_stops_at_the_noise_floor(sol_b):
    # refinement stages stop at their checkpoint's ulp noise floor; run to a
    # fixed mu floor instead they took 80 trials in all
    assert sol_b.n_bisect < 50


def test_shoot_r_chart_only(pc13):
    # r_max <= r_switch: the shooter never enters the s-chart
    params = ProblemParams(13, pc13 + 0.5)
    sol = shoot(params, alpha=1.0, r_max=5.0)
    assert isinstance(sol, RadialSolution)
    assert math.isnan(sol.chart_overlap_residual)
    assert sol.n_bisect > 0
    assert abs(sol.target_residual) < 1e-2
    again = integrate_radial(params, alpha=1.0, v0=sol.v0, r_max=5.0)
    assert np.array_equal(again.s_grid, sol.s_grid)
    assert np.array_equal(again.W, sol.W)
    # the bisection classifies shots at the stencil margin past r_max, and its
    # best survivor ends there on W = L
    r_cls = 5.0 * math.exp((_EXT_NODES + 1) * _DS)
    edge = integrate_radial(params, alpha=1.0, v0=sol.v0, r_max=r_cls)
    assert abs(edge.W[-1] / edge.spectrum.L - 1.0) < 1e-9


def test_solve_ivp_calls_are_traceable(pc13, monkeypatch):
    # Tracing swaps the module's solve_ivp and labels each call's chart by the
    # right-hand side's __name__; every integration must be visible that way,
    # so every RHS evaluation must happen inside such a call.  The scalar
    # right-hand sides (the initial step's two calls) and the leg kernels
    # (12 per attempted step, 3 per interpolant) are counted where the chart
    # factories hand them out, and must add up to the calls' nfev.
    plain = biharm.shooting.solve_ivp
    inside, nfev, evaluated = [], Counter(), Counter()

    def counting_solve_ivp(fun, *args, **kwargs):
        inside.append(fun.__name__)
        try:
            result = plain(fun, *args, **kwargs)
        finally:
            inside.pop()
        nfev[fun.__name__] += result.nfev
        return result

    def counted(factory):
        def make(**constants):
            rhs = factory(**constants)
            name, kernel = rhs.__name__, rhs.kernel

            def counted_kernel(*args):
                assert inside == [name]
                out = status, _, steps, _, _ = kernel(*args)
                dense = args[-1]
                evaluated[name] += 12 * steps + 3 * (len(dense) if dense is not None else status == 1)
                return out

            def counted_rhs(x, u):
                assert inside == [name]
                evaluated[name] += 1
                return rhs(x, u)

            counted_rhs.__name__, counted_rhs.events, counted_rhs.kernel = name, rhs.events, counted_kernel
            return counted_rhs
        return make

    monkeypatch.setattr(biharm.shooting, "solve_ivp", counting_solve_ivp)
    for chart, factory in biharm.shooting._CHARTS.items():
        monkeypatch.setitem(biharm.shooting._CHARTS, chart, counted(factory))
    shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=60.0)
    assert set(nfev) == {"rhs_r", "rhs_s"}
    assert nfev == evaluated


def test_shoot_compiles_nothing(sol_quick, monkeypatch):
    # The leg kernels are compiled once, at import; an integrator only binds
    # its constants into them (a compile costs milliseconds per chart).
    def refuse(*args, **kwargs):
        raise AssertionError("compile or exec called while shooting")

    with monkeypatch.context() as patched:  # undone before a failure is reported
        patched.setattr(builtins, "compile", refuse)
        patched.setattr(builtins, "exec", refuse)
        _Integrator(sol_quick.params, 1.0, ShootControls())
        v0 = shoot(sol_quick.params, alpha=1.0, r_max=500.0).v0
    assert v0 == sol_quick.v0


def test_integrate_radial_at_converged_v0(sol_quick):
    # The solve's first legs are the dense rerun of its accepted v0; no
    # refinement checkpoint lies before log r_switch + 0.5, so W up to there
    # is that single shot's, bit for bit.  The refined tail is not compared.
    again = integrate_radial(
        sol_quick.params, alpha=1.0, v0=sol_quick.v0, r_max=500.0
    )
    assert not isinstance(again, (BlowUp, SignLoss))
    assert np.array_equal(again.s_grid, sol_quick.s_grid)
    head = sol_quick.s_grid < math.log(_R_SWITCH) + 0.5
    assert np.any(head)
    assert np.array_equal(again.W[head], sol_quick.W[head])


def test_shoot_converges(sol_quick):
    assert abs(sol_quick.target_residual) < 1e-3
    assert check_positivity(sol_quick)
    assert check_monotone_y(sol_quick)
    assert sol_quick.chart_overlap_residual < 1e-9
    assert sol_quick.v0 < 0.0


def test_shoot_v0_regression(sol_quick, sol_a):
    # frozen shooting parameters for phi(0) = 1 (regression fixtures)
    assert sol_quick.v0 == pytest.approx(-0.2668911534, rel=1e-6)
    assert sol_a.v0 == pytest.approx(-0.2668911534, rel=1e-6)


def test_determinism(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    s1 = shoot(params, alpha=1.0, r_max=60.0)
    s2 = shoot(params, alpha=1.0, r_max=60.0)
    assert s1.v0 == s2.v0
    assert np.array_equal(s1.W, s2.W)


def test_w_is_scaled_phi(sol_quick):
    m = sol_quick.params.m
    assert np.array_equal(sol_quick.phi, sol_quick.W / sol_quick.r_grid**m)


def test_scale_covariance(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    base = shoot(params, alpha=1.0, r_max=100.0)
    alpha = 2.0**params.m
    mapped = rescale_solution(base, alpha)
    direct = shoot(params, alpha=alpha, r_max=50.0)
    lo = max(direct.s_grid[0], mapped.s_grid[0]) + 0.1
    hi = min(direct.s_grid[-1], mapped.s_grid[-1]) - 0.1
    ss = np.linspace(lo, hi, 300)
    wd = np.interp(ss, direct.s_grid, direct.W)
    wm = np.interp(ss, mapped.s_grid, mapped.W)
    assert np.max(np.abs(wd - wm)) / np.max(np.abs(wd)) < 1e-5
    # v0 transforms with kappa^{m+2}
    kappa = alpha ** (1.0 / params.m)
    assert mapped.v0 == pytest.approx(base.v0 * kappa ** (params.m + 2.0))
    assert direct.v0 == pytest.approx(mapped.v0, rel=1e-6)


def test_phia_limit_window(sol_quick):
    # |r^m phi / L - 1| below tolerance and decreasing over the resolved tail
    L = sol_quick.spectrum.L
    top = resolved_top_index(sol_quick, 1e-9)
    ratio = np.abs(sol_quick.W[: top + 1] / L - 1.0)
    start = int(0.9 * ratio.size)
    window = ratio[start:]
    assert np.all(window < 1e-3)
    assert np.all(np.diff(window) <= 0.0)


def test_z_nonnegative_on_resolved_range(sol_quick):
    top = resolved_top_index(sol_quick, 1e-8)
    Z = sol_quick.Z[: top + 1]
    assert np.all(Z > -1e-8 * np.max(np.abs(Z)))


def test_decay_slope_matches_lam3(sol_quick):
    lam3 = sol_quick.spectrum.lambdas[2]
    slope = decay_slope(sol_quick)
    assert abs(slope - lam3) <= 0.1 * abs(lam3)


def test_emden_fowler_residual(sol_quick):
    res = emden_fowler_residual(sol_quick)
    assert res < 1e-4
    # the singular solution W = L satisfies the transform identically
    L = sol_quick.spectrum.L
    flat = replace(sol_quick, W=np.full_like(sol_quick.W, L))
    # constant W: the defect is pure stencil rounding, eps amplified by 1/h^4
    assert emden_fowler_residual(flat) < 1e-7
    # residual is sensitive: a 1e-3 multiplicative ripple must stand out
    ripple = sol_quick.W * (1.0 + 1e-3 * np.sin(sol_quick.s_grid))
    bent = replace(sol_quick, W=ripple)
    assert emden_fowler_residual(bent) > 10.0 * res


def test_emden_fowler_grid_too_coarse(sol_quick):
    stub = replace(
        sol_quick,
        s_grid=sol_quick.s_grid[:12],
        W=sol_quick.W[:12],
    )
    with pytest.raises(GridTooCoarse):
        emden_fowler_residual(stub)


def test_y_integral_identity(sol_quick):
    dev = y_integral_identity_check(sol_quick)
    assert dev < 1e-3
    # deviation grows monotonically as lam4 is misstated
    spec = sol_quick.spectrum
    devs = [dev]
    for bump in (1.01, 1.02):
        l = spec.lambdas
        fake = replace(spec, lambdas=(l[0], l[1], l[2], l[3] * bump))
        devs.append(y_integral_identity_check(sol_quick, fake))
    assert devs[0] < devs[1] < devs[2]


def test_exp_kernel_convolve_zero_and_oracle():
    s = np.linspace(0.0, 4.0, 401)
    assert np.all(exp_kernel_convolve(-3.0, s, np.zeros_like(s)) == 0.0)
    # closed form for exponential forcing
    lam, mu = -3.0, -1.0
    g = np.exp(mu * s)
    got = exp_kernel_convolve(lam, s, g)
    exact = (np.exp(mu * s) - np.exp(lam * s)) / (mu - lam)
    assert np.max(np.abs(got - exact)) < 1e-4 * np.max(np.abs(exact))


@pytest.mark.parametrize("lam", [-3.0, -0.01, 40.0])
def test_exp_kernel_convolve_is_fourth_order(lam):
    # halving h cuts the error about 16-fold (the cubic rule), on a kernel
    # with |lam h| below and above the phi functions' series switch at 1/2;
    # measured ratios 15.1-15.6 at lam = -3 and -0.01
    errs = []
    for size in (101, 201, 401):
        s = np.linspace(0.0, 4.0, size)
        exact = (np.exp(-s) - np.exp(lam * s)) / (-1.0 - lam)
        got = exp_kernel_convolve(lam, s, np.exp(-s))
        errs.append(np.max(np.abs(got - exact)) / np.max(np.abs(exact)))
    assert errs[0] < 1e-7
    assert errs[0] / errs[1] > 12.0 and errs[1] / errs[2] > 12.0


def test_y_integral_identity_exact_on_synthetic_solution(sol_quick):
    # Z = e^{lam3 s} and Y = -Z/(lam4 - lam3) satisfy the identity exactly, so
    # only quadrature error remains, here with each n's own lam3 and lam4 at
    # p_c.  Linear interpolation of Z gave about h^2 lam3^2 / 12: 1.6e-4 at
    # n=13 up to 1.8e-3 at n=200, over the check's own bound 1e-3 from
    # n ~ 110.  The cubic rule measures 5.3e-8 (n=13) to 7.5e-6 (n=200).
    s = 0.01 * np.arange(801)
    spec = sol_quick.spectrum
    for n in (13, 40, 100, 150, 200):
        lam3, lam4 = compute_spectrum(ProblemParams(n, compute_pc(n))).lambdas[2:]
        Z = np.exp(lam3 * s)
        fake = replace(spec, lambdas=(*spec.lambdas[:2], lam3, lam4))
        synth = replace(sol_quick, spectrum=fake, s_grid=s, Y=-Z / (lam4 - lam3), Z=Z)
        assert y_integral_identity_check(synth) < 2e-4, n


def test_grid_consistency_under_tolerance_halving(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    base = shoot(params, alpha=1.0, r_max=500.0)
    tight = shoot(
        params, alpha=1.0, r_max=500.0,
        controls=ShootControls(rtol=5e-13),
    )
    change = abs(base.W[-1] - tight.W[-1])
    assert change < base.error_estimate


def test_dump_roundtrip(sol_quick):
    buf = io.StringIO()
    dump_solution(sol_quick, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "s,r,phi,W,Y,Z"
    assert len(lines) == sol_quick.s_grid.size + 1
    values = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(values[:, 0], sol_quick.s_grid)
    assert np.array_equal(values[:, 3], sol_quick.W)
    assert np.array_equal(values[:, 5], sol_quick.Z)


def test_dump_matches_the_per_value_format(sol_quick):
    # the dump formats whole rows with "%.17g"; it must give the text of the
    # per-value f"{x:.17g}" writer, special values included
    def per_value(sol):
        rows = zip(sol.s_grid, sol.r_grid, sol.phi, sol.W, sol.Y, sol.Z)
        lines = (",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
        return "s,r,phi,W,Y,Z\n" + "".join(lines)

    special = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-310])
    phi = sol_quick.phi.copy()
    phi[: special.size] = special
    Z = sol_quick.Z.copy()
    Z[-special.size :] = special[::-1]
    for sol in (sol_quick, replace(sol_quick, phi=phi, Z=Z)):
        buf = io.StringIO()
        dump_solution(sol, buf)
        assert buf.getvalue() == per_value(sol)


def test_chart_overlap_needs_its_window(pc13):
    # the overlap window starts at 1.02 r_switch; below that there is nothing
    # to compare and the residual is NaN rather than an extrapolation
    params = ProblemParams(13, pc13 + 0.5)
    assert 9.8 < _R_SWITCH * 1.02 < 11.0
    assert math.isnan(shoot(params, alpha=1.0, r_max=9.8).chart_overlap_residual)
    assert shoot(params, alpha=1.0, r_max=11.0).chart_overlap_residual < 1e-13


def test_input_validation(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    with pytest.raises(InvalidParams):
        shoot(params, alpha=-1.0, r_max=100.0)
    with pytest.raises(InvalidParams):
        integrate_radial(params, alpha=1.0, v0=-0.1, r_max=-5.0)


def test_chord_state_matches_full_shot(sol_quick):
    # Two full shots sqrt(eps)-relative apart around the converged v0: the
    # chord stage's s-chart start state at their midpoint must match the
    # midpoint's own full-shot r_switch state.  Measured: about 2e-12 of the
    # state's norm, while the two end states differ by about 2e-6.
    params, v0 = sol_quick.params, sol_quick.v0
    integ = _Integrator(params, 1.0, ShootControls())
    r_cls = 500.0 * math.exp((_EXT_NODES + 1) * _DS)
    half = 0.5 * _CHORD_SWITCH * abs(v0)
    up, dn = v0 + half, v0 - half  # up is nearer zero: the blow-up side
    mid = 0.5 * (up + dn)

    def start(v):
        _, _, legs = integ.shot(v, r_cls)
        return legs[0][1].y[:, 0]

    starts = {up: start(up), dn: start(dn)}
    legs_seen = []
    plain_leg = integ.leg

    def leg(chart, span, y0, dense=False):
        legs_seen.append((chart, span, y0))
        return plain_leg(chart, span, y0, dense)

    integ.leg = leg
    _chord_trial(integ, starts, up, dn, r_cls)(mid)
    (chart, span, y_chord), = legs_seen
    assert chart == "s"
    assert span == (math.log(_R_SWITCH), math.log(r_cls))
    y_mid = start(mid)
    scale = np.max(np.abs(y_mid))
    assert np.max(np.abs(starts[up] - starts[dn])) / scale > 1e-7
    assert np.max(np.abs(y_chord - y_mid)) / scale < 1e-10


def test_shoot_r_chart_only_never_enters_chord(pc13, monkeypatch):
    # r_max <= r_switch: no shot records an r_switch state, so no chord leg
    charts = Counter()
    plain_leg = _Integrator.leg

    def leg(self, chart, span, y0, dense=False):
        charts[chart] += 1
        return plain_leg(self, chart, span, y0, dense)

    monkeypatch.setattr(_Integrator, "leg", leg)
    sol = shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=5.0)
    assert sol.n_bisect > 0
    assert set(charts) == {"r"}


def test_refine_clamps_checkpoint_to_earliest_node(sol_c):
    # A dense shot a few ulps from the converged v0 ends with |rho| > 1e-3:
    # stage-1 rho is ulp-level noise in v0.  Its residue is too large to decay
    # to the refinement floor past the chart switch, so the checkpoint is
    # clamped to the earliest allowed lattice node, and the stage still
    # lowers |rho|.
    params, controls = sol_c.params, ShootControls()
    integ = _Integrator(params, 1.0, controls)
    r_cls = 1e4 * math.exp((_EXT_NODES + 1) * _DS)
    ulp = np.spacing(sol_c.v0)
    for k in (sign * j for j in range(1, 9) for sign in (1, -1)):
        rho, _, legs = integ.shot(sol_c.v0 + k * ulp, r_cls, dense=True)
        if isinstance(rho, float) and abs(rho) > 1e-3:
            break
    else:
        pytest.fail("no dense shot within 8 ulps of v0 ends with |rho| > 1e-3")
    refined = _refine_unstable(integ, legs, rho, r_cls)
    assert refined is not None
    s_c, _, rho_refined, used = refined
    s_lo = math.log(_R_SWITCH) + 0.5
    assert s_lo - 1e-12 <= s_c < s_lo + _DS
    assert abs(rho_refined) < abs(rho)
    assert used > 0


def test_acceptance_cases_refine_to_the_floor(sol_a, sol_b, sol_c):
    # all-or-nothing refinement: a refined solve does not stop at target_tol
    for sol in (sol_a, sol_b, sol_c):
        assert abs(sol.target_residual) < 1e-9


def test_rung_solution_monotone(sol_rung):
    assert check_monotone_y(sol_rung)


_STEP_FAILURE = re.compile(
    r"^(r|s)-chart step failed at r = (\S+): step size (\S+) in (r|s) is below 10 ulp of "
    r"(r|s) = (\S+), on the leg over (r|s) in \[(\S+), (\S+)\]$"
)


def _check_step_failure(message, chart, span):
    # the message names the chart, the radius, the step size and the leg's span
    found = _STEP_FAILURE.match(message)
    assert found is not None, message
    assert set(found.group(1, 4, 5, 7)) == {chart}
    r, h, t, lo, hi = (float(x) for x in found.group(2, 3, 6, 8, 9))
    assert r == pytest.approx(t if chart == "r" else math.exp(t), rel=1e-5)
    assert 0.0 < h < 10.0 * np.spacing(t)
    assert (lo, hi) == pytest.approx(span, rel=1e-5)
    assert lo < t < hi
    return r


def test_large_p_step_failure_names_r_chart(pc15, monkeypatch):
    # u^p stiffness at n=15, p = 100 p_c stops the first probe shot in the
    # r-chart; its leg starts at that shot's series radius
    shots = []
    plain_shot = _Integrator.shot

    def recording_shot(self, v0, r_max, dense=False):
        shots.append((self, v0))
        return plain_shot(self, v0, r_max, dense)

    monkeypatch.setattr(_Integrator, "shot", recording_shot)
    with pytest.raises(StepFailure) as info:
        shoot(ProblemParams(15, 100.0 * pc15), alpha=1.0, r_max=1e4)
    assert len(shots) == 1
    integ, v0 = shots[0]
    r0, _ = integ.start(v0, _R_SWITCH)
    assert _R_SEED < r0 <= _R_SERIES_CAP
    _check_step_failure(str(info.value), "r", (r0, _R_SWITCH))


def test_large_p_step_failure_names_s_chart(pc13):
    # at n=13, p = 10 p_c the steps underflow in the s-chart, past r_switch
    with pytest.raises(StepFailure) as info:
        shoot(ProblemParams(13, 10.0 * pc13), alpha=1.0, r_max=1e4)
    r_cls = 1e4 * math.exp((_EXT_NODES + 1) * _DS)
    r = _check_step_failure(str(info.value), "s", (math.log(_R_SWITCH), math.log(r_cls)))
    assert _R_SWITCH < r < r_cls


@pytest.mark.parametrize("fixture, r_max", [("sol_quick", 500.0), ("sol_c", 1e4)])
def test_dense_shot_replays_the_classifying_shot(fixture, r_max, request):
    # One shot geometry: dense output only adds interpolants, so the dense
    # rerun of the accepted v0 ends on the classifying shot's residual and
    # starts its s-chart from the same r_switch state, bit for bit.
    sol = request.getfixturevalue(fixture)
    integ = _Integrator(sol.params, 1.0, ShootControls())
    r_cls = r_max * math.exp((_EXT_NODES + 1) * _DS)
    rho_dense, _, legs_dense = integ.shot(sol.v0, r_cls, dense=True)
    rho, _, legs = integ.shot(sol.v0, r_cls)
    assert isinstance(rho, float) and rho_dense == rho
    assert np.array_equal(legs_dense[0][1].y[:, 0], legs[0][1].y[:, 0])


def test_no_survivor_names_trials_and_final_bracket(pc13, monkeypatch):
    # every full shot escapes at r = 5, so no trajectory survives: the error
    # names the trial count and the final bracket with its full shots'
    # escape-law values
    def shot(self, v0, r_max, dense=False):
        return (BlowUp if v0 >= -0.25 else SignLoss)(r=5.0), None, []

    monkeypatch.setattr(_Integrator, "shot", shot)
    with pytest.raises(NoConvergence) as info:
        shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=60.0)
    found = re.search(
        r"after (\d+) trials on the bracket \[(\S+), (\S+)\] \(sign-loss end first\), "
        r"where full shots give escape-law values g = (\S+), (\S+)$",
        str(info.value),
    )
    assert found is not None
    trials, dn, up, g_dn, g_up = (float(x) for x in found.groups())
    assert 0 < trials <= _MAX_BISECT
    assert dn < -0.25 <= up and np.nextafter(dn, math.inf) == up
    assert g_dn < 0.0 < g_up


@pytest.mark.parametrize("side", [BlowUp, SignLoss])
def test_ladder_without_a_flip_raises_bracket_not_found(pc13, monkeypatch, side):
    # every probe escapes to one side, so the ladder does not bracket: the
    # binary search ends beside the ladder's far end on that side, whose
    # probe, the last shot, confirms it
    shots = []

    def shot(self, v0, r_max, dense=False):
        shots.append(v0)
        return side(r=5.0), None, []

    monkeypatch.setattr(_Integrator, "shot", shot)
    with pytest.raises(BracketNotFound, match="do not bracket the separatrix"):
        shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=60.0)
    assert shots[-1] == pytest.approx(_PROBE_LO if side is BlowUp else _PROBE_HI, rel=1e-12)
    # the search's probes and that end: 6 and 5 of the ladder's 19
    assert len(shots) == (6 if side is BlowUp else 5)


@pytest.mark.parametrize("survives", [True, False])
def test_chord_pair_fallback_continues_full_shots(pc13, monkeypatch, survives):
    # Full shots blow up above S; S survives (or loses sign), and below it
    # every shot loses sign.  The chord legs flip 3 ulps above S, so the
    # chord stage collapses onto a pair whose full shots both blow up.  The
    # full-shot search then continues from the pair's lower end down to
    # stage 1's sign-loss end and finds S, or, when S does not survive,
    # names its collapsed full-shot bracket.
    S = -0.3
    T = S + 3.0 * np.spacing(S)

    def shot(self, v0, r_max, dense=False):
        if v0 > S:
            out = BlowUp(r=5.0)
        else:
            out = -1e-12 if v0 == S and survives else SignLoss(r=5.0)
        start = SimpleNamespace(y=np.array([[v0], [0.0], [0.0], [0.0]]))
        return out, None, [(math.log(_R_SWITCH), start)]

    def leg(self, chart, span, y0, dense=False):
        return (BlowUp if y0[0] >= T else SignLoss)(r=5.0), None

    trials = []
    plain_bisect = biharm.shooting._bisect

    def recording_bisect(*args, **kwargs):
        result = plain_bisect(*args, **kwargs)
        trials.append(result[0])
        return result

    monkeypatch.setattr(_Integrator, "shot", shot)
    monkeypatch.setattr(_Integrator, "leg", leg)
    monkeypatch.setattr(biharm.shooting, "_bisect", recording_bisect)
    monkeypatch.setattr(biharm.shooting, "_assemble_solution",
                        lambda integ, v0, r_max, sol_r, legs, n_bisect:
                        SimpleNamespace(v0=v0, n_bisect=n_bisect))
    params = ProblemParams(13, pc13 + 0.5)
    if survives:
        sol = shoot(params, alpha=1.0, r_max=60.0)
        assert sol.v0 == S
        n_bisect = sol.n_bisect
    else:
        with pytest.raises(NoConvergence) as info:
            shoot(params, alpha=1.0, r_max=60.0)
        found = re.search(r"after (\d+) trials on the bracket \[(\S+), (\S+)\]", str(info.value))
        assert found is not None
        assert (float(found[2]), float(found[3])) == (S, np.nextafter(S, 0.0))
        n_bisect = int(found[1])
    # stage 1, the chord stage and the fallback, whose trials all count
    assert len(trials) == 3 and trials[2] > 0
    assert n_bisect == sum(trials)


@pytest.mark.parametrize("controls, atol", [(ShootControls(), 1e-14), (ShootControls(rtol=5e-13), 5e-15)])
def test_integrator_atol_is_rtol_over_100(pc13, monkeypatch, controls, atol):
    # the one solve_ivp call site passes atol = 1e-2 * rtol, which is exact
    # for both tolerances in use
    plain = biharm.shooting.solve_ivp
    seen = set()

    def recording_solve_ivp(fun, *args, **kwargs):
        seen.add((kwargs["rtol"], kwargs["atol"]))
        return plain(fun, *args, **kwargs)

    monkeypatch.setattr(biharm.shooting, "solve_ivp", recording_solve_ivp)
    shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=60.0, controls=controls)
    assert seen == {(controls.rtol, atol)}
    assert atol == 1e-2 * controls.rtol


def _stub_refine(pc13, side):
    """_refine_unstable from a zero checkpoint state, rho1 = 1e-3, on a stub
    leg: side(mu, gain, eta) gives a trial's end residual.  Returns the
    result, the mu of each trial in order, and (gain, eta) of the stage."""
    integ = _Integrator(ProblemParams(13, pc13 + 0.5), 1.0, ShootControls())
    lam4 = integ.spec.lambdas[3]
    e4_0 = 1.0 / np.linalg.norm([1.0, lam4, lam4**2, lam4**3])
    mus, stage = [], {}

    def leg(chart, span, y0, dense=False):
        growth = math.exp(lam4 * (span[1] - span[0]))
        stage.update(gain=e4_0 * growth / integ.L, eta=np.finfo(float).eps * growth)
        mu = y0[0] / e4_0
        if not dense:
            mus.append(mu)
        return side(mu, stage["gain"], stage["eta"]), None

    integ.leg = leg
    legs = [(math.log(_R_SWITCH), SimpleNamespace(sol=lambda s: np.zeros(4)))]
    r_cls = 1e4 * math.exp((_EXT_NODES + 1) * _DS)
    return _refine_unstable(integ, legs, 1e-3, r_cls), mus, stage


def test_refine_opens_with_linearised_step(pc13):
    # on a linear side g = rho1 + G mu the first trial is mu1 = -(1 + _PUSH)
    # rho1 / G, which lands _PUSH past the root and so brackets it with mu = 0
    refined, mus, stage = _stub_refine(pc13, lambda mu, gain, eta: 1e-3 + gain * mu)
    assert refined is not None
    assert mus[0] == pytest.approx(-(1.0 + _PUSH) * 1e-3 / stage["gain"], rel=1e-15)
    assert 1e-3 + stage["gain"] * mus[0] < 0.0
    assert abs(refined[2]) < stage["eta"]


def test_refine_short_linearised_step_takes_one_secant_step(pc13):
    # the side's slope is 0.9 G, so mu1 stops at about 8% of rho1 on rho1's
    # side; the secant step through (0, rho1) and (mu1, g1) brackets the root
    def side(mu, gain, eta):
        return 1e-3 + 0.9 * gain * mu

    refined, mus, stage = _stub_refine(pc13, side)
    g1 = side(mus[0], stage["gain"], stage["eta"])
    assert 0.0 < g1 < 0.1 * 1e-3
    assert mus[1] == pytest.approx(mus[0] - (1.0 + _PUSH) * g1 * mus[0] / (g1 - 1e-3), rel=1e-12)
    assert side(mus[1], stage["gain"], stage["eta"]) < 0.0
    assert refined is not None and abs(refined[2]) < stage["eta"]


def test_refine_short_steps_below_the_floor_need_no_bracket(pc13):
    # the side levels off at eta / 4 past its linear root: mu1 stops at about
    # 3% of rho1, and the secant step reads eta / 4 on rho1's side, below
    # the floor, so the stage ends there without a bracket
    def side(mu, gain, eta):
        return max(1e-3 + 0.95 * gain * mu, 0.25 * eta)

    refined, mus, stage = _stub_refine(pc13, side)
    assert side(mus[0], stage["gain"], stage["eta"]) > stage["eta"]
    assert refined is not None
    assert refined[2] == 0.25 * stage["eta"]
    assert refined[3] == len(mus) == 2


def test_refine_without_bracket_returns_none_after_secant_step(pc13):
    # a side that stays positive (a survivor at 0.25 everywhere): neither the
    # linearised step nor the secant step brackets or reads below the floor,
    # so the stage gives up after exactly those two trials
    refined, mus, _ = _stub_refine(pc13, lambda mu, gain, eta: 0.25)
    assert refined is None
    assert len(mus) == 2 and mus[0] < 0.0
    assert mus[1] == pytest.approx(mus[0] - (1.0 + _PUSH) * 0.25 * mus[0] / (0.25 - 1e-3), rel=1e-12)


def test_refine_stops_at_the_noise_floor(pc13):
    # linear plus deterministic noise of amplitude eta / 2: trials past the
    # floor cannot lower |rho| below the noise, so the stage stops as soon as
    # a survivor reads |rho| < eta
    def side(mu, gain, eta):
        return 1e-3 + gain * mu + eta * random.Random(mu).uniform(-0.5, 0.5)

    refined, mus, stage = _stub_refine(pc13, side)
    assert refined is not None
    assert abs(refined[2]) < stage["eta"]
    assert refined[3] == len(mus) <= 6
