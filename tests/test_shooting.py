import builtins
import io
import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_bvp
from scipy.interpolate import CubicSpline

from biharm import (
    BiharmError,
    BracketNotFound,
    GridTooCoarse,
    InvalidParams,
    NoConvergence,
    ProblemParams,
    StepFailure,
    WindowTooShort,
    compute_pc,
    compute_spectrum,
)
from biharm.ivp import IvpResult, solve_ivp
from biharm.verify import solve_invariants
import biharm.collocation
import biharm.shooting
from biharm.shooting import (
    _BRACKET_STOP,
    _BVP_MAX_NODES,
    _BVP_NODES,
    _DS,
    _MAX_BISECT,
    _PROBE_HI,
    _PROBE_LO,
    _R_SEED,
    _R_SWITCH,
    _RTOL,
    _RTOL_BRACKET,
    _RTOL_PROBE,
    _S_PAD,
    _SERIES_ORDER,
    BlowUp,
    SignLoss,
    _bisect,
    _escape_law,
    _Integrator,
    _phis,
    _power,
    _r_to_s_state,
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

from fdiff import central_offsets, diff_uniform, fd_weights


def _state(W, Z, lam4, L):
    """The state X = (W, W', W'', W''') for a check that reads only W and Z:
    W' = Z + lam4 (W - L); W'' and W''' are NaN, so a read of them shows."""
    W = np.asarray(W, dtype=float)
    return np.vstack((W, Z + lam4 * (W - L), np.full((2, W.size), np.nan)))


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
    # at phi(0) = kappa^m the same shot, mapped by scale, loses sign at r / kappa
    m, kappa = params.m, 2.0
    mapped = integrate_radial(params, alpha=kappa**m, v0=-100.0 * kappa ** (m + 2.0), r_max=50.0)
    assert isinstance(mapped, SignLoss)
    assert mapped.r == pytest.approx(out.r / kappa, rel=1e-9)


@pytest.mark.parametrize("n, p_of_pc", [
    (13, lambda pc: pc + 0.5),
    (20, lambda pc: 10.0 * pc),
    (100, lambda pc: pc),
])
def test_scalar_rhs_matches_array_reference(n, p_of_pc):
    # the scalar right-hand sides must reproduce the array formula built on
    # _power of u capped at the power cap bit for bit, including u < 0, u = 0
    # and u above the cap
    params = ProblemParams(n, p_of_pc(compute_pc(n)))
    integ = _Integrator(params)
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
        up = _power(min(u, cap), params.p)
        ref_r = (w, v - nm1 * w / r, z, up - nm1 * z / r)
        ref_s = (w, v, z, up - (c[1] * z + c[2] * v + c[3] * w + c[4] * u))
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
    return _Integrator(ProblemParams(n, p_of_pc(compute_pc(n))))


@pytest.mark.parametrize("cell", list(_SERIES_CELLS))
@pytest.mark.parametrize("v0", [_PROBE_HI, -0.3, -30.0, _PROBE_LO])
def test_series_solves_the_equation_at_its_start(cell, v0):
    # Delta^2 u - u^p of the truncated series at r0, with Delta^2 x^k =
    # 2k (2k-2) (2k+n-2) (2k+n-4) x^(k-2), is at the rounding of its two
    # sides: a few eps of the terms' sum and of u^p, whose condition is p
    # (measured: at most 0.5 eps of those)
    integ = _series_integrator(cell)
    n, p = integ.n, integ.p
    r0, (u, _, _, _) = integ.start(integ.series(v0), _R_SWITCH)
    assert _R_SEED <= r0 <= _R_SWITCH / 2
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
    # w_max below r^m u at every r > _R_SEED (r^m > 0.36 there): the start
    # goes below _R_SEED, to the first r = 2^(-k/2) with r^m (1 + r^2)
    # below w_max (m = 0.1445, k = 25)
    ([1.0, 1.0], 0.3, 2.0 ** -12.5),
])
def test_series_start_keeps_escape_events_ahead(u_coeffs, w_max, r0):
    # exact polynomials, whose truncation bound is 0, so only the event
    # guards limit the start radius
    integ = _series_integrator("A")
    series = integ.series(-0.3)
    zeros = [0.0] * len(series.coeffs[1])
    series.coeffs = (u_coeffs + [0.0] * (len(series.coeffs[0]) - 2), zeros, zeros, zeros[1:])
    assert series.seed_radius(integ.m, w_max, 1.0) == pytest.approx(r0, rel=1e-15)


@pytest.mark.parametrize("p", [7.0, 8.0])
def test_series_start_stops_before_a_real_sign_loss(p):
    # at an integer p, u^p has no branch point at u = 0: at v0 = -1000 the
    # truncation radius on n = 15 (0.227, 0.197) lies past the sign loss at
    # sqrt(2n / |v0|) = 0.1732, and the sign guard halves x once, so the
    # shot starts before it and still loses sign there
    integ = _Integrator(ProblemParams(15, p))
    r0, _ = integ.start(integ.series(_PROBE_LO), _R_SWITCH)
    out, _, _ = integ.shot(_PROBE_LO, 1e4)
    assert type(out) is SignLoss and out.r == pytest.approx(math.sqrt(0.03), rel=1e-6)
    assert r0 < out.r < math.sqrt(2.0) * r0


@pytest.mark.parametrize("v0, w_max", [
    # no x > 0 keeps r^m u below w_max = 0: halved down to x = 0
    (-0.3, 0.0),
    # coefficients that overflow: the truncation radius is 0
    (-1e300, math.inf),
    # NaN coefficients: the event guard fails at every x
    (math.nan, math.inf),
])
def test_series_start_without_a_positive_radius_is_a_step_failure(v0, w_max):
    integ = _series_integrator("A")
    with pytest.raises(StepFailure, match="no positive start radius"):
        integ.series(v0).seed_radius(integ.m, w_max, 1.0)


def _miller_loop(n, p, v0):
    """The series' coefficient lists by the loop _Series ran before its
    tables: every weight, denominator and factor formed in place."""
    a = [1.0, v0 / (2.0 * n)]
    g = [1.0]
    for j in range(_SERIES_ORDER - 1):
        if j:
            g.append(sum(((p + 1.0) * i - j) * a[i] * g[j - i] for i in range(1, j + 1)) / j)
        a.append(g[j] / ((2 * j + 2) * (2 * j + 4) * (2 * j + n) * (2 * j + n + 2)))
    b = [(2 * j + 2) * (2 * j + n) * a[j + 1] for j in range(_SERIES_ORDER)]
    return a, [2 * k * a[k] for k in range(1, len(a))], b, [2 * j * b[j] for j in range(1, len(b))]


def _hex_parts(rows):
    """Nested real or complex numbers as (real, imag) float.hex pairs."""
    return [[(float(z.real).hex(), float(z.imag).hex()) for z in row] for row in rows]


@pytest.mark.parametrize("n", [13, 15, 40, 200])
@pytest.mark.parametrize("p_of_pc", [lambda pc: pc, lambda pc: math.floor(pc) + 1.0, lambda pc: 100.0 * pc],
                         ids=["pc", "integer", "100pc"])
def test_series_tables_reproduce_the_miller_loop(n, p_of_pc):
    # the tables take each product in the loop's order, so the coefficients
    # are the loop's bit for bit on a float, an np.float64 and a complex-step
    # v0 (the tangent's), in every part
    params = ProblemParams(n, p_of_pc(compute_pc(n)))
    integ = _Integrator(params)
    for v0 in (-0.3, np.float64(_PROBE_LO), complex(-0.3, 3e-21)):
        assert _hex_parts(integ.series(v0).coeffs) == _hex_parts(_miller_loop(n, params.p, v0)), v0


@pytest.mark.parametrize("cell", list(_SERIES_CELLS))
@pytest.mark.parametrize("v0", [-0.3, complex(-0.3, 3e-21), _PROBE_LO])
def test_array_series_state_is_the_scalar_horner_sums(cell, v0):
    # the one zero-padded Horner sum over an array of radii, 0 included,
    # gives at each node the four scalar sums of the coefficient lists, bit
    # for bit, real and complex
    series = _series_integrator(cell).series(v0)
    rr = np.concatenate([[0.0], np.geomspace(_R_SEED, _R_SWITCH / 2, 97)])
    got = series.state(rr)
    assert got.shape == (4, rr.size)
    assert _hex_parts(got.T) == _hex_parts([series.state(r) for r in rr.tolist()])


def test_stage_1_runs_on_python_floats(sol_a):
    # the probe ladder is a list of floats, so every trial v0, the root
    # search's arithmetic and the bracket it ends on are floats, not
    # np.float64 (whose series and shots run slower)
    assert len(sol_a.record.bracket) == 2
    assert all(type(x) is float for x in sol_a.record.bracket)


# stage 1's probe ladder, as _solve builds it
_LADDER = (-np.geomspace(-_PROBE_HI, -_PROBE_LO, 2 * 9 + 1)).tolist()
# cells whose every probe's start is checked: (n, p as a function of p_c)
_PROBE_CELLS = {
    "A": (13, lambda pc: pc + 0.5),
    "B": (15, lambda pc: pc + 1.0),
    "C": (13, lambda pc: pc),
    "n20_pc": (20, lambda pc: pc),
    "n13_1e4pc": (13, lambda pc: 1e4 * pc),
    "n13_1e5pc": (13, lambda pc: 1e5 * pc),
}


@pytest.mark.parametrize("cell", list(_PROBE_CELLS))
def test_every_ladder_probe_starts_inside_the_truncation_bound(cell):
    # at each probe the start radius is positive and at most r_switch / 2,
    # the state there is finite, and each of the four series' last two
    # terms is below eps times its terms' absolute sum (by fsum): at large p
    # (r0 down to 1.9e-4) as at the acceptance cases (r0 up to 5)
    n, p_of_pc = _PROBE_CELLS[cell]
    integ = _Integrator(ProblemParams(n, p_of_pc(compute_pc(n))))
    eps = np.finfo(float).eps
    for v0 in _LADDER:
        series = integ.series(v0)
        r0, y0 = integ.start(series, _R_SWITCH)
        assert 0.0 < r0 <= _R_SWITCH / 2 and all(map(math.isfinite, y0)), v0
        x = r0 * r0
        for c in series.coeffs:
            k = len(c) - 1
            total = math.fsum(abs(ck) * x**j for j, ck in enumerate(c))
            assert max(abs(c[k]) * x**k, abs(c[k - 1]) * x ** (k - 1)) <= eps * total, v0


@pytest.mark.parametrize("cell", ["A", "B", "C", "n20_pc"])
def test_the_tangent_starts_past_r_1(cell, request):
    # the series reaches past r = 1 at the bracket's midpoint, where the
    # tangent's leg starts (measured: 1.55, 2.59, 1.56, 4.67)
    n, p_of_pc = _PROBE_CELLS[cell]
    params = ProblemParams(n, p_of_pc(compute_pc(n)))
    fixture = {"A": "sol_a", "B": "sol_b", "C": "sol_c"}.get(cell)
    sol = request.getfixturevalue(fixture) if fixture else shoot(params)
    integ = _Integrator(params)
    r0, _ = integ.start(integ.series(0.5 * sum(sol.record.bracket)), _R_SWITCH)
    assert 1.0 < r0 <= _R_SWITCH / 2


def test_single_shots_at_large_p_lose_sign_where_u_does(pc13):
    # at 1e5 p_c, u^p is negligible once u < 1, so u = 1 + v0 r^2 / (2n)
    # until it loses sign at sqrt(2n / |v0|) (measured: 2.1e-7 relative at
    # v0 = -1, less at larger |v0|); every shot ends in an outcome, a
    # solution or a typed error
    params = ProblemParams(13, 1e5 * pc13)
    for v0 in _LADDER:
        try:
            out = integrate_radial(params, alpha=1.0, v0=v0, r_max=1e4)
        except BiharmError:
            continue
        if v0 <= -1.0:
            assert type(out) is SignLoss and out.r == pytest.approx(math.sqrt(26.0 / -v0), rel=1e-6), v0


@pytest.mark.parametrize("cell, v0", [("A", None), ("n13_10pc", -0.3), ("n13_10pc", _PROBE_HI)])
def test_series_start_matches_an_r_leg_from_the_taylor_seed(cell, v0, sol_a):
    # the state at r0 against DOP853 from the old seed at r = 1e-3
    # (measured: at most 1.8e-13 relative, per entry, at r0 = 0.63 to 1.55)
    integ = _series_integrator(cell)
    v0 = sol_a.v0 if v0 is None else v0
    r0, y0 = integ.start(integ.series(v0), _R_SWITCH)
    assert r0 > 1e-3
    leg = solve_ivp(integ.rhs_r, (1e-3, r0), _taylor_seed(integ.n, integ.p, 1.0, v0, 1e-3),
                    rtol=_RTOL, atol=1e-2 * _RTOL)
    assert leg.status == 0 and leg.t[-1] == r0
    assert np.all(np.abs(np.array(y0) - leg.y[:, -1]) <= 1e-11 * np.abs(leg.y[:, -1]))


@pytest.mark.parametrize("cell, v0, outcome, r_event", [
    # outcomes and event radii of full shots from the old seed at r = 1e-3
    ("n13_10pc", _PROBE_HI, BlowUp, 2.20070306096043),
    ("n13_10pc", _PROBE_LO, SignLoss, 0.16124515530126685),
    ("n20_100pc", _PROBE_HI, BlowUp, 2.7091815452543515),
    ("n20_100pc", _PROBE_LO, SignLoss, 0.20000000044319394),
])
def test_series_start_keeps_the_ladder_end_outcomes(cell, v0, outcome, r_event):
    integ = _series_integrator(cell)
    out, _, _ = integ.shot(v0, 1e4 * math.exp(_S_PAD))
    assert type(out) is outcome
    assert out.r == pytest.approx(r_event, rel=1e-9)


def _threshold_side(thr, trials):
    # blow-up side at and above thr; records every point it is asked about
    # (the bracket's width, which sets a shot's rtol, plays no part); its
    # values at the ends of a bracket are (1, -1)
    def side(x, width=None):
        trials.append(x)
        return 1 if x >= thr else -1
    return side


def _never(up, dn):
    # a done that never stops _bisect early
    return False


def test_bisect_collapses_to_adjacent_floats():
    trials = []
    steps, _, _ = _bisect(_threshold_side(0.3, trials), 1.0, 0.0, done=_never, ends=(1, -1))
    assert steps == len(trials) < _MAX_BISECT
    up = min(x for x in trials if x >= 0.3)
    dn = max(x for x in trials if x < 0.3)
    assert np.nextafter(dn, math.inf) == up


def test_bisect_done_stops_early():
    trials = []
    steps, _, _ = _bisect(_threshold_side(0.3, trials), 1.0, 0.0,
                          done=lambda up, dn: up - dn < 1e-3, ends=(1, -1))
    # 2^-10 < 1e-3 < 2^-9: the tenth halving is the first that satisfies done
    assert steps == len(trials) == 10


def test_bisect_stops_at_step_cap():
    # the threshold sits among the subnormals, more than _MAX_BISECT halvings below 1
    trials = []
    steps, _, _ = _bisect(_threshold_side(5e-324, trials), 1.0, 0.0, done=_never, ends=(1, -1))
    assert steps == len(trials) == _MAX_BISECT


def _escape_law_side(root, slope_up, slope_dn, trials):
    # escape-law values linear in x on each side of root, one slope per side
    def side(x, width=None):
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
    steps, up, dn = _bisect(_threshold_side(0.3, trials), 1.0, 0.0, done=_never, ends=(1, -1))
    assert steps == len(trials)
    assert up >= 0.3 > dn and np.nextafter(dn, math.inf) == up
    side = _escape_law_side(_A_ROOT, 2.3e12, 4.6e11, [])
    steps, up, dn = _bisect(side, _A_UP, _A_DN, done=_never, ends=(side(_A_UP), side(_A_DN)))
    assert up >= _A_ROOT > dn and np.nextafter(dn, math.inf) == up


def test_model_step_collapses_case_a_side():
    # case A's measured slopes per unit v0: 2.3e12 on the blow-up side and
    # 4.6e11 on the sign-loss side; bisection needs 52 trials here
    trials = []
    side = _escape_law_side(_A_ROOT, 2.3e12, 4.6e11, trials)
    ends = (side(_A_UP), side(_A_DN))
    steps, _, _ = _bisect(side, _A_UP, _A_DN, done=_never, ends=ends)
    assert steps == len(trials) - 2 <= 20
    _assert_straddles(trials, _A_ROOT)


def test_model_step_within_three_bisections_on_wrong_models():
    # Sides with the right signs whose models mislead: magnitudes drawn
    # anywhere in 1e-300..1e300, and sides flat at the root, |x - x*|^k, on
    # which unguarded model steps creep (k = 8 and 16 then hit _MAX_BISECT).
    # The safeguard still collapses within 3x the bisection count.
    n_bisect, _, _ = _bisect(_threshold_side(_A_ROOT, []), _A_UP, _A_DN, done=_never, ends=(1, -1))

    def drawn(seed):
        rng = np.random.default_rng(seed)
        return lambda x: 10.0 ** rng.uniform(-300.0, 300.0)

    def flat(k):
        return lambda x: abs(x - _A_ROOT) ** k

    for magnitude in [drawn(seed) for seed in range(200)] + [flat(k) for k in (2, 4, 8, 16)]:
        trials = []

        def side(x, width=None):
            trials.append(x)
            return (1.0 if x >= _A_ROOT else -1.0) * magnitude(x)

        ends = (side(_A_UP), side(_A_DN))
        steps, _, _ = _bisect(side, _A_UP, _A_DN, done=_never, ends=ends)
        assert steps == len(trials) - 2 <= 3 * n_bisect
        _assert_straddles(trials, _A_ROOT)


def test_escape_law_values():
    # shots that reach the horizon give their end residual; escapes carry
    # their event amplitude (the blow-up amplitude, 0.5 up to p = 41, or -1
    # at sign loss) to the horizon along e^{lam4 s}
    lam4, s_end = 3.0, math.log(100.0)
    assert _escape_law(BlowUp(r=10.0), 0.5, lam4, s_end) == pytest.approx(0.5 * 10.0**lam4, rel=1e-12)
    assert _escape_law(SignLoss(r=50.0), 0.5, lam4, s_end) == pytest.approx(-(2.0**lam4), rel=1e-12)
    assert _escape_law(-0.25, 0.5, lam4, s_end) == -0.25
    assert _escape_law(0.125, 0.5, lam4, s_end) == 0.125
    assert _escape_law(BlowUp(r=1e-300), 0.5, lam4, s_end) == 0.5 * math.exp(700.0)  # capped, still finite
    # at large p (p = 2817, about 100 p_c at n = 13) a blow-up leaves
    # W/L - 1 = 20 / (p - 1)
    amp = 20.0 / 2816.0
    assert _escape_law(BlowUp(r=10.0), amp, lam4, s_end) == pytest.approx(amp * 10.0**lam4, rel=1e-12)


@pytest.mark.parametrize("p_of_pc", [lambda pc: pc, lambda pc: 41.0, lambda pc: 1000.0 * pc],
                         ids=["pc", "41", "1000pc"])
def test_blow_up_bound_grows_the_nonlinearity_by_at_most_e20(pc13, p_of_pc):
    # wcap = (1 + a) L with a = min(0.5, 20 / (p - 1)): 1.5 L bit for bit up
    # to p = 41, and beyond it where (W/L)^(p-1) has grown by at most e^20
    integ = _Integrator(ProblemParams(13, p_of_pc(pc13)))
    assert integ.wcap == (1.0 + integ.blowup) * integ.L
    if integ.p <= 41.0:
        assert integ.blowup == 0.5 and integ.wcap == 1.5 * integ.L
    else:
        assert integ.blowup == 20.0 / (integ.p - 1.0)
        assert (integ.p - 1.0) * math.log1p(integ.blowup) <= 20.0


def test_case_a_root_search_work(sol_a):
    # deterministic work count over all stages; bisection took 118 trials
    assert sol_a.n_bisect < 100


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
    sol = shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=60.0)
    assert set(nfev) == {"rhs_r", "rhs_s", "rhs_v"}
    assert nfev == evaluated
    # the solve's record holds the same legs
    recorded = Counter()
    for chart, _, count, _ in sol.record.legs:
        recorded["rhs_" + chart] += count
    assert recorded == nfev


def test_shoot_compiles_nothing(sol_quick, monkeypatch):
    # The leg kernels are compiled once, at import; an integrator only binds
    # its constants into them (a compile costs milliseconds per chart).
    def refuse(*args, **kwargs):
        raise AssertionError("compile or exec called while shooting")

    with monkeypatch.context() as patched:  # undone before a failure is reported
        patched.setattr(builtins, "compile", refuse)
        patched.setattr(builtins, "exec", refuse)
        _Integrator(sol_quick.params)
        v0 = shoot(sol_quick.params, alpha=1.0, r_max=500.0).v0
    assert v0 == sol_quick.v0


def _tangent_leg(integ, v, dense=True):
    """(outcome, sol) of integ's variational r-chart leg (chart "v") from the
    origin to r_switch at v, at _RTOL, as _collocate shoots it."""
    series, seed = integ.seed(v)
    r0, _ = integ.start(series, _R_SWITCH)
    return integ.leg("v", (r0, _R_SWITCH), seed(r0), dense)


def test_solution_below_r_switch_is_the_collocation_tangent(sol_quick):
    # Below r_switch the solve is, from the start of the dense variational
    # r-chart leg at the bracket's midpoint mid (the leg of the collocation's
    # left condition) on, the tangent at its v0, u = u(mid) + (v0 - mid)
    # du/dv, and below that start the series at v0 itself, mapped by
    # _r_to_s_state, bit for bit.
    sol = sol_quick
    up, dn = sol.record.bracket
    mid = 0.5 * (up + dn)
    integ = _Integrator(sol.params)
    head = sol.s_grid < math.log(_R_SWITCH)
    rr = sol.r_grid[head]
    _, leg = _tangent_leg(integ, mid)
    seeded = rr < leg.t[0]
    assert np.any(seeded) and not np.all(seeded)
    y = leg.sol(rr[~seeded])
    u, du = y[0] + (sol.v0 - mid) * y[4], y[1] + (sol.v0 - mid) * y[5]
    rm = rr[~seeded]**integ.m
    W = rm * u
    assert np.array_equal(sol.W[head][~seeded], W)
    Z = rm * (integ.m * u + rr[~seeded] * du) - integ.spec.lambdas[3] * (W - integ.L)
    assert np.array_equal(sol.Z[head][~seeded], Z)
    below = _r_to_s_state(integ.n, integ.m, rr[seeded], integ.series(sol.v0).state(rr[seeded]))
    assert np.array_equal(sol.X[:, head][:, seeded], below)


def test_integrate_radial_at_converged_v0(sol_quick):
    # A single shot at the solve's v0 meets the collocation's tangent below
    # r_switch to within the legs' integration error (measured 1.2e-14 of
    # max |W| in W, 5.6e-14 of max |Z| in Z).  The collocated tail is not
    # compared.
    again = integrate_radial(
        sol_quick.params, alpha=1.0, v0=sol_quick.v0, r_max=500.0
    )
    assert not isinstance(again, (BlowUp, SignLoss))
    assert np.array_equal(again.s_grid, sol_quick.s_grid)
    head = sol_quick.s_grid < math.log(_R_SWITCH)
    assert np.any(head)
    for name in ("W", "Z"):
        got, want = getattr(again, name)[head], getattr(sol_quick, name)[head]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
    assert again.seam_residual == 0.0  # one shot: its s-chart starts from its r-chart end


def test_shoot_converges(sol_quick):
    assert abs(sol_quick.target_residual) < 1e-3
    assert check_positivity(sol_quick)
    assert check_monotone_y(sol_quick)
    assert sol_quick.seam_residual < 1e-9
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
    # kappa^m phi(kappa r) maps phi(0) = 1 to phi(0) = kappa^m: W and Z do
    # not change, and the mapped solution shares them; s shifts by -log
    # kappa, phi scales by kappa^m and v0 by kappa^{m+2}
    params = ProblemParams(13, pc13 + 0.5)
    m = params.m
    base = shoot(params, alpha=1.0, r_max=100.0)
    alpha = 2.0**m
    mapped = rescale_solution(base, alpha)
    assert mapped.X is base.X
    kappa = alpha ** (1.0 / m)
    assert np.array_equal(mapped.s_grid, base.s_grid - math.log(kappa))
    assert np.allclose(mapped.phi, kappa**m * base.phi, rtol=1e-13, atol=0.0)
    assert mapped.phi[0] == pytest.approx(alpha, rel=1e-6)
    assert mapped.v0 == pytest.approx(base.v0 * kappa ** (m + 2.0))
    # shoot at phi(0) = alpha is that map of the phi(0) = 1 solve to kappa
    # r_max, so against it a direct solve only compares the map with itself
    direct = shoot(params, alpha=alpha, r_max=50.0)
    assert direct.alpha == alpha and direct.v0 == pytest.approx(mapped.v0, rel=1e-13)
    assert np.allclose(direct.s_grid, mapped.s_grid, rtol=0.0, atol=1e-12)
    assert np.max(np.abs(direct.W - mapped.W)) <= 1e-12 * base.spectrum.L


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
    assert res < 1e-6  # measured 9.5e-11
    # the singular solution X = (L, 0, 0, 0) satisfies the system identically
    L = sol_quick.spectrum.L
    flat = np.zeros_like(sol_quick.X)
    flat[0] = L
    assert emden_fowler_residual(replace(sol_quick, X=flat)) < 1e-12
    # a 1e-3 ripple in W alone disagrees with the carried W': row 0 reads
    # its slope, 50e-3, while row 3 sees it only through c4 W - W^p, at
    # most (p - 1) 1e-3 = 0.028 of max W^p
    X = sol_quick.X.copy()
    X[0] *= 1.0 + 1e-3 * np.sin(50.0 * sol_quick.s_grid)
    bent = emden_fowler_residual(replace(sol_quick, X=X))
    assert bent == pytest.approx(50e-3, rel=0.02)


def test_emden_fowler_residual_reads_a_defect_in_w2(sol_quick):
    # eps b(s), a Gaussian bump of width 1, added to W'' alone enters row 3
    # as c2 eps b; rows 1 and 2 read eps b and eps b' over max|W|, below
    # that here (c2 = 51.3 against max W^p = 33.7 and max|W| = 1.13)
    s, W = sol_quick.s_grid, sol_quick.W
    c2 = _s_operator_coeffs(sol_quick.params.n, sol_quick.params.m)[2]
    bump = np.exp(-((s - 1.0) ** 2))
    wp_max = np.max(_power(W, sol_quick.params.p))
    eps = 1e-6 * wp_max / abs(c2)
    X = sol_quick.X.copy()
    X[2] += eps * bump
    got = emden_fowler_residual(replace(sol_quick, X=X))
    assert got == pytest.approx(abs(c2) * eps * np.max(bump) / wp_max, rel=0.05)


def test_emden_fowler_grid_too_coarse(sol_quick):
    # the 7-point difference needs 7 nodes, which leave one interior node
    def head(k):
        return replace(sol_quick, s_grid=sol_quick.s_grid[:k], X=sol_quick.X[:, :k])

    with pytest.raises(GridTooCoarse):
        emden_fowler_residual(head(6))
    assert math.isfinite(emden_fowler_residual(head(7)))


def test_y_integral_identity(sol_quick):
    dev = y_integral_identity_check(sol_quick)
    assert dev < 1e-3
    # deviation grows monotonically as lam4 is misstated against the solved
    # Z (Z follows the spectrum's lam4, so the state keeps Z as solved)
    spec = sol_quick.spectrum
    devs = [dev]
    for bump in (1.01, 1.02):
        l = spec.lambdas
        fake = replace(spec, lambdas=(l[0], l[1], l[2], l[3] * bump))
        X = _state(sol_quick.W, sol_quick.Z, l[3] * bump, spec.L)
        devs.append(y_integral_identity_check(replace(sol_quick, spectrum=fake, X=X)))
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


def _sequential_convolve(lam, s, g):
    # exp_kernel_convolve as one rate's step-by-step recurrence
    # I_{j+1} = e^{lam h} I_j + (the step's weights) . g, the loop its
    # blocked scan replaced, kept as the oracle
    h = float(s[1] - s[0])
    z = lam * h
    size = g.size
    width = min(4, size)
    moments = [math.factorial(m) * phi for m, phi in enumerate(_phis(z, width))]
    steps = np.arange(size - 1)
    first = np.clip(steps - 1, 0, size - width)
    shifts = first - steps
    inc = np.empty(size - 1)
    for shift in sorted(set(shifts.tolist())):
        nodes = np.arange(shift, shift + width, dtype=float)
        w = h * np.linalg.solve(np.vander(nodes, increasing=True).T, moments)
        at = shifts == shift
        inc[at] = g[first[at, None] + np.arange(width)] @ w
    e = math.exp(z)
    out, acc = [0.0], 0.0
    for d in inc.tolist():
        acc = e * acc + d
        out.append(acc)
    return np.array(out)


_ORACLE_RATES = (-40.0, -3.0, -0.01, 0.0, 40.0)


@pytest.mark.parametrize("size", range(1, 9))
def test_exp_kernel_convolve_scan_matches_the_sequential_loop(size):
    # the sizes where the stencil narrows (width min(4, size)) and its three
    # shifts appear, in one partial scan block: each rate's row within
    # 1e-13 max|I| of the oracle (measured 6.6e-16); one node is I(s_0) = 0
    rng = np.random.default_rng(size)
    s = 0.01 * np.arange(size)
    g = rng.standard_normal((len(_ORACLE_RATES), size))
    got = exp_kernel_convolve(np.array(_ORACLE_RATES), s, g)
    assert got.shape == (len(_ORACLE_RATES), size)
    for lam, row, value in zip(_ORACLE_RATES, g, got):
        if size == 1:
            assert value.tolist() == [0.0]
            continue
        want = _sequential_convolve(lam, s, row)
        assert np.max(np.abs(value - want)) <= 1e-13 * np.max(np.abs(want)), lam


@pytest.mark.parametrize("lam", [23.0, -23.0])
def test_exp_kernel_convolve_scan_block_keeps_its_powers_finite(lam):
    # at lam h = 23 a block of 32 steps would need e^{23 * 31}, past the
    # largest float: the block shrinks to 30 steps and the two blocks'
    # rows, finite up to e^{23 * 32} * 1e-30, match the oracle
    s = np.arange(34.0)
    g = np.full(s.size, 1e-30)
    want = _sequential_convolve(lam, s, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exp_kernel_convolve(lam, s, g)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_exp_kernel_convolve_scan_on_case_a_lattice(sol_a):
    # on case A's lattice (1612 nodes, h = 0.01; lam = 40 grows by e^644),
    # against the oracle, for W, Z and s W: measured up to 4.8e-14 max|I| at
    # lam = 40, where the oracle's e^{lam h j} carries j roundings of e^{lam h}.
    # A stacked call equals one call per row to rounding (measured 1.8 eps
    # max|I|), and a float rate with one row is that row
    s = sol_a.s_grid
    rows = np.stack([sol_a.W, sol_a.Z, s * sol_a.W] * len(_ORACLE_RATES))
    rates = np.repeat(_ORACLE_RATES, 3)
    stacked = exp_kernel_convolve(rates, s, rows)
    for lam, row, value in zip(rates, rows, stacked):
        top = np.max(np.abs(value))
        want = _sequential_convolve(lam, s, row)
        assert np.max(np.abs(value - want)) <= 1e-13 * np.max(np.abs(want)), lam
        single = exp_kernel_convolve(lam, s, row)
        assert single.shape == s.shape
        assert np.max(np.abs(value - single)) <= 4.0 * np.finfo(float).eps * top, lam
        assert np.array_equal(exp_kernel_convolve(np.array([lam]), s, row[None])[0], single)


def test_y_integral_identity_exact_on_synthetic_solution(sol_quick):
    # Z = e^{lam3 s} and Y = W - L = -Z/(lam4 - lam3) satisfy the identity exactly, so
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
        W = spec.L - Z / (lam4 - lam3)
        synth = replace(sol_quick, spectrum=fake, s_grid=s, X=_state(W, Z, lam4, spec.L))
        assert y_integral_identity_check(synth) < 2e-4, n


def test_grid_consistency_under_tolerance_halving(pc13, monkeypatch):
    # Measured: W[-1] does not change (0.0); the whole of W moves by
    # 4.8e-14 L.
    params = ProblemParams(13, pc13 + 0.5)
    base = shoot(params, alpha=1.0, r_max=500.0)
    monkeypatch.setattr(biharm.shooting, "_RTOL", 5e-13)
    tight = shoot(params, alpha=1.0, r_max=500.0)
    change = abs(base.W[-1] - tight.W[-1])
    assert change < 1e-12


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

    # (W's special values carry over to phi, Y and Z; where W = L, Z = W')
    special = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-310])
    X = sol_quick.X.copy()
    X[0, : special.size] = special
    X[0, -special.size :] = sol_quick.spectrum.L
    X[1, -special.size :] = special[::-1]
    special_sol = replace(sol_quick, X=X)
    assert np.array_equal(special_sol.Z[-special.size :], special[::-1], equal_nan=True)
    for sol in (sol_quick, special_sol):
        buf = io.StringIO()
        dump_solution(sol, buf)
        assert buf.getvalue() == per_value(sol)


def test_seam_residual_does_not_depend_on_r_max(sol_quick):
    # The seam is measured at r_switch on the solve itself, which below
    # r = 500 does not depend on r_max: a lattice that ends before r_switch
    # (5, 9.8) or just past it (11) reads the r_max 500 value, a number
    # (measured 2.0e-14), never NaN
    seams = {r_max: shoot(sol_quick.params, alpha=1.0, r_max=r_max).seam_residual
             for r_max in (5.0, 9.8, 11.0)}
    assert seams == {r_max: sol_quick.seam_residual for r_max in seams}
    assert 0.0 < sol_quick.seam_residual < 1e-11


def test_seam_residual_is_small_on_the_acceptance_cases(sol_a, sol_b, sol_c):
    # measured 2.0e-14, 4.2e-14 and 2.1e-14
    for sol in (sol_a, sol_b, sol_c):
        assert sol.seam_residual <= 1e-12


def test_seam_residual_sees_an_offset_start_state(sol_quick, monkeypatch):
    # The seam reads the collocation's start state against the tangent at v0:
    # with that state offset by 3e-10 L in W'' (each collocation.solve
    # result's first node; v0 and the spline the tail is read from stay as
    # solved) it reads the offset, against 2.0e-14 as solved, and nothing
    # else moves.
    offset = np.array([0.0, 0.0, 3e-10, 0.0])
    plain = biharm.collocation.solve

    def offset_start(*args, **kwargs):
        res = plain(*args, **kwargs)
        y = res.y.copy()
        y[:, 0] += offset
        return replace(res, y=y)

    monkeypatch.setattr(biharm.collocation, "solve", offset_start)
    sol = shoot(sol_quick.params, alpha=1.0, r_max=500.0)
    assert sol.v0 == sol_quick.v0
    assert np.array_equal(sol.W, sol_quick.W) and np.array_equal(sol.Z, sol_quick.Z)
    assert sol.seam_residual == pytest.approx(3e-10, rel=1e-3)


def test_z_is_the_stencil_derivative_of_w(sol_quick):
    # Z = W' - lam4 Y comes from the solved states (series, the tangent's
    # r-chart leg, collocation); a 4th-order central stencil of Y on the
    # lattice agrees with it on every interior node, the chart seam included
    Y, Z = sol_quick.Y, sol_quick.Z
    dY = diff_uniform(Y, _DS, 1, acc=4)
    k = (Y.size - dY.size) // 2
    z_fd = dY - sol_quick.spectrum.lambdas[3] * Y[k:-k]
    assert np.max(np.abs(z_fd - Z[k:-k])) <= 1e-8 * np.max(np.abs(Z))


def test_input_validation(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    with pytest.raises(InvalidParams):
        shoot(params, alpha=-1.0, r_max=100.0)
    with pytest.raises(InvalidParams):
        integrate_radial(params, alpha=1.0, v0=-0.1, r_max=-5.0)
    # a NaN passes every ordered comparison, and an infinite alpha or r_max
    # reaches the integrator: each is rejected up front, naming its value
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParams, match=f"alpha.*{bad}"):
            shoot(params, alpha=bad, r_max=100.0)
        with pytest.raises(InvalidParams, match=f"r_max={bad}"):
            shoot(params, alpha=1.0, r_max=bad)
        with pytest.raises(InvalidParams, match=f"alpha.*{bad}"):
            integrate_radial(params, alpha=bad, v0=-0.1, r_max=100.0)
        with pytest.raises(InvalidParams, match=f"r_max.*{bad}"):
            integrate_radial(params, alpha=1.0, v0=-0.1, r_max=bad)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 10.0, 1e3, 1e20])
def test_heights_are_the_scale_map_of_the_normalised_solve(sol_a, alpha):
    # Each height is case A's (n, p) solved at phi(0) = 1 to kappa r_max and
    # mapped by scale.  Carried through the series, the probe ladder and the
    # lattice, alpha = 2 ended in NoConvergence, 3 in a ZeroDivisionError,
    # 10 and 1e3 in a StepFailure and 1e20 in an OverflowError.
    sol = shoot(sol_a.params, alpha=alpha, r_max=1e4)
    invariants = solve_invariants(sol)
    assert all(inv.passed for inv in invariants), [str(inv) for inv in invariants]
    assert sol.alpha == alpha and sol.phi[0] == pytest.approx(alpha, rel=1e-6)
    assert sol.s_grid[-1] == pytest.approx(math.log(1e4), abs=1e-10)
    kappa = alpha ** (1.0 / sol.params.m)
    assert sol.s_grid[0] >= math.log(_R_SEED / kappa) - 1e-10


def test_heights_off_the_lattice_raise_before_any_shot(sol_quick, monkeypatch):
    # kappa = alpha^(1/m) must be finite and positive and kappa r_max above
    # the lattice start _R_SEED: alpha = 1e-3 puts kappa r_max below it,
    # alpha = 1e300 overflows kappa; each names alpha, kappa and the least
    # r_max, _R_SEED / kappa
    params = sol_quick.params

    def refuse(*args, **kwargs):
        raise AssertionError("shot before the entry check")

    with monkeypatch.context() as patched:
        patched.setattr(_Integrator, "shot", refuse)
        kappa = 1e-3 ** (1.0 / params.m)
        with pytest.raises(InvalidParams, match=re.escape(
                f"kappa = alpha^(1/m) = {kappa:.6g}") + r".* = " + re.escape(f"{_R_SEED / kappa:.6g}")):
            shoot(params, alpha=1e-3, r_max=1e4)
        with pytest.raises(InvalidParams, match=r"alpha=1e\+300, .*kappa = alpha\^\(1/m\) = inf"):
            shoot(params, alpha=1e300, r_max=1e4)
        with pytest.raises(InvalidParams, match=r"r_max=0\.0001: .* above 0\.001 / kappa = 0\.001$"):
            integrate_radial(params, alpha=1.0, v0=-0.1, r_max=1e-4)
    # just above the lattice start the solve is sol_quick's, cut to five
    # nodes (it raised an IndexError on an empty lattice)
    short = shoot(params, alpha=1.0, r_max=1.05e-3)
    assert short.v0 == sol_quick.v0 and short.s_grid.size == 5
    assert short.s_grid[0] >= math.log(_R_SEED)


def test_n40_pc_closes_its_seam_on_a_bracket_wider_than_rtol():
    # n = 40 at p_c: with every stage-1 trial at rtol 1e-8 its bracket once
    # collapsed to one ulp, where a chord between the bracket's ends read
    # the legs' integration noise as its slope (v0 1.0e-11 off).  The
    # tangent at the bracket's midpoint takes its slope from one
    # variational leg, whatever the bracket's width.  Pinned: v0 of the
    # chord's solve with _RTOL = 5e-13.  Now the bracket ends 1.3e-8
    # relative wide, v0 lies 3.5e-15 from the pin and the seam reads
    # 3.8e-16; test_tangent_pins_v0_on_case_a_at_r_max_500 covers a
    # bracket narrower than _RTOL |v0|.
    sol = shoot(ProblemParams(40, compute_pc(40)), alpha=1.0, r_max=1e4)
    tight = float.fromhex("-0x1.d71ab8506c4f2p-1")
    assert abs(sol.v0 - tight) <= 1e-13 * abs(tight)
    assert sol.seam_residual < 1e-12
    assert all(inv.passed for inv in solve_invariants(sol)), solve_invariants(sol)


def test_tangent_pins_v0_on_case_a_at_r_max_500(sol_quick, sol_a):
    # Case A at r_max 500: stage 1's bracket ends 9.2e-14 relative wide,
    # narrower than _RTOL |v0|, and v0 lies 7.3e-13 relative outside it.
    # A chord between the bracket's ends extrapolated 7.8 bracket widths and
    # left v0 1.02e-14 from case A's, which a floor on the chord's width
    # (_RTOL |v0|) cut to 2.3e-15; the tangent at the bracket's midpoint
    # needs no floor.  Pinned: v0 of the floor's solve with _RTOL = 5e-13,
    # and case A's (r_max 1e4).  Measured: v0 lies 4.2e-16 and 2.9e-15
    # relative from them.
    sol = sol_quick
    up, dn = sol.record.bracket
    assert abs(up - dn) < _RTOL * abs(sol.v0)
    tight = float.fromhex("-0x1.114bea1e69182p-2")
    assert abs(sol.v0 - tight) <= 5e-15 * abs(tight)
    assert abs(sol.v0 - sol_a.v0) <= 5e-15 * abs(sol_a.v0)


def _record_collocation(params, r_max, monkeypatch):
    """shoot(params, 1, r_max) and each collocation.solve call's arguments
    (bvp, x, y, v, max_nodes) and result."""
    calls = []
    plain_solve = biharm.collocation.solve

    def solve(bvp, x, y, v, max_nodes):
        res = plain_solve(bvp, x, y, v, max_nodes)
        calls.append(((bvp, x.copy(), y.copy(), v, max_nodes), res))
        return res

    monkeypatch.setattr(biharm.collocation, "solve", solve)
    sol = shoot(params, alpha=1.0, r_max=r_max)
    return sol, calls


def test_tangent_state_matches_full_shot(sol_quick, monkeypatch):
    # The collocation's left condition puts y = (X - X*)/L at r_switch on the
    # tangent at the midpoint mid of stage 1's bracket: ya and slope are the
    # end state of a full-tolerance variational r-chart leg at mid and its
    # derivative in v0, each mapped by _r_to_s_state, bit for bit.  The
    # bracket brackets stage 1's loose root, so v0 may land past an end,
    # within the guard's distance (measured 2.0e-13 past a bracket 9.2e-14
    # relative wide, 7.3e-13 relative).  On a bracket as wide as the stop
    # allows, _BRACKET_STOP |v0| about v0, the tangent _collocate builds
    # must match each end's own full-shot r_switch state below the
    # collocation tolerance 1e-10 while those two states differ by more
    # than 1e-7 of max |y|.  Measured: 5.9e-11 and 4.3e-11 of max |y|,
    # against 1.1e-4 between the ends.
    params = sol_quick.params
    sol, calls = _record_collocation(params, 500.0, monkeypatch)
    assert sol.v0 == sol_quick.v0
    up, dn = sol.record.bracket
    bvp = calls[0][0][0]
    assert max(dn - sol.v0, sol.v0 - up) < _BRACKET_STOP * abs(sol.v0)
    integ = _Integrator(params)
    r_cls = 500.0 * math.exp(_S_PAD)
    x_star = np.array([integ.L, 0.0, 0.0, 0.0])

    # the left condition y_l - ya - (v - mid) slope = 0
    mid = 0.5 * (up + dn)
    _, leg = _tangent_leg(integ, mid, dense=False)
    x_mid, dx = (_r_to_s_state(integ.n, integ.m, _R_SWITCH, y) for y in np.split(leg.y[:, -1], 2))
    assert bvp.v_ref == mid
    assert np.array_equal(bvp.ya, (x_mid - x_star) / integ.L)
    assert np.array_equal(bvp.slope, dx / integ.L)

    def start(v):
        _, _, sol_s = integ.shot(v, r_cls)
        return (sol_s.y[:, 0] - x_star) / integ.L

    # a bracket the stop accepts, within 1e-6 of the widest, _BRACKET_STOP |up|
    half = 0.5 * (1.0 - 1e-6) * _BRACKET_STOP * abs(sol.v0)
    up, dn = sol.v0 + half, sol.v0 - half
    assert up - dn < _BRACKET_STOP * abs(up)
    _, _, guess = integ.shot(up, r_cls, rtol=_RTOL_BRACKET)
    calls.clear()
    biharm.shooting._collocate(integ, guess, up, dn, r_cls)
    bvp = calls[0][0][0]
    assert bvp.v_ref == 0.5 * (up + dn)
    scale = np.max(np.abs(start(bvp.v_ref)))
    assert np.max(np.abs(start(up) - start(dn))) / scale > 1e-7
    for v in (up, dn):
        assert np.max(np.abs(bvp.conditions(start(v), np.zeros(4), v)[:4])) / scale < 1e-10


def test_tangent_slope_is_the_derivative_of_the_r_switch_state(sol_quick):
    # The tangent's slope, dX/dv at r_switch from the variational leg
    # _collocate shoots at the bracket's midpoint mid, over L, agrees with a
    # central difference of two full-tolerance shots' r_switch states at
    # mid -+ 1e-6 |mid| to 1e-8 relative: one step sequence differentiates
    # the leg (measured: 8.7e-10).  The bracket is the widest the stop
    # accepts about case A's v0 at r_max 500.
    integ = _Integrator(sol_quick.params)
    r_cls = 500.0 * math.exp(_S_PAD)
    half = 0.5 * (1.0 - 1e-6) * _BRACKET_STOP * abs(sol_quick.v0)
    up, dn = sol_quick.v0 + half, sol_quick.v0 - half
    _, _, guess = integ.shot(up, r_cls, rtol=_RTOL_BRACKET)
    _, (mid, leg), _, _ = biharm.shooting._collocate(integ, guess, up, dn, r_cls)
    assert mid == 0.5 * (up + dn) and leg.y.shape[0] == 8

    def state(v):
        _, sol_r, _ = integ.shot(v, _R_SWITCH)
        return _r_to_s_state(integ.n, integ.m, _R_SWITCH, sol_r.y[:, -1]) / integ.L

    slope = _r_to_s_state(integ.n, integ.m, _R_SWITCH, leg.y[4:, -1]) / integ.L
    dv = 1e-6 * abs(mid)
    central = (state(mid + dv) - state(mid - dv)) / (2.0 * dv)
    assert np.max(np.abs(slope - central)) <= 1e-8 * np.max(np.abs(central))


@pytest.mark.parametrize("fixture", ["sol_quick", "sol_c"])
def test_collocation_right_condition_removes_the_unstable_mode(fixture, request, monkeypatch):
    # l4 . y(s_end) = 0 with l4 from the product (mu - lam1)(mu - lam2)(mu -
    # lam3): l4 annihilates the eigenvectors e(lam) = (1, lam, lam^2, lam^3)
    # of the three decaying modes and gives l4 . e(lam4) = 1, at p_c too
    params = request.getfixturevalue(fixture).params
    _, calls = _record_collocation(params, 500.0, monkeypatch)
    bvp = calls[0][0][0]
    lams = compute_spectrum(params).lambdas
    right = [bvp.conditions(np.zeros(4), np.array([1.0, lam, lam**2, lam**3]), 0.0)[4]
             for lam in lams]
    scale = 1.0 + abs(lams[0]) ** 3
    assert np.all(np.abs(right[:3]) < 1e-14 * scale)
    assert right[3] == pytest.approx(1.0, rel=1e-13)


# the description every collocation NoConvergence gives of its round
_ROUND = (r"round (\d+) on (\d+) nodes \((\d+) Newton iterations, max rms "
          r"residual (\S+) against tol 1e-10\)")
_WHERE = r" \(over s in \[(\S+), (\S+)\], v0 bracket \[(\S+), (\S+)\]\)"


def test_collocation_failure_names_its_stage(pc13, monkeypatch):
    # a round whose predicted mesh would pass the node cap raises
    # NoConvergence naming the stage, the round, its nodes, Newton
    # iterations and residual, the nodes it predicts, the s-domain and the
    # v0 bracket.  Case A at r_max 500 predicts 645 nodes from the start
    # mesh, under a cap of 1000; with the residuals of every later round
    # read 10x high (up to 6e-10 against tol 1e-10), round 2 predicts more
    # pieces in most intervals, each interval at most ceil(1.2 10^(1/3)) = 3
    # as every one of its true residuals meets tol (measured: 1483 nodes).
    plain = biharm.collocation._rms

    def inflated(fun, coeffs, x, *args):
        return plain(fun, coeffs, x, *args) * (1.0 if x.size == _BVP_NODES else 10.0)

    monkeypatch.setattr(biharm.shooting, "_BVP_MAX_NODES", 1000)
    monkeypatch.setattr(biharm.collocation, "_rms", inflated)
    with pytest.raises(NoConvergence) as info:
        shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=500.0)
    found = re.fullmatch(
        r"collocation stage: " + _ROUND + r" predicts (\d+) nodes, more than the cap 1000" + _WHERE,
        str(info.value),
    )
    assert found is not None, str(info.value)
    assert found.group(1, 2, 3) == ("2", "645", "1") and float(found[4]) > 1e-10
    assert 1000 < int(found[5]) <= 3 * 644 + 1
    r_cls = 500.0 * math.exp(_S_PAD)
    s_lo, s_hi, dn, up = (float(x) for x in found.groups()[5:])
    assert (s_lo, s_hi) == pytest.approx((math.log(_R_SWITCH), math.log(r_cls)), rel=1e-5)
    assert dn < up and up - dn < _BRACKET_STOP * abs(up)


def test_collocation_fails_fast_above_the_node_cap(pc13, monkeypatch):
    # a predicted mesh above the node cap raises right after the first
    # round, naming the stage, the round, the predicted node count and the
    # cap; no later round runs, and the solve's record holds that one
    # round with its nodes and prediction (case A at r_max 500 predicts 645
    # nodes)
    monkeypatch.setattr(biharm.shooting, "_BVP_MAX_NODES", 400)
    with pytest.raises(NoConvergence) as info:
        shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=500.0)
    found = re.fullmatch(
        r"collocation stage: " + _ROUND + r" predicts (\d+) nodes, more than the cap 400" + _WHERE,
        str(info.value),
    )
    assert found is not None, str(info.value)
    assert found[1] == "1" and int(found[2]) == _BVP_NODES and int(found[5]) > 400
    record = info.value.record
    (nodes, _, max_rms, predicted), = record.rounds
    assert (nodes, predicted, f"{max_rms:.3g}") == (_BVP_NODES, int(found[5]), found[4])
    assert record.trials > 0 and record.bracket[0] > record.bracket[1]


def test_singular_band_names_its_round(pc13, monkeypatch):
    # a band LU that finds an exact zero pivot (dgbtrf info > 0) raises
    # NoConvergence naming the round, its nodes and the Newton iteration;
    # the round did not finish, so the record holds none
    plain = biharm.collocation.dgbtrf

    def singular(ab, kl, ku, **kwargs):
        lu, piv, _ = plain(ab, kl, ku, **kwargs)
        return lu, piv, 7

    monkeypatch.setattr(biharm.collocation, "dgbtrf", singular)
    with pytest.raises(NoConvergence) as info:
        shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=500.0)
    assert re.fullmatch(
        r"collocation stage: round 1 on 200 nodes: the band LU is singular \(dgbtrf "
        r"info = 7\) at Newton iteration 1" + _WHERE,
        str(info.value),
    ), str(info.value)
    assert info.value.record.rounds == ()


def test_failing_tangent_leg_names_its_stage(pc13, monkeypatch):
    # a tangent whose dense variational r-chart leg ends before r_switch
    # raises NoConvergence naming the stage, the leg's v0 and outcome, the
    # s-domain and the v0 bracket, as every collocation NoConvergence does
    # (case A at r_max 500 with stage 1's bracket moved, its width kept, to
    # a midpoint of about v0 = -0.4, whose leg loses its sign at r = 9.44)
    plain = biharm.shooting._collocate

    def moved(integ, leg, up, dn, r_cls):
        shift = -0.4 - 0.5 * (up + dn)
        return plain(integ, leg, up + shift, dn + shift, r_cls)

    monkeypatch.setattr(biharm.shooting, "_collocate", moved)
    with pytest.raises(NoConvergence) as info:
        shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=500.0)
    found = re.fullmatch(
        r"collocation stage: the tangent's r-chart leg at v0 = (\S+) ends in SignLoss\(r=(\S+)\)" + _WHERE,
        str(info.value),
    )
    assert found is not None, str(info.value)
    assert float(found[1]) == pytest.approx(-0.4, rel=1e-12)
    assert 1.0 < float(found[2]) < _R_SWITCH
    s_lo, s_hi, dn, up = (float(x) for x in found.groups()[2:])
    assert s_lo == pytest.approx(math.log(_R_SWITCH), rel=1e-5) and s_lo < s_hi
    assert dn < up and up - dn < _BRACKET_STOP * abs(up)


@pytest.mark.parametrize("fixture, r_max", [("sol_quick", 500.0), ("sol_c", 1e4)])
def test_predicted_mesh_closes_in_one_round(fixture, r_max, request, monkeypatch, scipy_problem):
    # One collocation.solve call from the 200 uniform start nodes: the first
    # round's residuals predict the mesh, and the second round converges on
    # it.  The solution matches scipy.integrate.solve_bvp's solve from the
    # same start nodes: v0 to 1e-14 relative and, on the lattice past
    # r_switch, W = L (1 + y0) to 1e-12 L.
    params = request.getfixturevalue(fixture).params
    sol, calls = _record_collocation(params, r_max, monkeypatch)
    ((bvp, x, y, v, max_nodes), res), = calls
    assert x.size == _BVP_NODES and max_nodes == _BVP_MAX_NODES and sol.v0 == res.v
    (nodes_1, _, _, predicted), (nodes_2, _, max_rms, met) = sol.record.rounds
    assert nodes_1 == _BVP_NODES and nodes_2 == predicted == res.x.size > _BVP_NODES
    assert met is None and max_rms <= bvp.tol
    ref = solve_bvp(x=x, y=y, p=[v], tol=bvp.tol, max_nodes=max_nodes, **scipy_problem(bvp))
    assert ref.status == 0
    assert abs(sol.v0 - ref.p[0]) <= 1e-14 * abs(ref.p[0])
    L = sol.spectrum.L
    past = sol.s_grid >= math.log(_R_SWITCH)
    assert np.max(np.abs(sol.W[past] - L * (1.0 + ref.sol(sol.s_grid[past])[0]))) <= 1e-12 * L


def _cut(sol, keep):
    return replace(sol, s_grid=sol.s_grid[keep], X=sol.X[:, keep])


def test_short_solve_decay_slope_matches_the_long_solve(sol_a):
    # At r_max 60 the decay slope's decade is not yet lam3-dominated: the
    # entire solution itself reads |slope - lam3| of about 0.54 there.  A
    # solve to 60 must read what sol_a, cut at r = 60, reads.  A tail that
    # keeps unstable-mode residue (shooting) read 0.125 off.
    short = shoot(sol_a.params, alpha=1.0, r_max=60.0)
    keep = sol_a.s_grid <= math.log(60.0) + 1e-9
    assert abs(decay_slope(short) - decay_slope(_cut(sol_a, keep))) < 1e-2


def test_short_solve_is_the_entire_solution(sol_a, sol_b, sol_quick):
    # The solution does not depend on r_max.  Below r = 500 the shots are
    # still classified at 500 e^{_S_PAD} and the solve is
    # collocated there, so a short solve is the r_max 500 solve (sol_quick)
    # cut at r_max.  Measured: A's v0 is within 1.7e-15 of sol_a's at r_max
    # 1 and 5, and B's at r_max 11 within 1.7e-15 of sol_b's.
    short = {r_max: shoot(sol_a.params, alpha=1.0, r_max=r_max) for r_max in (1.0, 5.0)}
    W_a = CubicSpline(sol_a.s_grid, sol_a.W)
    for r_max, sol in short.items():
        assert sol.s_grid[-1] == pytest.approx(math.log(r_max), abs=1e-12)
        assert sol.v0 == sol_quick.v0
        assert sol.v0 == pytest.approx(sol_a.v0, rel=1e-13)
        assert np.max(np.abs(sol.W - W_a(sol.s_grid))) < 1e-5 * sol_a.spectrum.L
    # B has not decayed to 1e-2 L by r_max 11: the solve returns, and its
    # target_residual fails by name (its decay slope fails too, as on every
    # solve this short)
    sol = shoot(sol_b.params, alpha=1.0, r_max=11.0)
    assert sol.v0 == pytest.approx(sol_b.v0, rel=1e-13)
    invariants = {inv.name: inv for inv in solve_invariants(sol)}
    assert not invariants["target_residual"].passed
    assert invariants["target_residual"].value == pytest.approx(0.0162, abs=1e-4)


def test_short_solve_closes_at_large_n():
    # n = 40, p = 2 p_c: a solve to r_max 5 is the r_max 500 solve, bit for
    # bit.  Collocated to r_switch e^{_S_PAD} instead, its v0
    # lands far off the tangent and its mesh grows past the node cap.
    params = ProblemParams(40, 2.0 * compute_pc(40))
    assert shoot(params, alpha=1.0, r_max=5.0).v0 == shoot(params, alpha=1.0, r_max=500.0).v0


def test_collocation_v0_far_outside_the_bracket_raises(pc13, monkeypatch):
    # With the horizon floored at r_switch instead of r = 500, case A at
    # r_max 5 collocates v0 about 1.3e-4 relative outside its stage-1
    # bracket, where the tangent at the bracket's midpoint is no longer an
    # accurate left condition: the solve raises, naming the stage, v0, the
    # s-range and the bracket
    monkeypatch.setattr(biharm.shooting, "_R_HORIZON", _R_SWITCH)
    with pytest.raises(NoConvergence) as info:
        shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=5.0)
    found = re.fullmatch(
        r"collocation stage: v0 = (\S+) lies (\S+) outside the bracket, more "
        r"than \S+ \|v0\| \(over s in \[\S+, \S+\], v0 bracket \[(\S+), (\S+)\]\)",
        str(info.value),
    )
    assert found is not None, str(info.value)
    v0, off, dn, up = (float(x) for x in found.groups())
    assert dn < up and off > _BRACKET_STOP * abs(v0)
    assert off == pytest.approx(max(dn - v0, v0 - up), rel=1e-2)


def test_checks_name_a_window_too_short(sol_quick):
    # a valid solution too short (or too flat) for a check raises
    # WindowTooShort, not InvalidParams: the CLI exits 1 on it, not 2
    with pytest.raises(WindowTooShort, match="no resolved nodes"):
        L = sol_quick.spectrum.L
        resolved_top_index(replace(sol_quick, X=_state(np.full_like(sol_quick.W, L), 0.0, 0.0, L)))
    with pytest.raises(WindowTooShort, match="decay slope: the last resolved decade"):
        decay_slope(_cut(sol_quick, sol_quick.s_grid <= math.log(5.0)), critical=True)
    with pytest.raises(WindowTooShort, match="integral identity: its probe window"):
        y_integral_identity_check(_cut(sol_quick, slice(0, 50)))


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


@pytest.mark.parametrize("chart", ["r", "s"])
def test_step_failure_below_L_names_its_leg(sol_a, chart, monkeypatch):
    # No measured leg fails its step, so solve_ivp is stubbed:
    # it cuts case A's leg at v0 halfway through its span, below L, and
    # reports a step failure there on a step of one ulp.  The leg raises
    # StepFailure, which names the chart, the radius, the step and the span.
    integ = _Integrator(sol_a.params)
    r0, y0 = integ.start(integ.series(sol_a.v0), _R_SWITCH)
    span = (r0, _R_SWITCH)
    if chart == "s":
        y0 = _r_to_s_state(integ.n, integ.m, _R_SWITCH, integ.leg("r", span, y0)[1].y[:, -1])
        span = (math.log(_R_SWITCH), math.log(100.0))
    plain, cut = biharm.shooting.solve_ivp, []

    def failing(fun, t_span, y, **kwargs):
        cut.append(plain(fun, (t_span[0], 0.5 * (t_span[0] + t_span[1])), y, **kwargs))
        return replace(cut[-1], status=-1, step=float(np.spacing(cut[-1].t[-1])))

    monkeypatch.setattr(biharm.shooting, "solve_ivp", failing)
    with pytest.raises(StepFailure) as info:
        integ.leg(chart, span, y0)
    t = float(cut[0].t[-1])
    assert (t**integ.m if chart == "r" else 1.0) * cut[0].y[0, -1] < integ.L
    _check_step_failure(str(info.value), chart, span)


def test_tangent_lattice_passes_n13_at_100_pc(pc13):
    # n = 13, p = 100 p_c: with the lattice below r_switch from a separate
    # leg at v0, its jump against the collocation's start state at r_switch
    # failed transform_residual (4.73e-4 > 1e-4); from the collocation's own
    # left condition (then a chord, now the tangent) the solution passes all
    # six solve invariants
    sol = shoot(ProblemParams(13, 100.0 * pc13), alpha=1.0, r_max=1e4)
    assert all(inv.passed for inv in solve_invariants(sol)), solve_invariants(sol)


@pytest.mark.parametrize("n, p_over_pc", [(15, 100.0), (15, 1000.0), (13, 1000.0)])
def test_large_p_solves_without_a_step_failure(n, p_over_pc):
    # n=15 at 100 p_c and 1000 p_c: with the blow-up amplitude at
    # 20 / (p - 1), every blow-up leg ends at the amplitude_cross event, so
    # the solve returns (a leg that fails its step raises StepFailure) and
    # passes all six solve invariants; at a fixed 1.5 L, 5 and 8 of its
    # legs failed their steps above L (measured).  n=13 at 1000 p_c failed
    # transform_residual (2.12e-4 > 1e-4) while the check took order-4
    # stencils of W up to its 4th derivative, noise amplified by h^-4; the
    # carried state's lattice defect reads 4.4e-8
    sol = shoot(ProblemParams(n, p_over_pc * compute_pc(n)), alpha=1.0, r_max=1e4)
    assert all(inv.passed for inv in solve_invariants(sol)), solve_invariants(sol)


@pytest.mark.parametrize("w_over_L", [0.5, 1.5])
def test_stage_1_step_failure_is_reraised(pc13, monkeypatch, w_over_L):
    # every r-chart leg of a shot at v0 >= -0.25 fails its step at r = 5
    # with W = w_over_L L, every other loses sign there: a shot blows up
    # only at the amplitude_cross event, so the failure is re-raised, below
    # L and above it alike.  The stubbed series and start hand each leg its v0.
    params = ProblemParams(13, pc13 + 0.5)
    w_fail = w_over_L * compute_spectrum(params).L / 5.0**params.m

    def leg_end(fun, t_span, y0, **kwargs):
        fails = y0[0] >= -0.25
        y = np.zeros((4, 2))
        y[0] = 1.0, w_fail if fails else 0.0
        return IvpResult(t=np.array([1.0, 5.0]), y=y, sol=None, event=None if fails else "sign_loss",
                         nfev=2, status=-1 if fails else 1, step=1e-16)

    monkeypatch.setattr(_Integrator, "series", lambda self, v0: v0)
    monkeypatch.setattr(_Integrator, "start", lambda self, v0, r_end: (1.0, (v0, 0.0, 0.0, 0.0)))
    monkeypatch.setattr(biharm.shooting, "solve_ivp", leg_end)
    with pytest.raises(StepFailure, match=r"^r-chart step failed at r = 5: "):
        shoot(params, alpha=1.0, r_max=60.0)


@pytest.mark.parametrize("fixture, r_max", [("sol_quick", 500.0), ("sol_c", 1e4)])
def test_dense_tangent_leg_replays_plain_full_tolerance_shots(fixture, r_max, request):
    # One shot geometry: dense output only adds interpolants, so the
    # tangent's dense leg at the bracket's midpoint takes the steps of a
    # plain full-tolerance leg, and the tangent and v0 are those of a plain
    # leg; a dense shot at v0 (integrate_radial's) ends on the plain shot's
    # residual and starts its s-chart from the same r_switch state, bit for
    # bit.
    sol = request.getfixturevalue(fixture)
    up, dn = sol.record.bracket
    integ = _Integrator(sol.params)
    (_, leg_dense), (_, leg) = (_tangent_leg(integ, 0.5 * (up + dn), dense) for dense in (True, False))
    assert leg_dense.sol is not None and leg.sol is None
    assert np.array_equal(leg_dense.t, leg.t) and np.array_equal(leg_dense.y, leg.y)
    r_cls = r_max * math.exp(_S_PAD)
    rho_dense, sol_r_dense, sol_s_dense = integ.shot(sol.v0, r_cls, dense=True)
    rho, sol_r, sol_s = integ.shot(sol.v0, r_cls)
    assert np.array_equal(sol_r_dense.y, sol_r.y)
    assert isinstance(rho, float) and rho_dense == rho
    assert np.array_equal(sol_s_dense.y[:, 0], sol_s.y[:, 0])


def test_no_survivor_names_trials_and_final_bracket(pc13, monkeypatch):
    # every full shot escapes at r = 5, so no trajectory survives: the error
    # names the trial count and the final bracket with its full shots'
    # escape-law values
    def shot(self, v0, r_max, dense=False, rtol=None):
        return (BlowUp if v0 >= -0.25 else SignLoss)(r=5.0), None, None

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

    def shot(self, v0, r_max, dense=False, rtol=None):
        shots.append(v0)
        return side(r=5.0), None, None

    monkeypatch.setattr(_Integrator, "shot", shot)
    with pytest.raises(BracketNotFound, match="do not bracket the separatrix"):
        shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=60.0)
    assert shots[-1] == pytest.approx(_PROBE_LO if side is BlowUp else _PROBE_HI, rel=1e-12)
    # the search's probes and that end: 6 and 5 of the ladder's 19
    assert len(shots) == (6 if side is BlowUp else 5)


@pytest.mark.parametrize("rtol, atol", [(None, 1e-14), (5e-13, 5e-15)])
def test_integrator_atol_is_rtol_over_100(pc13, monkeypatch, rtol, atol):
    # The one solve_ivp call site passes atol = rtol / 100, both floats:
    # every leg the solution is built from at _RTOL (None: _RTOL as
    # defined), every stage-1 shot at the rtol of the bracket its trial x
    # splits, max(_RTOL_BRACKET, _RTOL_PROBE min(1, w / |x|)) for a bracket
    # of width w: so in [_RTOL_BRACKET, _RTOL_PROBE], exactly _RTOL_BRACKET
    # once w < _RTOL_PROBE |x|, and _RTOL_PROBE on the probe ladder.
    if rtol is not None:
        monkeypatch.setattr(biharm.shooting, "_RTOL", rtol)
    rtol = biharm.shooting._RTOL
    plain_ivp, plain_shot = biharm.shooting.solve_ivp, _Integrator.shot
    seen, shots, trials = set(), {}, []

    def recording_solve_ivp(fun, *args, **kwargs):
        seen.add((kwargs["rtol"], kwargs["atol"]))
        return plain_ivp(fun, *args, **kwargs)

    def recording_shot(self, v0, r_max, dense=False, rtol=None):
        out = plain_shot(self, v0, r_max, dense, rtol)
        if rtol is not None:  # a stage-1 shot, and the sign of its escape-law value
            shots[v0] = rtol
            trials.append((v0, _escape_law(out[0], 1.0, 0.0, 0.0)))
        return out

    monkeypatch.setattr(biharm.shooting, "solve_ivp", recording_solve_ivp)
    monkeypatch.setattr(_Integrator, "shot", recording_shot)
    sol = shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=60.0)
    assert all(type(r) is type(a) is float and a == 1e-2 * r for r, a in seen)
    assert (rtol, atol) in seen and atol == 1e-2 * rtol
    stage_1 = {r for r, _ in seen} - {rtol}
    assert stage_1 == set(shots.values())
    assert min(stage_1) == _RTOL_BRACKET and max(stage_1) == _RTOL_PROBE
    # stage 1 replayed: from the probe ladder's ends on, each shot x splits
    # the bracket (up, dn), of width w = up - dn, and becomes its blow-up
    # end (g >= 0) or its sign-loss end; the solve records the last bracket
    up, dn, splits = _PROBE_HI, _PROBE_LO, []
    for x, g in trials:
        splits.append((x, up - dn))
        up, dn = (x, dn) if g >= 0.0 else (up, x)
    assert sol.record.bracket == (up, dn)
    assert all(shots[x] == max(_RTOL_BRACKET, _RTOL_PROBE * min(1.0, w / abs(x))) for x, w in splits)
    narrow = [x for x, w in splits if w < _RTOL_PROBE * abs(x)]
    assert narrow and all(shots[x] == _RTOL_BRACKET for x in narrow)
    # the probe ladder's shots split brackets wider than |x|
    wide = [x for x, w in splits if w >= abs(x)]
    assert wide and all(shots[x] == _RTOL_PROBE for x in wide)


def test_misclassified_stage_1_trial_fails_loudly(pc13, monkeypatch):
    # A loose stage-1 shot that lands on the wrong side leaves the root
    # outside the bracket: the search then closes on the wrong trial, and the
    # collocation's v0 lands far outside the bracket, where its guard
    # raises NoConvergence naming the stage.  Case A at r_max 500: the trial
    # that lies nearest 1e-4 |v0| from the root (1.9e-5 relative, a blow-up
    # at r = 90, shot at rtol 1.9e-5) is read as a sign loss at that radius;
    # v0 then lands 5.1e-6 outside the bracket, 6.2e-9 relative from the root.
    params = ProblemParams(13, pc13 + 0.5)
    plain_shot = _Integrator.shot
    trials = []

    def recording_shot(self, v0, r_max, dense=False, rtol=None):
        if rtol is not None:
            trials.append(v0)
        return plain_shot(self, v0, r_max, dense, rtol)

    with monkeypatch.context() as patched:
        patched.setattr(_Integrator, "shot", recording_shot)
        root = shoot(params, alpha=1.0, r_max=500.0).v0
    far = min(trials, key=lambda x: abs(math.log10(abs(x - root) / abs(root)) + 4.0))
    assert 1e-5 < abs(far - root) / abs(root) < 1e-3
    flipped = []

    def flipping_shot(self, v0, r_max, dense=False, rtol=None):
        outcome, sol_r, sol_s = plain_shot(self, v0, r_max, dense, rtol)
        if rtol is not None and v0 == far:
            flipped.append(outcome)
            outcome = {BlowUp: SignLoss, SignLoss: BlowUp}[type(outcome)](r=outcome.r)
        return outcome, sol_r, sol_s

    monkeypatch.setattr(_Integrator, "shot", flipping_shot)
    with pytest.raises(NoConvergence) as info:
        shoot(params, alpha=1.0, r_max=500.0)
    assert len(flipped) == 1
    found = re.fullmatch(
        r"collocation stage: v0 = (\S+) lies (\S+) outside the bracket, more "
        r"than \S+ \|v0\| \(over s in \[\S+, \S+\], v0 bracket \[(\S+), (\S+)\]\)",
        str(info.value),
    )
    assert found is not None, str(info.value)
    v0, off, dn, up = (float(x) for x in found.groups())
    # v0 is the root, and the bracket closed on the misread trial
    assert v0 == pytest.approx(root, rel=1e-7)
    assert far in (dn, up) and off > _BRACKET_STOP * abs(v0)
