"""The scalar DOP853 driver against scipy.integrate.solve_ivp(method="DOP853").

Both integrate the shooter's legs at the shooter's tolerances; the driver
follows scipy's algorithm, so the two agree up to rounding.  The driver's
leg kernels, generated from the tableau, are also checked bit for bit
against a reference integrator that loops over the tableau's rows and
calls the same scalar right-hand side.  The driver's tableau literals and
its Brent root finder are checked against scipy's, which the driver no
longer imports.
"""

import math
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq

from biharm import ProblemParams, compute_pc
from biharm import ivp
from biharm.ivp import Dense, _brentq, _point, solve_ivp
from biharm.shooting import (
    _CHARTS,
    _PROBE_HI,
    _PROBE_LO,
    _R_SWITCH,
    _RTOL,
    _Integrator,
    _r_to_s_state,
)

_TOL = dict(rtol=_RTOL, atol=1e-2 * _RTOL)


def _both(integ, chart, span, y0, **kwargs):
    """The driver's and scipy's integration of one leg."""
    rhs = getattr(integ, f"rhs_{chart}")
    ours = solve_ivp(rhs, span, y0, **_TOL, **kwargs)
    ref = scipy_solve_ivp(rhs, span, y0, method="DOP853", events=rhs.events, **_TOL, **kwargs)
    return ours, ref


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _at_the_old_cap(integ):
    """integ with its r-chart right-hand side rebound at the blow-up bound
    W = 1.5 L at every p: at large p, (W/L)^(p-1) then overflows before
    the amplitude_cross event and a leg fails its step, which keeps the
    kernel's step-failure path (status -1) under test."""
    integ.rhs_r = _CHARTS["r"](p=integ.p, cap=integ.pow_cap, nm1=integ.n - 1.0, m=integ.m,
                               wcap=1.5 * integ.L)
    return integ


@pytest.fixture(scope="module")
def case_a(sol_a):
    """Case A's integrator, its r-chart start as a function of v0, and its accepted v0."""
    integ = _Integrator(sol_a.params)
    return integ, lambda v0: integ.start(v0, _R_SWITCH), sol_a.v0


def test_legs_match_scipy(case_a):
    # The s-leg runs one decade past r_switch: over the whole leg the unstable
    # mode grows the rounding differences by e^{lam4 (s_end - s_switch)}.
    # Measured: 1.8e-14 (r) and 8.2e-12 (s) relative, with equal nfev.
    integ, seed, v0 = case_a
    r0, y0 = seed(v0)
    r_ours, r_ref = _both(integ, "r", (r0, _R_SWITCH), y0)
    w0 = _r_to_s_state(integ.n, integ.m, _R_SWITCH, r_ref.y[:, -1])
    s_ours, s_ref = _both(integ, "s", (math.log(_R_SWITCH), math.log(100.0)), w0)
    for ours, ref in ((r_ours, r_ref), (s_ours, s_ref)):
        assert ours.status == ref.status == 0
        assert ours.t[-1] == ref.t[-1]
        assert _rel(ours.y[:, -1], ref.y[:, -1]) < 1e-10
        assert abs(ours.nfev / ref.nfev - 1.0) < 0.05


@pytest.mark.parametrize("shift, hit", [(1e-6, 1), (-1e-6, 0)])
def test_escape_radius_matches_scipy(case_a, shift, hit):
    # v0 moved 1e-6 relative to the blow-up side (nearer zero) or the
    # sign-loss side escapes in the s-chart; the brentq root on the step's
    # interpolant lands where scipy's does (measured: 6e-13 relative)
    integ, seed, v0 = case_a
    r0, y0 = seed(v0 * (1.0 - shift))
    r_ours, r_ref = _both(integ, "r", (r0, _R_SWITCH), y0)
    assert r_ours.status == r_ref.status == 0
    w0 = _r_to_s_state(integ.n, integ.m, _R_SWITCH, r_ref.y[:, -1])
    ours, ref = _both(integ, "s", (math.log(_R_SWITCH), math.log(1e4)), w0)
    assert ours.status == ref.status == 1
    fired = [ev.__name__ for ev, te in zip(integ.rhs_s.events, ref.t_events) if te.size]
    assert fired == [ours.event] == [("sign_loss", "amplitude_cross")[hit]]
    assert ref.t_events[hit].size == 1
    assert abs(ours.t[-1] / ref.t_events[hit][0] - 1.0) < 1e-9


def test_tableau_literals_are_scipys():
    # every literal reads back as scipy's double, bit for bit
    for name in ("A", "C", "B", "E3", "E5", "A_EXTRA", "C_EXTRA", "D"):
        ours, ref = getattr(ivp.DOP853, name), getattr(DOP853, name)
        assert np.array_equal(ours, ref) and ours.tobytes() == ref.tobytes(), name
    assert ivp.DOP853.n_stages == DOP853.n_stages
    assert ivp.DOP853.error_estimator_order == DOP853.error_estimator_order


def _roots(f, a, b):
    """The port's and scipy's brentq on f over [a, b], each as the root's
    float.hex or the type of the exception raised."""
    def outcome(solve):
        try:
            return solve().hex()
        except (ValueError, RuntimeError) as exc:
            return type(exc)
    return (outcome(lambda: _brentq(f, a, b)),
            outcome(lambda: brentq(f, a, b, xtol=4 * _EPS, rtol=4 * _EPS)))


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_brentq_port_matches_scipy_on_the_firing_step(case_a, shift):
    # test_escape_radius_matches_scipy's legs: on the firing step each event's
    # root is scipy's double, and the event that does not change sign raises
    # scipy's ValueError
    integ, seed, v0 = case_a
    r0, y0 = seed(v0 * (1.0 - shift))
    w0 = _r_to_s_state(integ.n, integ.m, _R_SWITCH, solve_ivp(integ.rhs_r, (r0, _R_SWITCH), y0, **_TOL).y[:, -1])
    leg = solve_ivp(integ.rhs_s, (math.log(_R_SWITCH), math.log(1e4)), w0, dense_output=True, **_TOL)
    assert leg.status == 1
    step = tuple(leg.sol.steps[-1].tolist())
    outcomes = [_roots(lambda x, ev=ev: ev(x, _point(step, x)), step[0], step[1]) for ev in integ.rhs_s.events]
    assert all(ours == ref for ours, ref in outcomes), outcomes
    assert [ours for ours, _ in outcomes if ours is not ValueError] == [leg.t[-1].hex()]


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
    (lambda x: x * math.exp(x) - 1.0, 0.0, 2.0),
    (lambda x: math.log(x) - 1.0, 1.0, 5.0),
    (lambda x: math.tanh(50.0 * (x - 0.123)), -1.0, 1.0),
    (lambda x: 1e-300 * math.atan(x - math.pi), 1e-3, 1e3),
    (lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1.0),  # a jump: |f| ties at every step
    (lambda x: 1.0 if x > 4.0 / 3.0 else -1.0, 0.0, 2.0**50),  # ... converged at iteration 100
])
def test_brentq_port_matches_scipy_on_closed_forms(f, a, b):
    ours, ref = _roots(f, a, b)
    assert isinstance(ours, str) and ours == ref


def test_brentq_port_matches_scipy_on_random_brackets():
    # seeded cubics, exponentials, arctan steps and signed powers on brackets
    # in either order; their roots take interpolation, extrapolation and
    # bisection steps in every mix, and the other brackets raise (measured:
    # 163 of the 400 have a root)
    rng = np.random.default_rng(2011)
    families = [
        lambda c: lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3],
        lambda c: lambda x: math.exp(c[0] * x) - abs(c[1]) - 0.01,
        lambda c: lambda x: math.atan(10.0 ** (3.0 * abs(c[0])) * (x - c[1])) + 0.1 * c[2],
        lambda c: lambda x: math.copysign(abs(x - c[0]) ** (0.1 + abs(c[1])), x - c[0]) + 0.01 * c[2],
    ]
    outcomes = []
    for family in families:
        for _ in range(100):
            f = family(rng.standard_normal(4).tolist())
            a, b = rng.uniform(-3.0, 3.0, 2).tolist()
            outcomes.append(_roots(f, a, b))
    assert [ours for ours, _ in outcomes] == [ref for _, ref in outcomes]
    assert sum(isinstance(ours, str) for ours, _ in outcomes) > 100


@pytest.mark.parametrize("f, a, b, error", [
    (lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, ValueError),  # a NaN value
    (lambda x: x + 2.0, 0.0, 1.0, ValueError),  # ends of the same sign
    (lambda x: (x - 1.0) ** 5, 0.0, 1.7, RuntimeError),  # 100 iterations, a flat root
    (lambda x: 1.0 if x > 4.0 / 3.0 else -1.0, 0.0, 2.0**51, RuntimeError),  # ... a jump, 101 needed
])
def test_brentq_port_raises_as_scipy(f, a, b, error):
    assert _roots(f, a, b) == (error, error)


def test_brentq_port_returns_an_exact_zero_end():
    # before the sign test, so a -0.0 end is a root too
    assert _brentq(lambda x: x, 0.0, 1.0) == 0.0
    assert _brentq(lambda x: -0.0 if x < 0.0 else -1.0, -1.0, 1.0) == -1.0
    assert _brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    assert _roots(lambda x: x - 1.0, 0.0, 1.0) == ((1.0).hex(), (1.0).hex())


def test_dense_output_replays_the_steps(case_a):
    # dense output only adds interpolants: the steps are those of the plain
    # leg, and the interpolants reproduce every step-end state
    integ, seed, v0 = case_a
    rhs = integ.rhs_r
    r0, y0 = seed(v0)
    plain = solve_ivp(rhs, (r0, _R_SWITCH), y0, **_TOL)
    dense = solve_ivp(rhs, (r0, _R_SWITCH), y0, dense_output=True, **_TOL)
    assert np.array_equal(dense.t, plain.t) and np.array_equal(dense.y, plain.y)
    assert dense.nfev == plain.nfev + 3 * (plain.t.size - 1)
    at_ends = dense.sol(dense.t)
    assert np.all(np.abs(at_ends - dense.y) <= 4.0 * np.spacing(np.abs(dense.y)))


def test_large_p_first_probe_fails(pc15):
    # n=15 at 100 p_c: the r-chart leg of the ladder's blow-up end
    # (v0 = -1e-6) ends at the amplitude_cross event in both integrators;
    # with the bound at 1.5 L its steps underflow, in both, before r_switch
    # (measured: 1493 and 7790 RHS calls)
    integ = _Integrator(ProblemParams(15, 100.0 * pc15))
    r0, y0 = integ.start(_PROBE_HI, _R_SWITCH)
    ours, ref = _both(integ, "r", (r0, _R_SWITCH), y0)
    assert ours.status == ref.status == 1 and ours.event == "amplitude_cross"
    assert r0 < ours.t[-1] < _R_SWITCH
    ours, ref = _both(_at_the_old_cap(integ), "r", (r0, _R_SWITCH), y0)
    assert ours.status == ref.status == -1
    assert r0 < ours.t[-1] < _R_SWITCH
    assert ours.step < 10.0 * np.spacing(ours.t[-1])


def _scipy_step(row):
    """scipy's DOP853 interpolant of one dense row of 2 + 8n floats."""
    n = (len(row) - 2) // 8
    return Dop853DenseOutput(row[0], row[1], np.array(row[2:2 + n]), np.reshape(row[2 + n:], (7, n)))


def test_dense_output_is_scipys_odesolution_bit_for_bit(case_a):
    # Dense against scipy's OdeSolution over scipy's interpolants of the same
    # rows, at nodes inside steps, on step ends (where OdeSolution picks the
    # earlier step) and outside the leg (its end steps), bit for bit
    integ, seed, v0 = case_a
    r0, y0 = seed(v0)
    leg = solve_ivp(integ.rhs_r, (r0, _R_SWITCH), y0, dense_output=True, **_TOL)
    ref = OdeSolution(leg.t, [_scipy_step(row) for row in leg.sol.steps])
    xs = np.sort(np.concatenate([leg.t, 0.5 * (leg.t[1:] + leg.t[:-1]), [0.5 * r0, 1.1 * _R_SWITCH]]))
    assert _hex(leg.sol(xs).tolist()) == _hex(ref(xs).tolist())
    # two steps whose values at their shared end differ (0.1 + 0.2 against 0.3)
    steps = np.array([[0.0, 1.0] + [0.1] * 4 + [0.2] * 4 + [0.0] * 24,
                      [1.0, 2.0] + [0.3] * 4 + [0.0] * 28])
    sol, ref = Dense(steps), OdeSolution([0.0, 1.0, 2.0], [_scipy_step(row) for row in steps])
    xs = np.array([-1.0, 0.5, 1.0, 1.5, 3.0])
    assert sol(xs).tolist() == ref(xs).tolist()
    assert sol(np.array([1.0])).tolist() == [[0.1 + 0.2]] * 4 != [[0.3]] * 4


# --- a leg as loops over the tableau's rows: the oracle ---------------------

def _rows(table):
    return [[(j, c) for j, c in enumerate(row) if c != 0.0] for row in np.atleast_2d(table).tolist()]


_A, _C, (_B,), (_E3,), (_E5,) = (_rows(DOP853.A), DOP853.C.tolist(), _rows(DOP853.B),
                                 _rows(DOP853.E3), _rows(DOP853.E5))
_A_EXTRA, _C_EXTRA, _D = _rows(DOP853.A_EXTRA), DOP853.C_EXTRA.tolist(), _rows(DOP853.D)
_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_EPS = np.finfo(float).eps


def _combo(K, row):
    """Sum over row's (j, c) of c * K[j], entry by entry, from the first term."""
    (j, c), *rest = row
    acc = [c * k for k in K[j]]
    for j, c in rest:
        acc = [a + c * k for a, k in zip(acc, K[j])]
    return acc


def _axpy(y, h, d):
    return tuple(a + h * b for a, b in zip(y, d))


def _sumsq(v):
    # in order: sum() compensates its rounding from Python 3.12 on
    return reduce(lambda total, x: total + x * x, v, 0.0)


def _rms(v):
    return math.sqrt(_sumsq(v) / len(v))


def _loop_step(fun, t, y, f, h, rtol, atol):
    K = [f]
    for s in range(1, DOP853.n_stages):
        K.append(fun(t + _C[s] * h, _axpy(y, h, _combo(K, _A[s]))))
    y_new = _axpy(y, h, _combo(K, _B))
    K.append(fun(t + h, y_new))
    scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
    e5 = _sumsq([e / sc for e, sc in zip(_combo(K, _E5), scale)])
    e3 = _sumsq([e / sc for e, sc in zip(_combo(K, _E3), scale)])
    if e5 == 0.0 and e3 == 0.0:
        return K, y_new, 0.0
    return K, y_new, h * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))


def _loop_rows(fun, K, t_old, h, y_old, y_new):
    """The interpolant's seven coefficient rows, its three extra stages included."""
    delta = [b - a for a, b in zip(y_old, y_new)]
    rows = [
        delta,
        [h * k - d for k, d in zip(K[0], delta)],
        [2.0 * d - h * (k1 + k0) for d, k1, k0 in zip(delta, K[-1], K[0])],
    ]
    K = list(K)
    for a, c in zip(_A_EXTRA, _C_EXTRA):
        K.append(fun(t_old + c * h, _axpy(y_old, h, _combo(K, a))))
    return rows + [[h * v for v in _combo(K, row)] for row in _D]


def _loop_leg(fun, events, t_span, y0, rtol, atol, dense):
    """One leg as a loop over _loop_step: scipy's initial step and step
    controller, every event called at every step end, the first root by
    brentq on scipy's interpolant of the firing step.  Returns (step ends,
    states, dense rows as (t_old, t, y_old, rows), flat -- every step's when
    dense, else the firing step's --, event roots, fun calls made, status,
    last step)."""
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        return fun(t, y)

    t0, t_bound = t_span
    y = tuple(y0)
    f = counted(t0, y)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / sc for v, sc in zip(y, scale)])
    d1 = _rms([v / sc for v, sc in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t0)
    f1 = counted(t0 + h0, tuple(a + h0 * b for a, b in zip(y, f)))
    d2 = _rms([(b - a) / sc for a, b, sc in zip(f, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    h_abs = min(100.0 * h0, h1, t_bound - t0)

    ts, ys, steps, roots = [t0], [y], [], [[] for _ in events]
    g = [ev(t0, y) for ev in events]
    t = t0
    while True:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            K, y_new, err = _loop_step(counted, t, y, f, h, rtol, atol)
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**_EXPONENT)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err**_EXPONENT)
            rejected = True
        else:
            return ts, ys, steps, roots, calls, -1, h_abs
        g_new = [ev(t_new, y_new) for ev in events]
        active = [i for i, ev in enumerate(events)
                  if (ev.direction >= 0 and g[i] <= 0.0 <= g_new[i])
                  or (ev.direction <= 0 and g[i] >= 0.0 >= g_new[i])]
        if dense or active:
            rows = _loop_rows(counted, K, t, h, y, y_new)
            steps.append((t, t_new, *y, *(v for row in rows for v in row)))
        if active:
            interp = _scipy_step(steps[-1])

            def point(x):
                return tuple(interp(x).tolist())

            at = [brentq(lambda x, ev=events[i]: ev(x, point(x)), t, t_new,
                         xtol=4 * _EPS, rtol=4 * _EPS) for i in active]
            first = min(range(len(at)), key=at.__getitem__)
            roots[active[first]].append(at[first])
            ts.append(at[first])
            ys.append(point(at[first]))
            return ts, ys, steps, roots, calls, 1, h_abs
        t, y, f, g = t_new, y_new, K[-1], g_new
        ts.append(t)
        ys.append(y)
        if t == t_bound:
            return ts, ys, steps, roots, calls, 0, h_abs


def _hex(values):
    """Nested floats as their float.hex strings, so == is bit identity."""
    if isinstance(values, float):
        return values.hex()
    return [_hex(v) for v in values]


def _assert_leg_equals_the_loops(integ, chart, span, y0, dense):
    """_assert_rhs_leg_equals_the_loops on integ's chart "r" or "s"."""
    return _assert_rhs_leg_equals_the_loops(getattr(integ, f"rhs_{chart}"), span, y0, dense)


def _assert_rhs_leg_equals_the_loops(rhs, span, y0, dense):
    """The kernel's leg of rhs, a `system` right-hand side, against
    _loop_leg's on the same scalar right-hand side, bit for bit; returns
    the kernel's result."""
    got = solve_ivp(rhs, span, y0, dense_output=dense, **_TOL)
    ts, ys, steps, roots, calls, status, step = _loop_leg(
        rhs, rhs.events, span, tuple(float(v) for v in y0), _TOL["rtol"], _TOL["atol"], dense)
    assert got.status == status
    assert _hex(got.t.tolist()) == _hex(ts)
    assert _hex(got.y.T.tolist()) == _hex(ys)
    # the event the loops' first root fired, and that root as the leg's end
    fired = [(ev.__name__, _hex(at)) for ev, at in zip(rhs.events, roots) if at]
    assert fired == ([(got.event, _hex(got.t.tolist()[-1:]))] if got.event else [])
    assert _hex(got.step) == _hex(step)
    assert got.nfev == calls
    if dense:
        assert _hex(got.sol.steps.tolist()) == _hex(steps)
    return got


@pytest.mark.parametrize("chart", ["r", "s"])
def test_kernel_legs_equal_the_tableau_loops_bit_for_bit(chart, pc15):
    # Four kinds of leg on each chart's kernel, from seeded states near case
    # A's separatrix: plain and dense legs that reach their end, legs ended
    # by each event (plain and dense), and, in the r-chart, the step failure
    # of n=15's first probe at 100 p_c with the blow-up bound at 1.5 L
    # (plain and dense).
    integ = _Integrator(ProblemParams(13, compute_pc(13) + 0.5))
    rng = np.random.default_rng(1313)
    v0_sep = -0.2668911534367668
    near = (v0_sep * (1.0 + 1e-9 * rng.standard_normal()) for _ in range(3))
    shifted = (v0_sep * (1.0 + 1e-6 * rng.uniform(0.5, 2.0) * sign) for sign in (1.0, -1.0, 1.0))

    def leg(v0, dense, r_end=100.0):
        # an r-chart leg to r_switch, or the s-chart leg from its end to r_end
        r0, y0 = integ.start(v0, _R_SWITCH)
        if chart == "r":
            return _assert_leg_equals_the_loops(integ, "r", (r0, _R_SWITCH), y0, dense)
        end = solve_ivp(integ.rhs_r, (r0, _R_SWITCH), y0, **_TOL).y[:, -1]
        span = (math.log(_R_SWITCH), math.log(r_end))
        return _assert_leg_equals_the_loops(integ, "s", span, _r_to_s_state(integ.n, integ.m, _R_SWITCH, end), dense)

    kinds = [(leg(next(near), False), 0), (leg(next(near), False), 0), (leg(next(near), True), 0)]
    if chart == "r":
        ends = [leg(_PROBE_LO, False), leg(_PROBE_HI, False), leg(_PROBE_HI, True)]
        big = _at_the_old_cap(_Integrator(ProblemParams(15, 100.0 * pc15)))
        r0, y0 = big.start(_PROBE_HI, _R_SWITCH)
        kinds += [(_assert_leg_equals_the_loops(big, "r", (r0, _R_SWITCH), y0, dense), -1) for dense in (False, True)]
    else:
        ends = [leg(next(shifted), False, 1e4), leg(next(shifted), False, 1e4), leg(next(shifted), True, 1e4)]
    kinds += [(got, 1) for got in ends]
    assert [got.status for got, _ in kinds] == [status for _, status in kinds]
    # both events end a leg
    assert {got.event for got in ends} == {"sign_loss", "amplitude_cross"}


# --- systems of other lengths: the generator reads n from the right-hand side

def test_variational_legs_equal_the_tableau_loops_bit_for_bit(case_a):
    # case A's 8-entry legs (chart "v", seeded as the collocation's tangent
    # is): plain and dense to r_switch at its v0, legs ended by each event
    # at the ladder's probes (plain, and dense at the blow-up end, whose
    # root the 8-entry interpolant locates)
    integ, _, v0 = case_a
    legs = []
    for v, dense in ((v0, False), (v0, True), (_PROBE_LO, False), (_PROBE_HI, False), (_PROBE_HI, True)):
        r0, _ = integ.start(v, _R_SWITCH)
        legs.append(_assert_rhs_leg_equals_the_loops(integ.rhs_v, (r0, _R_SWITCH), integ.seed(v, r0), dense))
    assert [(got.status, got.event) for got in legs] == [
        (0, None), (0, None), (1, "sign_loss"), (1, "amplitude_cross"), (1, "amplitude_cross")]
    assert legs[0].y.shape[0] == 8 and legs[1].sol.steps.shape[1] == 2 + 8 * 8


def test_variational_leg_matches_scipy(case_a):
    # the plain 8-entry leg against scipy's, each half relative to its own
    # size, and its v0 derivative against a central difference of two
    # 8-entry legs from the series at v0 -+ 1e-6 |v0| (same r0)
    # Measured: 2.9e-15 (state) and 9.8e-15 (derivative) from scipy, with
    # equal nfev (1466), and 1.5e-9 from the difference.
    integ, _, v0 = case_a
    rhs, r0 = integ.rhs_v, integ.start(v0, _R_SWITCH)[0]
    y0 = integ.seed(v0, r0)
    ours = solve_ivp(rhs, (r0, _R_SWITCH), y0, **_TOL)
    ref = scipy_solve_ivp(rhs, (r0, _R_SWITCH), y0, method="DOP853", events=rhs.events, **_TOL)
    assert ours.status == ref.status == 0
    assert ours.t[-1] == ref.t[-1]
    for half in (slice(0, 4), slice(4, 8)):
        assert _rel(ours.y[half, -1], ref.y[half, -1]) < 1e-10
    dv = 1e-6 * abs(v0)
    ends = [solve_ivp(rhs, (r0, _R_SWITCH), (*integ.series(v).state(r0), 0.0, 0.0, 0.0, 0.0), **_TOL).y[:4, -1]
            for v in (v0 - dv, v0 + dv)]
    assert _rel(ours.y[4:, -1], (ends[1] - ends[0]) / (2.0 * dv)) < 1e-7


def test_variational_dense_output_is_scipys_odesolution_bit_for_bit(case_a):
    # Dense and _point on 8-entry rows against scipy's OdeSolution over
    # scipy's interpolants of the same rows, as on the 4-entry charts
    integ, _, v0 = case_a
    r0, _ = integ.start(v0, _R_SWITCH)
    leg = solve_ivp(integ.rhs_v, (r0, _R_SWITCH), integ.seed(v0, r0), dense_output=True, **_TOL)
    ref = OdeSolution(leg.t, [_scipy_step(row) for row in leg.sol.steps])
    xs = np.sort(np.concatenate([leg.t, 0.5 * (leg.t[1:] + leg.t[:-1]), [0.5 * r0, 1.1 * _R_SWITCH]]))
    assert leg.sol(xs).shape == (8, xs.size)
    assert _hex(leg.sol(xs).tolist()) == _hex(ref(xs).tolist())
    step = tuple(leg.sol.steps[len(leg.sol.steps) // 2].tolist())
    mid = 0.5 * (step[0] + step[1])
    assert _hex(list(_point(step, mid))) == _hex(_scipy_step(step)(mid).tolist())


# four decoupled oscillators and no events
_OSCILLATORS = ivp.system("rhs_osc", (), ("u1", "-u0", "u3", "-u2"), ())


def test_a_leg_from_rest_takes_the_floor_initial_step():
    # From the equilibrium y = 0, f = 0, so d1 = d2 = 0 and the first trial
    # step is h1 = max(1e-6, h0 1e-3) with h0 = 1e-6.  Every error estimate
    # is 0, so each step is ten times the last: t = 0, 1e-6, 1.1e-5, ...,
    # 0.111111, 1.0, seven steps and 2 + 7 * 12 = 86 RHS calls, the steps
    # scipy takes
    rhs = _OSCILLATORS()
    got = _assert_rhs_leg_equals_the_loops(rhs, (0.0, 1.0), (0.0,) * 4, False)
    ref = scipy_solve_ivp(rhs, (0.0, 1.0), np.zeros(4), method="DOP853", **_TOL)
    assert got.status == ref.status == 0
    assert _hex(got.t.tolist()) == _hex(ref.t.tolist())
    assert got.t[1] == 1e-6 and got.t.size == 8
    assert got.nfev == ref.nfev == 86
    assert not np.any(got.y)
