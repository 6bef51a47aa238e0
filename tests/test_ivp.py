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

from biharm import ProblemParams, StepFailure, compute_pc
from biharm import ivp
from biharm.ivp import Dense, _brentq, _point, solve_ivp
from biharm.shooting import (
    _PROBE_HI,
    _PROBE_LO,
    _R_CHART,
    _R_SWITCH,
    _RTOL,
    _Integrator,
    _r_to_s_state,
)

_TOL = dict(rtol=_RTOL, atol=1e-2 * _RTOL)

# An 8-entry system, the tests' oracle for the tangent's complex-step Taylor
# steps: the r-chart with its variational equation in v0, u^p linearised to
# p u^(p-1) times entry 4, so that one DOP853 leg carries the state and its
# derivative in v0 on one step sequence (Hairer, Norsett & Wanner, Solving
# ODEs I, Sec. II.6)
_VARIATIONAL = ivp.system(
    "rhs_v", ("p", "cap", "nm1", "m", "wcap"),
    ("u1", "u2 - nm1 * u1 / x", "u3", "((u0 if u0 < cap else cap) ** p if u0 > 0.0 else 0.0) - nm1 * u3 / x",
     "u5", "u6 - nm1 * u5 / x", "u7",
     "(p * (u0 if u0 < cap else cap) ** (p - 1.0) if u0 > 0.0 else 0.0) * u4 - nm1 * u7 / x"),
    (("sign_loss", "u0", -1), ("amplitude_cross", "x ** m * u0 - wcap", 1)))


def _variational(integ, v):
    """integ's 8-entry oracle system and its start (r0, y0) at v: the
    series' start and state there, and their complex-step derivative in v0
    through the series, as the Taylor tangent starts."""
    rhs = _VARIATIONAL(p=integ.p, cap=integ.pow_cap, nm1=integ.n - 1.0, m=integ.m, wcap=integ.wcap)
    h = 1e-20 * abs(v)
    r0, y0 = integ.start(integ.series(v), _R_SWITCH)
    return rhs, r0, (*y0, *(y.imag / h for y in integ.series(complex(v, h)).state(r0)))


def _both(integ, span, y0, **kwargs):
    """The driver's and scipy's integration of one r-chart leg."""
    rhs = integ.rhs_r
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
    integ.rhs_r = _R_CHART(p=integ.p, cap=integ.pow_cap, nm1=integ.n - 1.0, m=integ.m, wcap=1.5 * integ.L)
    return integ


@pytest.fixture(scope="module")
def case_a(sol_a):
    """Case A's integrator, its r-chart start as a function of v0, and its accepted v0."""
    integ = _Integrator(sol_a.params)
    return integ, lambda v0: integ.start(integ.series(v0), _R_SWITCH), sol_a.v0


def test_legs_match_scipy(case_a):
    # A leg to r_switch and one a decade past it: past r_switch the unstable
    # mode grows the rounding differences by (r / r_switch)^lam4.
    # Measured: 5.5e-15 and 1.9e-11 relative, with equal nfev (1142, 2414).
    integ, seed, v0 = case_a
    r0, y0 = seed(v0)
    for r_end in (_R_SWITCH, 100.0):
        ours, ref = _both(integ, (r0, r_end), y0)
        assert ours.status == ref.status == 0
        assert ours.t[-1] == ref.t[-1]
        assert _rel(ours.y[:, -1], ref.y[:, -1]) < 1e-10
        assert abs(ours.nfev / ref.nfev - 1.0) < 0.05


@pytest.mark.parametrize("shift, hit", [(1e-6, 1), (-1e-6, 0)])
def test_escape_radius_matches_scipy(case_a, shift, hit):
    # v0 moved 1e-6 relative to the blow-up side (nearer zero) or the
    # sign-loss side escapes past r_switch; the brentq root on the step's
    # interpolant lands where scipy's does (measured: 4.7e-10 and 3.8e-10
    # relative, at r = 207 and 385)
    integ, seed, v0 = case_a
    r0, y0 = seed(v0 * (1.0 - shift))
    ours, ref = _both(integ, (r0, 1e4), y0)
    assert ours.status == ref.status == 1
    fired = [ev.__name__ for ev, te in zip(integ.rhs_r.events, ref.t_events) if te.size]
    assert fired == [ours.event] == [("sign_loss", "amplitude_cross")[hit]]
    assert ref.t_events[hit].size == 1
    assert _R_SWITCH < ours.t[-1] and abs(ours.t[-1] / ref.t_events[hit][0] - 1.0) < 1e-9


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
    leg = solve_ivp(integ.rhs_r, (r0, 1e4), y0, dense_output=True, **_TOL)
    assert leg.status == 1 and leg.t[-1] > _R_SWITCH
    step = tuple(leg.sol.steps[-1].tolist())
    outcomes = [_roots(lambda x, ev=ev: ev(x, _point(step, x)), step[0], step[1]) for ev in integ.rhs_r.events]
    assert all(ours == ref for ours, ref in outcomes), outcomes
    assert [ours for ours, _ in outcomes if ours is not ValueError] == [leg.t[-1].hex()]


def test_event_roots_read_only_their_entries(case_a):
    # Brent's iterations interpolate only the entries an event reads (u0,
    # for both events): on firing steps before r_switch (the root search's
    # limits) and past it (v0 shifted 1e-6 to either side) each event's
    # root, or the ValueError of the one that keeps its sign, is that of the
    # full interpolant, in the port and in scipy's brentq, and the fired one
    # ends the leg
    integ, seed, v0 = case_a
    legs = {}
    for where, vs in (("before", (_PROBE_LO, _PROBE_HI)), ("past", (v0 * (1.0 - 1e-6), v0 * (1.0 + 1e-6)))):
        for v in vs:
            r0, y0 = seed(v)
            legs.setdefault(where, []).append(solve_ivp(integ.rhs_r, (r0, 1e4), y0, dense_output=True, **_TOL))
    fired = {}
    for where, group in legs.items():
        for leg in group:
            assert leg.status == 1 and (leg.t[-1] > _R_SWITCH) == (where == "past")
            fired.setdefault(where, set()).add(leg.event)
            step = tuple(leg.sol.steps[-1].tolist())
            for ev in integ.rhs_r.events:
                assert ev.entries == [0]
                read = _roots(lambda x, ev=ev: ev(x, _point(step, x, ev.entries)), step[0], step[1])
                assert read == _roots(lambda x, ev=ev: ev(x, _point(step, x)), step[0], step[1])
                if ev.__name__ == leg.event:
                    assert read[0] == leg.t[-1].hex()
    assert fired == {where: {"sign_loss", "amplitude_cross"} for where in ("before", "past")}


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
    # n=15 at 100 p_c: the r-chart leg at the root search's least negative
    # limit (v0 = -1e-6), on the blow-up side, ends at the amplitude_cross
    # event in both integrators; with the bound at 1.5 L its steps
    # underflow, in both, before r_switch (measured: 1493 and 7790 RHS calls)
    integ = _Integrator(ProblemParams(15, 100.0 * pc15))
    r0, y0 = integ.start(integ.series(_PROBE_HI), _R_SWITCH)
    ours, ref = _both(integ, (r0, _R_SWITCH), y0)
    assert ours.status == ref.status == 1 and ours.event == "amplitude_cross"
    assert r0 < ours.t[-1] < _R_SWITCH
    ours, ref = _both(_at_the_old_cap(integ), (r0, _R_SWITCH), y0)
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
    """The interpolant's seven coefficient rows, its three extra stages
    included."""
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
    brentq on scipy's interpolant of the firing step, its rows by
    _loop_rows.  Returns (step ends, states, dense rows as (t_old, t, y_old,
    rows), flat -- every step's when dense, else the firing step's --, event
    roots, fun calls made, status, last step)."""
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


def _assert_rhs_leg_equals_the_loops(rhs, span, y0, dense):
    """The kernel's leg of rhs, a `system` right-hand side, against
    _loop_leg's on the same scalar right-hand side, bit for bit; returns the
    kernel's result."""
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


@pytest.mark.parametrize("reach", ["r", "r_past_switch"])
def test_kernel_legs_equal_the_tableau_loops_bit_for_bit(reach, pc15):
    # Four kinds of r-chart leg on the kernel, from seeded states near case
    # A's separatrix, either to r_switch ("r") or past it: plain and dense
    # legs that reach their end (r_switch, or r = 100), legs ended by each
    # event (plain and dense; at the root search's limits before r_switch,
    # v0 shifted 1e-6 to either side past it, on the way to r = 1e4), and,
    # to r_switch, the step failure of n=15's first probe at 100 p_c with the
    # blow-up bound at 1.5 L (plain and dense).
    integ = _Integrator(ProblemParams(13, compute_pc(13) + 0.5))
    rng = np.random.default_rng(1313)
    v0_sep = -0.2668911534367668
    near = (v0_sep * (1.0 + 1e-9 * rng.standard_normal()) for _ in range(3))
    shifted = (v0_sep * (1.0 + 1e-6 * rng.uniform(0.5, 2.0) * sign) for sign in (1.0, -1.0, 1.0))

    def leg(v0, dense, r_end=_R_SWITCH if reach == "r" else 100.0, rhs=integ.rhs_r):
        r0, y0 = integ.start(integ.series(v0), _R_SWITCH)
        return _assert_rhs_leg_equals_the_loops(rhs, (r0, r_end), y0, dense)

    kinds = [(leg(next(near), False), 0), (leg(next(near), False), 0), (leg(next(near), True), 0)]
    if reach == "r":
        ends = [leg(_PROBE_LO, False), leg(_PROBE_HI, False), leg(_PROBE_HI, True)]
        big = _at_the_old_cap(_Integrator(ProblemParams(15, 100.0 * pc15)))
        r0, y0 = big.start(big.series(_PROBE_HI), _R_SWITCH)
        kinds += [(_assert_rhs_leg_equals_the_loops(big.rhs_r, (r0, _R_SWITCH), y0, dense), -1)
                  for dense in (False, True)]
    else:
        ends = [leg(next(shifted), False, 1e4), leg(next(shifted), False, 1e4), leg(next(shifted), True, 1e4)]
        assert all(got.t[-1] > _R_SWITCH for got in ends)
    kinds += [(got, 1) for got in ends]
    assert [got.status for got, _ in kinds] == [status for _, status in kinds]
    # both events end a leg
    assert {got.event for got in ends} == {"sign_loss", "amplitude_cross"}


# --- systems of other lengths: the generator reads n from the right-hand side

def test_variational_legs_equal_the_tableau_loops_bit_for_bit(case_a):
    # case A's legs of the 8-entry oracle system, seeded as the tangent's
    # Taylor steps are: plain and dense to r_switch at its v0, legs ended by
    # each event at the root search's limits (plain, and dense at the
    # blow-up end, whose root the 8-entry interpolant locates)
    integ, _, v0 = case_a
    legs = []
    for v, dense in ((v0, False), (v0, True), (_PROBE_LO, False), (_PROBE_HI, False), (_PROBE_HI, True)):
        rhs, r0, y0 = _variational(integ, v)
        legs.append(_assert_rhs_leg_equals_the_loops(rhs, (r0, _R_SWITCH), y0, dense))
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
    rhs, r0, y0 = _variational(integ, v0)
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
    rhs, r0, y0 = _variational(integ, v0)
    leg = solve_ivp(rhs, (r0, _R_SWITCH), y0, dense_output=True, **_TOL)
    ref = OdeSolution(leg.t, [_scipy_step(row) for row in leg.sol.steps])
    xs = np.sort(np.concatenate([leg.t, 0.5 * (leg.t[1:] + leg.t[:-1]), [0.5 * r0, 1.1 * _R_SWITCH]]))
    assert leg.sol(xs).shape == (8, xs.size)
    assert _hex(leg.sol(xs).tolist()) == _hex(ref(xs).tolist())
    step = tuple(leg.sol.steps[len(leg.sol.steps) // 2].tolist())
    mid = 0.5 * (step[0] + step[1])
    assert _hex(list(_point(step, mid))) == _hex(_scipy_step(step)(mid).tolist())


def _tangent_and_oracle(integ, sol, rtol):
    """sol's tangent as _collocate takes it, at the bracket's midpoint mid:
    (mid, the _Tangent, the dense 8-entry oracle leg from the same start at
    rtol, atol rtol / 100)."""
    up, dn = sol.record.bracket
    mid = 0.5 * (up + dn)
    _, tangent = integ.tangent(mid)
    rhs, r0, y0 = _variational(integ, mid)
    assert r0 == tangent.ts[0]
    return mid, tangent, solve_ivp(rhs, (r0, _R_SWITCH), y0, rtol=rtol, atol=1e-2 * rtol, dense_output=True)


def test_taylor_tangent_matches_the_variational_leg(case_a, sol_a):
    # Case A's tangent: the complex-step Taylor steps' end state X(mid) and
    # dX/dv at r_switch (mapped by _r_to_s_state) against the 8-entry
    # oracle leg at rtol 1e-13, X within 1e-12 L and dX/dv within 1e-12
    # max |dX/dv| (measured: 2.9e-13 and 1.7e-13, the leg's own error: at
    # rtol 1e-12 and 1e-14 the gaps read 3.1e-13 / 1.1e-13 and 1.5e-14 /
    # 9.3e-15); on the lattice below r_switch the solve's W within 1e-13 L
    # of the oracle's tangent at v0 (measured 7.7e-15 L)
    integ = case_a[0]
    mid, tangent, leg = _tangent_and_oracle(integ, sol_a, 1e-13)
    assert leg.status == 0 and leg.t[-1] == tangent.ts[-1] == _R_SWITCH
    x = _r_to_s_state(integ.n, integ.m, _R_SWITCH, np.array(tangent.y))
    ref, ref_dx = (_r_to_s_state(integ.n, integ.m, _R_SWITCH, y) for y in np.split(leg.y[:, -1], 2))
    assert np.max(np.abs(x.real - ref)) <= 1e-12 * integ.L
    assert np.max(np.abs(x.imag / tangent.h - ref_dx)) <= 1e-12 * np.max(np.abs(ref_dx))
    head = (sol_a.s_grid < math.log(_R_SWITCH)) & (sol_a.r_grid >= leg.t[0])
    y = leg.sol(sol_a.r_grid[head])
    old = _r_to_s_state(integ.n, integ.m, sol_a.r_grid[head], y[:4] + (sol_a.v0 - mid) * y[4:])
    assert np.max(np.abs(sol_a.W[head] - old[0])) <= 1e-13 * integ.L


def test_tangent_derivative_stays_near_its_7th_order_interpolant(case_a, sol_a):
    # Case A's tangent: the derivative dy/dv the Taylor steps' dense lists
    # give (their imaginary parts over h) stays within 1e-12 max |dy/dv| of
    # the 7th-order interpolant of the 8-entry oracle leg at _RTOL, and the
    # state within 1e-13 max |y|, on the lattice's nodes on the steps and at
    # every oracle step's midpoint (measured: 2.7e-14 and 6.1e-15).  The
    # derivative is read as the tangent's change from mid to mid + |mid|,
    # along which the tangent is linear.
    integ = case_a[0]
    mid, tangent, leg = _tangent_and_oracle(integ, sol_a, _RTOL)
    rr = sol_a.r_grid[(sol_a.r_grid >= leg.t[0]) & (sol_a.r_grid < _R_SWITCH)]
    rr = np.sort(np.concatenate([rr, 0.5 * (leg.t[1:] + leg.t[:-1])]))
    seventh = leg.sol(rr)
    state = tangent(rr, mid)
    slope = (tangent(rr, mid + abs(mid)) - state) / abs(mid)
    assert np.max(np.abs(slope - seventh[4:])) <= 1e-12 * np.max(np.abs(seventh[4:]))
    assert np.max(np.abs(state - seventh[:4])) <= 1e-13 * np.max(np.abs(seventh[:4]))


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


def test_a_first_step_that_rounds_to_0_fails_at_t0(case_a):
    # u' = 1e300 u from u = 1e10: the derivative overflows, so the first
    # trial step h0 = 0.01 d0 / d1 rounds to 0, and the leg fails where it
    # starts (status -1 at t0 after one RHS call) instead of dividing by h0
    rhs = ivp.system("rhs_overflow", (), ("1e300 * u0",), ())()
    got = solve_ivp(rhs, (1.0, 2.0), (1e10,), **_TOL)
    assert got.status == -1 and got.t.tolist() == [1.0] and got.y.tolist() == [[1e10]]
    assert got.step == 0.0 and got.nfev == 1 and got.sol is None and got.event is None
    # on a chart, w' = v - (n - 1) w / r overflows from w = 1e308: the leg
    # raises StepFailure
    integ = case_a[0]
    with pytest.raises(StepFailure, match=r"r-chart step failed at r = 1: step size 0 in r"):
        integ.leg((1.0, _R_SWITCH), (1.0, 1e308, 0.0, 0.0))
