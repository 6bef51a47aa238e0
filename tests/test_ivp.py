"""The scalar DOP853 driver against scipy.integrate.solve_ivp(method="DOP853").

Both integrate the shooter's legs at the shooter's tolerances; the driver
follows scipy's algorithm, so the two agree up to rounding.  The driver's
step, generated from the tableau, is also checked bit for bit against the
tableau's rows looped over.
"""

import math

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp

from biharm import ProblemParams, compute_pc
from biharm.ivp import _extra, _step, solve_ivp
from biharm.shooting import (
    _PROBE_HI,
    _R_SWITCH,
    ShootControls,
    _Integrator,
    _r_to_s_state,
)

_TOL = dict(rtol=ShootControls().rtol, atol=1e-2 * ShootControls().rtol)


def _both(integ, chart, span, y0, **kwargs):
    """The driver's and scipy's integration of one leg."""
    rhs, events = integ.charts[chart]
    ours = solve_ivp(rhs, span, y0, events=events, **_TOL, **kwargs)
    ref = scipy_solve_ivp(rhs, span, y0, method="DOP853", events=events, **_TOL, **kwargs)
    return ours, ref


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.fixture(scope="module")
def case_a(sol_a):
    """Case A's integrator, its r-chart start as a function of v0, and its accepted v0."""
    integ = _Integrator(sol_a.params, 1.0, ShootControls())
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
    assert [te.size for te in ours.t_events] == [te.size for te in ref.t_events]
    assert ours.t_events[hit].size == 1
    assert abs(ours.t_events[hit][0] / ref.t_events[hit][0] - 1.0) < 1e-9
    assert ours.t[-1] == ours.t_events[hit][0]


def test_dense_output_replays_the_steps(case_a):
    # dense output only adds interpolants: the steps are those of the plain
    # leg, and the interpolants reproduce every step-end state
    integ, seed, v0 = case_a
    rhs, events = integ.charts["r"]
    r0, y0 = seed(v0)
    plain = solve_ivp(rhs, (r0, _R_SWITCH), y0, events=events, **_TOL)
    dense = solve_ivp(rhs, (r0, _R_SWITCH), y0, events=events, dense_output=True, **_TOL)
    assert np.array_equal(dense.t, plain.t) and np.array_equal(dense.y, plain.y)
    assert dense.nfev == plain.nfev + 3 * (plain.t.size - 1)
    at_ends = dense.sol(dense.t)
    assert np.all(np.abs(at_ends - dense.y) <= 4.0 * np.spacing(np.abs(dense.y)))


def test_large_p_first_probe_fails(pc15):
    # n=15 at 100 p_c: the r-chart steps of the ladder's blow-up end
    # (v0 = -1e-6) underflow, in both integrators, before r_switch
    integ = _Integrator(ProblemParams(15, 100.0 * pc15), 1.0, ShootControls())
    r0, y0 = integ.start(_PROBE_HI, _R_SWITCH)
    ours, ref = _both(integ, "r", (r0, _R_SWITCH), y0)
    assert ours.status == ref.status == -1
    assert r0 < ours.t[-1] < _R_SWITCH
    assert ours.step < 10.0 * np.spacing(ours.t[-1])


# --- the step as loops over the tableau's rows: the oracle ------------------

def _rows(table):
    return [[(j, c) for j, c in enumerate(row) if c != 0.0] for row in np.atleast_2d(table).tolist()]


_A, _C, (_B,), (_E3,), (_E5,) = (_rows(DOP853.A), DOP853.C.tolist(), _rows(DOP853.B),
                                 _rows(DOP853.E3), _rows(DOP853.E5))
_A_EXTRA, _C_EXTRA, _D = _rows(DOP853.A_EXTRA), DOP853.C_EXTRA.tolist(), _rows(DOP853.D)


def _combo(K, row):
    a0 = a1 = a2 = a3 = 0.0
    for j, c in row:
        k0, k1, k2, k3 = K[j]
        a0 += c * k0
        a1 += c * k1
        a2 += c * k2
        a3 += c * k3
    return a0, a1, a2, a3


def _axpy(y, h, d):
    return y[0] + h * d[0], y[1] + h * d[1], y[2] + h * d[2], y[3] + h * d[3]


def _sumsq(v):
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2] + v[3] * v[3]


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
    return K, y_new, h * e5 / math.sqrt((e5 + 0.01 * e3) * 4.0)


def _loop_extra(fun, K, t_old, h, y_old):
    K = list(K)
    for a, c in zip(_A_EXTRA, _C_EXTRA):
        K.append(fun(t_old + c * h, _axpy(y_old, h, _combo(K, a))))
    return [[h * v for v in _combo(K, row)] for row in _D]


def _hex(values):
    """Nested floats as their float.hex strings, so == is bit identity."""
    if isinstance(values, float):
        return values.hex()
    return [_hex(v) for v in values]


@pytest.mark.parametrize("chart", ["r", "s"])
def test_generated_step_equals_the_tableau_loops_bit_for_bit(chart):
    # seeded random states (u of both signs, entries over six decades) on
    # each chart's right-hand side, steps over four decades of h, at the
    # shooter's tolerance and a looser one
    integ = _Integrator(ProblemParams(13, compute_pc(13) + 0.5), 1.0, ShootControls())
    rhs = integ.charts[chart][0]
    rng = np.random.default_rng(1313 if chart == "r" else 3131)
    for _ in range(40):
        t = float(rng.uniform(0.5, 10.0) if chart == "r" else rng.uniform(2.3, 9.2))
        y = tuple(float(v) for v in rng.normal(0.0, 1.0, 4) * 10.0 ** rng.uniform(-3, 3, 4))
        f = rhs(t, y)
        for h in (1e-5, 3.7e-4, 1e-2, 0.13):
            for rtol in (ShootControls().rtol, 1e-6):
                got = _step(rhs, t, y, f, h, rtol, 1e-2 * rtol)
                want = _loop_step(rhs, t, y, f, h, rtol, 1e-2 * rtol)
                assert _hex(got) == _hex(want)
                assert _hex(_extra(rhs, got[0], t, h, y)) == _hex(_loop_extra(rhs, want[0], t, h, y))
