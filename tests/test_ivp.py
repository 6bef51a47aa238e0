"""The scalar DOP853 driver against scipy.integrate.solve_ivp(method="DOP853").

Both integrate the shooter's legs at the shooter's tolerances; the driver
follows scipy's algorithm, so the two agree up to rounding.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from biharm import ProblemParams
from biharm.ivp import solve_ivp
from biharm.shooting import (
    _PROBE_HI,
    _R_SEED,
    _R_SWITCH,
    ShootControls,
    _Integrator,
    _r_to_s_state,
    _taylor_seed,
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
    """Case A's integrator and the r-chart seed of its accepted v0."""
    integ = _Integrator(sol_a.params, 1.0, ShootControls())
    return integ, lambda v0: _taylor_seed(integ.n, integ.p, 1.0, v0, _R_SEED), sol_a.v0


def test_legs_match_scipy(case_a):
    # The s-leg runs one decade past r_switch: over the whole leg the unstable
    # mode grows the rounding differences by e^{lam4 (s_end - s_switch)}.
    # Measured: 1.8e-14 (r) and 8.2e-12 (s) relative, with equal nfev.
    integ, seed, v0 = case_a
    r_ours, r_ref = _both(integ, "r", (_R_SEED, _R_SWITCH), seed(v0))
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
    r_ours, r_ref = _both(integ, "r", (_R_SEED, _R_SWITCH), seed(v0 * (1.0 - shift)))
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
    plain = solve_ivp(rhs, (_R_SEED, _R_SWITCH), seed(v0), events=events, **_TOL)
    dense = solve_ivp(rhs, (_R_SEED, _R_SWITCH), seed(v0), events=events, dense_output=True, **_TOL)
    assert np.array_equal(dense.t, plain.t) and np.array_equal(dense.y, plain.y)
    assert dense.nfev == plain.nfev + 3 * (plain.t.size - 1)
    at_ends = dense.sol(dense.t)
    assert np.all(np.abs(at_ends - dense.y) <= 4.0 * np.spacing(np.abs(dense.y)))


def test_large_p_first_probe_fails(pc15):
    # n=15 at 100 p_c: the first probe's r-chart steps underflow, in both
    # integrators, before r_switch
    integ = _Integrator(ProblemParams(15, 100.0 * pc15), 1.0, ShootControls())
    y0 = _taylor_seed(integ.n, integ.p, 1.0, _PROBE_HI, _R_SEED)
    ours, ref = _both(integ, "r", (_R_SEED, _R_SWITCH), y0)
    assert ours.status == ref.status == -1
    assert _R_SEED < ours.t[-1] < _R_SWITCH
    assert ours.step < 10.0 * np.spacing(ours.t[-1])
