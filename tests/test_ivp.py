"""The shooter's Taylor legs against scipy.integrate.solve_ivp(method="DOP853").

Every leg of biharm.shooting is Taylor steps of the r-chart from one
generated straight-line step.  Against scipy's DOP853 at rtol 1e-13 on the
same system, written here with numpy, the legs, their event radii and the
tangent's complex-step derivative agree up to integration error.  The
generated step is also checked bit for bit against the recurrence written
as a loop (_loop_step), the oracle, on floats and on complex numbers.  The
Brent root finder that compute_pc closes its bracket with (ladder._brentq)
is checked against scipy's brentq, which biharm does not import.
"""

import math
from operator import mul

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq

from biharm import ProblemParams, StepFailure, compute_pc
from biharm.ladder import _brentq
from biharm.shooting import (
    _EPS,
    _PROBE_HI,
    _PROBE_LO,
    _R_SWITCH,
    _SERIES_ORDER,
    _SHOT_TOL,
    _TAYLOR_ORDER,
    BlowUp,
    SignLoss,
    _horner,
    _Integrator,
    _r_to_s_state,
    _step_factory,
    solve_ivp,
)

# scipy's tolerances: the reference legs
_TOL = dict(rtol=1e-13, atol=1e-15)


def _rhs(integ, variational=False):
    """integ's r-chart as scipy's right-hand side and its two terminal
    events, sign loss (u falls through 0) and blow-up (r^m u rises through
    wcap); variational adds the equation of the state's derivative in v0,
    u^p linearised to p u^(p-1) times entry 4, so that one leg carries the
    state and its derivative (Hairer, Norsett & Wanner, Solving ODEs I,
    Sec. II.6)."""
    nm1, p, m, wcap = integ.n - 1.0, integ.p, integ.m, integ.wcap

    def fun(r, y):
        u, w, v, z = y[:4]
        f = [w, v - nm1 * w / r, z, (u**p if u > 0.0 else 0.0) - nm1 * z / r]
        if variational:
            du, dw, dv, dz = y[4:]
            f += [dw, dv - nm1 * dw / r, dz, (p * u ** (p - 1.0) if u > 0.0 else 0.0) * du - nm1 * dz / r]
        return f

    def sign_loss(r, y):
        return y[0]

    def blow_up(r, y):
        return r**m * y[0] - wcap

    sign_loss.terminal, sign_loss.direction = True, -1
    blow_up.terminal, blow_up.direction = True, 1
    return fun, [sign_loss, blow_up]


def _scipy_leg(integ, span, y0, variational=False, **kwargs):
    fun, events = _rhs(integ, variational)
    with np.errstate(over="ignore", invalid="ignore"):
        return scipy_solve_ivp(fun, span, np.array(y0, dtype=float), method="DOP853", events=events,
                               **{**_TOL, **kwargs})


def _leg(integ, v0, r_end, tol):
    """The real leg of a shot at v0 to r_end at tol, from the series' start."""
    r0, y0 = integ.start(integ.series(v0), min(_R_SWITCH, r_end))
    return solve_ivp(integ.step, (r0, r_end), y0, tol, integ.m, integ.wcap)


def _variational(integ, v):
    """The start (r0, y0) of the tangent at v: the series' start and state
    there, and their complex-step derivative in v0 through the series."""
    h = 1e-20 * abs(v)
    r0, y0 = integ.start(integ.series(v), _R_SWITCH)
    return r0, (*y0, *(y.imag / h for y in integ.series(complex(v, h)).state(r0)))


def _rel(a, b):
    return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))


@pytest.fixture(scope="module")
def case_a(sol_a):
    """Case A's integrator and its accepted v0."""
    return _Integrator(sol_a.params), sol_a.v0


def test_legs_match_scipy(case_a):
    # A leg at eps (a single shot's) to r_switch and one a decade past it:
    # past r_switch the unstable mode grows the differences by
    # (r / r_switch)^lam4.  Measured: 1.4e-15 and 4.7e-12 relative, in 12
    # and 33 steps.
    integ, v0 = case_a
    for r_end in (_R_SWITCH, 100.0):
        ours = _leg(integ, v0, r_end, _EPS)
        ref = _scipy_leg(integ, (ours.ts[0], r_end), _variational(integ, v0)[1][:4])
        assert ours.status == ref.status == 0
        assert ours.ts[-1] == ref.t[-1]
        assert _rel(ours.y, ref.y[:, -1]) < 1e-10


@pytest.mark.parametrize("shift, hit", [(1e-6, 1), (-1e-6, 0)])
def test_escape_radius_matches_scipy(case_a, shift, hit):
    # v0 moved 1e-6 relative to the blow-up side (nearer zero) or the
    # sign-loss side escapes past r_switch; a leg at eps (a single shot's)
    # lands its root on the firing step where scipy's event does (measured:
    # 6.0e-12 and 2.9e-10 relative, at r = 207 and 385).  A stage-1 shot at
    # _SHOT_TOL reads them 8.6e-8 and 8.2e-8 off: its truncation error,
    # grown by the unstable mode.
    integ, v0 = case_a
    ours = _leg(integ, v0 * (1.0 - shift), 1e4, _EPS)
    ref = _scipy_leg(integ, (ours.ts[0], 1e4), integ.series(v0 * (1.0 - shift)).state(ours.ts[0]))
    assert ours.status == ref.status == 1
    assert type(ours.escape) is (SignLoss, BlowUp)[hit]
    assert [te.size for te in ref.t_events] == [1 - hit, hit]
    assert _R_SWITCH < ours.ts[-1] == ours.escape.r
    assert abs(ours.ts[-1] / ref.t_events[hit][0] - 1.0) < 1e-9


def _event_functions(integ, leg):
    """The two events on leg's last (firing) step, read on u's list only:
    u(r) and r^m u(r) - wcap."""
    r_i, u = leg.ts[-2], leg.steps[-1][0]
    return (lambda x: _horner(u, x - r_i),
            lambda x: x**integ.m * _horner(u, x - r_i) - integ.wcap)


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
    # test_escape_radius_matches_scipy's legs: on the firing step's
    # polynomial each event's Brent root is scipy's double, the event that
    # does not change sign raises scipy's ValueError, and the leg's own
    # root, bisected to adjacent floats, lies within 8 eps of Brent's
    integ, v0 = case_a
    leg = _leg(integ, v0 * (1.0 - shift), 1e4, _SHOT_TOL)
    assert leg.status == 1 and leg.ts[-1] > _R_SWITCH
    outcomes = [_roots(g, leg.ts[-2], leg.ts[-1]) for g in _event_functions(integ, leg)]
    assert all(ours == ref for ours, ref in outcomes), outcomes
    found = [float.fromhex(ours) for ours, _ in outcomes if ours is not ValueError]
    assert len(found) == 1 and abs(found[0] - leg.ts[-1]) <= 8.0 * _EPS * leg.ts[-1]


def test_event_roots_read_only_their_entries(case_a):
    # A leg's escape radius is read on u's list of the firing step alone:
    # on firing steps before r_switch (the root search's limits) and past
    # it (v0 shifted 1e-6 to either side), the fired event's function is
    # >= 0 at the leg's end and < 0 at the float below it, and the leg's
    # end state is the four lists' sums there; both events end a leg on
    # either side of r_switch
    integ, v0 = case_a
    fired = {}
    for where, vs in (("before", (_PROBE_LO, _PROBE_HI)), ("past", (v0 * (1.0 - 1e-6), v0 * (1.0 + 1e-6)))):
        for v in vs:
            leg = _leg(integ, v, 1e4, _SHOT_TOL)
            assert leg.status == 1 and (leg.ts[-1] > _R_SWITCH) == (where == "past")
            fired.setdefault(where, set()).add(type(leg.escape))
            u, blow = _event_functions(integ, leg)
            g = blow if isinstance(leg.escape, BlowUp) else (lambda x: -u(x))
            r = leg.ts[-1]
            assert g(r) >= 0.0 > g(math.nextafter(r, 0.0))
            assert leg.y == [_horner(c, r - leg.ts[-2]) for c in leg.steps[-1]]
    assert fired == {where: {SignLoss, BlowUp} for where in ("before", "past")}


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
    # A leg's dense output, its steps' coefficient lists, gives at every
    # step end the state the leg stepped from there (the later step's
    # constant terms, exactly) and its end state to 4 ulp; between step
    # ends, each step's Horner sums to 4 eps of the terms' absolute sums
    integ, v0 = case_a
    leg = _leg(integ, v0, _R_SWITCH, _EPS)
    at_ends = leg(np.array(leg.ts))
    starts = np.array([[c[0] for c in lists] for lists in leg.steps]).T
    assert np.array_equal(at_ends[:, :-1], starts)
    assert np.all(np.abs(at_ends[:, -1] - leg.y) <= 4.0 * np.spacing(np.abs(leg.y)))
    mids = 0.5 * (np.array(leg.ts[1:]) + leg.ts[:-1])
    for r, lists, state in zip(mids.tolist(), leg.steps, leg(mids).T):
        t = r - leg.ts[leg.steps.index(lists)]
        sums = [_horner([abs(c) for c in cs], t) for cs in lists]
        assert all(abs(s - _horner(cs, t)) <= 4.0 * _EPS * total
                   for s, cs, total in zip(state.tolist(), lists, sums))


def test_large_p_first_probe_fails(pc15):
    # n=15 at 100 p_c: the shot at the root search's least negative limit
    # (v0 = -1e-6), on the blow-up side, ends at the blow-up event before
    # r_switch in both integrators; with the bound at 1.5 L, where
    # (W/L)^(p-1) overflows first, the Taylor leg's coefficients leave the
    # floats and the leg fails (status -1) before r_switch
    integ = _Integrator(ProblemParams(15, 100.0 * pc15))
    ours = _leg(integ, _PROBE_HI, _R_SWITCH, _SHOT_TOL)
    ref = _scipy_leg(integ, (ours.ts[0], _R_SWITCH), integ.series(_PROBE_HI).state(ours.ts[0]))
    assert ours.status == ref.status == 1 and isinstance(ours.escape, BlowUp) and ref.t_events[1].size == 1
    assert ours.ts[0] < ours.ts[-1] < _R_SWITCH
    assert abs(ours.ts[-1] / ref.t_events[1][0] - 1.0) < 1e-9  # measured 3.8e-13
    r0, y0 = integ.start(integ.series(_PROBE_HI), _R_SWITCH)
    failed = solve_ivp(integ.step, (r0, _R_SWITCH), y0, _SHOT_TOL, integ.m, 1.5 * integ.L)
    assert failed.status == -1 and failed.escape is None
    assert r0 < failed.ts[-1] < _R_SWITCH


# --- the generated step against the loop: the oracle ------------------------

def _loop_step(n, p, order):
    """The Taylor step of order K = order as a loop, with the generated
    step's signature: the recurrence of the r-chart's coefficients, every
    Miller weight ((p + 1) i - k) / k formed in place and each sum by sum(),
    _truncation's rule at tol by min and max, and _horner's sums."""
    weights = [[((p + 1.0) * i - k) / k for i in range(1, k + 1)] for k in range(order)]
    nm1 = n - 1.0

    def step(r, y, tol, cap):
        inv_r = 1.0 / r
        u, w, v, z = ([c] for c in y)
        power, inv_u = [y[0] ** p], 1.0 / y[0]
        a = b = 0.0
        for k, weight in enumerate(weights):
            if k:
                power.append(inv_u * sum(map(mul, weight, map(mul, u[1:], reversed(power)))))
            a, b, f = (w[k] - a) * inv_r, (z[k] - b) * inv_r, 1.0 / (k + 1)
            u.append(w[k] * f)
            w.append((v[k] - nm1 * a) * f)
            v.append(z[k] * f)
            z.append((power[k] - nm1 * b) * f)
        lists = (u, w, v, z)
        t = cap
        for c in lists:
            c0, c1 = tol * abs(c[0]), tol * abs(c[1])
            for k in (len(c) - 1, len(c) - 2):
                ck = abs(c[k])
                if ck:
                    t = min(t, max((c0 / ck) ** (1.0 / k), (c1 / ck) ** (1.0 / (k - 1))))
        return t, lists, tuple(_horner(c, t) for c in lists)

    return step


def _bits(x):
    """Nested real or complex numbers as float.hex strings, so == is bit identity."""
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    return float(x).hex()


def _generated(integ, order):
    return _step_factory(order)(integ.n - 1.0, integ.p, [((integ.p + 1.0) * i - j) / j
                                                         for j in range(1, order) for i in range(1, j + 1)])


@pytest.mark.parametrize("order", [8, _TAYLOR_ORDER, _SERIES_ORDER])
@pytest.mark.parametrize("n, p_of_pc", [(13, lambda pc: pc + 0.5), (15, lambda pc: 100.0 * pc),
                                        (40, lambda pc: pc), (200, lambda pc: 2.0 * pc)])
def test_generated_step_is_the_loop_bit_for_bit(n, p_of_pc, order):
    # On seeded states with u > 0 from 1e-3 to 2 and w, v, z of either sign
    # over nine decades, real and complex (a complex step of 1e-20 on
    # every entry), at tol eps and _SHOT_TOL and a cap that binds or not,
    # the generated step returns the loop's t, lists and end state bit for
    # bit; the integrator binds the order-_TAYLOR_ORDER step
    integ = _Integrator(ProblemParams(n, p_of_pc(compute_pc(n))))
    step, loop = _generated(integ, order), _loop_step(n, integ.p, order)
    rng = np.random.default_rng(order * n)
    for _ in range(40):
        y = (rng.normal(size=4) * 10.0 ** rng.uniform(-6.0, 3.0, size=4)).tolist()
        y[0] = 10.0 ** rng.uniform(-3.0, math.log10(2.0))
        r = 10.0 ** rng.uniform(-3.0, 3.0)
        for state in (y, [complex(v, 1e-20 * abs(v)) for v in y]):
            for tol in (_EPS, _SHOT_TOL):
                for cap in (1e-3 * r, 10.0 * r):
                    assert _bits(step(r, state, tol, cap)) == _bits(loop(r, state, tol, cap))
    state = [1.0, -0.1, -0.3, 0.2]
    assert _bits(integ.step(2.0, state, _EPS, 5.0)) == _bits(_loop_step(integ.n, integ.p, _TAYLOR_ORDER)(
        2.0, state, _EPS, 5.0))


def _assert_legs_equal(integ, span, y0, tol, wcap=None):
    """The leg of integ's generated step against the leg of the loop
    oracle, both through solve_ivp, bit for bit: step ends, every step's
    lists, the end state, the escape and the status.  Returns the leg."""
    wcap = integ.wcap if wcap is None else wcap
    got = solve_ivp(integ.step, span, y0, tol, integ.m, wcap)
    ref = solve_ivp(_loop_step(integ.n, integ.p, _TAYLOR_ORDER), span, y0, tol, integ.m, wcap)
    assert _bits(got.ts) == _bits(ref.ts) and _bits(got.steps) == _bits(ref.steps)
    assert _bits(got.y) == _bits(ref.y)
    assert (got.escape, got.status) == (ref.escape, ref.status)
    return got


@pytest.mark.parametrize("reach", ["r", "r_past_switch"])
def test_kernel_legs_equal_the_tableau_loops_bit_for_bit(reach, pc15):
    # Real legs of the generated step against the loop oracle's, from
    # seeded states near case A's separatrix, at the stage-1 tolerance and
    # at eps, either to r_switch ("r") or past it: legs that reach their end
    # (r_switch, or r = 100), legs ended by each event (at the root search's
    # limits before r_switch, v0 shifted 1e-6 to either side past it, on the
    # way to r = 1e4), and, to r_switch, the failure of n=15's first probe
    # at 100 p_c with the blow-up bound at 1.5 L.
    integ = _Integrator(ProblemParams(13, compute_pc(13) + 0.5))
    rng = np.random.default_rng(1313)
    v0_sep = -0.2668911534367668
    near = [v0_sep * (1.0 + 1e-9 * rng.standard_normal()) for _ in range(3)]
    shifted = [v0_sep * (1.0 + 1e-6 * rng.uniform(0.5, 2.0) * sign) for sign in (1.0, -1.0, 1.0)]

    def leg(v0, tol, r_end=_R_SWITCH if reach == "r" else 100.0):
        r0, y0 = integ.start(integ.series(v0), _R_SWITCH)
        return _assert_legs_equal(integ, (r0, r_end), y0, tol)

    kinds = [(leg(v, tol), 0) for v, tol in zip(near, (_SHOT_TOL, _EPS, _SHOT_TOL))]
    if reach == "r":
        ends = [leg(_PROBE_LO, _SHOT_TOL), leg(_PROBE_HI, _SHOT_TOL), leg(_PROBE_HI, _EPS)]
        big = _Integrator(ProblemParams(15, 100.0 * pc15))
        r0, y0 = big.start(big.series(_PROBE_HI), _R_SWITCH)
        kinds += [(_assert_legs_equal(big, (r0, _R_SWITCH), y0, tol, 1.5 * big.L), -1) for tol in (_SHOT_TOL, _EPS)]
    else:
        ends = [leg(v, tol, 1e4) for v, tol in zip(shifted, (_SHOT_TOL, _SHOT_TOL, _EPS))]
        assert all(got.ts[-1] > _R_SWITCH for got in ends)
    kinds += [(got, 1) for got in ends]
    assert [got.status for got, _ in kinds] == [status for _, status in kinds]
    # both events end a leg
    assert {type(got.escape) for got in ends} == {SignLoss, BlowUp}


def test_variational_legs_equal_the_tableau_loops_bit_for_bit(case_a):
    # case A's complex-step legs, started as the tangent starts: to
    # r_switch at its v0, at eps and at the stage-1 tolerance, and legs
    # ended by each event at the root search's limits; each is the loop
    # oracle's, bit for bit, real and imaginary parts
    integ, v0 = case_a
    legs = []
    for v, tol in ((v0, _EPS), (v0, _SHOT_TOL), (_PROBE_LO, _EPS), (_PROBE_HI, _EPS)):
        h = 1e-20 * abs(v)
        r0, _ = integ.start(integ.series(v), _R_SWITCH)
        legs.append(_assert_legs_equal(integ, (r0, _R_SWITCH), integ.series(complex(v, h)).state(r0), tol))
    assert [(got.status, type(got.escape)) for got in legs] == [
        (0, type(None)), (0, type(None)), (1, SignLoss), (1, BlowUp)]
    assert all(isinstance(c, complex) for c in legs[0].y)


def test_variational_leg_matches_scipy(case_a):
    # the tangent's complex-step leg at eps against scipy's 8-entry leg,
    # each half relative to its own size, and its v0 derivative against a
    # central difference of two real legs at eps from the series at
    # v0 -+ 1e-6 |v0| (same r0).  Measured: 8.2e-16 (state) and 3.9e-15
    # (derivative) from scipy, and 3.2e-10 from the difference.
    integ, v0 = case_a
    _, tangent = integ.tangent(v0)
    r0, y0 = _variational(integ, v0)
    ref = _scipy_leg(integ, (r0, _R_SWITCH), y0, variational=True)
    assert tangent.status == ref.status == 0 and tangent.ts[0] == r0
    assert tangent.ts[-1] == ref.t[-1]
    state = np.array([c.real for c in tangent.y])
    slope = np.array([c.imag for c in tangent.y]) / tangent.h
    assert _rel(state, ref.y[:4, -1]) < 1e-10
    assert _rel(slope, ref.y[4:, -1]) < 1e-10
    dv = 1e-6 * abs(v0)
    ends = [solve_ivp(integ.step, (r0, _R_SWITCH), integ.series(v).state(r0), _EPS, integ.m, integ.wcap).y
            for v in (v0 - dv, v0 + dv)]
    assert _rel(slope, (np.array(ends[1]) - ends[0]) / (2.0 * dv)) < 1e-7


def _tangent_and_oracle(integ, sol, rtol):
    """sol's tangent as _collocate takes it, at the bracket's midpoint mid:
    (mid, the tangent's leg, scipy's dense 8-entry leg from the same start
    at rtol, atol rtol / 100)."""
    up, dn = sol.record.bracket
    mid = 0.5 * (up + dn)
    _, tangent = integ.tangent(mid)
    r0, y0 = _variational(integ, mid)
    assert r0 == tangent.ts[0]
    return mid, tangent, _scipy_leg(integ, (r0, _R_SWITCH), y0, variational=True, rtol=rtol, atol=1e-2 * rtol,
                                    dense_output=True)


def test_taylor_tangent_matches_the_variational_leg(case_a, sol_a):
    # Case A's tangent: the complex-step leg's end state X(mid) and dX/dv at
    # r_switch (mapped by _r_to_s_state) against scipy's 8-entry leg at
    # rtol 1e-13, X within 1e-12 L and dX/dv within 1e-12 max |dX/dv|
    # (measured: 1.4e-13 and 4.5e-14, scipy's own error); on the lattice
    # below r_switch the solve's W within 1e-13 L of the oracle's tangent
    # at v0 (measured 2.6e-15 L)
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
    # Case A's tangent: the derivative dy/dv the complex-step leg's dense
    # lists give (their imaginary parts over h) stays within 1e-12
    # max |dy/dv| of the 7th-order interpolant of scipy's 8-entry leg at
    # rtol 1e-12, and the state within 1e-13 max |y|, on the lattice's nodes
    # on the steps and at every oracle step's midpoint (measured: 3.4e-14
    # and 8.1e-15).  The derivative is read as the tangent's change from
    # mid to mid + |mid|, along which the tangent is linear.
    integ = case_a[0]
    mid, tangent, leg = _tangent_and_oracle(integ, sol_a, 1e-12)
    rr = sol_a.r_grid[(sol_a.r_grid >= leg.t[0]) & (sol_a.r_grid < _R_SWITCH)]
    rr = np.sort(np.concatenate([rr, 0.5 * (leg.t[1:] + leg.t[:-1])]))
    seventh = leg.sol(rr)
    state = tangent(rr, mid)
    slope = (tangent(rr, mid + abs(mid)) - state) / abs(mid)
    assert np.max(np.abs(slope - seventh[4:])) <= 1e-12 * np.max(np.abs(seventh[4:]))
    assert np.max(np.abs(state - seventh[:4])) <= 1e-13 * np.max(np.abs(seventh[:4]))


def test_a_first_step_that_rounds_to_0_fails_at_t0(case_a):
    # From u = 1, w = v = 0, z = 1 at r = 1, the list of w starts with two
    # zero terms, which bound nothing: the truncation radius is 0, and the
    # step makes no headway, which ends the leg where it starts, in a sign
    # loss at r0 (the branch point of u^p is what stalls a real leg), with
    # one step of length 0 taken and its state y0
    integ = case_a[0]
    y0 = (1.0, 0.0, 0.0, 1.0)
    t, lists, end = integ.step(1.0, list(y0), _SHOT_TOL, 1.0)
    assert t == 0.0 and lists[1][:2] == [0.0, 0.0] and list(end) == list(y0)
    got = solve_ivp(integ.step, (1.0, 2.0), y0, _SHOT_TOL, integ.m, integ.wcap)
    assert got.status == 1 and got.escape == SignLoss(r=1.0) and got.ts == [1.0, 1.0]
    assert got.nfev == 1 and got.y == list(y0)


@pytest.mark.parametrize("y0", [(1.0, 1e308, 0.0, 0.0), (1e11, 0.0, 0.0, 0.0)])
def test_a_step_whose_state_leaves_the_floats_fails_its_leg(case_a, monkeypatch, y0):
    # From w = 1e308 at r = 1, w' = v - (n - 1) w / r overflows and the
    # step's coefficients leave the floats; from u = 1e11, u^p does (p =
    # 28.7).  Either way the leg fails where it starts (status -1 at r0, no
    # step taken, its state y0), and a shot that starts there raises
    # StepFailure naming the leg
    integ = case_a[0]
    got = solve_ivp(integ.step, (1.0, 2.0), y0, _SHOT_TOL, integ.m, integ.wcap)
    assert got.status == -1 and got.ts == [1.0] and got.y == list(y0)
    assert got.nfev == 0 and got.escape is None
    monkeypatch.setattr(_Integrator, "start", lambda self, series, r_end: (1.0, y0))
    with pytest.raises(StepFailure, match=r"^r-chart Taylor step from r = 1 gave a non-finite state, on the leg "
                                          r"at v0 = -0\.3 over r in \[1, 20\] at tol 1e-10$"):
        integ.shot(-0.3, 20.0)
