"""Radial shooting solver for Delta^2 phi = phi^p.

The radial problem is integrated as the first-order system

    u' = w,  w' = v - (n-1) w / r,  v' = z,  z' = u^p - (n-1) z / r

(u = phi, v = Laplacian of phi).  Every solve is at phi(0) = 1: the equation
is invariant under phi -> kappa^m phi(kappa r), which maps that solve to any
other height.  Near the origin the regular solution is a power series in
r^2, fixed by phi(0) = 1 and v0 = (Laplacian phi)(0); each shot starts
from that series, truncated, at the largest radius, up to half the leg's
end, where the truncation stays below rounding (in closed form, from its
last two terms) and no escape event can lie before it.  A shot is one leg
of Taylor steps in r from there to its end radius.  One generated
straight-line step of order _TAYLOR_ORDER serves every leg: in real
arithmetic for stage 1's shots and a single shot, in complex arithmetic for
the collocation's tangent.  Each step is as long as its truncation stays
below the leg's tolerance, and the steps' coefficient lists are the leg's
dense output.

The entire positive solution is found in two stages: a safeguarded root
search on v0 between blow-up and sign-loss shots brackets it, and one
collocation boundary value problem closes it beyond a switch radius.  The
collocation runs in the logarithmic variable s = log r on the transformed
state (W, W', W'', W''') with W(s) = e^{m s} phi(e^s), whose linear part
has constant coefficients, so the s-chart is its natural long-range frame:
the stable modes are pinned at the switch radius and the unstable one is
removed at the far end.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass, replace

import numpy as np

from . import collocation
from .errors import (
    BiharmError,
    BracketNotFound,
    GridTooCoarse,
    InvalidParams,
    NoConvergence,
    StepFailure,
    WindowTooShort,
)
from .params import ProblemParams
from .spectrum import Spectrum, compute_spectrum

# chart geometry
_R_SEED = 1e-3       # lattice start
_SERIES_ORDER = 32   # the series start keeps r^0 .. r^(2 * _SERIES_ORDER)
_R_SWITCH = 10.0     # the collocation's left end, where the tangent hands off to the s-chart
_R_HORIZON = 500.0   # least radius to which shoot classifies shots and collocates
# the escape law's reference horizon is that of a solve to r_max = _R_LAW,
# shoot's default, or the solve's own when it is nearer (see _escape_law).
# A reference at _R_HORIZON instead took n200_pc from 32 to 73 trials: its
# sign-loss escapes inside r = 38.7, not yet on the asymptotic law, then
# fed model steps that undershoot.
_R_LAW = 1e4
_BLOWUP = 1.5        # W/L at which a shot blows up, at most; the entire solution keeps W < L
_DS = 0.01           # uniform s-grid spacing of the returned solution
# s from the returned lattice's last node, log r_max, out to where a solve
# ends: the lattice stops short of the collocation's right end, where
# l4 . y = 0 is imposed rather than solved, and an escape just past r_max
# still rejects an integrate_radial shot
_S_PAD = 0.05

_MAX_BISECT = 240     # root-search trials
# Stage 1 opens on half-decade rungs x_k = -_PROBE_ANCHOR 10^(k/2) / sqrt(p)
# anchored at the large-p law: u = 1 + w / p, rho = p^(1/4) r turns
# Delta^2 u = u^p into Delta^2 w -> e^w, so v0 sqrt(p) -> beta*(n), about
# -1.42 .. -1.46 (Arioli, Gazzola, Grunau & Mitidieri, SIAM J. Math. Anal.
# 36, 2005).  The pair k = 0, 1 spans v0 sqrt(p) in [-2.2, -0.7], about 1.5x
# past each side of the band measured from n = 13 to 200 and p_c to 1e4 p_c,
# [-1.456, -1.012].  Further rungs reach out to the search's limits.
_PROBE_ANCHOR = 0.7
_PROBE_LO = -1e3      # most negative v0 probed
_PROBE_HI = -1e-6     # least negative v0 probed
# relative v0 bracket width below which stage 1 stops, so that the tangent
# at the bracket's midpoint serves as the collocation's left boundary map
# (second stage of shoot)
_BRACKET_STOP = math.sqrt(np.finfo(float).eps)
# collocation: uniform starting nodes, node cap and tolerance
_BVP_NODES = 200
_BVP_MAX_NODES = 5000  # 1.3x the largest mesh a solving cell needs (n100_pc+0.5, 3799)
_BVP_TOL = 1e-10  # the rms defect every collocation round must meet
# |W/L - 1| below which the collocation's guess leaves the blow-up end's leg
# for the slowest decaying mode e^{lam3 s}
_GUESS_FLOOR = 1e-3
# A model step lands past the predicted root, so that the far end of the
# bracket closes too: _PUSH of its length once the bracket is narrower than
# _BRACKET_STOP.
_PUSH = 0.02
# While the bracket is wider, it lands _PUSH_WIDE of its length past, so
# that near the root a trial narrows the bracket about 500x.
_PUSH_WIDE = 0.002
# ... but at least _PUSH_FLOOR _BRACKET_STOP |x0| past (about 4.5e-10 |v0|),
# far above the ~1e-13 relative distance from the root at which a shot at
# _SHOT_TOL misreads the side (n60_pc), which makes the small overshoot
# safe: 0.005 or 0.001 with no floor lost n100_2pc, and a floor of 0.3
# left final brackets near 1e-8 wide.
_PUSH_FLOOR = 0.03
# this many model steps in a row must halve the bracket, else a midpoint follows
_MODEL_RUN = 2
# |Y|/L below which the solution checks treat a node as unresolved
_RESOLUTION_FLOOR = 1e-10
# |Y|/L below which the decay slope and the default fit window end, a decade
# clear of _RESOLUTION_FLOOR
_DECAY_FLOOR = 1e-9
# every leg's Taylor steps are of this order
_TAYLOR_ORDER = 20
# Stage 1's shots only classify a trial v0 and leave the bracket and the
# guess's leg; the collocation fixes v0 from the tangent.  Each of them runs
# at this truncation tolerance; the tangent and a single shot run at eps.
_SHOT_TOL = 1e-10
_EPS = math.ulp(1.0)  # the truncation rule's eps


@dataclass(frozen=True)
class BlowUp:
    """Trajectory exceeded the blow-up threshold at radius r."""

    r: float


@dataclass(frozen=True)
class SignLoss:
    """Trajectory crossed zero at radius r."""

    r: float


@dataclass(frozen=True)
class SolveRecord:
    """The work of one solve, in order: each leg's (chart, tol, steps,
    status) in legs, chart "r" for a shot's real leg of Taylor steps and
    "v" for the tangent's complex-step leg, tol its truncation tolerance,
    steps its Taylor step count and status solve_ivp's (0 at its end, 1
    at an escape, -1 a step failure); stage 1's trials and the (up, dn)
    bracket it ended on; and each collocation round that finished, as
    collocation.Collocation.rounds holds them: (nodes, Newton iterations,
    max rms residual, the nodes it predicts or None when it met tol).  A
    stage not reached leaves trials and bracket None and rounds empty."""

    legs: tuple = ()
    trials: int | None = None
    bracket: tuple | None = None
    rounds: tuple = ()


@dataclass(frozen=True)
class RadialSolution:
    """Entire positive radial solution with phi(0) = alpha, as solved: the
    state X = (W, W', W'', W''') of W = r^m phi, shape (4, s_grid.size),
    on the s-lattice s_grid.

    X is sampled from the states the phi(0) = 1 solve was solved in, the
    r-chart ones mapped to s-derivatives by _r_to_s_state: a single shot's
    is its one r-chart leg throughout; shoot's is, up to r_switch, the
    tangent at v0 of the Taylor steps at the bracket's midpoint, and the
    collocation's s-chart state beyond; below the leg's or the steps'
    start, the series at v0.
    The scale map to phi(0) = alpha keeps X and shifts s_grid.  Everything
    else follows from them: W = X[0], Z = Y' - lam4 Y = W' - lam4 Y,
    r_grid = e^s, phi = W / r^m and Y = W - L.  seam_residual is
    max_i |X_i - X_r,i| / L at r_switch, between the collocation's start
    state and the tangent's end state X_r; it is 0.0 for a single shot,
    which has no seam.  record is the SolveRecord of the solve.
    """

    params: ProblemParams
    alpha: float
    v0: float
    spectrum: Spectrum
    s_grid: np.ndarray
    X: np.ndarray
    target_residual: float
    seam_residual: float
    record: SolveRecord

    @property
    def n_bisect(self) -> int:
        """Stage-1 root-search trials, model steps and midpoints alike; 0 for a single shot."""
        return self.record.trials or 0

    @property
    def W(self) -> np.ndarray:
        return self.X[0]

    @property
    def Z(self) -> np.ndarray:
        return self.X[1] - self.spectrum.lambdas[3] * (self.X[0] - self.spectrum.L)

    @property
    def r_grid(self) -> np.ndarray:
        return np.exp(self.s_grid)

    @property
    def phi(self) -> np.ndarray:
        return self.W / self.r_grid**self.params.m

    @property
    def Y(self) -> np.ndarray:
        return self.W - self.spectrum.L


def _power(u, p):
    # u^p for the positive branch; trial states may dip below zero transiently
    return np.where(u > 0.0, np.abs(u) ** p, 0.0)


def _series_factory(k: int):
    """Compile _Series' recurrence, truncated at a_k, into a factory of
    straight-line code: factory(two_n, weights, denominators, laplacian)
    binds one (n, p)'s tables (see _Integrator) by closure and returns
    coeffs(v0), the four coefficient lists.  Each sum adds its terms from
    0.0 in the order of i, each term is (weight a_i) [u^p]_{j-i}, and every
    integer factor stays an int, so the lists are the loop's bit for bit
    (tests/test_shooting.py keeps that loop as the reference), on a float,
    an np.float64 or a complex v0 alike."""
    weights = [f"w{j}_{i}" for j in range(1, k - 1) for i in range(1, j + 1)]
    body = ["a1 = v0 / two_n", "g0 = 1.0"]
    for j in range(k - 1):
        if j:
            terms = "".join(f" + w{j}_{i} * a{i} * g{j - i}" for i in range(1, j + 1))
            body.append(f"g{j} = (0.0{terms}) / {j}")
        body.append(f"a{j + 2} = g{j} / d{j}")
    body += [f"b{j} = l{j} * a{j + 1}" for j in range(k)]  # Delta u
    lists = (["1.0"] + [f"a{i}" for i in range(1, k + 1)],
             [f"{2 * i} * a{i}" for i in range(1, k + 1)],
             [f"b{j}" for j in range(k)],
             [f"{2 * j} * b{j}" for j in range(1, k)])
    body.append("return (" + "".join(f"[{', '.join(c)}], " for c in lists) + ")")
    src = "def factory(two_n, weights, denominators, laplacian):\n"
    src += f"    {', '.join(weights)}, = weights\n"
    src += f"    {', '.join(f'd{j}' for j in range(k - 1))}, = denominators\n"
    src += f"    {', '.join(f'l{j}' for j in range(k))}, = laplacian\n"
    src += "    def coeffs(v0):\n" + "".join(f"        {line}\n" for line in body) + "    return coeffs\n"
    filename = f"<series recurrence: K = {k}>"  # registered, so tracebacks show the lines
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    namespace = {}
    exec(compile(src, filename, "exec"), namespace)
    return namespace["factory"]


_SERIES = _series_factory(_SERIES_ORDER)


def _step_factory(k: int):
    """Compile one Taylor step of order k of the r-chart into a factory of
    straight-line code: factory(nm1, p, weights) binds n - 1, p and Miller's
    weights ((p + 1) i - j) / j (j = 1..k-1, i = 1..j, flat) by closure and
    returns step(r, y, tol, cap) -> (t, lists, end).

    From the state y = (u, u', Delta u, (Delta u)') at r the step forms its
    Taylor coefficients in t = r' - r up to t^k, four lists: u' = w,
    w' = v - (n-1) w / r, v' = z, z' = u^p - (n-1) z / r, with w / r and
    z / r by the division recurrence a_j = (w_j - a_{j-1}) / r and u^p by
    Miller's power recurrence [u^p]_j = sum_{i=1..j} ((p+1) i - j) u_i
    [u^p]_{j-i} / (j u_0).  t is _truncation's rule on the lists with eps
    replaced by tol, at most cap, and end the lists' Horner sums at t.  Each
    sum adds its terms from 0.0 in the order of i, each term is
    weight (u_i [u^p]_{j-i}), and each factor 1 / (j + 1) is a literal, so
    the step is the loop's bit for bit (tests/test_ivp.py keeps that loop
    as the oracle), on floats and on complex numbers alike."""
    lists = [[f"{x}{j}" for j in range(k + 1)] for x in "uwvz"]
    weights = [f"m{j}_{i}" for j in range(1, k) for i in range(1, j + 1)]
    body = ["inv_r = 1.0 / r", "u0, w0, v0, z0 = y", "P0 = u0 ** p", "inv_u = 1.0 / u0", "a = b = 0.0"]
    for j in range(k):
        if j:
            terms = "".join(f" + m{j}_{i} * (u{i} * P{j - i})" for i in range(1, j + 1))
            body.append(f"P{j} = inv_u * (0.0{terms})")
        f = repr(1.0 / (j + 1))
        body += [f"a = (w{j} - a) * inv_r", f"b = (z{j} - b) * inv_r", f"u{j + 1} = w{j} * {f}",
                 f"w{j + 1} = (v{j} - nm1 * a) * {f}", f"v{j + 1} = z{j} * {f}",
                 f"z{j + 1} = (P{j} - nm1 * b) * {f}"]
    # the truncation rule: t = min(cap, over the lists and j = k, k - 1 with
    # c_j != 0, max((tol |c_0| / |c_j|)^(1/j), (tol |c_1| / |c_j|)^(1/(j-1))))
    body.append("t = cap")
    for c in lists:
        body += [f"s0 = tol * abs({c[0]})", f"s1 = tol * abs({c[1]})"]
        for j in (k, k - 1):
            body += [f"cj = abs({c[j]})", "if cj:",
                     f"    q = (s0 / cj) ** {1.0 / j!r}", f"    q1 = (s1 / cj) ** {1.0 / (j - 1)!r}",
                     "    q = q1 if q1 > q else q", "    t = q if q < t else t"]
    ends = []
    for c in lists:
        acc = c[k]
        for name in reversed(c[:k]):
            acc = f"({acc}) * t + {name}"
        ends.append(acc)
    body.append("return t, (" + "".join(f"[{', '.join(c)}], " for c in lists) + "), ("
                + ", ".join(ends) + ")")
    src = "def factory(nm1, p, weights):\n"
    src += f"    {', '.join(weights)}, = weights\n"
    src += "    def step(r, y, tol, cap):\n" + "".join(f"        {line}\n" for line in body) + "    return step\n"
    filename = f"<Taylor step: K = {k}>"  # registered, so tracebacks show the lines
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    namespace = {}
    exec(compile(src, filename, "exec"), namespace)
    return namespace["factory"]


_STEP = _step_factory(_TAYLOR_ORDER)


def _horner(c, x):
    """sum_k c[k] x^k by Horner, from the last term."""
    acc = c[-1]
    for ck in reversed(c[:-1]):
        acc = acc * x + ck
    return acc


def _truncation(lists, cap: float) -> float:
    """The truncation radius, at most cap, of polynomials held as
    coefficient lists c in one variable x: the series start's rule, and the
    Taylor steps' (Jorba & Zou, Experimental Math. 14, 2005), which
    _step_factory writes out with the leg's tolerance in place of eps.
    Each list's last two terms |c_k| x^k, which bound its truncation error inside the radius of
    convergence, stay below eps times its terms' absolute sum S(x) (the
    rounding of that sum) up to x = (eps |c_j| / |c_k|)^(1 / (k - j)), as
    S(x) >= |c_j| x^j; the larger of j = 0, 1 (j = 1 for a c_0 of 0, as in
    u' at v0 = 0).  The least of these over the lists and k, and cap."""
    x = cap
    for c in lists:
        c0, c1 = _EPS * abs(c[0]), _EPS * abs(c[1])
        for k in (len(c) - 1, len(c) - 2):
            ck = abs(c[k])
            if ck:  # a zero term bounds nothing
                x = min(x, max((c0 / ck) ** (1.0 / k), (c1 / ck) ** (1.0 / (k - 1))))
    return x


class _Series:
    """The regular solution near the origin as a series in x = r^2.

    u = sum_k a_k x^k with a_0 = 1 and a_1 = v0 / (2n) (so u(0) = 1 and
    Delta u(0) = v0), and Delta^2 u = u^p fixes the rest:
    a_{j+2} = [u^p]_j / ((2j+2)(2j+4)(2j+n)(2j+n+2)), the coefficients
    [u^p]_j = sum_{i=1..j} ((p+1) i - j) a_i [u^p]_{j-i} / j by J.C.P.
    Miller's power recurrence, run as _SERIES' straight-line code on the
    weights and the denominators _Integrator binds once per (n, p).
    Truncated at a_K, K = _SERIES_ORDER.  The state (u, u', Delta u,
    (Delta u)') is r^e_i P_i(x), e = (0, 1, 0, 1), with the P_i held as
    coefficient lists.
    """

    def __init__(self, recurrence, v0):
        self.coeffs = recurrence(v0)

    def state(self, r):
        """(u, u', Delta u, (Delta u)') at r, a float or an array, by Horner
        in r^2.  On an array the four sums run as one, on the coefficient
        lists zero-padded at the top to one length: 0 x + 0 stays 0 at a
        finite x, so each row's sum is its own list's."""
        x = r * r
        if isinstance(r, np.ndarray):
            table = np.array([[0.0] * (len(self.coeffs[0]) - len(c)) + c[::-1] for c in self.coeffs])
            acc = table[:, :1]
            for c in table.T[1:, :, None]:
                acc = acc * x + c
            acc[1::2] *= r
            return acc
        return [_horner(c, x) * r if i % 2 else _horner(c, x) for i, c in enumerate(self.coeffs)]

    def seed_radius(self, m: float, w_max: float, r_cap: float) -> float:
        """The radius r <= r_cap at which the series starts the r-chart leg:
        its truncation radius in closed form, halved in x = r^2 while an
        event may lie before it.

        The truncation radius is _truncation's on the P_i, capped at
        r_cap^2.  With S = sum_k |a_k| x^k, 1 - (S - 1) > 0 and
        r^m S < w_max keep u positive and r^m u below w_max on all of
        [0, r], so no terminal event of the r-chart lies before the start
        (and NaN coefficients, which every P_i shares with u, fail it at
        every x).  StepFailure when no positive radius passes (coefficients
        that overflow, say).
        """
        x = _truncation(self.coeffs, r_cap * r_cap)
        while x > 0.0:
            s = 0.0
            for ak in reversed(self.coeffs[0]):  # u's, by Horner
                s = s * x + abs(ak)
            if s < 2.0 and x ** (0.5 * m) * s < w_max:
                return math.sqrt(x)
            x *= 0.5
        raise StepFailure(f"the series at Delta u(0) = {self.coeffs[2][0]!r} has no positive start "
                          "radius: its truncation or event bound fails at every x = r^2 > 0")


@dataclass(frozen=True)
class _Leg:
    """One leg of Taylor steps of the r-chart, as solve_ivp takes it over
    [ts[0], ts[-1]]: steps[i] holds the four coefficient lists in
    t = r - ts[i] of step i, the leg's dense output, and y the state at
    ts[-1].  escape is None, or the BlowUp or SignLoss at whose root the leg
    ended; status is 0 at the leg's end, 1 at an escape, -1 when a step gave
    a non-finite state (the leg then stops at the step's start).  A
    complex-step leg (_Integrator.shot with h > 0) at v carries v and h:
    the real parts of its lists are the leg at v, the imaginary parts h
    d/dv of them."""

    ts: list
    steps: list
    y: list
    escape: BlowUp | SignLoss | None
    status: int
    v: float = math.nan
    h: float = 0.0

    @property
    def nfev(self) -> int:
        """The Taylor steps taken, under the name of a right-hand side
        count that tracers of solve_ivp read."""
        return len(self.steps)

    def __call__(self, rr: np.ndarray, v0: float | None = None) -> np.ndarray:
        """The state at the radii rr in [ts[0], ts[-1]], as 4 by rr.size,
        of a complex-step leg its tangent y(v) + (v0 - v) dy/dv: each r on
        its step (the later one at a step end), its lists summed against
        the powers of t in one batched product."""
        c = np.array(self.steps)
        if self.h:
            c = c.real + ((v0 - self.v) / self.h) * c.imag
        ts = np.asarray(self.ts)
        i = np.clip(np.searchsorted(ts, rr, "right") - 1, 0, len(c) - 1)
        powers = np.vander(rr - ts[i], c.shape[2], increasing=True)
        return (c[i] @ powers[:, :, None])[:, :, 0].T


def _crossing(g, lo: float, hi: float) -> float:
    """The escape radius on a firing step: with g(lo) < 0 <= g(hi), g(x)
    giving g and its slope at x, the upper end (g >= 0) of a bracket
    narrowed to adjacent floats.  At most 32 safeguarded Newton steps from
    hi (one that leaves the bracket bisects it instead) narrow it to 4
    ulps; a step of at most 4 ulps lands an ulp past its target, on the
    root's other side.  Bisection in r ends it.  Where g changes sign once
    among the floats, that is the float a bisection of the whole bracket
    returns."""
    x = hi
    for _ in range(32):
        value, slope = g(x)
        if not value < 0.0:
            hi = x
        elif x < hi:
            lo = x
        if hi - lo <= 4.0 * math.ulp(hi):
            break
        new = x - value / slope if slope else x
        if abs(new - x) <= 4.0 * math.ulp(x):
            new += math.ulp(x) if value < 0.0 else -math.ulp(x)
        x = new if lo < new < hi else 0.5 * (lo + hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if g(mid)[0] < 0.0:
            lo = mid
        else:
            hi = mid


def solve_ivp(step, span, y0, tol: float, m: float, wcap: float) -> _Leg:
    """Taylor steps of the r-chart over span = (r0, r1) from its state y0
    at r0, at the truncation tolerance tol: step is a _STEP step (real or
    complex y0 alike), each step _truncation's length at tol, the last one
    clipped onto r1.  At each step end, on the real parts: r^m u >= wcap is
    a BlowUp, at the root of (r + t)^m u(t) - wcap on the step's
    polynomials; else u <= 0 a SignLoss, at the root of u(t); else a step
    that makes no headway nears a zero of u, the branch point of u^p, and
    ends in SignLoss where it starts.  Roots are narrowed to adjacent floats
    (_crossing), and the leg ends there with its state.  A step that gives a
    non-finite state (coefficients or u^p that overflow, or NaN) ends the
    leg with status -1."""
    r, r_end = span
    y, ts, steps = list(y0), [r], []
    while r < r_end:
        cap = r_end - r
        try:
            t, lists, end = step(r, y, tol, cap)
            total = end[0] + end[1] + end[2] + end[3]
        except OverflowError:  # u^p past the floats
            total = math.inf
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            return _Leg(ts, steps, y, None, -1)
        steps.append(lists)
        r_new = r_end if t == cap else min(r + t, r_end)
        u = end[0].real
        # side(x, u, w): the escape's g and its slope at x from u and w = u'
        if r_new**m * u >= wcap:
            escape, side = BlowUp, lambda x, u, w: (x**m * u - wcap, x**m * (m * u / x + w))
        elif not u > 0.0:
            escape, side = SignLoss, lambda x, u, w: (-u, -w)
        elif not r_new > r:
            return _Leg(ts + [r], steps, y, SignLoss(r=r), 1)
        else:
            ts.append(r_new)
            r, y = r_new, list(end)
            continue
        at = _crossing(lambda x: side(x, _horner(lists[0], x - r).real,
                                      _horner(lists[1], x - r).real), r, r_new)
        return _Leg(ts + [at], steps, [_horner(c, at - r) for c in lists], escape(r=at), 1)
    return _Leg(ts, steps, y, None, 0)


def _s_operator_coeffs(n: int, m: float) -> np.ndarray:
    # monic coefficients (descending) of prod(D - a_i) = Q4(m - D)
    roots = (m, m + 2.0, m + 2.0 - n, m + 4.0 - n)
    return np.poly(roots)


def _r_to_s_state(n: int, m: float, r: float, y: np.ndarray) -> np.ndarray:
    u, w, v, z = y
    ddu = v - (n - 1.0) * w / r
    dddu = z - (n - 1.0) * ddu / r + (n - 1.0) * w / r**2
    rm = r**m
    w0 = rm * u
    w1 = rm * (m * u + r * w)
    w2 = rm * (m**2 * u + (2.0 * m + 1.0) * r * w + r**2 * ddu)
    w3 = rm * (
        m**3 * u
        + (3.0 * m**2 + 3.0 * m + 1.0) * r * w
        + (3.0 * m + 3.0) * r**2 * ddu
        + r**3 * dddu
    )
    return np.array([w0, w1, w2, w3])


class _Integrator:
    """One (n, p) configuration at phi(0) = 1; integrates arbitrary v0 shots."""

    def __init__(self, params: ProblemParams):
        self.params = params
        self.n = params.n
        self.p = params.p
        self.m = params.m
        self.spec = compute_spectrum(params)
        self.L = self.spec.L
        # Blow-up is the scale-aware bound r^m u >= wcap = (1 + a) L,
        # a = min(_BLOWUP - 1, 20 / (p - 1)), where (W/L)^(p-1) has grown
        # by at most e^20, so that u^p cannot stall the steps before the
        # event at any p.  No raw |u| ceiling.
        self.blowup = min(_BLOWUP - 1.0, 20.0 / (self.p - 1.0))  # W/L - 1 at blow-up
        self.wcap = (1.0 + self.blowup) * self.L
        self.s_coeffs = _s_operator_coeffs(self.n, self.m).tolist()[1:]
        # the series' recurrence (see _Series) and the Taylor step on the
        # tables every v0 shares: 2n, Miller's weights, the denominators and
        # the factors of Delta u's b_j; the step's Miller weights
        # ((p + 1) i - j) / j
        n, k = self.n, _SERIES_ORDER
        self.series_recurrence = _SERIES(
            2.0 * n, [(self.p + 1.0) * i - j for j in range(1, k - 1) for i in range(1, j + 1)],
            [(2 * j + 2) * (2 * j + 4) * (2 * j + n) * (2 * j + n + 2) for j in range(k - 1)],
            [(2 * j + 2) * (2 * j + n) for j in range(k)])
        self.step = _STEP(n - 1.0, self.p, [((self.p + 1.0) * i - j) / j
                                            for j in range(1, _TAYLOR_ORDER) for i in range(1, j + 1)])
        self.work = {"legs": ()}  # SolveRecord's fields, as a solve reaches them

    # --- one shot ----------------------------------------------------------
    def series(self, v0: float) -> _Series:
        """The regular solution's series at v0."""
        return _Series(self.series_recurrence, v0)

    def start(self, series: _Series, r_end: float):
        """(r0, series state at r0): where and from what a shot's leg
        starts, r0 = series.seed_radius up to r_end / 2 (r_end =
        min(r_switch, r_max) for a shot to r_max), at any r0 > 0 (below
        _R_SEED too, where the lattice then comes from the leg)."""
        r0 = series.seed_radius(self.m, self.wcap, 0.5 * r_end)
        return r0, series.state(r0)

    def shot(self, v0: float, r_max: float, tol: float = _SHOT_TOL, h: float = 0.0):
        """One shot from the origin: the leg of Taylor steps (solve_ivp, at
        tol) from the series' start r0 (`start`'s, up to min(r_switch,
        r_max) / 2) to r_max; returns (outcome, leg).  outcome is the float
        residual W/L - 1 at r_max, or the leg's BlowUp or SignLoss.  With
        h > 0 the leg is the complex step v0 + i h (Squire & Trapp, SIAM
        Rev. 40, 1998), from the series at v0 + i h and r0 at v0: its real
        parts are the shot at v0, its imaginary parts over h their
        derivative in v0.  The leg goes into the record as chart "r", or
        "v" for a complex step, with tol and its step count.  A step that
        gives a non-finite state raises StepFailure naming the leg."""
        r0, y0 = self.start(self.series(v0), min(_R_SWITCH, r_max))
        if h:
            y0 = self.series(complex(v0, h)).state(r0)
        leg = solve_ivp(self.step, (r0, r_max), y0, tol, self.m, self.wcap)
        self.work["legs"] += (("v" if h else "r", tol, leg.nfev, leg.status),)
        if leg.status == -1:
            raise StepFailure(
                f"r-chart Taylor step from r = {leg.ts[-1]:.6g} gave a non-finite state, on the leg at "
                f"v0 = {v0!r} over r in [{r0:.6g}, {r_max:.6g}] at tol {tol:.3g}")
        if h:
            leg = replace(leg, v=v0, h=h)
        if leg.escape:
            return leg.escape, leg
        return float(r_max**self.m * leg.y[0].real) / self.L - 1.0, leg

    def tangent(self, v: float):
        """(escape, leg): the complex-step shot at v, h = 1e-20 |v|, to
        r_switch at eps, the collocation's tangent; escape is None or the
        leg's BlowUp or SignLoss."""
        _, leg = self.shot(v, _R_SWITCH, _EPS, 1e-20 * abs(v))
        return leg.escape, leg


def _scale(m: float, alpha: float, r_max: float | None = None) -> float:
    """kappa = alpha^(1/m): kappa^m phi(kappa r) maps the solution with
    phi(0) = 1 on r <= kappa r_max to the one with phi(0) = alpha on
    r <= r_max, and v0 by kappa^(m+2).  InvalidParams unless kappa is
    finite and positive, kappa^(m+2) a finite, nonzero float and, when
    r_max is given, kappa r_max is finite and above _R_SEED, where the
    lattice starts: r_max must exceed _R_SEED / kappa."""
    try:
        kappa = alpha ** (1.0 / m) if alpha > 0.0 else math.nan
    except OverflowError:
        kappa = math.inf
    try:
        lift = kappa ** (m + 2.0)
    except OverflowError:
        lift = math.inf
    if not (0.0 < kappa < math.inf and 0.0 < lift < math.inf
            and (r_max is None or _R_SEED < kappa * r_max < math.inf)):
        least = _R_SEED / kappa if kappa > 0.0 else math.inf
        raise InvalidParams(
            f"alpha={alpha!r}, r_max={r_max!r}: the solve at phi(0) = 1 maps to phi(0) = alpha "
            f"by kappa = alpha^(1/m) = {kappa:.6g} and v0 by kappa^(m+2) = {lift:.6g}: kappa must be "
            f"finite and positive, kappa^(m+2) finite and nonzero, and r_max must be finite and "
            f"above {_R_SEED:g} / kappa = {least:.6g}"
        )
    return kappa


def integrate_radial(params: ProblemParams, alpha: float, v0: float, r_max: float):
    """Integrate a single shot from the origin with phi(0) = alpha and
    Delta phi(0) = v0.

    After _scale's check, the shot is the phi(0) = 1 one at v0 / kappa^{m+2}
    to kappa r_max, mapped by rescale_solution.  Returns a RadialSolution
    when the trajectory stays positive and bounded to r_max, otherwise the
    BlowUp or SignLoss outcome, its radius divided by kappa.  The full
    solution grids require the spectrum, so params must be at or above the
    critical exponent.  The shot, one leg of Taylor steps at eps, runs to
    kappa r_max e^{_S_PAD}; for alpha = 1 and r_max >= _R_HORIZON that is
    shoot's classification horizon.  The solution is that leg's
    polynomials on the lattice and, below its start, the series at v0.
    Below r_switch, shoot's solution is the same series and, from the
    leg's start on, the tangent at its v0 of the complex-step leg at the
    bracket's midpoint (_Integrator.tangent), which a shot at shoot's v0
    meets to within the legs' rounding.
    """
    kappa = _scale(params.m, alpha, r_max)
    r_max, v0 = kappa * r_max, v0 / kappa ** (params.m + 2.0)
    integ = _Integrator(params)
    outcome, leg = integ.shot(v0, r_max * math.exp(_S_PAD), _EPS)
    if isinstance(outcome, (BlowUp, SignLoss)):
        return replace(outcome, r=outcome.r / kappa)
    sol = _assemble_solution(integ, v0, r_max, (leg.ts[0], leg), None, seam=0.0)
    return sol if alpha == 1.0 else rescale_solution(sol, alpha)


def _sample_state(integ, v0, head, tail, s_nodes):
    """The state X of W = r^m phi at s_nodes, from the solved states.

    Nodes below log r_switch come from the r-chart (all of them when tail,
    the collocation's X at ascending s, is None).  head is (r_h, y): y(rr)
    the r-chart state at the radii rr >= r_h, a single shot's leg from its
    start r_h, or shoot's tangent at v0 from the complex-step leg's start
    (_Leg).  A node below r_h takes the series state at v0; below
    the Taylor steps it stands for the tangent of the series at their v,
    from which it differs by O((v0 - v)^2), about 1e-17 relative.  Each
    node's state is mapped to X by _r_to_s_state.
    """
    X = np.empty((4, s_nodes.size))
    from_r = s_nodes < math.log(_R_SWITCH) if tail else np.ones(s_nodes.size, dtype=bool)
    if np.any(from_r):
        r_h, on_head = head
        rr = np.exp(s_nodes[from_r])
        y = np.empty((4, rr.size))
        seeded = rr < r_h
        y[:, seeded] = integ.series(v0).state(rr[seeded])
        y[:, ~seeded] = on_head(rr[~seeded])
        X[:, from_r] = _r_to_s_state(integ.n, integ.m, rr, y)
    if tail:
        X[:, ~from_r] = tail(s_nodes[~from_r])
    return X


def _assemble_solution(integ, v0, r_max, head, tail, seam):
    # the lattice: _DS apart from log _R_SEED up to s_top, anchored at s_top
    # so that r_max itself is a node
    s_top = math.log(r_max)
    s_grid = s_top + _DS * np.arange(-math.floor((s_top - math.log(_R_SEED)) / _DS), 1)
    X = _sample_state(integ, v0, head, tail, s_grid)
    for a in (s_grid, X):
        a.flags.writeable = False
    return RadialSolution(
        params=integ.params,
        alpha=1.0,
        v0=v0,
        spectrum=integ.spec,
        s_grid=s_grid,
        X=X,
        target_residual=float(X[0, -1] / integ.L - 1.0),
        seam_residual=seam,
        record=SolveRecord(**integ.work),
    )


def _escape_law(outcome, blowup: float, lam4: float, s_end: float, s_ref: float) -> float:
    """Escape-law value g of a shot's outcome, classified at the horizon
    s_end, against the reference horizon s_ref <= s_end: g >= 0 on the
    blow-up side, g < 0 on the sign-loss side.

    A shot that reaches s_end leaves its end residual W/L - 1 there (the
    true solution keeps Y < 0, so a positive residual means the unstable
    deviation points up).  An escape at s_ev left W/L - 1 at amp = blowup
    (the integrator's, at its amplitude_cross event) or -1 (sign loss),
    which the unstable mode would carry to amp e^{lam4 (s_end - s_ev)} at
    s_end.  g is either value times the one factor e^{lam4 (s_ref - s_end)}
    of the solve, which moves neither a sign nor the ratio of two values:
    amp e^{lam4 (s_ref - s_ev)} for an escape.  Near the separatrix every
    escape obeys log|v0 - v0*| + lam4 s_ev = K, with one K per side, so on
    each side g is linear in v0 with its own slope.  The exponent is capped
    at 700, so that g stays finite, for escapes more than 700 / lam4 before
    s_ref only.
    """
    if isinstance(outcome, (BlowUp, SignLoss)):
        amp = blowup if isinstance(outcome, BlowUp) else -1.0
        return amp * math.exp(min(700.0, lam4 * (s_ref - math.log(outcome.r))))
    return outcome * math.exp(lam4 * (s_ref - s_end))


def _model_point(pts, up, dn):
    """Next model trial, or None when no side predicts a root inside (up, dn).

    pts holds the (x, g) trials of the blow-up and the sign-loss side, the
    current bracket end last.  Each side's line through its two innermost
    points predicts a root; the step goes from the end x0 whose predicted
    root is nearest and lands past that root: by max(_PUSH_WIDE |step|,
    _PUSH_FLOOR _BRACKET_STOP |x0|) while the bracket is wider than
    _BRACKET_STOP |x0|, never closer to the root than that floor (Brent's
    rule, Algorithms for Minimization without Derivatives, 1973, ch. 4), and
    by _PUSH |step| inside it.
    """
    best = None
    for side_pts, far in zip(pts, (dn, up)):
        if len(side_pts) < 2:
            continue
        (x1, g1), (x0, g0) = side_pts[-2:]
        if g0 == g1:
            continue
        step = -g0 * (x0 - x1) / (g0 - g1)  # from x0 to the predicted root
        if step * (far - x0) > 0.0 and (best is None or abs(step) < abs(best[1])):
            best = (x0, step)
    if best is None:
        return None
    x0, step = best
    if abs(up - dn) > _BRACKET_STOP * abs(x0):
        past = max(_PUSH_WIDE * abs(step), _PUSH_FLOOR * _BRACKET_STOP * abs(x0))
        x = x0 + step + math.copysign(past, step)
    else:
        x = x0 + (1.0 + _PUSH) * step
    return x if min(up, dn) < x < max(up, dn) else None


def _bisect(side, up, dn, done, ends) -> tuple[int, float, float]:
    """Shrink the bracket between up (side >= 0, blow-up) and dn (side < 0).

    side(x) is an escape-law value as from _escape_law of the trial x, and
    ends holds the values at up and dn.
    Each trial is a model step (_model_point) or a midpoint.  A midpoint is
    taken when no side has a model, when the model step falls outside the
    bracket, or when the last _MODEL_RUN model steps have not halved the
    bracket, so at worst three trials halve it.  Sides of constant magnitude
    (such as +-1) have no slope, and every trial is a midpoint.  Stops when
    the midpoint rounds onto an endpoint, when done(up, dn) holds after a
    trial, or after _MAX_BISECT trials; returns (trials made, up, dn).
    """
    # (x, g) on the blow-up and the sign-loss side, innermost last
    pts = ([(up, ends[0])], [(dn, ends[1])])
    run = []  # bracket widths before each model step since the last midpoint
    for steps in range(_MAX_BISECT):
        mid = 0.5 * (up + dn)
        if mid == up or mid == dn:
            return steps, up, dn
        width = abs(up - dn)
        x = None
        if len(run) < _MODEL_RUN or width <= 0.5 * run[-_MODEL_RUN]:
            x = _model_point(pts, up, dn)
        if x is None:
            x, run = mid, []
        else:
            run.append(width)
        g = side(x)
        if g >= 0.0:
            up = x
            pts[0].append((x, g))
        else:
            dn = x
            pts[1].append((x, g))
        if done(up, dn):
            return steps + 1, up, dn
    return _MAX_BISECT, up, dn


def shoot(params: ProblemParams, alpha: float = 1.0, r_max: float = 1e4) -> RadialSolution:
    """Find the entire positive solution with phi(0) = alpha on r <= r_max.

    _scale checks (alpha, r_max) before any shot; the solve is then the one
    at phi(0) = 1 to kappa r_max, kappa = alpha^(1/m), and for alpha != 1
    rescale_solution maps it.  At phi(0) = 1 it runs in two stages, r_max
    below standing for kappa r_max.
    (1) Root search: probes on the half-decade rungs anchored at the
    large-p law (see _PROBE_ANCHOR) give a (blow-up, sign-loss) bracket:
    rung 0, then rung 1 when rung 0 blows up, then rung by rung outward on
    the side the root lies on until a probe flips, out to _PROBE_HI and
    _PROBE_LO (BracketNotFound past them).  _bisect shrinks the bracket
    with full shots, each one leg of Taylor steps at _SHOT_TOL (model
    steps on the values of _escape_law, kept safe by midpoints) until it is
    narrower than _BRACKET_STOP relative to v0 and its blow-up end's leg
    reaches past r_switch, where its Taylor polynomials are the
    collocation's guess;
    NoConvergence when it ends before that.  A misclassified trial leaves
    the root outside the bracket, which the collocation's guard turns into
    NoConvergence.  Shots are classified at r_cls = max(r_max, _R_HORIZON)
    e^{_S_PAD}, past the returned lattice and past r_switch.
    (2) Collocation (_collocate): one boundary value problem with v0 as its
    unknown, its left condition the tangent in v0 of the r-chart state at
    r_switch from the bracket's midpoint, by a complex-step leg of Taylor
    steps (_Integrator.tangent), closes the solution on the s-chart up to
    r_cls, solved by biharm.collocation (a sixth-order MIRK formula in
    damped Newton rounds on a banded LU, each round on the mesh the last
    one's defects predict); below r_switch it is that tangent at that v0.
    For r_max <= _R_HORIZON the horizon, and so the solution, does not
    depend on r_max, which only cuts the returned grids.  The solution's
    record, and that of any BiharmError raised here, is the solve's
    SolveRecord.
    """
    integ = None
    try:
        r_max = _scale(params.m, alpha, r_max) * r_max
        integ = _Integrator(params)
        sol = _solve(integ, r_max)
    except BiharmError as exc:
        exc.record = SolveRecord(**integ.work) if integ else SolveRecord()
        raise
    return sol if alpha == 1.0 else rescale_solution(sol, alpha)


def _solve(integ, r_max):
    """shoot's two stages at phi(0) = 1 on r <= r_max."""
    lam4 = integ.spec.lambdas[3]
    r_cls = max(r_max, _R_HORIZON) * math.exp(_S_PAD)
    s_cls = math.log(r_cls)
    s_ref = min(s_cls, math.log(_R_LAW * math.exp(_S_PAD)))  # the escape law's reference horizon
    sqrt_p = math.sqrt(integ.p)

    def rung(k):
        # the k-th probe, clipped to the search's limits
        return min(max(-_PROBE_ANCHOR * 10.0 ** (0.5 * k) / sqrt_p, _PROBE_LO), _PROBE_HI)

    legs, g = {}, {}  # v0 -> leg past r_switch, and escape-law value, of its full shot

    def side(v0):
        outcome, leg = integ.shot(v0, r_cls)
        if leg.ts[-1] > _R_SWITCH:
            legs[v0] = leg
        g[v0] = _escape_law(outcome, integ.blowup, lam4, s_cls, s_ref)
        return g[v0]

    # the opening: rung 0, then rung 1 when rung 0 blows up; on from the
    # pair, rung by rung, outward on the side the root lies on, until a
    # probe flips; k is up's rung
    k, up, dn = 0, rung(0), rung(1)
    while side(up) < 0.0:  # the root lies above up
        if up == _PROBE_HI:
            raise BracketNotFound(f"every probe from {rung(0):.3g} up to {_PROBE_HI:.3g} loses sign: "
                                  "they do not bracket the separatrix")
        k -= 1
        up, dn = rung(k), up
    if k == 0:
        while side(dn) >= 0.0:  # the root lies below dn
            if dn == _PROBE_LO:
                raise BracketNotFound(f"every probe from {rung(0):.3g} down to {_PROBE_LO:.3g} blows up: "
                                      "they do not bracket the separatrix")
            k += 1
            up, dn = dn, rung(k + 1)

    def ready(up, dn):
        return abs(up - dn) < _BRACKET_STOP * abs(up) and up in legs

    n_iter, up, dn = _bisect(side, up, dn, done=ready, ends=(g[up], g[dn]))
    integ.work.update(trials=n_iter, bracket=(up, dn))
    if not ready(up, dn):
        raise NoConvergence(
            f"no bracket to collocate from: the v0 root search ended after "
            f"{n_iter} trials on the bracket [{dn:.17g}, {up:.17g}] (sign-loss end "
            f"first), where full shots give escape-law values g = "
            f"{g[dn]:.3g}, {g[up]:.3g}"
        )
    v0, tangent, seam, res = _collocate(integ, legs[up], up, dn, r_cls)
    L = integ.L

    def tail(s):
        y = res(s)
        return L * (1.0 + y[0]), L * y[1], L * y[2], L * y[3]

    head = (tangent.ts[0], lambda rr: tangent(rr, v0))
    return _assemble_solution(integ, v0, r_max, head, tail, seam=seam)


def _collocate(integ, leg, up, dn, r_cls):
    """The entire solution on s in [log r_switch, log r_cls] by collocation.

    The unknown is y = (X - X*) / L, X = (W, W', W'', W''') and X* = (L, 0,
    0, 0), so y' = (y1, y2, y3, c4 (1 + y0) expm1((p - 1) log1p(y0)) - c3 y1
    - c2 y2 - c1 y3) with L^{p-1} = c4; v0 is the one scalar unknown.  The
    left condition puts y on the tangent R(v0) = (X(mid) - X*) / L
    + (v0 - mid) dX/dv / L at the bracket's midpoint mid, X(mid) and dX/dv
    the real parts and the imaginary parts over h of the end state of
    _Integrator.tangent's complex-step leg, mapped by _r_to_s_state, which
    is linear in the state.  The right one, l4 . y = 0, removes the
    unstable mode: l4, the left eigenvector for lam4 with l4 . e4 = 1,
    holds the coefficients of (mu - lam1)(mu - lam2)(mu - lam3), in
    increasing powers, over prod_i (lam4 - lam_i).  The guess, on
    _BVP_NODES uniform nodes, is leg, the blow-up end's stage-1 leg, mapped
    to the s-chart by _r_to_s_state: its Taylor polynomials at r = e^s (its
    dense output, as _sample_state reads a leg) up to s_a, its first step
    end past r_switch where |y0| < _GUESS_FLOOR, and y(s_a) e^{lam3 (s -
    s_a)} beyond.
    One collocation.solve call, capped at _BVP_MAX_NODES, runs the problem
    in Newton rounds of its sixth-order MIRK formula: the first on the start
    mesh, each later one on the mesh the last one's rms defects predict (see
    collocation.solve); a failed round raises NoConvergence, and so does a
    tangent leg that ends in an escape before r_switch.  Stage 1's shots bracket the separatrix,
    so a v0 farther outside the bracket than its width (a misclassified
    trial, or a tangent read too far from mid) raises NoConvergence.  Each
    NoConvergence names the s-domain and the bracket, and one from a round
    names the round, its nodes, Newton iterations and residual.  The
    rounds that finished go into the solve's record either way.  Returns
    (v0, the tangent's _Leg, whose steps are the lattice's r-chart part,
    the left condition's residual max |y(s_a) - R(v0)| (the seam), the
    collocation.Collocation).
    """
    L = integ.L
    lam1, lam2, lam3, lam4 = integ.spec.lambdas
    c1, c2, c3, c4 = integ.s_coeffs
    p, pm1 = integ.p, integ.p - 1.0
    l4 = np.poly([lam1, lam2, lam3])[::-1] / ((lam4 - lam1) * (lam4 - lam2) * (lam4 - lam3))
    x_star = np.array([L, 0.0, 0.0, 0.0])
    s0, s1 = math.log(_R_SWITCH), math.log(r_cls)

    def rise(y0):
        # (1 + y0)^(p-1) - 1, on the positive branch as in the charts: a
        # Newton iterate with W <= 0 has W^p = 0
        with np.errstate(divide="ignore", over="ignore"):
            return np.expm1(pm1 * np.log1p(np.maximum(y0, -1.0)))

    def fun(y):
        y0, y1, y2, y3 = y
        return np.vstack((y1, y2, y3, c4 * (1.0 + y0) * rise(y0) - c3 * y1 - c2 * y2 - c1 * y3))

    def jac(y):
        df_dy = np.zeros((4, 4, y.shape[1]))
        df_dy[0, 1] = df_dy[1, 2] = df_dy[2, 3] = 1.0
        df_dy[3, 0] = c4 * (pm1 + p * rise(y[0]))
        df_dy[3, 1:] = np.array([-c3, -c2, -c1])[:, None]
        return df_dy

    def deviation(rr):
        # (X - X*) / L of leg at the radii rr
        return (_r_to_s_state(integ.n, integ.m, rr, leg(rr)) - x_star[:, None]) / L

    ts = np.array(leg.ts)
    rr = ts[ts > _R_SWITCH]
    s = np.log(rr)
    dev = deviation(rr)
    below = np.nonzero(np.abs(dev[0]) < _GUESS_FLOOR)[0]
    a = int(below[0]) if below.size else int(np.argmin(np.abs(dev[0])))
    mesh = np.linspace(s0, s1, _BVP_NODES)
    past = mesh > s[a]
    guess = np.empty((4, mesh.size))
    guess[:, ~past] = deviation(np.exp(mesh[~past]))
    guess[:, past] = dev[:, a, None] * np.exp(lam3 * (mesh[past] - s[a]))

    where = f"over s in [{s0:.6g}, {s1:.6g}], v0 bracket [{dn:.17g}, {up:.17g}]"

    mid = 0.5 * (up + dn)
    try:
        escape, tangent = integ.tangent(mid)
        if escape:
            raise NoConvergence(f"the tangent's r-chart leg at v0 = {mid!r} ends in {escape}")
        x = _r_to_s_state(integ.n, integ.m, _R_SWITCH, np.array(tangent.y))
        bvp = collocation.Bvp(fun, jac, ya=(x.real - x_star) / L, slope=x.imag / tangent.h / L, v_ref=mid,
                              right=l4, tol=_BVP_TOL)
        res = collocation.solve(bvp, mesh, guess, mid, _BVP_MAX_NODES)
        v0 = float(res.v)
        off = max(dn - v0, v0 - up)
        if off > up - dn:
            raise NoConvergence(f"v0 = {v0!r} lies {off:.3g} outside the bracket, more than "
                                f"its width {up - dn:.3g}", res.rounds)
    except NoConvergence as exc:
        integ.work["rounds"] = exc.rounds
        raise NoConvergence(f"collocation stage: {exc} ({where})") from None
    integ.work["rounds"] = res.rounds
    seam = float(np.max(np.abs(bvp.conditions(res.y[:, 0], res.y[:, -1], res.v)[:4])))
    return v0, tangent, seam, res


def rescale_solution(sol: RadialSolution, alpha: float) -> RadialSolution:
    """Map a solution to a different initial height by exact scale covariance.

    If phi solves the equation then kappa^m phi(kappa r) solves it with initial
    height kappa^m phi(0), kappa = (alpha / sol.alpha)^(1/m) as checked by
    _scale: the s-grid shifts by -log(kappa), v0 scales by kappa^{m+2}, and
    X, whose s-derivatives do not change under the shift, is sol's own
    array.
    """
    m = sol.params.m
    kappa = _scale(m, alpha / sol.alpha)
    v0 = sol.v0 * kappa ** (m + 2.0)
    return replace(sol, alpha=alpha, v0=v0, s_grid=sol.s_grid - math.log(kappa))


def emden_fowler_residual(sol: RadialSolution) -> float:
    """Lattice defect of the solved state X = (W, W', W'', W''') in the
    first-order system X' = F(X) of Q4(m - d/ds) W = W^p.

    With D the 7-point central first difference (order 6) on the uniform
    s-grid, the largest over the interior nodes of |D X_k - X_{k+1}| /
    max|W| (k = 0, 1, 2: W must agree with its carried derivatives) and of
    |D X_3 + c1 X_3 + c2 X_2 + c3 X_1 + c4 X_0 - W^p| / max W^p.  Noise in
    X is amplified by 1/h; at order 4, D's truncation error read 6.3e-6 on
    n = 40 at p_c.
    """
    s, X = sol.s_grid, sol.X
    h = s[1] - s[0]
    if not np.allclose(np.diff(s), h, rtol=1e-9):
        raise InvalidParams("s-grid must be uniform for stencil differentiation")
    if s.size < 7:
        raise GridTooCoarse(f"{s.size} nodes leave no interior point for a 7-point stencil")
    n = s.size - 6  # interior nodes
    DX = sum(w * (X[:, 3 + k : 3 + k + n] - X[:, 3 - k : 3 - k + n])
             for k, w in ((1, 45.0), (2, -9.0), (3, 1.0))) / (60.0 * h)
    Xi = X[:, 3:-3]
    c1, c2, c3, c4 = _s_operator_coeffs(sol.params.n, sol.params.m)[1:]
    forcing = _power(Xi[0], sol.params.p)
    top = DX[3] + c1 * Xi[3] + c2 * Xi[2] + c3 * Xi[1] + c4 * Xi[0] - forcing
    return float(max(np.max(np.abs(DX[:3] - Xi[1:])) / np.max(np.abs(Xi[0])),
                     np.max(np.abs(top)) / np.max(forcing)))


def _phis(z: float, count: int) -> list[float]:
    """phi_1(z) .. phi_count(z), phi_k(z) = int_0^1 e^{(1-x) z} x^(k-1)/(k-1)! dx.

    Taylor series sum_i z^i/(i+k)! for |z| < 1/2, where the recurrence
    phi_{k+1} = (phi_k - 1/k!)/z would cancel; the recurrence from
    phi_1 = expm1(z)/z elsewhere.
    """
    if abs(z) < 0.5:
        return [sum(z**i / math.factorial(i + k) for i in range(20)) for k in range(1, count + 1)]
    out = [math.expm1(z) / z]
    for k in range(1, count):
        out.append((out[-1] - 1.0 / math.factorial(k)) / z)
    return out


# a block of exp_kernel_convolve's scan keeps |lam h| times its steps
# within half the floats' exponent range: its scale factors e^{-+lam h i}
# stay normal, with room for the terms they scale
_SCAN_LOG = 0.5 * math.log(np.finfo(float).max)


def exp_kernel_convolve(lam, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """I(s_j) = int_{s_0}^{s_j} e^{lam (s_j - tau)} g(tau) dtau on a uniform grid.

    lam is a 1-D array of rates and g the matching stack of rows, one row
    of I per rate; a float lam with a 1-D g is the one-row case.
    Exponentially fitted cubic rule: on each step the kernel is integrated
    exactly against the cubic through g at four nodes (the step's ends and
    one more on each side, moved inward at the grid's ends), so the error is
    O(h^4) times g's fourth derivative.  One batched solve gives the
    Lagrange weights of every rate on each of the stencil's three shifts,
    and the steps' increments are four shifted-slice products.  The
    unconditionally stable recurrence I_{j+1} = e^{lam h} I_j + (the step's
    increment) runs, for z = lam h, as the scaled cumulative sum
    I_{j+1} = e^{z j} sum_{i <= j} e^{-z i} (increment i), in blocks of at
    most _SCAN_LOG / |z| steps that each start from the previous block's
    last value; a block covers the whole row on the acceptance cases'
    lattices.  A row depends on its own rate and values alone.  It sums in
    another order than the step-by-step loop (tests/test_shooting.py keeps
    that loop as the oracle): the rounding of z j moves a row by up to
    |z j| eps/2 of max|I| (about 5e-14 at lam = 40 over 1611 steps of
    h = 0.01).
    """
    rates = np.atleast_1d(np.asarray(lam, dtype=float))
    rows = np.atleast_2d(np.asarray(g, dtype=float))
    count, size = rows.shape
    out = np.zeros((count, size))
    if size > 1:
        out[:, 1:] = _kernel_scan(rates, float(s[1] - s[0]), rows)
    return out[0] if np.ndim(lam) == 0 else out


def _kernel_scan(rates: np.ndarray, h: float, rows: np.ndarray) -> np.ndarray:
    # I_1 .. I_{size-1} of exp_kernel_convolve's rows, size >= 2
    count, size = rows.shape
    steps, z = size - 1, rates * h
    width = min(4, size)  # nodes per step's interpolant
    moments = np.array([[math.factorial(m) * phi for m, phi in enumerate(_phis(zr, width))]
                        for zr in z.tolist()])
    # the kernel's moments against the Lagrange basis on the nodes of the
    # first step (from its left end), an inner step (from one node before)
    # and the last step (the lattice's last width nodes): w[shift, node, rate]
    nodes = np.array([0.0, -1.0, 2.0 - width])[:, None] + np.arange(width)
    w = h * np.linalg.solve(nodes[:, None, :] ** np.arange(width)[:, None], moments.T)
    acc = np.empty((count, steps))
    acc[:, 1:-1] = sum(w[1, k][:, None] * rows[:, k : k + size - 3] for k in range(width))
    acc[:, -1] = np.sum(w[2].T * rows[:, -width:], axis=1)
    acc[:, 0] = np.sum(w[0].T * rows[:, :width], axis=1)
    with np.errstate(divide="ignore"):
        lengths = np.clip(_SCAN_LOG / np.abs(z), 1, steps).astype(int)
    for block in sorted(set(lengths.tolist())):
        at = lengths == block
        zb = z[at, None]
        scale = np.arange(block) * zb
        part = acc[at]
        for start in range(0, steps, block):
            run = part[:, start : start + block]
            run *= np.exp(-scale[:, : run.shape[1]])
            if start:
                run[:, 0] += np.exp(zb[:, 0]) * part[:, start - 1]
            np.cumsum(run, axis=1, out=run)
            run *= np.exp(scale[:, : run.shape[1]])
        acc[at] = part
    return acc


def y_integral_identity_check(sol: RadialSolution) -> float:
    """Deviation of Y from -int_s^inf e^{lam4 (s - tau)} Z(tau) dtau.

    The quadrature runs to the truncation point where |Z| falls below
    1e-12 * max|Z|; beyond it an analytic tail assuming pure e^{lam3 tau}
    decay is added.  Returns the maximum deviation over the probe window,
    normalized by max|Y| there.
    """
    lam3, lam4 = sol.spectrum.lambdas[2], sol.spectrum.lambdas[3]
    s, Y, Z = sol.s_grid, sol.Y, sol.Z
    zmax = np.max(np.abs(Z))
    above = np.nonzero(np.abs(Z) >= 1e-12 * zmax)[0]
    i_top = int(above[-1])
    s_t, Z_t = s[: i_top + 1], Z[: i_top + 1]
    # K(s_j) = int_{s_j}^{S} e^{lam4 (s_j - tau)} Z dtau: the forward
    # convolution on the reflected grid -s
    K = exp_kernel_convolve(-lam4, -s_t[::-1], Z_t[::-1])[::-1]
    tail = Z_t[-1] * np.exp(lam4 * (s_t - s_t[-1])) / (lam4 - lam3)
    Y_rep = -(K + tail)

    Y_t = Y[: i_top + 1]
    mask = (np.abs(Y_t) >= 1e-8 * np.max(np.abs(Y))) & (s_t <= s_t[-1] - 1.0)
    if not np.any(mask):
        raise WindowTooShort(
            f"integral identity: its probe window (|Y| >= 1e-8 max|Y|, s <= {s_t[-1] - 1.0:.6g}) "
            "holds no node; extend r_max"
        )
    dev = np.abs(Y_t[mask] - Y_rep[mask])
    return float(np.max(dev) / np.max(np.abs(Y_t[mask])))


def resolved_top_index(sol: RadialSolution, floor_rel: float = _RESOLUTION_FLOOR) -> int:
    """End of the resolved prefix: the node before |Y| first dips below
    floor_rel * L.  |Y| decays along the true solution, so nodes beyond the
    first dip are noise (or unstable-mode residue) even if they rise again.
    """
    below = np.nonzero(np.abs(sol.Y) < floor_rel * sol.spectrum.L)[0]
    if below.size == 0:
        return sol.Y.size - 1
    if below[0] == 0:
        raise WindowTooShort(
            f"no resolved nodes: |Y| < {floor_rel:g} L from the first node on, "
            f"s = {sol.s_grid[0]:.6g}"
        )
    return int(below[0]) - 1


def check_positivity(sol: RadialSolution) -> bool:
    """phi > 0 on the entire grid."""
    return bool(np.all(sol.phi > 0.0))


def check_monotone_y(sol: RadialSolution) -> bool:
    """Y negative and nondecreasing at every node of the resolved s-range."""
    top = resolved_top_index(sol)
    Y = sol.Y[: top + 1]
    return bool(np.all(Y < 0.0) and np.all(np.diff(Y) >= 0.0))


def decay_slope(sol: RadialSolution, critical: bool | None = None) -> float:
    """Log-slope of |Y| (or |Y|/s at the critical exponent) over the last
    resolved decade of r; compares against lam3 downstream."""
    if critical is None:
        critical = sol.spectrum.degenerate
    top = resolved_top_index(sol, _DECAY_FLOOR)
    s_hi = sol.s_grid[top]
    s_lo = s_hi - math.log(10.0)
    mask = (sol.s_grid >= s_lo) & (sol.s_grid <= s_hi)
    s = sol.s_grid[mask]
    val = np.abs(sol.Y[mask])
    if critical:
        if np.any(s <= 0.0):
            raise WindowTooShort(
                f"decay slope: the last resolved decade, s in [{s[0]:.6g}, {s[-1]:.6g}], must lie "
                "at positive s for the log-corrected slope at the critical exponent; extend r_max"
            )
        val = val / s
    coef = np.polyfit(s, np.log(val), 1)
    return float(coef[0])


_DUMP_ROW = ",".join(["%.17g"] * 6) + "\n"


def dump_solution(sol: RadialSolution, fh) -> None:
    """Write the delimited solution dump: one row per s-node, full precision."""
    cols = (sol.s_grid, sol.r_grid, sol.phi, sol.W, sol.Y, sol.Z)
    rows = zip(*(c.tolist() for c in cols))
    fh.write("s,r,phi,W,Y,Z\n" + "".join(_DUMP_ROW % row for row in rows))
