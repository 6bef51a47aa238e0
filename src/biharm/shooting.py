"""Radial shooting solver for Delta^2 phi = phi^p.

The radial problem is integrated as the first-order system

    u' = w,  w' = v - (n-1) w / r,  v' = z,  z' = u^p - (n-1) z / r

(u = phi, v = Laplacian of phi).  Every solve is at phi(0) = 1: the equation
is invariant under phi -> kappa^m phi(kappa r), which maps that solve to any
other height.  Near the origin the regular solution is a power series in
r^2, fixed by phi(0) = 1 and v0 = (Laplacian phi)(0); each shot starts
from that series, truncated, at the largest radius, up to half the leg's
end, where the truncation stays below rounding (in closed form, from its
last two terms) and no escape event can lie before it.
Integration proceeds in r from there out to a switch radius and then
continues in the logarithmic variable s = log r on the transformed state
(W, W', W'', W''') with W(s) = e^{m s} phi(e^s), whose linear part has
constant coefficients; the r-chart loses relative precision over many
decades while the s-chart is the natural long-range frame.

The entire positive solution is found in two stages: a safeguarded root
search on v0 between blow-up and sign-loss shots brackets it, and one
collocation boundary value problem on the s-chart then closes it, with the
stable modes pinned at the switch radius and the unstable one removed at
the far end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul

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
from .ivp import solve_ivp, system
from .params import ProblemParams
from .spectrum import Spectrum, compute_spectrum

# chart geometry
_R_SEED = 1e-3       # lattice start
_SERIES_ORDER = 32   # the series start keeps r^0 .. r^(2 * _SERIES_ORDER)
_R_SWITCH = 10.0     # hand-off from the r-chart to the s-chart
_R_HORIZON = 500.0   # least radius to which shoot classifies shots and collocates
_BLOWUP = 1.5        # W/L at which a shot blows up, at most; the entire solution keeps W < L
_DS = 0.01           # uniform s-grid spacing of the returned solution
# s from the returned lattice's last node, log r_max, out to where a solve
# ends: the lattice stops short of the collocation's right end, where
# l4 . y = 0 is imposed rather than solved, and an escape just past r_max
# still rejects an integrate_radial shot
_S_PAD = 0.05

_MAX_BISECT = 240     # root-search trials
_PROBE_LO = -1e3      # most negative v0 probed
_PROBE_HI = -1e-6     # least negative v0 probed
# relative v0 bracket width below which stage 1 stops, so that the tangent
# at the bracket's midpoint serves as the collocation's left boundary map
# (second stage of shoot); the collocated v0 may land at most this far
# (relative) outside the bracket
_BRACKET_STOP = math.sqrt(np.finfo(float).eps)
# collocation: uniform starting nodes and node cap
_BVP_NODES = 200
_BVP_MAX_NODES = 25000
# |W/L - 1| below which the collocation's guess leaves the blow-up end's leg
# for the slowest decaying mode e^{lam3 s}
_GUESS_FLOOR = 1e-3
# A model step lands this share of its length past the predicted root, so the
# far end of the bracket closes too.
_PUSH = 0.02
# this many model steps in a row must halve the bracket, else a midpoint follows
_MODEL_RUN = 2
# |Y|/L below which the solution checks treat a node as unresolved
_RESOLUTION_FLOOR = 1e-10
# |Y|/L below which the decay slope and the default fit window end, a decade
# clear of _RESOLUTION_FLOOR
_DECAY_FLOOR = 1e-9
# the integrator's rtol for every leg the solution is built from (the
# tangent's r-chart leg): its atol is _RTOL / 100 and the collocation's
# tol is 100 _RTOL
_RTOL = 1e-12
# Stage 1's shots only classify a trial v0 and leave the bracket and the
# guess's leg; the collocation fixes v0 from the full-tolerance tangent.  A
# trial x that splits a bracket of width w runs at rtol
# max(_RTOL_BRACKET, _RTOL_PROBE min(1, w / |x|)), atol rtol / 100: the
# probe ladder's at _RTOL_PROBE, every trial in a bracket narrower than
# _RTOL_PROBE |x| at _RTOL_BRACKET
_RTOL_BRACKET = 1e-8
_RTOL_PROBE = 1e-4


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
    """The work of one solve, in order: each leg's (chart, rtol, nfev,
    status) in legs, status solve_ivp's (-1 a step failure); stage 1's
    trials and the (up, dn) bracket it ended on; and each collocation round
    that finished, as collocation.Collocation.rounds holds them: (nodes,
    Newton iterations, max rms residual, the nodes it predicts or None when
    it met tol).  A stage not reached leaves trials and bracket None and
    rounds empty."""

    legs: tuple = ()
    trials: int | None = None
    bracket: tuple | None = None
    rounds: tuple = ()


@dataclass(frozen=True)
class RadialSolution:
    """Entire positive radial solution with phi(0) = alpha, as solved: the
    state X = (W, W', W'', W''') of W = r^m phi, shape (4, s_grid.size),
    on the s-lattice s_grid.

    X is sampled from the states the phi(0) = 1 solve was solved in: up to
    r_switch the r-chart part (shoot's: the tangent at v0 of one variational
    r-chart leg; a single shot's: its one leg; the series at v0 below the
    leg's start), mapped to s-derivatives by _r_to_s_state, the s-chart beyond.
    The scale map to phi(0) = alpha keeps X and shifts s_grid.  Everything
    else follows from them: W = X[0], Z = Y' - lam4 Y = W' - lam4 Y,
    r_grid = e^s, phi = W / r^m and Y = W - L.  seam_residual is
    max_i |X_i - X_r,i| / L at r_switch, between the s-chart's start state
    and the r-chart part's end state X_r; it is 0.0 for a single shot,
    whose s-chart starts from X_r.  record is the SolveRecord of the solve.
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


class _Series:
    """The regular solution near the origin as a series in x = r^2.

    u = sum_k a_k x^k with a_0 = 1 and a_1 = v0 / (2n) (so u(0) = 1 and
    Delta u(0) = v0), and Delta^2 u = u^p fixes the rest:
    a_{j+2} = [u^p]_j / ((2j+2)(2j+4)(2j+n)(2j+n+2)), the coefficients
    [u^p]_j = sum_{i=1..j} ((p+1) i - j) a_i [u^p]_{j-i} / j by J.C.P.
    Miller's power recurrence, its weights and the denominators from tables
    built once per (n, p) by _Integrator.  Truncated at a_K, K = _SERIES_ORDER.
    The state (u, u', Delta u, (Delta u)') is r^e_i P_i(x), e = (0, 1, 0, 1),
    with the P_i held as coefficient lists.
    """

    def __init__(self, tables, v0):
        two_n, weights, denominators, laplacian = tables
        a = [1.0, v0 / two_n]
        g = [1.0]  # [u^p]_0, [u^p]_1, ...
        for j, (w, d) in enumerate(zip(weights, denominators)):
            if j:
                g.append(sum(map(mul, map(mul, w, a[1:j + 1]), g[j - 1::-1])) / j)
            a.append(g[j] / d)
        b = list(map(mul, laplacian, a[1:]))  # Delta u
        self.coeffs = (
            a,
            [2 * k * a[k] for k in range(1, len(a))],
            b,
            [2 * j * b[j] for j in range(1, len(b))],
        )

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
        out = []
        for i, c in enumerate(self.coeffs):
            acc = c[-1]
            for ck in reversed(c[:-1]):
                acc = acc * x + ck
            out.append(acc * r if i % 2 else acc)
        return out

    def seed_radius(self, m: float, w_max: float, r_cap: float) -> float:
        """The radius r <= r_cap at which the series starts the r-chart leg:
        its truncation radius in closed form, halved in x = r^2 while an
        event may lie before it.

        Every P_i's last two terms |c_k| x^k, which bound its truncation
        error inside the radius of convergence, stay below eps times its
        terms' absolute sum S_i(x) (the rounding of that sum) up to
        x = (eps |c_j| / |c_k|)^(1 / (k - j)), as S_i(x) >= |c_j| x^j; the
        larger of j = 0, 1 (j = 1 for a c_0 of 0, as in u' at v0 = 0).  The
        least of these over i and k, capped at r_cap^2, is the truncation
        radius: the Taylor integrators' step rule (Jorba & Zou, Experimental
        Math. 14, 2005).  With S = sum_k |a_k| x^k, 1 - (S - 1) > 0 and
        r^m S < w_max keep u positive and r^m u below w_max on all of
        [0, r], so no terminal event of the r-chart lies before the start
        (and NaN coefficients, which every P_i shares with u, fail it at
        every x).  StepFailure when no positive radius passes (coefficients
        that overflow, say).
        """
        eps = np.finfo(float).eps
        x = r_cap * r_cap
        for c in self.coeffs:
            c0, c1 = eps * abs(c[0]), eps * abs(c[1])
            for k in (len(c) - 1, len(c) - 2):
                ck = abs(c[k])
                if ck:  # a zero term bounds nothing
                    x = min(x, max((c0 / ck) ** (1.0 / k), (c1 / ck) ** (1.0 / (k - 1))))
        while x > 0.0:
            s = 0.0
            for ak in reversed(self.coeffs[0]):  # u's, by Horner
                s = s * x + abs(ak)
            if s < 2.0 and x ** (0.5 * m) * s < w_max:
                return math.sqrt(x)
            x *= 0.5
        raise StepFailure(f"the series at Delta u(0) = {self.coeffs[2][0]!r} has no positive start "
                          "radius: its truncation or event bound fails at every x = r^2 > 0")


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


# The charts' right-hand sides and terminal events, written once as
# expressions in x (r or s) and the state u0..u3: (u, u', Delta u,
# (Delta u)') in the r-chart, (W, W', W'', W''') in the s-chart.  u^p is
# taken on the positive branch (trial states may dip below zero transiently)
# and capped so rejected trial steps cannot overflow.  Blow-up is the
# scale-aware bound r^m u >= wcap = (1 + a) L, a = min(_BLOWUP - 1,
# 20 / (p - 1)), where (W/L)^(p-1) has grown by at most e^20, so that u^p
# cannot stall the steps before the event at any p.  No raw |u| ceiling.
# Chart "v" is the r-chart with its variational equation in v0: the r-chart
# is linear in its state but for u^p, so entries 4..7 obey the r-chart's
# equations with u^p linearised to p u^(p-1) times entry 4.  One leg gives the
# end state and its derivative in v0 on one step sequence (internal numerical
# differentiation: Bock 1981; Hairer, Norsett & Wanner, Solving ODEs I,
# Sec. II.6).  Its state, entries 0..3, leads (see ivp.system): the tangent
# reads the derivative only times |v0 - mid| <= _BRACKET_STOP |v0| / 2, so it
# takes each step's cubic Hermite (on case A within 1.3e-9 of max |dy/dv| of
# the 7th-order interpolant, which moves W by at most an ulp); steps and step
# ends, so v0, do not change.
_POWER = "((u0 if u0 < cap else cap) ** p if u0 > 0.0 else 0.0)"


def _r_rhs(i: int, power: str) -> tuple[str, ...]:
    """The r-chart's right-hand sides on the entries u{i}..u{i+3}, with the
    expression power in place of u^p."""
    u1, u2, u3 = (f"u{i + j}" for j in (1, 2, 3))
    return (u1, f"{u2} - nm1 * {u1} / x", u3, f"{power} - nm1 * {u3} / x")


_R_PARAMS = ("p", "cap", "nm1", "m", "wcap")
_R_RHS = _r_rhs(0, _POWER)
_R_EVENTS = (("sign_loss", "u0", -1), ("amplitude_cross", "x ** m * u0 - wcap", 1))
_CHARTS = {
    "r": system("rhs_r", _R_PARAMS, _R_RHS, _R_EVENTS),
    "s": system("rhs_s", ("p", "cap", "c1", "c2", "c3", "c4", "wcap"),
                ("u1", "u2", "u3", _POWER + " - (c1 * u3 + c2 * u2 + c3 * u1 + c4 * u0)"),
                (("sign_loss", "u0", -1), ("amplitude_cross", "u0 - wcap", 1))),
    "v": system("rhs_v", _R_PARAMS,
                _R_RHS + _r_rhs(4, "(p * (u0 if u0 < cap else cap) ** (p - 1.0) if u0 > 0.0 else 0.0) * u4"),
                _R_EVENTS, lead=4),
}


class _Integrator:
    """One (n, p) configuration at phi(0) = 1; integrates arbitrary v0 shots."""

    def __init__(self, params: ProblemParams):
        self.params = params
        self.n = params.n
        self.p = params.p
        self.m = params.m
        self.pow_cap = 10.0 ** (295.0 / params.p)
        self.spec = compute_spectrum(params)
        self.L = self.spec.L
        self.blowup = min(_BLOWUP - 1.0, 20.0 / (self.p - 1.0))  # W/L - 1 at blow-up
        self.wcap = (1.0 + self.blowup) * self.L
        # each chart's right-hand side, with its events, on this
        # configuration's constants
        self.s_coeffs = c1, c2, c3, c4 = _s_operator_coeffs(self.n, self.m).tolist()[1:]
        common = dict(p=self.p, cap=self.pow_cap, wcap=self.wcap)
        self.rhs_r = _CHARTS["r"](nm1=self.n - 1.0, m=self.m, **common)
        self.rhs_s = _CHARTS["s"](c1=c1, c2=c2, c3=c3, c4=c4, **common)
        self.rhs_v = _CHARTS["v"](nm1=self.n - 1.0, m=self.m, **common)
        # the series' tables (see _Series), shared by every v0: 2n, Miller's
        # weights, the denominators and the factors of Delta u's b_j
        n, k = self.n, _SERIES_ORDER
        self.series_tables = (2.0 * n, [[(self.p + 1.0) * i - j for i in range(1, j + 1)] for j in range(k - 1)],
                              [(2 * j + 2) * (2 * j + 4) * (2 * j + n) * (2 * j + n + 2) for j in range(k - 1)],
                              [(2 * j + 2) * (2 * j + n) for j in range(k)])
        self.work = {"legs": ()}  # SolveRecord's fields, as a solve reaches them

    # --- one leg, one shot ------------------------------------------------
    def series(self, v0: float) -> _Series:
        """The regular solution's series at v0."""
        return _Series(self.series_tables, v0)

    def start(self, series: _Series, r_end: float):
        """(r0, series state at r0): where and from what the r-chart leg to
        r_end starts, r0 = series.seed_radius up to r_end / 2, at any r0 > 0
        (below _R_SEED too, where the lattice then comes from the leg)."""
        r0 = series.seed_radius(self.m, self.wcap, 0.5 * r_end)
        return r0, series.state(r0)

    def seed(self, v0: float):
        """(the series at v0, chart "v"'s state as a function of r): the
        series state and, by a complex step through the series, its
        derivative in v0, read where the tangent's leg starts."""
        h = 1e-20 * abs(v0)
        series, step = self.series(v0), self.series(complex(v0, h))
        return series, lambda r: (*series.state(r), *(y.imag / h for y in step.state(r)))

    def leg(self, chart: str, span, y0, dense: bool = False, rtol: float | None = None):
        """Integrate one leg of chart "r", "s" or "v" (the r-chart with its
        variational equation) over span at rtol (None: _RTOL), atol rtol / 100;
        returns (outcome, sol), sol the solve_ivp result.  outcome is the float
        residual W/L - 1 at the end of the span, SignLoss at the sign_loss
        event, else BlowUp at the amplitude_cross event, at the radius r the
        leg ended.  A step failure raises StepFailure.
        """
        rtol = _RTOL if rtol is None else rtol
        sol = solve_ivp(getattr(self, "rhs_" + chart), span, y0, rtol=rtol, atol=1e-2 * rtol,
                        dense_output=dense)
        self.work["legs"] += ((chart, rtol, sol.nfev, sol.status),)
        x = "s" if chart == "s" else "r"  # the leg's variable
        t_end = float(sol.t[-1])
        r_end = t_end if x == "r" else math.exp(t_end)
        if sol.status == 0:
            w_end = float(t_end**self.m * sol.y[0, -1] if x == "r" else sol.y[0, -1])
            return w_end / self.L - 1.0, sol
        if sol.event == "sign_loss":
            return SignLoss(r=r_end), sol
        if sol.event:
            return BlowUp(r=r_end), sol
        raise StepFailure(
            f"{chart}-chart step failed at r = {r_end:.6g}: step size {sol.step:.3g} in "
            f"{x} is below 10 ulp of {x} = {t_end:.17g}, on the leg over {x} "
            f"in [{span[0]:.6g}, {span[1]:.6g}]"
        )

    def shot(self, v0: float, r_max: float, dense: bool = False, rtol: float | None = None):
        """Integrate one shot from the origin, its legs at rtol as for `leg`;
        returns (outcome, sol_r, sol_s).

        outcome is as for `leg`, at r_max.  sol_r is the r-chart solve_ivp
        result, a leg that ends at min(r_switch, r_max); sol_s is the s-chart
        one from log r_switch, started from sol_r's end state, or None when
        the shot ended in the r-chart (an outcome before r_switch, or
        r_max <= r_switch).  dense only adds the interpolants: solve_ivp takes
        the same steps either way, so a dense shot replays the plain one.
        """
        r_end = min(_R_SWITCH, r_max)
        r0, y0 = self.start(self.series(v0), r_end)
        outcome, sol_r = self.leg("r", (r0, r_end), y0, dense, rtol)
        if r_max <= _R_SWITCH or isinstance(outcome, (BlowUp, SignLoss)):
            return outcome, sol_r, None
        w0 = _r_to_s_state(self.n, self.m, _R_SWITCH, sol_r.y[:, -1])
        outcome, sol_s = self.leg("s", (math.log(_R_SWITCH), math.log(r_max)), w0, dense, rtol)
        return outcome, sol_r, sol_s


def _scale(m: float, alpha: float, r_max: float | None = None) -> float:
    """kappa = alpha^(1/m): kappa^m phi(kappa r) maps the solution with
    phi(0) = 1 on r <= kappa r_max to the one with phi(0) = alpha on
    r <= r_max.  InvalidParams unless kappa is finite and positive and,
    when r_max is given, kappa r_max is finite and above _R_SEED, where the
    lattice starts: r_max must exceed _R_SEED / kappa."""
    try:
        kappa = alpha ** (1.0 / m) if alpha > 0.0 else math.nan
    except OverflowError:
        kappa = math.inf
    if not (0.0 < kappa < math.inf and (r_max is None or _R_SEED < kappa * r_max < math.inf)):
        least = _R_SEED / kappa if kappa > 0.0 else math.inf
        raise InvalidParams(
            f"alpha={alpha!r}, r_max={r_max!r}: the solve at phi(0) = 1 maps to phi(0) = alpha "
            f"by kappa = alpha^(1/m) = {kappa:.6g}, which must be finite and positive, and r_max "
            f"must be finite and above {_R_SEED:g} / kappa = {least:.6g}"
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
    critical exponent.  The shot runs to kappa r_max e^{_S_PAD}; for
    alpha = 1 and r_max >= _R_HORIZON that is shoot's classification
    horizon.  Below r_switch it is the r-chart leg at v0 and, below the
    leg's start, the series at v0: shoot's solution there is the same series
    and, from the leg's start on, the tangent at its v0 of one variational
    r-chart leg, which a shot at shoot's v0 meets to within the legs'
    integration error.
    """
    kappa = _scale(params.m, alpha, r_max)
    r_max, v0 = kappa * r_max, v0 / kappa ** (params.m + 2.0)
    integ = _Integrator(params)
    outcome, sol_r, sol_s = integ.shot(v0, r_max * math.exp(_S_PAD), dense=True)
    if isinstance(outcome, (BlowUp, SignLoss)):
        return replace(outcome, r=outcome.r / kappa)
    tail = sol_s.sol if sol_s else None
    sol = _assemble_solution(integ, v0, r_max, (v0, sol_r), tail, seam=0.0)
    return sol if alpha == 1.0 else rescale_solution(sol, alpha)


def _sample_state(integ, v0, head, tail, s_nodes):
    """The state X of W = r^m phi at s_nodes, from the solved states.

    Nodes below log r_switch come from the r-chart (all of them when tail,
    the s-chart's X at ascending s, is None).  head is (v, dense leg at v):
    a single shot's r-chart leg, v = v0, or shoot's chart-"v" leg, whose
    entries 4..7 are the derivative dy/dv of the state y.  A node below the
    leg's start takes the series state at v0; one on the leg its state y, or
    on a chart-"v" leg the tangent y + (v0 - v) dy/dv (dy/dv on the cubic
    Hermite, see _CHARTS).  On a chart-"v" leg the series at v0 stands for
    the tangent of the series at v, from which it differs by O((v0 - v)^2),
    about 1e-17 relative.  Each node's state is mapped to X by
    _r_to_s_state.
    """
    X = np.empty((4, s_nodes.size))
    from_r = s_nodes < math.log(_R_SWITCH) if tail else np.ones(s_nodes.size, dtype=bool)
    if np.any(from_r):
        v, leg = head
        rr = np.exp(s_nodes[from_r])
        y = np.empty((4, rr.size))
        seeded = rr < leg.t[0]
        y[:, seeded] = integ.series(v0).state(rr[seeded])
        on_leg = leg.sol(rr[~seeded])
        y[:, ~seeded] = on_leg[:4] + (v0 - v) * on_leg[4:] if len(on_leg) == 8 else on_leg
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


def _escape_law(outcome, blowup: float, lam4: float, s_end: float) -> float:
    """Escape-law value g of a shot's outcome at the horizon s_end: g >= 0 on
    the blow-up side, g < 0 on the sign-loss side.

    A shot that reaches the horizon has g = its end residual W/L - 1 (the
    true solution keeps Y < 0, so a positive residual means the unstable
    deviation points up).  An escape at s_ev left W/L - 1 at amp = blowup
    (the integrator's, at its amplitude_cross event) or -1 (sign loss); g
    carries it to the horizon along the unstable mode,
    amp e^{lam4 (s_end - s_ev)}.  Near the separatrix every escape obeys
    log|v0 - v0*| + lam4 s_ev = K, with one K per side, so on each side g
    is linear in v0 with its own slope.
    """
    if isinstance(outcome, (BlowUp, SignLoss)):
        amp = blowup if isinstance(outcome, BlowUp) else -1.0
        return amp * math.exp(min(700.0, lam4 * (s_end - math.log(outcome.r))))
    return outcome


def _model_point(pts, up, dn):
    """Next model trial, or None when no side predicts a root inside (up, dn).

    pts holds the (x, g) trials of the blow-up and the sign-loss side, the
    current bracket end last.  Each side's line through its two innermost
    points predicts a root; the step goes from the end whose predicted root
    is nearest, _PUSH of the step length past that root.
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
    x = best[0] + (1.0 + _PUSH) * best[1]
    return x if min(up, dn) < x < max(up, dn) else None


def _bisect(side, up, dn, done, ends) -> tuple[int, float, float]:
    """Shrink the bracket between up (side >= 0, blow-up) and dn (side < 0).

    side(x, width) is an escape-law value as from _escape_law of the trial x
    in the bracket of that width, and ends holds the values at up and dn.
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
        g = side(x, width)
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
    (1) Root search: a geometric ladder of negative v0 gives a (blow-up,
    sign-loss) bracket, which _bisect shrinks with full shots (model steps on
    the values of _escape_law, kept safe by midpoints) until it is narrower
    than _BRACKET_STOP relative to v0 and its blow-up end, whose s-chart leg
    is the collocation's guess, has one; NoConvergence when it ends before
    that.  Each shot runs at the rtol the bracket it splits needs (see
    _RTOL_PROBE), down to _RTOL_BRACKET; a trial misclassified at a loose
    rtol leaves the root outside the bracket, which the collocation's guard
    turns into NoConvergence.  Shots are classified at r_cls = max(r_max,
    _R_HORIZON) e^{_S_PAD}, past the returned lattice and past r_switch, so
    every end has an s-chart leg.  (2) Collocation (_collocate): one
    boundary value problem with v0 as its unknown, its left condition the
    tangent in v0 of one variational r-chart leg at _RTOL from the bracket's
    midpoint, closes the solution on the s-chart up to r_cls, solved by
    biharm.collocation (solve_bvp's Newton rounds on a banded LU, each round
    on the mesh the last one's residuals predict); below r_switch it is that
    tangent at that v0.  For r_max <= _R_HORIZON the horizon, and so the
    solution, does not depend on r_max, which only cuts the returned grids.
    The solution's record, and that of any BiharmError raised here, is the
    solve's SolveRecord.
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
    ladder = (-np.geomspace(-_PROBE_HI, -_PROBE_LO, 2 * 9 + 1)).tolist()

    s_legs, g = {}, {}  # v0 -> s-chart leg, and escape-law value, of its full shot

    def side(v0, width):
        rtol = max(_RTOL_BRACKET, _RTOL_PROBE * min(1.0, width / abs(v0)))
        outcome, _, sol_s = integ.shot(v0, r_cls, rtol=rtol)
        if sol_s is not None:
            s_legs[v0] = sol_s
        g[v0] = _escape_law(outcome, integ.blowup, lam4, s_cls)
        return g[v0]

    # binary search the ladder for the adjacent flip pair, with ladder[0] on
    # the blow-up side and ladder[-1] on the sign-loss side; an end is shot
    # only when the search ends beside it; each probe splits the span
    # between the ladder ends the search holds
    i, j = 0, len(ladder) - 1
    while j - i > 1:
        k = (i + j) // 2
        if side(ladder[k], ladder[i] - ladder[j]) >= 0.0:
            i = k
        else:
            j = k
    if (i == 0 and side(ladder[0], ladder[0] - ladder[j]) < 0.0) or (
        j == len(ladder) - 1 and side(ladder[-1], ladder[i] - ladder[-1]) >= 0.0
    ):
        raise BracketNotFound(
            "probe ladder endpoints do not bracket the separatrix in v0 range "
            f"[{ladder[-1]:.3g}, {ladder[0]:.3g}]"
        )
    up, dn = ladder[i], ladder[j]

    def ready(up, dn):
        return abs(up - dn) < _BRACKET_STOP * abs(up) and up in s_legs

    n_iter, up, dn = _bisect(side, up, dn, done=ready, ends=(g[up], g[dn]))
    integ.work.update(trials=n_iter, bracket=(up, dn))
    if not ready(up, dn):
        raise NoConvergence(
            f"no bracket to collocate from: the v0 root search ended after "
            f"{n_iter} trials on the bracket [{dn:.17g}, {up:.17g}] (sign-loss end "
            f"first), where full shots give escape-law values g = "
            f"{g[dn]:.3g}, {g[up]:.3g}"
        )
    v0, head, seam, res = _collocate(integ, s_legs[up], up, dn, r_cls)
    L = integ.L

    def tail(s):
        y = res(s)
        return L * (1.0 + y[0]), L * y[1], L * y[2], L * y[3]

    return _assemble_solution(integ, v0, r_max, head, tail, seam=seam)


def _collocate(integ, leg, up, dn, r_cls):
    """The entire solution on s in [log r_switch, log r_cls] by collocation.

    The unknown is y = (X - X*) / L, X = (W, W', W'', W''') and X* = (L, 0,
    0, 0), so y' = (y1, y2, y3, c4 (1 + y0) expm1((p - 1) log1p(y0)) - c3 y1
    - c2 y2 - c1 y3) with L^{p-1} = c4; v0 is the one scalar unknown.  The
    left condition puts y on the tangent R(v0) = (X(mid) - X*) / L
    + (v0 - mid) dX/dv / L at the bracket's midpoint mid, X(mid) and dX/dv
    the end of one dense variational r-chart leg at _RTOL (chart "v", started
    from _Integrator.seed at its first radius), mapped by _r_to_s_state,
    which is linear in the state.  The right one, l4 . y = 0, removes the
    unstable mode: l4, the left eigenvector for lam4 with l4 . e4 = 1,
    holds the coefficients of (mu - lam1)(mu - lam2)(mu - lam3), in
    increasing powers, over prod_i (lam4 - lam_i).  The guess is leg, the
    blow-up end's stage-1 s-leg, at its step ends up to where
    |y0| < _GUESS_FLOOR, then y there times e^{lam3 (s - s_a)}, on
    _BVP_NODES uniform nodes.
    One collocation.solve call, capped at _BVP_MAX_NODES, runs the problem
    in Newton rounds: the first on the start mesh, each later one on the
    mesh the last one's rms residuals predict (see collocation.solve); a
    failed round raises NoConvergence, and so does a tangent leg that ends
    before r_switch.  The tangent is accurate only near the bracket: a v0
    more than _BRACKET_STOP |v0| outside it raises NoConvergence.  Each
    NoConvergence names the s-domain and the bracket, and one from a round
    names the round, its nodes, Newton iterations and residual.  The
    rounds that finished go into the solve's record either way.  Returns
    (v0, (mid, the tangent's leg), the left condition's residual
    max |y(s_a) - R(v0)| (the seam), the collocation.Collocation).  The
    leg's dense rows hold the state to 7th order and dX/dv on the cubic
    Hermite (chart "v"'s lead): only the end state enters the
    collocation, so v0 does not depend on the interpolant.
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

    dev = (leg.y - x_star[:, None]) / L
    below = np.nonzero(np.abs(dev[0]) < _GUESS_FLOOR)[0]
    a = int(below[0]) if below.size else int(np.argmin(np.abs(dev[0])))
    mesh = np.linspace(s0, s1, _BVP_NODES)
    guess = np.array([np.interp(mesh, leg.t[: a + 1], d[: a + 1]) for d in dev])
    past = mesh > leg.t[a]
    guess[:, past] = dev[:, a, None] * np.exp(lam3 * (mesh[past] - leg.t[a]))

    where = f"over s in [{s0:.6g}, {s1:.6g}], v0 bracket [{dn:.17g}, {up:.17g}]"

    mid = 0.5 * (up + dn)
    try:
        series, seed = integ.seed(mid)
        r0, _ = integ.start(series, _R_SWITCH)
        outcome, tangent = integ.leg("v", (r0, _R_SWITCH), seed(r0), dense=True)
        if isinstance(outcome, (BlowUp, SignLoss)):
            raise NoConvergence(f"the tangent's r-chart leg at v0 = {mid!r} ends in {outcome}")
        x_mid, dx = (_r_to_s_state(integ.n, integ.m, _R_SWITCH, y) for y in np.split(tangent.y[:, -1], 2))
        bvp = collocation.Bvp(fun, jac, ya=(x_mid - x_star) / L, slope=dx / L, v_ref=mid,
                              right=l4, tol=100.0 * _RTOL)
        res = collocation.solve(bvp, mesh, guess, mid, _BVP_MAX_NODES)
        v0 = float(res.v)
        off = max(dn - v0, v0 - up)
        if off > _BRACKET_STOP * abs(v0):
            raise NoConvergence(f"v0 = {v0!r} lies {off:.3g} outside the bracket, more than "
                                f"{_BRACKET_STOP:.3g} |v0|", res.rounds)
    except NoConvergence as exc:
        integ.work["rounds"] = exc.rounds
        raise NoConvergence(f"collocation stage: {exc} ({where})") from None
    integ.work["rounds"] = res.rounds
    seam = float(np.max(np.abs(bvp.conditions(res.y[:, 0], res.y[:, -1], res.v)[:4])))
    return v0, (mid, tangent), seam, res


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


# steps per block of exp_kernel_convolve's scan, at most: on case A's
# lattice (1612 nodes, 3 rows) 16 to 32 steps took the least time
_SCAN_BLOCK = 32
_LOG_MAX = math.log(np.finfo(float).max)


def exp_kernel_convolve(lam, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """I(s_j) = int_{s_0}^{s_j} e^{lam (s_j - tau)} g(tau) dtau on a uniform grid.

    lam is a 1-D array of rates and g the matching stack of rows, one row
    of I per rate; a float lam with a 1-D g is the one-row case.
    Exponentially fitted cubic rule: on each step the kernel is integrated
    exactly against the cubic through g at four nodes (the step's ends and
    one more on each side, moved inward at the grid's ends), so the error is
    O(h^4) times g's fourth derivative.  The stencil's nodes are gathered
    once for all rows, and each of its shifts solves the Lagrange weights of
    every rate at once.  The unconditionally stable recurrence
    I_{j+1} = e^{lam h} I_j + (the step's weights) . g runs as a blocked
    scan: a lower-triangular matmul with entries e^{lam h (i - m)} inside
    blocks of B steps, B such that e^{|lam h| B} stays finite, then a carry
    across the blocks.  It sums in another order than the step-by-step loop
    (tests/test_shooting.py keeps that loop as the oracle): a row moves by
    up to 5e-14 max|I| (lam = 40 over 1611 steps of h = 0.01).
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
    z = rates * h
    width = min(4, size)  # nodes per step's interpolant
    moments = np.array([[math.factorial(m) * phi for m, phi in enumerate(_phis(zr, width))]
                        for zr in z.tolist()])
    top = float(np.max(np.abs(z)))
    block = _SCAN_BLOCK if top * _SCAN_BLOCK < _LOG_MAX else max(1, int(_LOG_MAX / top))
    n_blocks = -(-(size - 1) // block)
    steps = np.arange(size - 1)
    first = np.clip(steps - 1, 0, size - width)  # each step's first node
    shifts = first - steps
    inc = np.zeros((count, n_blocks * block))  # the steps' increments, padded to whole blocks
    for shift in sorted(set(shifts.tolist())):
        # the kernel's moments against the Lagrange basis on the nodes
        # shift, shift + 1, ... (in steps from the step's left end), a
        # column of weights per rate
        nodes = np.arange(shift, shift + width, dtype=float)
        w = h * np.linalg.solve(np.vander(nodes, increasing=True).T, moments.T)
        at = np.flatnonzero(shifts == shift)
        inc[:, at] = np.einsum("rjw,wr->rj", rows[:, first[at, None] + np.arange(width)], w)
    # blocked scan of acc_j = e^z acc_{j-1} + inc_j
    i = np.arange(block)
    power = np.exp(z[:, None] * i)  # e^{z i}, i < block
    weights = np.triu(power[:, np.abs(i[:, None] - i)])  # [r, m, i] = e^{z (i - m)}, m <= i
    local = inc.reshape(count, n_blocks, block) @ weights
    # carry[r, b]: acc at the end of block b - 1, which reaches step i of
    # block b times e^{z (i + 1)}
    carry = []
    for e, ends in zip(np.exp(z * block).tolist(), local[:, :, -1].tolist()):
        acc, row = 0.0, []
        for end in ends:
            row.append(acc)
            acc = e * acc + end
        carry.append(row)
    with np.errstate(over="ignore"):  # past the last step, padding may overflow
        local += np.array(carry)[:, :, None] * (power * np.exp(z)[:, None])[:, None, :]
    return local.reshape(count, -1)[:, : size - 1]


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
