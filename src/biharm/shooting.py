"""Radial shooting solver for Delta^2 phi = phi^p.

The radial problem is integrated as the first-order system

    u' = w,  w' = v - (n-1) w / r,  v' = z,  z' = u^p - (n-1) z / r

(u = phi, v = Laplacian of phi).  Near the origin the regular solution is a
power series in r^2, fixed by phi(0) and v0 = (Laplacian phi)(0); each shot
starts from that series, truncated, at the largest radius up to 1 where the
truncation stays below rounding and no escape event can lie before it.  The
entire positive solution is picked out by a safeguarded root search on v0
between blow-up and sign-loss outcomes.  Integration proceeds in r from
there out to a switch radius and then continues in the logarithmic
variable s = log r on the transformed state (W, W', W'', W''') with
W(s) = e^{m s} phi(e^s), whose linear part has constant coefficients; the
r-chart loses relative precision over many decades while the s-chart is the
natural long-range frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BracketNotFound,
    GridTooCoarse,
    InvalidParams,
    NoConvergence,
    StepFailure,
)
from .fdiff import diff_uniform, stencil_margin
from .ivp import first_entry, solve_ivp, system
from .params import ProblemParams
from .spectrum import Spectrum, compute_spectrum

# Margin of extra s-nodes integrated beyond the nominal grid so that interior
# stencils (up to 9 points wide) cover every nominal node.
_EXT_NODES = 4
# chart geometry
_R_SEED = 1e-3       # lattice start, and the least radius of the series start
_R_SERIES_CAP = 1.0  # largest radius of the series start
_SERIES_ORDER = 24   # the series start keeps r^0 .. r^(2 * _SERIES_ORDER)
_R_SWITCH = 10.0     # hand-off from the r-chart to the s-chart
_R_OVERLAP = 12.0    # end of the r-chart continuation that checks chart consistency
_DS = 0.01           # uniform s-grid spacing of the returned solution

_MAX_BISECT = 240     # root-search trials per stage
_PROBE_LO = -1e3      # most negative v0 probed
_PROBE_HI = -1e-6     # least negative v0 probed
_REFINE_FLOOR = 1e-13  # stage-1 contamination level at a refinement checkpoint
# relative v0 bracket width below which the r_switch state is linear in v0 to
# within the integration noise, so trials are classified from the chord
# (second stage of shoot)
_CHORD_SWITCH = math.sqrt(np.finfo(float).eps)
# A model step lands this share of its length past the predicted root, so the
# far end of the bracket closes too.
_PUSH = 0.02
# this many model steps in a row must halve the bracket, else a midpoint follows
_MODEL_RUN = 2
# |Y|/L below which the solution checks treat a node as unresolved; a dense
# stage-1 shot whose end residue is above it is refined
_RESOLUTION_FLOOR = 1e-10
# accuracy order of the central stencils in the Emden-Fowler residual
_EF_ACC = 4


@dataclass(frozen=True)
class ShootControls:
    """Tolerances for the shooting solver; the integrator's atol is rtol / 100."""

    rtol: float = 1e-12
    target_tol: float = 1e-3    # required |r^m phi(r_max)/L - 1| at r_max


@dataclass(frozen=True)
class BlowUp:
    """Trajectory exceeded the blow-up threshold at radius r."""

    r: float


@dataclass(frozen=True)
class SignLoss:
    """Trajectory crossed zero at radius r."""

    r: float


@dataclass(frozen=True)
class RadialSolution:
    """Entire positive radial solution on matched r- and s-grids.

    The grids share nodes (r = e^s).  W = r^m phi is sampled from the
    integrated states and phi = W / r^m; Y = W - L, and Z = Y' - lam4*Y
    (first derivative taken by interior finite-difference stencils on the
    uniform s-grid).
    """

    params: ProblemParams
    alpha: float
    v0: float
    spectrum: Spectrum
    r_grid: np.ndarray
    phi: np.ndarray
    s_grid: np.ndarray
    W: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    target_residual: float
    error_estimate: float
    chart_overlap_residual: float
    n_bisect: int  # root-search trials of all stages, model steps and midpoints alike


def _power(u, p, cap=None):
    # u^p for the positive branch; trial states may dip below zero transiently,
    # and the magnitude is capped so rejected trial steps cannot overflow
    mag = np.abs(u)
    if cap is not None:
        mag = np.minimum(mag, cap)
    return np.where(u > 0.0, mag**p, 0.0)


class _Series:
    """The regular solution near the origin as a series in x = r^2.

    u = sum_k a_k x^k with a_0 = alpha and a_1 = v0 / (2n) (so u(0) = alpha
    and Delta u(0) = v0), and Delta^2 u = u^p fixes the rest:
    a_{j+2} = [u^p]_j / ((2j+2)(2j+4)(2j+n)(2j+n+2)), the coefficients
    [u^p]_j by J.C.P. Miller's power recurrence.  Truncated at a_K,
    K = _SERIES_ORDER.  The state (u, u', Delta u, (Delta u)') is
    r^e_i P_i(x), e = (0, 1, 0, 1), with the P_i held as coefficient lists.
    """

    def __init__(self, n: int, p: float, alpha: float, v0: float):
        a = [alpha, v0 / (2.0 * n)]
        g = [alpha**p]  # [u^p]_0, [u^p]_1, ...
        for j in range(_SERIES_ORDER - 1):
            if j:
                g.append(sum(((p + 1.0) * i - j) * a[i] * g[j - i] for i in range(1, j + 1)) / (j * alpha))
            a.append(g[j] / ((2 * j + 2) * (2 * j + 4) * (2 * j + n) * (2 * j + n + 2)))
        b = [(2 * j + 2) * (2 * j + n) * a[j + 1] for j in range(_SERIES_ORDER)]  # Delta u
        self.coeffs = (
            a,
            [2 * k * a[k] for k in range(1, len(a))],
            b,
            [2 * j * b[j] for j in range(1, len(b))],
        )

    def state(self, r):
        """(u, u', Delta u, (Delta u)') at r, a float or an array, by Horner in r^2."""
        x = r * r
        out = []
        for i, c in enumerate(self.coeffs):
            acc = c[-1]
            for ck in reversed(c[:-1]):
                acc = acc * x + ck
            out.append(acc * r if i % 2 else acc)
        return out

    def seed_radius(self, m: float, w_max: float, r_cap: float) -> float:
        """The largest r = r_cap 2^(-k/2) >= _R_SEED, else _R_SEED, at which
        the series may start the r-chart leg.

        At x = r^2 every P_i's last two terms |c_k| x^k, which bound its
        truncation error inside the radius of convergence, stay below eps
        times its terms' absolute sum (the rounding of that sum).  With
        S = sum_k |a_k| x^k, a_0 - (S - a_0) > 0 and r^m S < w_max keep u
        positive and r^m u below w_max on all of [0, r], so no terminal
        event of the r-chart lies before the start.
        """
        eps = np.finfo(float).eps
        a0 = self.coeffs[0][0]
        # each P_i's |c_k|, highest order first, for Horner sums
        mags = [[abs(ck) for ck in reversed(c)] for c in self.coeffs]
        x = r_cap * r_cap
        while x > _R_SEED * _R_SEED:
            sums = []
            for c in mags:
                s = 0.0
                for ck in c:
                    s = s * x + ck
                sums.append(s)
                top = x ** (len(c) - 2)
                if max(c[0] * top * x, c[1] * top) > eps * s:
                    break
            else:
                if sums[0] < 2.0 * a0 and x ** (0.5 * m) * sums[0] < w_max:
                    return math.sqrt(x)
            x *= 0.5
        return _R_SEED


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
# scale-aware bound r^m u >= 1.5 L = wcap: the entire solution keeps
# r^m phi < L, so crossing it already identifies the unbounded side.  No raw
# |u| ceiling: at large p, u^p makes the ODE too stiff to follow that far.
_POWER = "((u0 if u0 < cap else cap) ** p if u0 > 0.0 else 0.0)"
_CHARTS = {
    "r": system("rhs_r", ("p", "cap", "nm1", "m", "wcap"),
                ("u1", "u2 - nm1 * u1 / x", "u3", _POWER + " - nm1 * u3 / x"),
                (("sign_loss", "u0", -1), ("amplitude_cross", "x ** m * u0 - wcap", 1))),
    "s": system("rhs_s", ("p", "cap", "c1", "c2", "c3", "c4", "wcap"),
                ("u1", "u2", "u3", _POWER + " - (c1 * u3 + c2 * u2 + c3 * u1 + c4 * u0)"),
                (("sign_loss", "u0", -1), ("amplitude_cross", "u0 - wcap", 1))),
}


class _Integrator:
    """One (n, p, alpha) configuration; integrates arbitrary v0 shots."""

    def __init__(self, params: ProblemParams, alpha: float, controls: ShootControls):
        self.params = params
        self.alpha = alpha
        self.c = controls
        self.n = params.n
        self.p = params.p
        self.m = params.m
        self.pow_cap = 10.0 ** (295.0 / params.p)
        self.spec = compute_spectrum(params)
        self.L = self.spec.L
        # chart -> (right-hand side, its events) on this configuration's
        # constants; the scalar operations match the array form built on
        # _power term for term, so the results are identical
        _, c1, c2, c3, c4 = _s_operator_coeffs(self.n, self.m).tolist()
        common = dict(p=self.p, cap=self.pow_cap, wcap=1.5 * self.L)
        self.rhs_r = _CHARTS["r"](nm1=self.n - 1.0, m=self.m, **common)
        self.rhs_s = _CHARTS["s"](c1=c1, c2=c2, c3=c3, c4=c4, **common)
        self.charts = {"r": (self.rhs_r, self.rhs_r.events), "s": (self.rhs_s, self.rhs_s.events)}

    # --- one leg, one shot ------------------------------------------------
    def series(self, v0: float) -> _Series:
        """The regular solution's series at v0."""
        return _Series(self.n, self.p, self.alpha, v0)

    def start(self, v0: float, r_end: float):
        """(r0, series state at r0): where and from what the r-chart leg to
        r_end starts, r0 at most max(_R_SEED, min(_R_SERIES_CAP, r_end / 2))."""
        series = self.series(v0)
        r0 = series.seed_radius(self.m, 1.5 * self.L, max(_R_SEED, min(_R_SERIES_CAP, 0.5 * r_end)))
        return r0, series.state(r0)

    def leg(self, chart: str, span, y0, dense: bool = False):
        """Integrate one leg of chart "r" or "s" over span; returns (outcome, sol).

        outcome is BlowUp, SignLoss (event radius in r), or the float residual
        W/L - 1 at the end of the span; sol is the solve_ivp result.
        """
        rhs, events = self.charts[chart]
        sol = solve_ivp(
            rhs, span, y0, rtol=self.c.rtol, atol=1e-2 * self.c.rtol,
            events=events, dense_output=dense,
        )
        if sol.status == -1:
            t_fail = float(sol.t[-1])
            r_fail = t_fail if chart == "r" else math.exp(t_fail)
            raise StepFailure(
                f"{chart}-chart step failed at r = {r_fail:.6g}: step size {sol.step:.3g} in "
                f"{chart} is below 10 ulp of {chart} = {t_fail:.17g}, on the leg over {chart} "
                f"in [{span[0]:.6g}, {span[1]:.6g}]"
            )
        if sol.status == 1:
            hit = 1 if sol.t_events[1].size else 0
            t_ev = float(sol.t_events[hit][0])
            r_ev = t_ev if chart == "r" else math.exp(t_ev)
            return (BlowUp if hit else SignLoss)(r=r_ev), sol
        u_end = sol.y[0, -1]
        w_end = span[1] ** self.m * u_end if chart == "r" else u_end
        return float(w_end / self.L - 1.0), sol

    def shot(self, v0: float, r_max: float, dense: bool = False):
        """Integrate one shot from the origin; returns (outcome, sol_r, legs).

        outcome is as for `leg`, at r_max.  sol_r is the r-chart solve_ivp
        result, a leg that ends at min(r_switch, r_max); legs is
        [(log r_switch, s-chart result)], started from sol_r's end state, or
        [] when the shot ended in the r-chart (an outcome before r_switch, or
        r_max <= r_switch).  dense only adds the interpolants: solve_ivp takes
        the same steps either way, so a dense shot replays the plain one.
        """
        r_end = min(_R_SWITCH, r_max)
        r0, y0 = self.start(v0, r_end)
        outcome, sol_r = self.leg("r", (r0, r_end), y0, dense)
        if r_max <= _R_SWITCH or isinstance(outcome, (BlowUp, SignLoss)):
            return outcome, sol_r, []
        w0 = _r_to_s_state(self.n, self.m, _R_SWITCH, sol_r.y[:, -1])
        s_switch = math.log(_R_SWITCH)
        outcome, sol_s = self.leg("s", (s_switch, math.log(r_max)), w0, dense)
        return outcome, sol_r, [(s_switch, sol_s)]


def integrate_radial(
    params: ProblemParams,
    alpha: float,
    v0: float,
    r_max: float,
    controls: ShootControls = ShootControls(),
):
    """Integrate a single shot from the origin with Delta phi(0) = v0.

    Returns a RadialSolution when the trajectory stays positive and bounded to
    r_max, otherwise the BlowUp or SignLoss outcome.  The full solution grids
    require the spectrum, so params must be at or above the critical exponent.
    The shot runs to shoot's classification horizon, so at a solve's v0 (and
    controls) it is that solve's dense rerun, before any refinement stage.
    """
    if alpha <= 0.0:
        raise InvalidParams(f"alpha > 0 required, got {alpha}")
    if r_max <= 0.0:
        raise InvalidParams(f"r_max > 0 required, got {r_max}")
    integ = _Integrator(params, alpha, controls)
    outcome, sol_r, legs = integ.shot(v0, r_max * math.exp((_EXT_NODES + 1) * _DS), dense=True)
    if isinstance(outcome, (BlowUp, SignLoss)):
        return outcome
    return _assemble_solution(integ, v0, r_max, sol_r, legs, n_bisect=0)


def _sample_w(integ, v0, sol_r, legs, s_nodes):
    """Samples of W = r^m phi at s_nodes.

    Nodes below the first s-chart leg come from the r-chart (all of them
    when there is no leg): below the leg's start r0 from the series at v0
    that seeded it, from r0 on from the leg.  Each later leg
    [(s_from, dense), ...] supersedes the earlier ones from its s_from onward.
    """
    out = np.empty(s_nodes.size)
    from_r = s_nodes < legs[0][0] if legs else np.ones(s_nodes.size, dtype=bool)
    if np.any(from_r):
        rr = np.exp(s_nodes[from_r])
        seeded = rr < sol_r.t[0]
        u = np.empty(rr.size)
        u[seeded] = integ.series(v0).state(rr[seeded])[0]
        u[~seeded] = first_entry(sol_r.sol, rr[~seeded].tolist())
        # per node: one vectorized power rounds some entries differently
        out[from_r] = [r**integ.m * u_i for r, u_i in zip(rr, u)]
    remaining = ~from_r
    for s_from, leg in reversed(legs):
        pick = remaining & (s_nodes >= s_from)
        if np.any(pick):
            out[pick] = first_entry(leg.sol, s_nodes[pick].tolist())
            remaining &= ~pick
    return out


def _assemble_solution(integ, v0, r_max, sol_r, legs, n_bisect):
    s_top = math.log(r_max)
    s_bottom = math.log(_R_SEED) + 2.0 * _DS
    n_nodes = int(math.floor((s_top - s_bottom) / _DS)) - _EXT_NODES
    # anchor the lattice at s_top so r_max itself is a node
    s_ext = s_top + _DS * np.arange(-(n_nodes + _EXT_NODES), _EXT_NODES + 1)
    W_ext = _sample_w(integ, v0, sol_r, legs, s_ext)
    lam4 = integ.spec.lambdas[3]
    Y_ext = W_ext - integ.L
    # 4th-order first derivative, endpoints dropped rather than one-sided
    dY = diff_uniform(Y_ext, _DS, 1, acc=4)
    margin_z = (Y_ext.size - dY.size) // 2
    Z_ext = dY - lam4 * Y_ext[margin_z:-margin_z]

    sl = slice(_EXT_NODES, -_EXT_NODES if _EXT_NODES else None)
    s_grid = s_ext[sl]
    W = W_ext[sl]
    Y = Y_ext[sl]
    zoff = _EXT_NODES - margin_z
    Z = Z_ext[zoff : zoff + s_grid.size]

    r_grid = np.exp(s_grid)
    phi = W / r_grid**integ.m

    # chart handoff consistency: an r-chart continuation of the shot's r-chart
    # end state and its s-chart leg both cover [r_switch, r_overlap]; the
    # window starts 2% past r_switch, so a shorter solve has none to measure
    r_lo, r_hi = _R_SWITCH * 1.02, min(_R_OVERLAP, r_max)
    if legs and r_hi > r_lo:
        rr = np.linspace(r_lo, r_hi, 25)
        _, cont = integ.leg("r", (_R_SWITCH, rr[-1]), sol_r.y[:, -1], dense=True)
        w_chart1 = rr**integ.m * cont.sol(rr)[0]
        w_chart2 = legs[0][1].sol(np.log(rr))[0]
        overlap = float(np.max(np.abs(w_chart1 - w_chart2)) / integ.L)
    else:
        overlap = math.nan

    target_residual = float(W[-1] / integ.L - 1.0)
    # bound on the end-value change under re-solving (e.g. halved tolerance):
    # both runs land within their residual floors of the separatrix
    error_estimate = 4.0 * max(abs(target_residual), 100.0 * integ.c.rtol) * integ.L

    arrays = dict(r_grid=r_grid, phi=phi, s_grid=s_grid, W=W, Y=Y, Z=Z)
    for a in arrays.values():
        a.flags.writeable = False
    return RadialSolution(
        params=integ.params,
        alpha=integ.alpha,
        v0=v0,
        spectrum=integ.spec,
        target_residual=target_residual,
        error_estimate=error_estimate,
        chart_overlap_residual=overlap,
        n_bisect=n_bisect,
        **arrays,
    )


class _Best:
    """The survivor with the smallest end residual among one stage's trials,
    each integrated by trial(x) to the horizon s_end, which returns its outcome."""

    def __init__(self, trial, lam4, s_end):
        self.trial, self.lam4, self.s_end = trial, lam4, s_end
        self.x, self.rho = None, math.inf
        self.g = {}  # x -> side(x) of every trial

    def side(self, x) -> float:
        """Escape-law value g at x: g >= 0 on the blow-up side, g < 0 on the
        sign-loss side.

        A survivor's g is its end residual W/L - 1 (the true solution keeps
        Y < 0, so a positive residual means the unstable deviation points up).
        An escape at s_ev left W/L - 1 at amp = 0.5 (blow-up) or -1 (sign
        loss); g carries it to the horizon along the unstable mode,
        amp e^{lam4 (s_end - s_ev)}.  Near the separatrix every escape obeys
        log|x - x*| + lam4 s_ev = K, with one K per side, so on each side g is
        linear in x with its own slope.
        """
        out = self.trial(x)
        if isinstance(out, (BlowUp, SignLoss)):
            amp = 0.5 if isinstance(out, BlowUp) else -1.0
            g = amp * math.exp(min(700.0, self.lam4 * (self.s_end - math.log(out.r))))
        else:
            g = out
            if abs(out) < abs(self.rho):
                self.x, self.rho = x, out
        self.g[x] = g
        return g


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


def _bisect(side, up, dn, done=None, ends=None) -> tuple[int, float, float]:
    """Shrink the bracket between up (side >= 0, blow-up) and dn (side < 0).

    side(x) is an escape-law value as from _Best.side, and ends =
    (side(up), side(dn)) when they are known.  Each trial is a model step
    (_model_point) or a midpoint.  A midpoint is taken when no side has a
    model, when the model step falls outside the bracket, or when the last
    _MODEL_RUN model steps have not halved the bracket, so at worst three
    trials halve it.  Sides of constant magnitude (such as +-1) have no
    slope, and every trial is a midpoint.  Stops when the midpoint rounds
    onto an endpoint, when done(up, dn) holds after a trial, or after
    _MAX_BISECT trials; returns (trials made, up, dn).
    """
    pts = ([], [])  # (x, g) on the blow-up and the sign-loss side, innermost last
    if ends is not None:
        pts[0].append((up, ends[0]))
        pts[1].append((dn, ends[1]))
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
        if done is not None and done(up, dn):
            return steps + 1, up, dn
    return _MAX_BISECT, up, dn


def shoot(
    params: ProblemParams,
    alpha: float = 1.0,
    r_max: float = 1e4,
    controls: ShootControls = ShootControls(),
) -> RadialSolution:
    """Find the entire positive solution with phi(0) = alpha by a root search
    on v0.

    Every stage shrinks a (blow-up, sign-loss) bracket with _bisect: model
    steps on the escape law of _Best.side, kept safe by midpoints.
    (1) v0 search: a geometric ladder of negative v0 values gives the
    bracket, which is shrunk with full shots from the origin until it is
    narrower than _CHORD_SWITCH relative to v0.  (2) Chord stage: the
    s-chart start state at r_switch is then linear in v0 to within the
    integration noise, so each further trial is classified by one s-chart
    leg from the chord between the bracket ends' start states, with no
    r-chart leg, until the bracket collapses to adjacent floats; those two
    floats get full shots.  When no full shot has survived, full shots
    continue on the bracket their outcomes leave.  The accepted v0 is the
    full-shot survivor with the smallest end residual |r^m phi(r_max)/L - 1|.
    Its dense rerun, integrate_radial(v0), replays that classifying shot
    step for step, so it ends on the same residual.  (3) Refinement, all or nothing: when that
    residual is above _RESOLUTION_FLOOR, where the solution checks
    would see it, the search restarts along the unstable eigenvector from
    checkpoints until a stage makes no progress (at most 5 stages);
    otherwise none runs.  Each stage opens with the linearised step along
    the mode and stops at its checkpoint's ulp noise floor (see
    _refine_unstable): trials past that floor only redraw the noise.
    Stages 1 and 2 collapse fully, so v0 does not depend on refinement.
    """
    if alpha <= 0.0:
        raise InvalidParams(f"alpha > 0 required, got {alpha}")
    if r_max <= _R_SEED:
        raise InvalidParams(f"r_max={r_max} must exceed the lattice start r = {_R_SEED:g}")
    integ = _Integrator(params, alpha, controls)
    lam4 = integ.spec.lambdas[3]
    # classification horizon covers the stencil extension of the final grids
    r_cls = r_max * math.exp((_EXT_NODES + 1) * _DS)
    s_cls = math.log(r_cls)

    # exact scale covariance maps (alpha=1, v0) -> (kappa^m, kappa^{m+2} v0)
    v_scale = alpha ** ((params.m + 2.0) / params.m)
    ladder = -np.geomspace(-_PROBE_HI, -_PROBE_LO, 2 * 9 + 1) * v_scale

    starts = {}  # v0 -> s-chart start state at r_switch of its full shot

    def full_shot(v0):
        outcome, _, legs = integ.shot(v0, r_cls)
        if legs:
            starts[v0] = legs[0][1].y[:, 0]
        return outcome

    best = _Best(full_shot, lam4, s_cls)
    # binary search the ladder for the adjacent flip pair, with ladder[0] on
    # the blow-up side and ladder[-1] on the sign-loss side; an end is shot
    # only when the search ends beside it
    i, j = 0, ladder.size - 1
    while j - i > 1:
        k = (i + j) // 2
        if best.side(ladder[k]) >= 0.0:
            i = k
        else:
            j = k
    if (i == 0 and best.side(ladder[0]) < 0.0) or (
        j == ladder.size - 1 and best.side(ladder[-1]) >= 0.0
    ):
        raise BracketNotFound(
            "probe ladder endpoints do not bracket the separatrix in v0 range "
            f"[{ladder[-1]:.3g}, {ladder[0]:.3g}]"
        )
    up, dn = ladder[i], ladder[j]

    def chord_ready(up, dn):
        return abs(up - dn) < _CHORD_SWITCH * abs(up) and up in starts and dn in starts

    n_iter, up, dn = _bisect(best.side, up, dn, done=chord_ready, ends=(best.g[up], best.g[dn]))
    if chord_ready(up, dn):  # stage 1 stopped on the chord condition, not on collapse
        up1, dn1 = up, dn
        # a chord trial at an end starts from that end's own state: same g
        chord = _Best(_chord_trial(integ, starts, up, dn, r_cls), lam4, s_cls)
        used, up, dn = _bisect(chord.side, up, dn, ends=(best.g[up], best.g[dn]))
        n_iter += used
        for v0 in (up, dn):
            if v0 not in starts:
                best.side(v0)
        if best.x is None:
            # The chord's pair need not be a full-shot bracket: both floats
            # may escape to one side.  Full shots then continue on the
            # bracket their outcomes leave, the pair end on the one side and
            # stage 1's end on the other.
            if best.g[dn] >= 0.0:
                up, dn = dn, dn1
            elif best.g[up] < 0.0:
                up, dn = up1, up
            used, up, dn = _bisect(best.side, up, dn, ends=(best.g[up], best.g[dn]))
            n_iter += used
    if best.x is None:
        raise NoConvergence(
            f"no trajectory reached r_max={r_max:g}: the v0 root search ended after "
            f"{n_iter} trials on the bracket [{dn:.17g}, {up:.17g}] (sign-loss end "
            f"first), where full shots give escape-law values g = "
            f"{best.g[dn]:.3g}, {best.g[up]:.3g}"
        )

    # the dense rerun replays best.x's classifying full shot step for step
    _, sol_r, legs = integ.shot(best.x, r_cls, dense=True)
    rho = best.rho

    # Iterated unstable-direction refinement: each stage restarts the root
    # search from a checkpoint state, lowering the e^{lam4 s} residue floor
    # that v0 (and then each checkpoint state) can resolve through its ulp.
    # All or nothing: stage-1 rho is ulp-level noise in v0, so once the
    # checks could see it, stages run until one makes no progress.
    if legs and abs(rho) > _RESOLUTION_FLOOR:
        while len(legs[1:]) < 5:
            refined = _refine_unstable(integ, legs, rho, r_cls)
            if refined is None:
                break
            s_c, leg, rho, used = refined
            legs.append((s_c, leg))
            n_iter += used

    if abs(rho) > controls.target_tol:
        raise NoConvergence(
            f"best trajectory misses the target: |W/L - 1| = {abs(rho):.3g} > "
            f"{controls.target_tol:g} at r_max={r_max:g} after {len(legs[1:])} refinement stages"
        )
    return _assemble_solution(integ, best.x, r_max, sol_r, legs, n_bisect=n_iter)


def _chord_trial(integ, starts, up, dn, r_cls):
    """Outcome at r_cls of a v0 in [dn, up] from the chord state
    y_dn + (v0 - dn)/(up - dn) (y_up - y_dn) at r_switch: one s-chart leg,
    with no r-chart integration."""
    y_up, y_dn = starts[up], starts[dn]
    span = (math.log(_R_SWITCH), math.log(r_cls))
    return lambda v0: integ.leg("s", span, y_dn + (v0 - dn) / (up - dn) * (y_up - y_dn))[0]


def _refine_unstable(integ, legs, rho1, r_cls):
    """One refinement stage from a checkpoint along the unstable direction.

    Perturbs the state of the last leg at a checkpoint past its start by
    mu * e4 (e4 the unstable eigenvector of the constant-coefficient linear
    part at the fixed point) and runs the root search on mu over the
    remaining range.  Along the mode the end residual is rho1 + G mu, with
    G = e4[0] e^{lam4 (s_end - s_c)} / L, and rho1 is the known value at
    mu = 0, so the bracket opens from mu = 0 with the linearised step
    mu1 = -(1 + _PUSH) rho1 / G.  When mu1 falls short (same side as rho1)
    one secant step through (0, rho1) and (mu1, g1) follows.  The search
    stops at the checkpoint's noise floor eta = eps e^{lam4 (s_end - s_c)},
    what one ulp of the checkpoint state grows to by s_end: once a survivor
    has |rho| < eta, or the bracket mapped through G is narrower than eta.
    When neither opening step brackets, the stage ends on their better
    survivor.  The checkpoint is clamped to the earliest allowed lattice node
    when the residue is too large to decay to the floor past it.  Returns
    (s_c, dense leg, end residual, iterations used) or None when no
    checkpoint is left or no trial lowered |rho| below |rho1|.
    """
    lam4 = integ.spec.lambdas[3]
    s_end = math.log(r_cls)
    contam = max(abs(rho1), 1e-15)
    # place the checkpoint where the current residue has decayed to the floor,
    # keeping the state perturbation (hence the grid seam) at harmless size
    s_c = s_end - math.log(contam / _REFINE_FLOOR) / lam4
    s_c = s_end - _DS * round((s_end - s_c) / _DS)  # snap to the output lattice
    s_prev, last = legs[-1]
    # clamp to the earliest lattice node at least 0.5 past the chart switch and
    # strictly more than 0.1 past the last leg's start (half a node of slack)
    s_lo = max(math.log(_R_SWITCH) + 0.5, s_prev + 0.1 + 0.5 * _DS)
    s_c = max(s_c, s_end - _DS * math.floor((s_end - s_lo) / _DS))
    if s_c > s_end - 1.0:
        return None
    y_c = last.sol(s_c)
    e4 = np.array([1.0, lam4, lam4**2, lam4**3])
    e4 /= np.linalg.norm(e4)
    best = _Best(lambda mu: integ.leg("s", (s_c, s_end), y_c + mu * e4)[0], lam4, s_end)
    growth = math.exp(lam4 * (s_end - s_c))
    gain = e4[0] * growth / integ.L  # d rho / d mu
    eta = np.finfo(float).eps * growth  # one ulp of the checkpoint state, grown to s_end

    def done(up, dn):
        return best.x is not None and (abs(best.rho) < eta or abs(up - dn) * gain < eta)

    # linearised step from mu = 0 (value rho1), _PUSH past the root
    up_side = rho1 >= 0.0
    near = (0.0, rho1)  # the bracket end on rho1's side
    mu = -(1.0 + _PUSH) * rho1 / gain
    g = best.side(mu)
    if (g >= 0.0) == up_side and g != rho1:  # short: one secant step
        near = (mu, g)
        mu -= (1.0 + _PUSH) * g * mu / (g - rho1)
        g = best.side(mu)
    if (g >= 0.0) != up_side:
        (up, g_up), (dn, g_dn) = (near, (mu, g)) if up_side else ((mu, g), near)
        if not done(up, dn):
            _bisect(best.side, up, dn, done=done, ends=(g_up, g_dn))
    used = len(best.g)
    if best.x is None or abs(best.rho) >= abs(rho1):
        return None
    # the dense leg replays the accepted trial
    _, leg = integ.leg("s", (s_c, s_end), y_c + best.x * e4, dense=True)
    return s_c, leg, best.rho, used


def rescale_solution(sol: RadialSolution, alpha: float) -> RadialSolution:
    """Map a solution to a different initial height by exact scale covariance.

    If phi solves the equation then kappa^m phi(kappa r) solves it with initial
    height kappa^m phi(0); the s-grid shifts by -log(kappa) and W, Y, Z are
    unchanged pointwise.
    """
    if alpha <= 0.0:
        raise InvalidParams(f"alpha > 0 required, got {alpha}")
    m = sol.params.m
    kappa = (alpha / sol.alpha) ** (1.0 / m)
    shift = math.log(kappa)
    arrays = dict(
        r_grid=sol.r_grid / kappa,
        phi=sol.phi * kappa**m,
        s_grid=sol.s_grid - shift,
        W=sol.W.copy(),
        Y=sol.Y.copy(),
        Z=sol.Z.copy(),
    )
    for a in arrays.values():
        a.flags.writeable = False
    return replace(
        sol,
        alpha=alpha,
        v0=sol.v0 * kappa ** (m + 2.0),
        **arrays,
    )


def emden_fowler_residual(sol: RadialSolution) -> float:
    """Residual of Q4(m - d/ds) W - W^p by interior central stencils.

    Expands the operator into derivative coefficients of orders 0..4, applies
    order-_EF_ACC central differences on the uniform s-grid, and returns the
    maximum interior residual normalized by max(W^p).
    """
    s, W = sol.s_grid, sol.W
    h = s[1] - s[0]
    if not np.allclose(np.diff(s), h, rtol=1e-9):
        raise InvalidParams("s-grid must be uniform for stencil differentiation")
    margin = stencil_margin(4, _EF_ACC)
    if s.size - 2 * margin < 9:
        raise GridTooCoarse(
            f"{s.size} nodes leave fewer than 9 interior points for order-{_EF_ACC} stencils"
        )
    coeffs = _s_operator_coeffs(sol.params.n, sol.params.m)  # [1, -e1, e2, -e3, e4]
    n_int = s.size - 2 * margin
    total = coeffs[4] * W[margin:-margin]
    for d in range(1, 5):
        dW = diff_uniform(W, h, d, acc=_EF_ACC)
        half = (W.size - dW.size) // 2
        off = margin - half
        total = total + coeffs[4 - d] * dW[off : off + n_int]
    forcing = _power(W[margin:-margin], sol.params.p)
    return float(np.max(np.abs(total - forcing)) / np.max(forcing))


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


def exp_kernel_convolve(lam: float, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """I(s_j) = int_{s_0}^{s_j} e^{lam (s_j - tau)} g(tau) dtau on a uniform grid.

    Exponentially fitted cubic rule: on each step the kernel is integrated
    exactly against the cubic through g at four nodes (the step's ends and
    one more on each side, moved inward at the grid's ends), so the error is
    O(h^4) times g's fourth derivative.  Unconditionally stable recursion
    I_{j+1} = e^{lam h} I_j + (the step's weights) . g.
    """
    h = float(s[1] - s[0])
    z = lam * h
    size = g.size
    width = min(4, size)  # nodes per step's interpolant
    moments = [math.factorial(m) * phi for m, phi in enumerate(_phis(z, width))]
    steps = np.arange(size - 1)
    first = np.clip(steps - 1, 0, size - width)  # each step's first node
    shifts = first - steps
    inc = np.empty(size - 1)
    for shift in np.unique(shifts).tolist():
        # the kernel's moments against the Lagrange basis on the nodes
        # shift, shift + 1, ... (in steps from the step's left end)
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


def y_integral_identity_check(sol: RadialSolution, spec: Spectrum | None = None) -> float:
    """Deviation of Y from -int_s^inf e^{lam4 (s - tau)} Z(tau) dtau.

    The quadrature runs to the truncation point where |Z| falls below
    1e-12 * max|Z|; beyond it an analytic tail assuming pure e^{lam3 tau}
    decay is added.  Returns the maximum deviation over the probe window,
    normalized by max|Y| there.
    """
    if spec is None:
        spec = sol.spectrum
    lam3, lam4 = spec.lambdas[2], spec.lambdas[3]
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
        raise InvalidParams("probe window contains no resolved nodes")
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
        raise InvalidParams("no resolved nodes: Y below the noise floor everywhere")
    return int(below[0]) - 1


def check_positivity(sol: RadialSolution) -> bool:
    """phi > 0 on the entire grid."""
    return bool(np.all(sol.phi > 0.0))


def check_monotone_y(sol: RadialSolution, floor_rel: float = _RESOLUTION_FLOOR) -> bool:
    """Y negative and nondecreasing at every node of the resolved s-range."""
    top = resolved_top_index(sol, floor_rel)
    Y = sol.Y[: top + 1]
    return bool(np.all(Y < 0.0) and np.all(np.diff(Y) >= 0.0))


def decay_slope(sol: RadialSolution, critical: bool | None = None) -> float:
    """Log-slope of |Y| (or |Y|/s at the critical exponent) over the last
    resolved decade of r; compares against lam3 downstream."""
    if critical is None:
        critical = sol.spectrum.degenerate
    top = resolved_top_index(sol, floor_rel=1e-9)
    s_hi = sol.s_grid[top]
    s_lo = s_hi - math.log(10.0)
    mask = (sol.s_grid >= s_lo) & (sol.s_grid <= s_hi)
    s = sol.s_grid[mask]
    val = np.abs(sol.Y[mask])
    if critical:
        if np.any(s <= 0.0):
            raise InvalidParams("resolved decade must lie at positive s for the log-corrected slope")
        val = val / s
    coef = np.polyfit(s, np.log(val), 1)
    return float(coef[0])


_DUMP_ROW = ",".join(["%.17g"] * 6) + "\n"


def dump_solution(sol: RadialSolution, fh) -> None:
    """Write the delimited solution dump: one row per s-node, full precision."""
    cols = (sol.s_grid, sol.r_grid, sol.phi, sol.W, sol.Y, sol.Z)
    rows = zip(*(c.tolist() for c in cols))
    fh.write("s,r,phi,W,Y,Z\n" + "".join(_DUMP_ROW % row for row in rows))
