"""Radial shooting solver for Delta^2 phi = phi^p.

The radial problem is integrated as the first-order system

    u' = w,  w' = v - (n-1) w / r,  v' = z,  z' = u^p - (n-1) z / r

(u = phi, v = Laplacian of phi) with a regular Taylor start at r = eps.  The
entire positive solution is picked out by bisecting on v0 = (Laplacian phi)(0)
between blow-up and sign-loss outcomes.  Integration proceeds in r out to a
switch radius and then continues in the logarithmic variable s = log r on the
transformed state (W, W', W'', W''') with W(s) = e^{m s} phi(e^s), whose linear
part has constant coefficients; the r-chart loses relative precision over many
decades while the s-chart is the natural long-range frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    BracketNotFound,
    GridTooCoarse,
    InvalidParams,
    NoConvergence,
    StepFailure,
)
from .fdiff import diff_uniform, stencil_margin
from .params import ProblemParams
from .spectrum import Spectrum, compute_spectrum, q4_eval

# Margin of extra s-nodes integrated beyond the nominal grid so that interior
# stencils (up to 9 points wide) cover every nominal node.
_EXT_NODES = 4


@dataclass(frozen=True)
class ShootControls:
    """Tolerances and thresholds for the shooting solver.

    Blow-up is detected by the amplitude bound r^m phi >= 1.5 L alone; there
    is no raw |phi| ceiling and so no blow-up factor to tune.
    """

    r_seed: float = 1e-3        # Taylor seed radius
    r_switch: float = 10.0      # hand-off from the r-chart to the s-chart
    r_overlap: float = 12.0     # r-chart extends this far for the chart-consistency check
    rtol: float = 1e-12
    atol: float = 1e-14
    ds: float = 0.01            # uniform s-grid spacing of the returned solution
    target_tol: float = 1e-3    # required |r^m phi(r_max)/L - 1| at r_max
    max_bisect: int = 240
    probe_lo: float = -1e3      # most negative v0 probed
    probe_hi: float = -1e-6     # least negative v0 probed
    method: str = "DOP853"
    # Second bisection stage along the unstable eigendirection from a
    # checkpoint inside the s-chart.  v0 is only resolvable to its ulp, which
    # leaves an unstable-mode residue ~ ulp * e^{lam4 * s}; restarting the
    # bisection from a checkpoint state removes that floor.
    refine_unstable: bool = True
    refine_floor: float = 1e-13  # stage-1 contamination level at the checkpoint


@dataclass(frozen=True)
class BlowUp:
    """Trajectory exceeded the blow-up threshold at radius r."""

    r: float
    value: float


@dataclass(frozen=True)
class SignLoss:
    """Trajectory crossed zero at radius r."""

    r: float


@dataclass(frozen=True)
class RadialSolution:
    """Entire positive radial solution on matched r- and s-grids.

    The grids share nodes (r = e^s).  phi, dphi, lap, dlap are phi and its
    radial derivative, Laplacian, and Laplacian derivative; W = r^m phi,
    Y = W - L, and Z = Y' - lam4*Y (first derivative taken by interior
    finite-difference stencils on the uniform s-grid).
    """

    params: ProblemParams
    alpha: float
    v0: float
    spectrum: Spectrum
    r_grid: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    lap: np.ndarray
    dlap: np.ndarray
    s_grid: np.ndarray
    W: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    target_residual: float
    error_estimate: float
    chart_overlap_residual: float
    n_bisect: int


def _power(u, p, cap=None):
    # u^p for the positive branch; trial states may dip below zero transiently,
    # and the magnitude is capped so rejected trial steps cannot overflow
    mag = np.abs(u)
    if cap is not None:
        mag = np.minimum(mag, cap)
    return np.where(u > 0.0, mag**p, 0.0)


def _taylor_seed(n: int, p: float, alpha: float, v0: float, r: float):
    c2 = 1.0 / (2.0 * n)
    c4 = 1.0 / (8.0 * n * (n + 2.0))
    ap = alpha**p
    u = alpha + v0 * c2 * r**2 + ap * c4 * r**4
    w = v0 * r / n + ap * r**3 / (2.0 * n * (n + 2.0))
    v = v0 + ap * c2 * r**2 + p * alpha ** (p - 1.0) * v0 * c4 * r**4
    z = ap * r / n + p * alpha ** (p - 1.0) * v0 * r**3 / (2.0 * n * (n + 2.0))
    return np.array([u, w, v, z])


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


def _s_to_radial_fields(n: int, m: float, s: np.ndarray, Wst: np.ndarray):
    """Map (W, W', W'', W''') samples back to (phi, phi', lap, dlap)."""
    r = np.exp(s)
    rm = r**m
    V0, V1, V2, V3 = Wst / rm
    ru = V1 - m * V0
    r2uu = V2 - (2.0 * m + 1.0) * V1 + m * (m + 1.0) * V0
    r3uuu = (
        V3
        - (3.0 * m**2 + 3.0 * m + 1.0) * ru
        - (3.0 * m + 3.0) * r2uu
        - m**3 * V0
    )
    u = V0
    du = ru / r
    ddu = r2uu / r**2
    dddu = r3uuu / r**3
    lap = ddu + (n - 1.0) * du / r
    dlap = dddu + (n - 1.0) * ddu / r - (n - 1.0) * du / r**2
    return u, du, lap, dlap


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
        self.L = math.exp(math.log(q4_eval(self.n, self.m)) / (params.p - 1.0))
        # Python floats for the right-hand sides, which run on scalars
        self.nm1 = self.n - 1.0
        _, self.c1, self.c2, self.c3, self.c4 = _s_operator_coeffs(self.n, self.m).tolist()
        self.events_r = self._events_r()
        self.events_s = self._events_s()

    # --- right-hand sides -------------------------------------------------
    # Scalar math: the states have four entries, where numpy's per-call
    # overhead dominates.  The operations match the array form built on
    # _power term for term, so the results are identical.
    def rhs_r(self, r, y):
        u, w, v, z = y.tolist()
        nm1 = self.nm1
        up = min(u, self.pow_cap) ** self.p if u > 0.0 else 0.0
        return (w, v - nm1 * w / r, z, up - nm1 * z / r)

    def rhs_s(self, s, y):
        w0, w1, w2, w3 = y.tolist()
        up = min(w0, self.pow_cap) ** self.p if w0 > 0.0 else 0.0
        return (w1, w2, w3, up - (self.c1 * w3 + self.c2 * w2 + self.c3 * w1 + self.c4 * w0))

    # --- events -----------------------------------------------------------
    # Blow-up is the scale-aware bound r^m u >= 1.5 L: the entire solution
    # keeps r^m phi < L, so crossing it already identifies the unbounded side.
    # A raw |u| ceiling is not used: at large p, u^p makes the ODE too stiff
    # to follow that far.  Events are [sign_loss, amplitude_cross].
    def _events_r(self):
        def sign_loss(r, y):
            return y[0]

        def amplitude_cross(r, y):
            return r**self.m * y[0] - 1.5 * self.L

        for ev, d in ((sign_loss, -1), (amplitude_cross, 1)):
            ev.terminal = True
            ev.direction = d
        return [sign_loss, amplitude_cross]

    def _events_s(self):
        def sign_loss(s, y):
            return y[0]

        def amplitude_cross(s, y):
            return y[0] - 1.5 * self.L

        for ev, d in ((sign_loss, -1), (amplitude_cross, 1)):
            ev.terminal = True
            ev.direction = d
        return [sign_loss, amplitude_cross]

    # --- single shot ------------------------------------------------------
    def shot(self, v0: float, r_max: float, dense: bool = False):
        """Integrate one shot; returns (outcome, sol_r, sol_s).

        outcome is BlowUp, SignLoss, or the float residual r^m phi / L - 1 at
        the end of the range.  sol_r / sol_s are the solve_ivp results (sol_s
        is None when r_max <= r_switch).
        """
        c = self.c
        r_end1 = min(c.r_overlap if dense else c.r_switch, r_max)
        y0 = _taylor_seed(self.n, self.p, self.alpha, v0, c.r_seed)
        sol_r = solve_ivp(
            self.rhs_r,
            (c.r_seed, r_end1),
            y0,
            method=c.method,
            rtol=c.rtol,
            atol=c.atol,
            events=self.events_r,
            dense_output=dense,
        )
        if sol_r.status == -1:
            raise StepFailure(f"r-chart integration failed: {sol_r.message}")
        if sol_r.status == 1:
            if sol_r.t_events[1].size:
                r_ev = float(sol_r.t_events[1][0])
                return BlowUp(r=r_ev, value=float(sol_r.y_events[1][0][0])), sol_r, None
            r_ev = float(sol_r.t_events[0][0])
            if r_ev <= c.r_switch or not dense:
                return SignLoss(r=r_ev), sol_r, None
            # event in the overlap zone: the s-chart run below decides first

        if r_max <= c.r_switch:
            u = sol_r.y[0, -1]
            rho = r_max**self.m * u / self.L - 1.0
            return float(rho), sol_r, None

        y_sw = sol_r.sol(c.r_switch) if dense else sol_r.y[:, -1]
        w0 = _r_to_s_state(self.n, self.m, c.r_switch, y_sw)
        outcome, sol_s = self.integrate_s(math.log(c.r_switch), w0, math.log(r_max), dense)
        return outcome, sol_r, sol_s

    def integrate_s(self, s_from: float, y_from, s_to: float, dense: bool = False):
        """s-chart leg from (s_from, state) to s_to; same outcome vocabulary."""
        sol_s = solve_ivp(
            self.rhs_s,
            (s_from, s_to),
            y_from,
            method=self.c.method,
            rtol=self.c.rtol,
            atol=self.c.atol,
            events=self.events_s,
            dense_output=dense,
        )
        if sol_s.status == -1:
            raise StepFailure(f"s-chart integration failed: {sol_s.message}")
        if sol_s.status == 1:
            if sol_s.t_events[1].size:
                s_ev = float(sol_s.t_events[1][0])
                return BlowUp(r=math.exp(s_ev), value=float(sol_s.y_events[1][0][0])), sol_s
            s_ev = float(sol_s.t_events[0][0])
            return SignLoss(r=math.exp(s_ev)), sol_s
        rho = sol_s.y[0, -1] / self.L - 1.0
        return float(rho), sol_s


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
    """
    if alpha <= 0.0:
        raise InvalidParams(f"alpha > 0 required, got {alpha}")
    if r_max <= 0.0:
        raise InvalidParams(f"r_max > 0 required, got {r_max}")
    spec = compute_spectrum(params)
    integ = _Integrator(params, alpha, controls)
    outcome, sol_r, sol_s = integ.shot(v0, r_max * math.exp((_EXT_NODES + 1) * controls.ds), dense=True)
    if isinstance(outcome, (BlowUp, SignLoss)):
        return outcome
    return _assemble_solution(
        integ, spec, v0, r_max, sol_r, sol_s,
        target_residual=math.nan, n_bisect=0,
    )


def _sample_phase_states(integ, sol_r, sol_s, s_nodes, segments=()):
    """State samples (4, len(s_nodes)) in s-chart form.

    Nodes below log(r_switch) come from the r-chart, the rest from the
    s-chart; refinement `segments` [(s_c, dense), ...] supersede earlier
    legs from their checkpoint onward.
    """
    c = integ.c
    s_switch = math.log(c.r_switch)
    out = np.empty((4, s_nodes.size))
    from_r = s_nodes < s_switch if sol_s is not None else np.ones(s_nodes.size, dtype=bool)
    if np.any(from_r):
        rr = np.exp(s_nodes[from_r])
        ys = sol_r.sol(rr)
        out[:, from_r] = np.stack(
            [_r_to_s_state(integ.n, integ.m, r, ys[:, i]) for i, r in enumerate(rr)],
            axis=1,
        )
    remaining = ~from_r
    for s_c, seg in reversed(list(segments)):
        pick = remaining & (s_nodes >= s_c)
        if np.any(pick):
            out[:, pick] = seg.sol(s_nodes[pick])
            remaining &= ~pick
    if sol_s is not None and np.any(remaining):
        out[:, remaining] = sol_s.sol(s_nodes[remaining])
    return out


def _assemble_solution(
    integ, spec, v0, r_max, sol_r, sol_s, target_residual, n_bisect, segments=(),
):
    c = integ.c
    ds = c.ds
    s_top = math.log(r_max)
    s_bottom = math.log(c.r_seed) + 2.0 * ds
    n_nodes = int(math.floor((s_top - s_bottom) / ds)) - _EXT_NODES
    # anchor the lattice at s_top so r_max itself is a node
    s_ext = s_top + ds * np.arange(-(n_nodes + _EXT_NODES), _EXT_NODES + 1)
    states = _sample_phase_states(integ, sol_r, sol_s, s_ext, segments)
    W_ext = states[0]
    lam4 = spec.lambdas[3]
    Y_ext = W_ext - integ.L
    # 4th-order first derivative, endpoints dropped rather than one-sided
    dY = diff_uniform(Y_ext, ds, 1, acc=4)
    margin_z = (Y_ext.size - dY.size) // 2
    Z_ext = dY - lam4 * Y_ext[margin_z:-margin_z]

    sl = slice(_EXT_NODES, -_EXT_NODES if _EXT_NODES else None)
    s_grid = s_ext[sl]
    W = W_ext[sl]
    Y = Y_ext[sl]
    zoff = _EXT_NODES - margin_z
    Z = Z_ext[zoff : zoff + s_grid.size]

    phi, dphi, lap, dlap = _s_to_radial_fields(integ.n, integ.m, s_grid, states[:, sl])
    r_grid = np.exp(s_grid)

    # chart handoff consistency: both charts integrate [r_switch, r_overlap]
    if sol_s is not None and c.r_overlap > c.r_switch:
        rr = np.linspace(c.r_switch * 1.02, min(c.r_overlap, r_max), 25)
        w_chart1 = rr**integ.m * sol_r.sol(rr)[0]
        w_chart2 = sol_s.sol(np.log(rr))[0]
        overlap = float(np.max(np.abs(w_chart1 - w_chart2)) / integ.L)
    else:
        overlap = math.nan

    if math.isnan(target_residual):
        target_residual = float(W[-1] / integ.L - 1.0)
    # bound on the end-value change under re-solving (e.g. halved tolerance):
    # both runs land within their residual floors of the separatrix
    error_estimate = 4.0 * max(abs(target_residual), 100.0 * c.rtol) * integ.L

    arrays = dict(
        r_grid=r_grid, phi=phi, dphi=dphi, lap=lap, dlap=dlap,
        s_grid=s_grid, W=W, Y=Y, Z=Z,
    )
    for a in arrays.values():
        a.flags.writeable = False
    return RadialSolution(
        params=integ.params,
        alpha=integ.alpha,
        v0=v0,
        spectrum=spec,
        target_residual=target_residual,
        error_estimate=error_estimate,
        chart_overlap_residual=overlap,
        n_bisect=n_bisect,
        **arrays,
    )


def _side_of(outcome) -> int:
    """Side of the separatrix: +1 blow-up side, -1 sign-loss side.

    Survivors carry a side too: the sign of the end residual W/L - 1 (the
    true solution keeps Y < 0, so a positive residual means the unstable
    deviation points up).
    """
    if isinstance(outcome, BlowUp):
        return 1
    if isinstance(outcome, SignLoss):
        return -1
    return 1 if outcome >= 0.0 else -1


def shoot(
    params: ProblemParams,
    alpha: float = 1.0,
    r_max: float = 1e4,
    controls: ShootControls = ShootControls(),
) -> RadialSolution:
    """Find the entire positive solution with phi(0) = alpha by bisection on v0.

    Probes a geometric ladder of negative v0 values for a (blow-up, sign-loss)
    bracket, then bisects until the bracket collapses to rounding, keeping the
    surviving trajectory with the smallest end residual |r^m phi(r_max)/L - 1|.
    Collapsing fully (rather than stopping at the first acceptable residual)
    also minimizes the unstable-mode contamination that downstream fits see.
    """
    if alpha <= 0.0:
        raise InvalidParams(f"alpha > 0 required, got {alpha}")
    if r_max <= controls.r_seed:
        raise InvalidParams(f"r_max={r_max} must exceed the seed radius")
    spec = compute_spectrum(params)
    integ = _Integrator(params, alpha, controls)
    c = controls
    # classification horizon covers the stencil extension of the final grids
    r_cls = r_max * math.exp((_EXT_NODES + 1) * c.ds)

    # exact scale covariance maps (alpha=1, v0) -> (kappa^m, kappa^{m+2} v0)
    v_scale = alpha ** ((params.m + 2.0) / params.m)
    ladder = -np.geomspace(-c.probe_hi, -c.probe_lo, 2 * 9 + 1) * v_scale

    n_iter = 0
    best_v0 = None
    best_rho = math.inf  # smallest end residual among trajectories reaching r_cls

    def side(v0):
        nonlocal best_v0, best_rho
        out, _, _ = integ.shot(v0, r_cls, dense=False)
        if not isinstance(out, (BlowUp, SignLoss)) and abs(out) < abs(best_rho):
            best_v0, best_rho = v0, out
        return _side_of(out)

    if side(ladder[0]) != 1 or side(ladder[-1]) != -1:
        raise BracketNotFound(
            "probe ladder endpoints do not bracket the separatrix in v0 range "
            f"[{ladder[-1]:.3g}, {ladder[0]:.3g}]"
        )
    # binary search the ladder for the adjacent flip pair
    i, j = 0, ladder.size - 1
    while j - i > 1:
        k = (i + j) // 2
        if side(ladder[k]) > 0:
            i = k
        else:
            j = k
    v_up, v_dn = ladder[i], ladder[j]  # blow-up side, sign-loss side

    while n_iter < c.max_bisect:
        mid = 0.5 * (v_up + v_dn)
        if mid == v_up or mid == v_dn:
            break
        n_iter += 1
        if side(mid) > 0:
            v_up = mid
        else:
            v_dn = mid
    if best_v0 is None:
        raise NoConvergence(
            f"no trajectory reached r_max={r_max:g}; bisection collapsed after "
            f"{n_iter} steps between blow-up and sign-loss"
        )

    outcome, sol_r, sol_s = integ.shot(best_v0, r_cls, dense=True)
    if isinstance(outcome, (BlowUp, SignLoss)):
        # dense rerun must match the classification pass
        raise NoConvergence("accepted trajectory regressed on the dense rerun")
    rho = float(outcome)

    # Iterated unstable-direction refinement: each stage restarts the
    # bisection from a checkpoint state, lowering the e^{lam4 s} residue floor
    # that v0 (and then each checkpoint state) can resolve through its ulp.
    segments: list[tuple[float, object]] = []
    if c.refine_unstable and sol_s is not None:
        s_prev = -math.inf
        while len(segments) < 5 and abs(rho) > 0.1 * c.target_tol:
            def sample_state(s):
                for s_c, seg in reversed(segments):
                    if s >= s_c:
                        return seg.sol(s)
                return sol_s.sol(s)

            refined = _refine_unstable(integ, spec, sample_state, rho, r_cls, s_prev)
            if refined is None:
                break
            seg, s_c, rho_new, used = refined
            segments.append((s_c, seg))
            rho, s_prev = rho_new, s_c
            n_iter += used

    if abs(rho) > c.target_tol:
        raise NoConvergence(
            f"best trajectory misses the target: |W/L - 1| = {abs(rho):.3g} > "
            f"{c.target_tol:g} at r_max={r_max:g} after {len(segments)} refinement stages"
        )
    return _assemble_solution(
        integ, spec, best_v0, r_max, sol_r, sol_s,
        target_residual=math.nan, n_bisect=n_iter, segments=segments,
    )


def _refine_unstable(integ, spec, sample_state, rho1, r_cls, s_prev):
    """One refinement stage from a checkpoint along the unstable direction.

    Perturbs the checkpoint state by mu * e4 (e4 the unstable eigenvector of
    the constant-coefficient linear part at the fixed point) and bisects on
    mu over the remaining range.  Returns (dense leg, s_c, end residual,
    iterations used) or None when no useful checkpoint exists or no progress
    was made.
    """
    c = integ.c
    lam4 = spec.lambdas[3]
    s_end = math.log(r_cls)
    contam = max(abs(rho1), 1e-15)
    # place the checkpoint where the current residue has decayed to the floor,
    # keeping the state perturbation (hence the grid seam) at harmless size
    s_c = s_end - math.log(contam / c.refine_floor) / lam4
    s_c = s_end - c.ds * round((s_end - s_c) / c.ds)  # snap to the output lattice
    if s_c < math.log(c.r_switch) + 0.5 or s_c > s_end - 1.0 or s_c <= s_prev + 0.1:
        return None
    y_c = sample_state(s_c)
    e4 = np.array([1.0, lam4, lam4**2, lam4**3])
    e4 /= np.linalg.norm(e4)

    best_mu = None
    best_rho = math.inf
    used = 0

    def side(mu):
        nonlocal best_mu, best_rho
        out, _ = integ.integrate_s(s_c, y_c + mu * e4, s_end, dense=False)
        if not isinstance(out, (BlowUp, SignLoss)) and abs(out) < abs(best_rho):
            best_mu, best_rho = mu, out
        return _side_of(out)

    mu_hi = 1e4 * c.refine_floor * integ.L
    for _ in range(8):
        used += 2
        if side(mu_hi) > 0 and side(-mu_hi) < 0:
            break
        mu_hi *= 100.0
    else:
        return None

    mu_up, mu_dn = mu_hi, -mu_hi
    for _ in range(c.max_bisect):
        mid = 0.5 * (mu_up + mu_dn)
        if mid == mu_up or mid == mu_dn:
            break
        used += 1
        if side(mid) > 0:
            mu_up = mid
        else:
            mu_dn = mid
        if best_mu is not None and abs(mu_up - mu_dn) < 1e-18 * integ.L:
            break
    if best_mu is None or abs(best_rho) >= abs(rho1):
        return None
    outcome, seg = integ.integrate_s(s_c, y_c + best_mu * e4, s_end, dense=True)
    if isinstance(outcome, (BlowUp, SignLoss)):
        return None
    return seg, s_c, float(outcome), used


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
    r_grid = sol.r_grid / kappa
    scale = dict(phi=kappa**m, dphi=kappa ** (m + 1.0), lap=kappa ** (m + 2.0),
                 dlap=kappa ** (m + 3.0))
    arrays = dict(
        r_grid=r_grid,
        phi=sol.phi * scale["phi"],
        dphi=sol.dphi * scale["dphi"],
        lap=sol.lap * scale["lap"],
        dlap=sol.dlap * scale["dlap"],
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


def emden_fowler_residual(sol: RadialSolution, acc: int = 4) -> float:
    """Residual of Q4(m - d/ds) W - W^p by interior central stencils.

    Expands the operator into derivative coefficients of orders 0..4, applies
    order-`acc` central differences on the uniform s-grid, and returns the
    maximum interior residual normalized by max(W^p).
    """
    s, W = sol.s_grid, sol.W
    h = s[1] - s[0]
    if not np.allclose(np.diff(s), h, rtol=1e-9):
        raise InvalidParams("s-grid must be uniform for stencil differentiation")
    margin = stencil_margin(4, acc)
    if s.size - 2 * margin < 9:
        raise GridTooCoarse(
            f"{s.size} nodes leave fewer than 9 interior points for order-{acc} stencils"
        )
    coeffs = _s_operator_coeffs(sol.params.n, sol.params.m)  # [1, -e1, e2, -e3, e4]
    n_int = s.size - 2 * margin
    total = coeffs[4] * W[margin:-margin]
    for d in range(1, 5):
        dW = diff_uniform(W, h, d, acc=acc)
        half = (W.size - dW.size) // 2
        off = margin - half
        total = total + coeffs[4 - d] * dW[off : off + n_int]
    forcing = _power(W[margin:-margin], sol.params.p)
    return float(np.max(np.abs(total - forcing)) / np.max(forcing))


def _phi_pair(z: float):
    # phi1(z) = (e^z - 1)/z, phi2(z) = (e^z - 1 - z)/z^2; exact kernel weights
    em = math.expm1(z)
    return em / z, (em - z) / z**2


def exp_kernel_convolve(lam: float, s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """I(s_j) = int_{s_0}^{s_j} e^{lam (s_j - tau)} g(tau) dtau on a uniform grid.

    Exponentially fitted trapezoid: exact for the kernel, linear interpolation
    of g on each step; unconditionally stable recursion.
    """
    h = s[1] - s[0]
    z = lam * h
    e = math.exp(z)
    p1, p2 = _phi_pair(z)
    out = np.zeros_like(g)
    w_prev = h * (p1 - p2)
    w_next = h * p2
    for j in range(1, g.size):
        out[j] = e * out[j - 1] + w_prev * g[j - 1] + w_next * g[j]
    return out


def y_integral_identity_check(
    sol: RadialSolution,
    spec: Spectrum | None = None,
    window: tuple[float, float] | None = None,
) -> float:
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
    # backward recursion K(s_j) = int_{s_j}^{S} e^{lam4 (s_j - tau)} Z dtau
    h = s[1] - s[0]
    z = lam4 * h
    e_inv = math.exp(-z)
    p1, p2 = _phi_pair(-z)
    K = np.zeros_like(Z_t)
    for j in range(Z_t.size - 2, -1, -1):
        K[j] = e_inv * K[j + 1] + h * ((p1 - p2) * Z_t[j] + p2 * Z_t[j + 1])
    tail = Z_t[-1] * np.exp(lam4 * (s_t - s_t[-1])) / (lam4 - lam3)
    Y_rep = -(K + tail)

    Y_t = Y[: i_top + 1]
    if window is None:
        mask = (np.abs(Y_t) >= 1e-8 * np.max(np.abs(Y))) & (s_t <= s_t[-1] - 1.0)
    else:
        mask = (s_t >= window[0]) & (s_t <= window[1])
    if not np.any(mask):
        raise InvalidParams("probe window contains no resolved nodes")
    dev = np.abs(Y_t[mask] - Y_rep[mask])
    return float(np.max(dev) / np.max(np.abs(Y_t[mask])))


def resolved_top_index(sol: RadialSolution, floor_rel: float = 1e-10) -> int:
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


def check_monotone_y(sol: RadialSolution, floor_rel: float = 1e-10) -> bool:
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


def dump_solution(sol: RadialSolution, fh) -> None:
    """Write the delimited solution dump: one row per s-node, full precision."""
    fh.write("s,r,phi,W,Y,Z\n")
    for row in zip(sol.s_grid, sol.r_grid, sol.phi, sol.W, sol.Y, sol.Z):
        fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
