"""Nonlinearity, variation-of-parameters kernel, and expansion fitting.

The transformed unknown Y = r^m phi - L obeys a constant-coefficient linear
equation driven by g(Y) = (Y+L)^p - L^p - p L^{p-1} Y.  Its asymptotics as
s = log r -> infinity split into three regimes along the critical ladder:

  (a) p_k < p < p_{k+1}:  W = a0 + sum_j a_j e^{j lam3 s} + b1 e^{lam2 s}
                              + a_{k+1} e^{(k+1) lam3 s} + O(e^{(lam2+lam3) s})
  (b) p = p_k, k >= 2:    the e^{lam2 s} and e^{k lam3 s} terms merge into
                              (b1 s + a_k) e^{k lam3 s}
  (c) p = p_c:            lam2 = lam3 and W = a0 + (b1 s + a1) e^{lam3 s}
                              + b2 s^2 e^{2 lam3 s} + ...

Each basis, and the variation-of-parameters kernel, is a list of terms
s^q e^{mu s}.  This module fits those bases to shooting output by weighted
least squares and checks the variation-of-parameters representation of Z
against the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    IllConditioned,
    InvalidParams,
    WindowTooShort,
)
from .ladder import CriticalLadder
from .params import ProblemParams
from .shooting import _DECAY_FLOOR, RadialSolution, exp_kernel_convolve, resolved_top_index
from .spectrum import Spectrum, compute_spectrum

COND_LIMIT = 1e12
RUNG_TOL = 1e-4  # band of detect_regime about each rung; p < p_c is compute_spectrum's call


# --------------------------------------------------------------------------
# nonlinearity and its Taylor coefficients
# --------------------------------------------------------------------------

def taylor_coeffs(p: float, L: float, order: int) -> tuple[float, ...]:
    """Generalized binomial coefficients d_j = C(p, j) L^{p-j} for j = 2..order.

    These are the Taylor coefficients of g about 0; the constant and linear
    terms vanish because the linear part is subtracted from the power.
    """
    if order < 2:
        raise InvalidParams(f"order >= 2 required, got {order}")
    if L <= 0.0:
        raise InvalidParams(f"L > 0 required, got {L}")
    out = []
    binom = p * (p - 1.0) / 2.0  # C(p, 2)
    for j in range(2, order + 1):
        out.append(binom * L ** (p - j))
        binom *= (p - j) / (j + 1.0)
    return tuple(out)


@dataclass(frozen=True)
class Nonlinearity:
    """g(y) = (y+L)^p - L^p - p L^{p-1} y; its Taylor data come from taylor_coeffs."""

    L: float
    p: float


def g_eval(nl: Nonlinearity, y):
    """Evaluate g; requires y > -L so the power stays on the positive branch."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= -nl.L):
        raise DomainError(f"g undefined at y <= -L = {-nl.L}")
    val = (y + nl.L) ** nl.p - nl.L**nl.p - nl.p * nl.L ** (nl.p - 1.0) * y
    return float(val) if val.ndim == 0 else val


def _g_of_w(nl: Nonlinearity, W: np.ndarray) -> np.ndarray:
    """g at y = W - L, evaluated from W > 0 as W^p - L^p - p L^{p-1} (W - L).

    Near the origin W is tiny next to L, and y = W - L rounds to exactly -L,
    outside g_eval's domain; W itself keeps its value there.
    """
    if np.any(W <= 0.0):
        raise DomainError("g undefined at W <= 0")
    return W**nl.p - nl.L**nl.p - nl.p * nl.L ** (nl.p - 1.0) * (W - nl.L)


# --------------------------------------------------------------------------
# variation-of-parameters kernel
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationKernel:
    """Kernel data for the factored third-order operator on Z.

    Nondegenerate: betas are the partial fractions 1/prod_{j!=i}(lam_i-lam_j)
    over the three negative eigenvalues, paired with plain exponential
    kernels.  Degenerate (lam2 = lam3): two plain kernels at lam1, lam3 and an
    (s - tau)-weighted kernel at lam3.  The homogeneous coefficients depend
    on s0 and are fitted (RepresentationFit.alphas); betas depend only on
    the eigenvalues.
    """

    s0: float
    betas: tuple[float, float, float]
    degenerate: bool


def variation_kernel(spec: Spectrum, s0: float) -> VariationKernel:
    lam1, lam2, lam3, _ = spec.lambdas
    if spec.degenerate:
        d = lam1 - lam3
        betas = (1.0 / d**2, -1.0 / d**2, 1.0 / (lam3 - lam1))
    else:
        betas = (
            1.0 / ((lam1 - lam2) * (lam1 - lam3)),
            1.0 / ((lam2 - lam1) * (lam2 - lam3)),
            1.0 / ((lam3 - lam1) * (lam3 - lam2)),
        )
    return VariationKernel(s0=s0, betas=betas, degenerate=spec.degenerate)


def _kernel_terms(kern: VariationKernel, spec: Spectrum):
    """(name, lam, q) of the kernels (s - tau)^q e^{lam (s - tau)} paired with
    kern.betas, named for their homogeneous coefficients alpha1..alpha3."""
    lam1, lam2, lam3, _ = spec.lambdas
    if kern.degenerate:
        return (("alpha1", lam1, 0), ("alpha2", lam3, 0), ("alpha3", lam3, 1))
    return (("alpha1", lam1, 0), ("alpha2", lam2, 0), ("alpha3", lam3, 0))


def _kernel_convolutions(kernels, s: np.ndarray, g: np.ndarray) -> list[np.ndarray]:
    """int_{s_0}^{s} (s - tau)^q e^{lam (s - tau)} g(tau) dtau for each (lam, q)
    in kernels, q in {0, 1}, from one exp_kernel_convolve call: the row g at
    lam, and after it for q = 1 the row s * g, as s I[g] - I[s g]."""
    rows = [(lam, row) for lam, q in kernels for row in (g, s * g)[: q + 1]]
    conv = iter(exp_kernel_convolve(np.array([lam for lam, _ in rows]), s,
                                    np.stack([row for _, row in rows])))
    return [next(conv) if q == 0 else s * next(conv) - next(conv) for _, q in kernels]


def _columns(terms, s: np.ndarray) -> np.ndarray:
    """The columns s^q e^{mu s} of (name, mu, q) terms at s, stacked."""
    return np.stack([s**q * np.exp(mu * s) for _, mu, q in terms], axis=1)


def _design(what: str, terms, s: np.ndarray, target: np.ndarray, where: str = ""):
    """(A, A_s, scale, x): the columns of terms at s, A with each column
    scaled to unit maximum, and the least-squares solution x of
    A_s x = target.

    A column whose maximum is 0 or not finite (say, underflowed on the
    window) and a condition number of A_s over COND_LIMIT, read from the
    singular values of the solve, raise IllConditioned, the former naming
    the term.
    """
    A = _columns(terms, s)
    scale = np.max(np.abs(A), axis=0)
    for (name, _, _), top in zip(terms, scale):
        if not (math.isfinite(top) and top > 0.0):
            raise IllConditioned(f"{what}: column {name} has maximum {top} on the window{where}")
    A_s = A / scale
    x, _, _, sv = np.linalg.lstsq(A_s, target, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf
    if cond > COND_LIMIT:
        raise IllConditioned(f"{what} condition {cond:.3g} > {COND_LIMIT:g}{where}")
    return A, A_s, scale, x


@dataclass(frozen=True)
class RepresentationFit:
    """Fitted homogeneous coefficients and reconstruction of Z."""

    kern: VariationKernel
    alphas: tuple[float, float, float]
    s: np.ndarray
    recon: np.ndarray
    deviation: float


def check_window(window: tuple[float, float]) -> None:
    """A fit window (s_lo, s_hi) is finite with s_lo < s_hi; else InvalidParams."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParams(
            f"fit window (s_lo, s_hi) = ({lo}, {hi}) must be finite with s_lo < s_hi"
        )


def representation_check(
    sol: RadialSolution,
    *,
    kern: VariationKernel | None = None,
    window: tuple[float, float] | None = None,
    return_details: bool = False,
):
    """Deviation of grid Z from its variation-of-parameters representation.

    Builds g(Y) along the grid, evaluated from W = Y + L, forms the
    convolution part with the kernel betas, fits the free homogeneous
    coefficients by least squares on the window, and returns the maximum
    deviation normalized by max|Z| there.
    """
    spec = sol.spectrum
    s_all, Z_all = sol.s_grid, sol.Z

    if window is None:
        zmax = np.max(np.abs(Z_all))
        solid = np.abs(Z_all) >= 1e-8 * zmax
        idx = np.nonzero(solid)[0]
        window = (float(s_all[idx[0]]), float(s_all[idx[-1]]))
    check_window(window)
    if kern is None:
        kern = variation_kernel(spec, s0=window[0])
    if kern.s0 > window[0]:
        raise InvalidParams(f"s0 = {kern.s0} must not exceed the window start {window[0]}")

    i0 = int(np.searchsorted(s_all, kern.s0 - 1e-12))
    s = s_all[i0:]
    nl = Nonlinearity(L=spec.L, p=sol.params.p)
    g = _g_of_w(nl, sol.W[i0:])
    terms = _kernel_terms(kern, spec)
    parts = _kernel_convolutions([(lam, q) for _, lam, q in terms], s, g)
    forced = sum(b * part for b, part in zip(kern.betas, parts))

    mask = (s >= window[0]) & (s <= window[1])
    if np.count_nonzero(mask) < 8:
        raise WindowTooShort(f"window {window} holds fewer than 8 nodes")
    A, _, scale, coef_s = _design("homogeneous design matrix", terms, s[mask] - kern.s0,
                                  sol.Z[i0:][mask] - forced[mask])
    alphas = tuple(coef_s / scale)

    recon = forced[mask] + A @ np.asarray(alphas)
    z_win = sol.Z[i0:][mask]
    deviation = float(np.max(np.abs(z_win - recon)) / np.max(np.abs(z_win)))
    if return_details:
        return deviation, RepresentationFit(
            kern=kern, alphas=alphas, s=s[mask], recon=recon, deviation=deviation
        )
    return deviation


# --------------------------------------------------------------------------
# regime detection and expansion fitting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Regime:
    """Expansion regime: kind 'a' (open interval p_k < p < p_{k+1}),
    'b' (on a rung p_k, k >= 2), or 'c' (at the critical exponent)."""

    kind: str
    k: int


def detect_regime(params: ProblemParams, ladder: CriticalLadder) -> Regime:
    """Locate p relative to the rungs within the band RUNG_TOL.

    Within RUNG_TOL (relative to max(1, p_k)) of a rung the log-corrected
    regime is returned, because the plain exponential basis degenerates there.
    The band covers the rungs only: whether p lies below p_c is
    compute_spectrum's decision, whose SubcriticalInput this raises.
    """
    p = params.p
    if params.n != ladder.n:
        raise InvalidParams(f"ladder is for n={ladder.n}, params have n={params.n}")
    compute_spectrum(params)
    for k, p_k in enumerate(ladder.rungs, start=1):
        if abs(p - p_k) < RUNG_TOL * max(1.0, p_k):
            return Regime(kind="c", k=1) if k == 1 else Regime(kind="b", k=k)
    k = 0
    for p_k in ladder.rungs:
        if p > p_k:
            k += 1
    return Regime(kind="a", k=k)


def regime_ordering_ok(spec: Spectrum, regime: Regime) -> bool:
    """Eigenvalue chain required in regime a:
    lam1 < lam2+lam3 < (k+1) lam3 < lam2 < k lam3 < 0."""
    if regime.kind != "a":
        return True
    lam1, lam2, lam3, _ = spec.lambdas
    k = regime.k
    return (
        lam1 < lam2 + lam3 < (k + 1) * lam3 < lam2 < k * lam3 < 0.0
    )


@dataclass(frozen=True)
class CoefficientEstimate:
    value: float
    stderr: float
    resolved: bool  # |value| above its standard error


@dataclass(frozen=True)
class ExpansionFit:
    """Weighted least-squares fit of the regime basis to W = Y + L."""

    regime: Regime
    coefficients: dict[str, CoefficientEstimate]
    residual_slope: float
    theoretical_slope: float
    window: tuple[float, float]


def _regime_terms(regime: Regime, spec: Spectrum):
    """The regime's basis as (name, mu, q) terms s^q e^{mu s}, in expansion order."""
    lam2, lam3 = spec.lambdas[1], spec.lambdas[2]
    k = regime.k
    if regime.kind == "a":
        powers = [(f"a{j}", j * lam3, 0) for j in range(1, k + 2)]
        return [("a0", 0.0, 0), *powers, ("b1", lam2, 0)]
    if regime.kind == "b":
        if k < 2:
            raise InvalidParams("regime b requires k >= 2")
        powers = [(f"a{j}", j * lam3, 0) for j in range(1, k)]
        return [("a0", 0.0, 0), *powers, ("b1", k * lam3, 1), (f"a{k}", k * lam3, 0)]
    if regime.kind == "c":
        return [("a0", 0.0, 0), ("b1", lam3, 1), ("a1", lam3, 0), ("b2", 2.0 * lam3, 2)]
    raise InvalidParams(f"unknown regime kind {regime.kind!r}")


def default_fit_window(sol: RadialSolution, spec: Spectrum):
    """Window where the truncated expansion is both valid and resolved.

    Starts where |Y| has fallen to 1e-4 * L (unmodeled higher-order terms
    below the fit noise, so coefficients come out unbiased) and ends at the
    resolved top (resolved_top_index) for the _DECAY_FLOOR * L floor.
    """
    below = np.nonzero(np.abs(sol.Y) <= 1e-4 * spec.L)[0]
    if below.size == 0:
        raise WindowTooShort("Y never falls to 1e-4 * L; extend r_max")
    i_lo = int(below[0])
    i_hi = resolved_top_index(sol, _DECAY_FLOOR)
    if i_hi - i_lo < 32:
        raise WindowTooShort(
            f"only {i_hi - i_lo} nodes between the validity and noise floors"
        )
    return (float(sol.s_grid[i_lo]), float(sol.s_grid[i_hi]))


def _remainder_slope(sol, terms, coef, window) -> float:
    """Log-slope of the model defect where the truncated terms dominate.

    The window itself sits where the remainder is below the noise floor (that
    is what makes the coefficients unbiased), so the remainder exponent is
    read off on a segment *below* the window, with a gap that keeps
    coefficient-error backpropagation subdominant.  Falls back to the second
    half of the window when there is no room underneath.
    """
    s_all = sol.s_grid
    lo, hi = window[0] - 1.6, window[0] - 0.9
    mask = (s_all >= lo) & (s_all <= hi)
    if np.count_nonzero(mask) < 12:
        mask = (s_all >= 0.5 * (window[0] + window[1])) & (s_all <= window[1])
    s = s_all[mask]
    resid = np.abs(sol.W[mask] - _columns(terms, s) @ coef)
    return float(np.polyfit(s, np.log(resid + 1e-300), 1)[0])


_JACKKNIFE_BLOCKS = 6


def _window_coefficients(sol: RadialSolution, spec: Spectrum, regime: Regime, window):
    """(terms, coef, A_s, W, scale): the regime basis fitted to W on the
    window by least squares, its columns scaled to unit maximum (A_s, with
    the column maxima scale)."""
    check_window(window)
    s_all = sol.s_grid
    mask = (s_all >= window[0]) & (s_all <= window[1])
    n_pts = int(np.count_nonzero(mask))
    terms = _regime_terms(regime, spec)
    n_par = len(terms)
    if n_pts < n_par + 2 * _JACKKNIFE_BLOCKS:
        raise WindowTooShort(f"{n_pts} nodes cannot support {n_par} coefficients")
    W = sol.W[mask]
    _, A_s, scale, coef_s = _design(
        "fit design matrix", terms, s_all[mask], W,
        f" in regime {regime.kind}, k = {regime.k}, with {n_par} columns",
    )
    return terms, coef_s / scale, A_s, W, scale


def fit_expansion(
    sol: RadialSolution,
    spec: Spectrum,
    regime: Regime,
    window: tuple[float, float] | None = None,
) -> ExpansionFit:
    """Fit the regime basis to W on the window by least squares.

    Columns are scaled to unit maximum and solved through an orthogonal
    decomposition.  Weights are uniform: the noise on W is an absolute floor
    set by the integrator, so relative weighting would drown the band where
    the fastest-decaying column is identifiable.  Standard errors come from a
    delete-a-block jackknife, which picks up the correlated (systematic)
    component that an iid estimate misses.  The remainder exponent is
    estimated from the model defect below the window and compared against
    lam2 + lam3.
    """
    if window is None:
        window = default_fit_window(sol, spec)
    terms, coef, A_s, W, scale = _window_coefficients(sol, spec, regime, window)

    thetas = []
    for block in np.array_split(np.arange(W.size), _JACKKNIFE_BLOCKS):
        lo, hi = block[0], block[-1] + 1  # blocks are contiguous: keep the rows around
        A_k, W_k = np.concatenate((A_s[:lo], A_s[hi:])), np.concatenate((W[:lo], W[hi:]))
        thetas.append(np.linalg.lstsq(A_k, W_k, rcond=None)[0] / scale)
    thetas = np.array(thetas)
    nb = _JACKKNIFE_BLOCKS
    stderr = np.sqrt((nb - 1) / nb * np.sum((thetas - thetas.mean(axis=0)) ** 2, axis=0))

    coefficients = {
        name: CoefficientEstimate(
            value=float(c), stderr=float(se), resolved=bool(abs(c) > se)
        )
        for (name, _, _), c, se in zip(terms, coef, stderr)
    }

    slope = _remainder_slope(sol, terms, coef, window)
    lam2, lam3 = spec.lambdas[1], spec.lambdas[2]
    return ExpansionFit(
        regime=regime,
        coefficients=coefficients,
        residual_slope=slope,
        theoretical_slope=lam2 + lam3,
        window=window,
    )


def _window_drift(sol: RadialSolution, spec: Spectrum, fit: ExpansionFit) -> dict[str, float]:
    """window_shift_stability's drift of fit, whose window moves by a tenth
    of its width; only the moved window's coefficients are solved."""
    window = fit.window
    step = 0.1 * (window[1] - window[0])
    if window[1] + step > sol.s_grid[-1]:
        step = -step
    moved = _window_coefficients(sol, spec, fit.regime, (window[0] + step, window[1] + step))[1]
    return {
        name: abs(float(c) - est.value) / max(est.stderr, 1e-300)
        for (name, est), c in zip(fit.coefficients.items(), moved)
    }


def window_shift_stability(
    sol: RadialSolution,
    spec: Spectrum,
    regime: Regime,
    window: tuple[float, float] | None = None,
) -> dict[str, float]:
    """Coefficient drift, in units of standard error, when the window moves
    by a tenth of its width: right, or left when the move right would pass
    the lattice's last node.  The fit on the window gives the coefficients
    and their standard errors; on the moved window only the coefficients
    are solved, under the same checks."""
    return _window_drift(sol, spec, fit_expansion(sol, spec, regime, window))
