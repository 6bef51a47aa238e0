"""Quartic symbol Q4, eigenvalue polynomial of the linearized operator, spectrum.

Q4(a) = a(a+2)(a+2-n)(a+4-n) is the radial symbol of Delta^2 on power laws.
The linearization of the transformed equation about the singular amplitude
has eigenvalue polynomial P(lam) = Q4(m - lam) - p*Q4(m), which for n >= 13
and p at or above the critical exponent has four real roots

    lam1 < 2*lam_star < lam2 <= lam_star <= lam3 < 0 < lam4,

symmetric in pairs about lam_star = m - (n-4)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .errors import InvalidParams, SubcriticalInput
from .params import ProblemParams

# Relative tolerance (in units of |lam_star|) below which the two middle
# eigenvalues are declared a double root.  The critical exponent is itself
# only known to root-finder precision, so an ulp-level test would misclassify.
DEGENERACY_RTOL = 1e-6

# P(lam_star) below -SUBCRITICAL_RTOL*scale means p < p_c and a complex pair.
SUBCRITICAL_RTOL = 1e-9

_BRENTQ_KW = dict(xtol=1e-14, rtol=8.9e-16, maxiter=200)


def q4_eval(n, alpha):
    """Evaluate Q4(alpha) = alpha*(alpha+2)*(alpha+2-n)*(alpha+4-n).

    Kept in factored form for stability near the roots {0, -2, n-2, n-4}.
    Accepts scalars or numpy arrays in either argument.
    """
    return alpha * (alpha + 2.0) * (alpha + 2.0 - n) * (alpha + 4.0 - n)


def lambda_star(params: ProblemParams) -> float:
    """Symmetry center m - (n-4)/2 of the eigenvalue polynomial; negative here."""
    return params.m - (params.n - 4.0) / 2.0


def eigen_poly_eval(params: ProblemParams, lam):
    """Evaluate P(lam) = Q4(m - lam) - p*Q4(m) through the factored Q4."""
    m = params.m
    return q4_eval(params.n, m - lam) - params.p * q4_eval(params.n, m)


@dataclass(frozen=True)
class Spectrum:
    """Ordered real spectrum of the linearized operator.

    lambdas = (lam1, lam2, lam3, lam4) with lam1 < 2*lam_star < lam2 <=
    lam_star <= lam3 < 0 < lam4.  L is the singular amplitude Q4(m)^(1/(p-1)).
    symmetry_residual reports the raw defects (lam1+lam4-2*lam_star,
    lam2+lam3-2*lam_star) before any symmetrization.
    """

    params: ProblemParams
    lambda_star: float
    lambdas: tuple[float, float, float, float]
    L: float
    degenerate: bool
    symmetry_residual: tuple[float, float]


def _bracket_outward(f, anchor: float, direction: int, step0: float):
    """Expand from `anchor` in `direction` until f changes sign; f(anchor) < 0."""
    step = step0
    for _ in range(200):
        x = anchor + direction * step
        if f(x) > 0.0:
            return (x, anchor) if direction < 0 else (anchor, x)
        step *= 2.0
    raise InvalidParams("failed to bracket an outer eigenvalue; polynomial malformed")


def compute_spectrum(params: ProblemParams) -> Spectrum:
    """Extract the four real roots of the eigenvalue polynomial.

    Roots are isolated on the sign-change intervals (-inf, 2*lam_star),
    (2*lam_star, lam_star], [lam_star, 0), (0, inf) and polished with a
    bracketed solver, so ordering is automatic; the middle pair is then
    made symmetric (lam2 = 2 lam_star - lam3).  Raises SubcriticalInput
    when P(lam_star) < 0 beyond rounding, which means p < p_c.
    """
    n, p, m = params.n, params.p, params.m
    q4m = q4_eval(n, m)
    if q4m <= 0.0:
        raise InvalidParams(f"Q4(m) = {q4m} must be positive; got m={m} outside (0, n-4)")
    lam_s = lambda_star(params)
    scale = 1.0 + abs(p * q4m)

    def poly(lam):
        return eigen_poly_eval(params, lam)

    p_star = poly(lam_s)
    if p_star < -SUBCRITICAL_RTOL * scale:
        raise SubcriticalInput(
            f"P(lam_star) = {p_star:.6g} < 0 at (n={n}, p={p}): p lies below the "
            "critical exponent (for n <= 12 every supercritical p does), so the "
            "middle eigenvalue pair is complex"
        )

    step0 = max(1.0, abs(lam_s))
    a, b = _bracket_outward(poly, 2.0 * lam_s, -1, step0)
    lam1 = brentq(poly, a, b, **_BRENTQ_KW)
    a, b = _bracket_outward(poly, 0.0, +1, step0)
    lam4 = brentq(poly, a, b, **_BRENTQ_KW)

    if p_star <= 0.0:
        # Numerically at the double root: only rounding keeps P(lam_star) below 0.
        lam2_raw = lam3_raw = lam_s
    else:
        lam2_raw = brentq(poly, 2.0 * lam_s, lam_s, **_BRENTQ_KW)
        lam3_raw = brentq(poly, lam_s, 0.0, **_BRENTQ_KW)

    residual = (lam1 + lam4 - 2.0 * lam_s, lam2_raw + lam3_raw - 2.0 * lam_s)
    degenerate = abs(lam3_raw - lam2_raw) < DEGENERACY_RTOL * abs(lam_s)
    if degenerate:
        lam2, lam3 = lam_s, lam_s
    else:
        # P is symmetric about lam_star, and so is its middle pair.  Near the
        # double root P is flat there and each bracketed root carries its own
        # error (n=45, p = p_c + 3e-14: raw pair defect 1.3e-9), so lam2 is
        # lam3's mirror image.
        lam2, lam3 = 2.0 * lam_s - lam3_raw, lam3_raw

    if not (lam1 < 2.0 * lam_s < lam2 <= lam_s <= lam3 < 0.0 < lam4):
        raise InvalidParams(
            f"eigenvalue ordering violated at (n={n}, p={p}): "
            f"{(lam1, lam2, lam3, lam4)} about lam_star={lam_s}"
        )

    L = math.exp(math.log(q4m) / (p - 1.0))
    return Spectrum(
        params=params,
        lambda_star=lam_s,
        lambdas=(lam1, lam2, lam3, lam4),
        L=L,
        degenerate=degenerate,
        symmetry_residual=residual,
    )
