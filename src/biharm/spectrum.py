"""Quartic symbol Q4, eigenvalue polynomial of the linearized operator, spectrum.

Q4(a) = a(a+2)(a+2-n)(a+4-n) is the radial symbol of Delta^2 on power laws.
The linearization of the transformed equation about the singular amplitude
has eigenvalue polynomial P(lam) = Q4(m - lam) - p*Q4(m).  Q4's roots pair
about (n-4)/2, so with mu = lam_star - lam, lam_star = m - (n-4)/2,

    P = (mu^2 - a^2)(mu^2 - b^2) - p*Q4(m),   a = (n-4)/2,  b = n/2,

a quadratic in mu^2.  For n >= 13 and p at or above the critical exponent
both of its roots are positive, so the four eigenvalues are real,

    lam1 < 2*lam_star < lam2 <= lam_star <= lam3 < 0 < lam4,

and symmetric in pairs about lam_star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParams, SubcriticalInput
from .params import ProblemParams

# Relative tolerance (in units of |lam_star|) below which the two middle
# eigenvalues are declared a double root.  The critical exponent is itself
# only known to root-finder precision, so an ulp-level test would misclassify.
DEGENERACY_RTOL = 1e-6

# P(lam_star) below -SUBCRITICAL_RTOL*scale means p < p_c and a complex pair.
SUBCRITICAL_RTOL = 1e-9


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
    lam_star <= lam3 < 0 < lam4, symmetric in pairs about lam_star.  L is the
    singular amplitude Q4(m)^(1/(p-1)).
    """

    params: ProblemParams
    lambda_star: float
    lambdas: tuple[float, float, float, float]
    L: float
    degenerate: bool


def compute_spectrum(params: ProblemParams) -> Spectrum:
    """The four real roots of the eigenvalue polynomial, in closed form.

    With mu = lam_star - lam, P is (mu^2 - a^2)(mu^2 - b^2) - p*Q4(m).  The
    larger root in mu^2 comes from the quadratic formula, where nothing
    cancels; the smaller one from Vieta's product P(lam_star) = a^2 b^2 -
    p*Q4(m), which stays accurate near the double root at p_c.  Then
    lam1,4 = lam_star -/+ mu_plus and lam2,3 = lam_star -/+ mu_minus, so
    both pairs are symmetric about lam_star by construction.  Raises
    SubcriticalInput when P(lam_star) < 0 beyond rounding, which means
    p < p_c, and InvalidParams when L overflows a float (at p_c from
    n = 322 on).
    """
    n, p, m = params.n, params.p, params.m
    q4m = q4_eval(n, m)
    if q4m <= 0.0:
        raise InvalidParams(f"Q4(m) = {q4m} must be positive; got m={m} outside (0, n-4)")
    lam_s = lambda_star(params)
    a2 = ((n - 4.0) / 2.0) ** 2
    b2 = (n / 2.0) ** 2
    pq = p * q4m
    p_star = a2 * b2 - pq
    if p_star < -SUBCRITICAL_RTOL * (1.0 + abs(pq)):
        raise SubcriticalInput(
            f"P(lam_star) = {p_star:.6g} < 0 at (n={n}, p={p}): p lies below the "
            "critical exponent (for n <= 12 every supercritical p does), so the "
            "middle eigenvalue pair is complex"
        )

    mu2_plus = 0.5 * (a2 + b2 + math.sqrt((b2 - a2) ** 2 + 4.0 * pq))
    mu_plus = math.sqrt(mu2_plus)
    mu_minus = math.sqrt(max(p_star, 0.0) / mu2_plus)
    degenerate = 2.0 * mu_minus < DEGENERACY_RTOL * abs(lam_s)
    if degenerate:
        mu_minus = 0.0
    lam1, lam2, lam3, lam4 = lam_s - mu_plus, lam_s - mu_minus, lam_s + mu_minus, lam_s + mu_plus

    if not (lam1 < 2.0 * lam_s < lam2 <= lam_s <= lam3 < 0.0 < lam4):
        raise InvalidParams(
            f"eigenvalue ordering violated at (n={n}, p={p}): "
            f"{(lam1, lam2, lam3, lam4)} about lam_star={lam_s}"
        )

    log_l = math.log(q4m) / (p - 1.0)
    try:
        L = math.exp(log_l)
    except OverflowError:
        raise InvalidParams(
            f"(n={n}, p={p}): the singular amplitude L = Q4(m)^(1/(p-1)) = 10^{log_l / math.log(10.0):.6g} "
            "overflows a float"
        ) from None
    return Spectrum(
        params=params,
        lambda_star=lam_s,
        lambdas=(lam1, lam2, lam3, lam4),
        L=L,
        degenerate=degenerate,
    )
