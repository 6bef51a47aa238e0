"""Critical exponent p_c, the rung polynomials R_k, and the finite ladder.

For n >= 13 the defining inequality p*Q4(4/(p-1)) > Q4((n-4)/2) fails beyond
a finite p_c.  Past p_c the eigenvalue ratio lam2/lam3 grows through integer
values k at exponents p_k: the rung polynomial

    R_k(p) = (p-1)^4 * [ Q4( (k-1)/(k+1) * 4/(p-1) + (n-4)/(k+1) ) - p*Q4(4/(p-1)) ]

satisfies lam2 > k*lam3  <=>  R_k(p) < 0, and has a unique root above p_c
exactly when its quartic tail limit Q4((n-4)/(k+1)) - 8(n-2)(n-4) is positive.
The number of rungs has the closed form floor((n-10)/2) for 13 <= n <= 19 and
floor((n-9)/2) for n >= 20.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidParams, LadderMismatch, NoPcValue
from .params import sobolev_exponent
from .spectrum import q4_eval

_PC_PROBE_LIMIT = 1.0e6
_BRENTQ_KW = dict(xtol=1e-12, rtol=8.9e-16, maxiter=200)


def pc_defect(n: int, p):
    """Defining function h(p) = p*Q4(4/(p-1)) - Q4((n-4)/2); p_c is its root."""
    return p * q4_eval(n, 4.0 / (p - 1.0)) - q4_eval(n, (n - 4.0) / 2.0)


def _q4_deriv(n: int, a: float) -> float:
    # derivative of the factored quartic: sum of leave-one-out products
    f = (a, a + 2.0, a + 2.0 - n, a + 4.0 - n)
    return (
        f[1] * f[2] * f[3]
        + f[0] * f[2] * f[3]
        + f[0] * f[1] * f[3]
        + f[0] * f[1] * f[2]
    )


def _pc_defect_deriv(n: int, p: float) -> float:
    m = 4.0 / (p - 1.0)
    return q4_eval(n, m) - p * _q4_deriv(n, m) * 4.0 / (p - 1.0) ** 2


@lru_cache(maxsize=None)
def compute_pc(n: int) -> float:
    """Critical exponent p_c(n), the unique p > (n+4)/(n-4) with h(p) = 0.

    Brackets by doubling up from just above the Sobolev exponent.  Raises
    NoPcValue when no sign change appears below the probe bound, which is
    the n <= 12 case (p_c = +infinity there).
    """
    if n < 5:
        raise InvalidParams(f"n >= 5 required, got n={n}")
    lo = sobolev_exponent(n) + 1e-3
    if pc_defect(n, lo) <= 0.0:
        raise InvalidParams(f"defect not positive at the Sobolev end for n={n}")
    hi = 2.0 * lo
    while pc_defect(n, hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > _PC_PROBE_LIMIT:
            raise NoPcValue(
                f"no sign change of the defining inequality up to p={_PC_PROBE_LIMIT:g} "
                f"for n={n}; treat p_c = +infinity (finite p_c requires n >= 13)"
            )
    root = brentq(lambda p: pc_defect(n, p), lo, hi, **_BRENTQ_KW)
    # Newton polish: the eigenvalue gap at p_c scales like sqrt(|h(p_c)|), so the
    # defect must be pushed to rounding level for the double root to register.
    for _ in range(3):
        step = pc_defect(n, root) / _pc_defect_deriv(n, root)
        if not np.isfinite(step):
            break
        root -= step
        if abs(step) < 1e-15 * root:
            break
    return root


def _rk_limit_at_one(k: int) -> float:
    # lim_{p->1} R_k(p) = 4^4 * ((k-1)/(k+1))^4 - 4^4
    return 256.0 * (((k - 1.0) / (k + 1.0)) ** 4 - 1.0)


def _rk_direct(p, n: int, k: int):
    # R_k(p) as written, for p != 1; float or array p.  compute_ladder's
    # bracket and root search call it on floats, without rk_eval's dispatch.
    # (p-1)^4 by two squarings: numpy's array power and the float power
    # round differently, two multiplications round alike on both paths.
    t = p - 1.0
    t2 = t * t
    arg = (k - 1.0) / (k + 1.0) * 4.0 / t + (n - 4.0) / (k + 1.0)
    return t2 * t2 * (q4_eval(n, arg) - p * q4_eval(n, 4.0 / t))


def rk_eval(n: int, k: int, p):
    """Rung polynomial R_k at exponent p; vectorized over p.

    At p = 1 the (p-1)^4 prefactor removes the pole of Q4(4/(p-1)) and the
    value is the limit 4^4*((k-1)/(k+1))^4 - 4^4, patched exactly.
    """
    if k < 1:
        raise InvalidParams(f"k >= 1 required, got k={k}")
    if np.ndim(p) == 0:
        if p == 1.0:
            return _rk_limit_at_one(k)
        return _rk_direct(float(p), n, k)
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _rk_direct(p, n, k)
    return np.where(p == 1.0, _rk_limit_at_one(k), vals)


def tail_limit(n: int, k: int) -> float:
    """Limit of R_k(p)/p^4 as p -> +/-inf: Q4((n-4)/(k+1)) - 8(n-2)(n-4)."""
    if k < 1:
        raise InvalidParams(f"k >= 1 required, got k={k}")
    return q4_eval(n, (n - 4.0) / (k + 1.0)) - 8.0 * (n - 2.0) * (n - 4.0)


def f_quartic(n: int, k):
    """Tail limit rescaled to a quartic in k: 2(k+1)^4/(n-4) * tail_limit(n, k).

    The removable singularity at k = -1 is patched with the closed value
    2(n-4)^3.  Accepts real (possibly array) k.
    """
    if n < 5:
        raise InvalidParams(f"n >= 5 required, got n={n}")

    def direct(kv):
        shifted = (n - 4.0) / (kv + 1.0)
        bracket = q4_eval(n, shifted) - 8.0 * (n - 2.0) * (n - 4.0)
        return 2.0 * (kv + 1.0) ** 4 / (n - 4.0) * bracket

    if np.ndim(k) == 0:
        if k == -1.0:
            return 2.0 * (n - 4.0) ** 3
        return direct(float(k))
    k = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = direct(k)
    return np.where(k == -1.0, 2.0 * (n - 4.0) ** 3, vals)


def ladder_length_formula(n: int) -> int:
    """Closed-form rung count: floor((n-10)/2) for 13 <= n <= 19, floor((n-9)/2) for n >= 20."""
    if n <= 12:
        raise InvalidParams(f"ladder length defined only for n >= 13, got n={n}")
    if n <= 19:
        return (n - 10) // 2
    return (n - 9) // 2


@dataclass(frozen=True)
class CriticalLadder:
    """Finite rung sequence p_1 = p_c < p_2 < ... < p_N for dimension n.

    tail_limits[k-1] holds the quartic tail limit of R_k for k = 1..N+1; the
    entry at k = N+1 is the first non-positive one and terminates the ladder.
    """

    n: int
    p_c: float
    rungs: tuple[float, ...]
    N: int
    tail_limits: tuple[float, ...]


@lru_cache(maxsize=None)
def compute_ladder(n: int) -> CriticalLadder:
    """Build the ladder: p_1 from compute_pc, p_k (k >= 2) as the unique root
    of R_k above p_c while the tail limit stays positive.

    Raises LadderMismatch if the rung count disagrees with the closed formula
    or the computed structure is inconsistent (both signal implementation bugs,
    not data conditions).
    """
    pc = compute_pc(n)
    rungs = [pc]
    tails = [tail_limit(n, 1)]
    k = 2
    while True:
        if k > n:
            raise LadderMismatch(f"runaway ladder at n={n}: k={k} exceeded safety bound")
        t_k = tail_limit(n, k)
        tails.append(t_k)
        if t_k <= 0.0:
            break
        f_lo = _rk_direct(pc, n, k)
        if f_lo >= 0.0:
            raise LadderMismatch(f"R_{k}(p_c) = {f_lo:.6g} >= 0 at n={n}; expected negative")
        hi = 2.0 * pc
        doublings = 0
        while _rk_direct(hi, n, k) <= 0.0:
            hi *= 2.0
            doublings += 1
            if doublings > 200:
                raise LadderMismatch(f"R_{k} never turned positive above p_c at n={n}")
        p_k = brentq(_rk_direct, pc, hi, args=(n, k), **_BRENTQ_KW)
        if p_k <= rungs[-1]:
            raise LadderMismatch(
                f"rungs not strictly increasing at n={n}: p_{k}={p_k} <= {rungs[-1]}"
            )
        rungs.append(p_k)
        k += 1

    n_rungs = len(rungs)
    expected = ladder_length_formula(n)
    if n_rungs != expected:
        raise LadderMismatch(
            f"computed {n_rungs} rungs at n={n} but the closed formula gives {expected}"
        )
    return CriticalLadder(
        n=n, p_c=pc, rungs=tuple(rungs), N=n_rungs, tail_limits=tuple(tails)
    )


@dataclass(frozen=True)
class ParityBoundary:
    """Two evaluation routes of the quartic at the odd-n boundary index (n-9)/2."""

    n: int
    k: int
    quartic_value: float
    factored_value: float
    rel_diff: float
    positive: bool


def parity_boundary_check(n: int) -> ParityBoundary:
    """Evaluate F((n-9)/2) directly and through its factored cubic form.

    Requires odd n >= 13.  Raises LadderMismatch if the two routes disagree
    beyond 1e-8 relative or the sign does not flip positive exactly at n >= 20.
    """
    if n < 13:
        raise InvalidParams(f"n >= 13 required, got n={n}")
    if n % 2 == 0:
        raise InvalidParams(f"parity boundary check needs odd n, got n={n}")
    k = (n - 9) // 2
    direct = f_quartic(n, float(k))
    factored = (n - 1.0) / 2.0 * (n**3 - 33.0 * n**2 + 312.0 * n - 892.0)
    denom = max(abs(direct), abs(factored))
    rel = abs(direct - factored) / denom if denom > 0 else 0.0
    if rel > 1e-8:
        raise LadderMismatch(
            f"parity boundary routes disagree at n={n}: {direct} vs {factored}"
        )
    positive = factored > 0.0
    if positive != (n >= 20):
        raise LadderMismatch(
            f"parity boundary sign {factored:.6g} inconsistent with n={n} (flip at n=20)"
        )
    return ParityBoundary(
        n=n, k=k, quartic_value=float(direct), factored_value=factored,
        rel_diff=rel, positive=positive,
    )
