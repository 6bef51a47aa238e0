"""Critical exponent p_c, the rung polynomials R_k, and the finite ladder.

For n >= 13 the defining inequality p*Q4(4/(p-1)) > Q4((n-4)/2) fails beyond
a finite p_c.  Past p_c the eigenvalue ratio lam2/lam3 grows through integer
values k at exponents p_k: the rung polynomial

    R_k(p) = (p-1)^4 * [ Q4( (k-1)/(k+1) * 4/(p-1) + (n-4)/(k+1) ) - p*Q4(4/(p-1)) ]

satisfies lam2 > k*lam3  <=>  R_k(p) < 0, and has a unique root above p_c
exactly when its quartic tail limit Q4((n-4)/(k+1)) - 8(n-2)(n-4) is positive.
In t = p - 1, R_k = prod_i (A_k + (B_k + c_i) t) - (1 + t) prod_i (4 + c_i t)
is an exact quartic, A_k = 4(k-1)/(k+1), B_k = (n-4)/(k+1), c = (0, 2, 2-n, 4-n),
whose t^4 coefficient is the tail limit; R_1 = -(p-1)^4 * pc_defect.
The number of rungs has the closed form floor((n-10)/2) for 13 <= n <= 19 and
floor((n-9)/2) for n >= 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParams, LadderMismatch, NoPcValue
from .ivp import _brentq
from .params import sobolev_exponent
from .spectrum import q4_eval


def pc_defect(n: int, p):
    """Defining function h(p) = p*Q4(4/(p-1)) - Q4((n-4)/2); p_c is its root."""
    return p * q4_eval(n, 4.0 / (p - 1.0)) - q4_eval(n, (n - 4.0) / 2.0)


def _expand(a, b) -> np.ndarray:
    # coefficients t^0..t^4 of prod_i (a_i + b_i t) over the last axis; a
    # fifth factor's t^5 term is dropped
    a, b = np.broadcast_arrays(a, b)
    poly = np.zeros(a.shape[:-1] + (5,))
    poly[..., 0] = 1.0
    for i in range(a.shape[-1]):
        poly[..., 1:] = poly[..., 1:] * a[..., i, None] + poly[..., :-1] * b[..., i, None]
        poly[..., 0] *= a[..., i]
    return poly


def _quartic_roots(n: int, ks, floor: float) -> np.ndarray:
    """Smallest real root p > floor of R_k for each k in ks, nan where none
    (compute_ladder's rungs, k >= 2): eigenvalues of stacked companion
    matrices, then two Newton steps on R_k as written with the expanded
    quartic's derivative."""
    k = np.asarray(ks, dtype=float)[:, None]
    c = np.array([0.0, 2.0, 2.0 - n, 4.0 - n])
    # in t = p - 1, where (1 + t) prod(4 + c t) has a t^5 coefficient of exactly 0
    coef = _expand(4.0 * (k - 1.0) / (k + 1.0), (n - 4.0) / (k + 1.0) + c)
    coef -= _expand([4.0, 4.0, 4.0, 4.0, 1.0], [*c, 1.0])
    companion = np.zeros((len(k), 4, 4))
    companion[:, 1:, :3] = np.eye(3)
    companion[:, :, 3] = -coef[:, :4] / coef[:, 4:]
    t = np.linalg.eigvals(companion)
    t = np.where((t.imag == 0.0) & (t.real > floor - 1.0), t.real, np.inf).min(axis=1)
    p, slope = 1.0 + t, coef[:, 1:] * np.arange(1.0, 5.0)
    with np.errstate(invalid="ignore"):
        for _ in range(2):
            p = p - _rk_direct(p, n, k[:, 0]) / (slope * (p - 1.0)[:, None] ** np.arange(4)).sum(1)
    return np.where(np.isfinite(t), p, np.nan)


def _r1_sign(n: int, u: int, d: int) -> int:
    # exact sign of R_1 at p = u/d, d > 0: with t = (u - d)/d and scaled by
    # 16 d^5, R_1 has integer terms for integer n
    u, n = u - d, int(n)
    c = (0, 2, 2 - n, 4 - n)
    val = d * u**4 * math.prod(n - 4 + 2 * ci for ci in c)
    val -= 16 * (d + u) * math.prod(4 * d + ci * u for ci in c)
    return (val > 0) - (val < 0)


def _r1_root_float(n: int) -> float:
    # R_1's root above the Sobolev exponent in floats: double p until R_1's
    # sign flips, then close the bracket by Brent's method
    def r1(p):
        return _rk_direct(p, n, 1)

    lo = sobolev_exponent(n)
    negative = r1(lo) < 0.0
    if negative == (tail_limit(n, 1) < 0.0):
        raise NoPcValue(
            f"the k = 1 rung quartic R_1 has no real root above the Sobolev exponent "
            f"for n={n}; treat p_c = +infinity (finite p_c requires n >= 13)"
        )
    hi = 2.0 * lo
    while (r1(hi) < 0.0) == negative:
        lo, hi = hi, 2.0 * hi
    return _brentq(r1, lo, hi)


def _nearest_r1_root(n: int, p: float) -> float:
    # the float nearest R_1's root next to p: step from p to the two
    # adjacent floats where R_1's exact sign changes, then R_1's exact sign
    # at their midpoint picks the nearer one
    side = _r1_sign(n, *p.as_integer_ratio())  # R_1 < 0 below p_c
    toward = math.inf if side < 0 else -math.inf
    q = math.nextafter(p, toward)
    while _r1_sign(n, *q.as_integer_ratio()) == side:
        p, q = q, math.nextafter(q, toward)
    (a, b), (c, d) = p.as_integer_ratio(), q.as_integer_ratio()
    return q if _r1_sign(n, a * d + c * b, 2 * b * d) == side else p


@lru_cache(maxsize=None)
def compute_pc(n: int) -> float:
    """Critical exponent p_c(n), the unique p > (n+4)/(n-4) with h(p) = 0, correctly rounded.

    R_1 = -(p-1)^4 h is bracketed in floats from the Sobolev exponent,
    doubling p until its sign flips, and the bracket is closed by Brent's
    method (ivp._brentq); from that root the exact ulp walk steps to the two
    adjacent floats where R_1's exact sign changes, and R_1's exact sign at
    their midpoint picks the nearer one, so the result does not depend on
    where the walk starts (Brent's root is within 8 ulps for n = 13..200).
    Raises NoPcValue when R_1's sign above the Sobolev exponent already is
    that of its tail limit, so it has no root there: the n <= 12 case
    (p_c = +infinity there).
    """
    if n < 5:
        raise InvalidParams(f"n >= 5 required, got n={n}")
    return _nearest_r1_root(n, _r1_root_float(n))


def _rk_direct(p, n: int, k: int):
    # R_k(p) as written, for p != 1; float or array p and k.  The rung search
    # polishes its companion roots with it, without rk_eval's dispatch.
    # (p-1)^4 by two squarings: numpy's array power and the float power
    # round differently, two multiplications round alike on both paths.
    t = p - 1.0
    t2 = t * t
    arg = (k - 1.0) / (k + 1.0) * 4.0 / t + (n - 4.0) / (k + 1.0)
    return t2 * t2 * (q4_eval(n, arg) - p * q4_eval(n, 4.0 / t))


def _rk_rows(n: int, ks, p: np.ndarray):
    # R_k(p) for each k in ks over an array p without 1, a row per k, by
    # _rk_direct's own float operations, so each row equals rk_eval(n, k, p)
    # bit for bit; (p-1)^4 and p*Q4(4/(p-1)) are computed once for all k
    t = p - 1.0
    t2 = t * t
    t4, base = t2 * t2, p * q4_eval(n, 4.0 / t)
    for k in ks:
        yield t4 * (q4_eval(n, (k - 1.0) / (k + 1.0) * 4.0 / t + (n - 4.0) / (k + 1.0)) - base)


def _patched(direct, x, at: float, value: float):
    # direct(x) for float or array x, with its removable singularity at x == at set to value
    if np.ndim(x) == 0:
        return value if x == at else direct(float(x))
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == at, value, direct(x))


def rk_eval(n: int, k: int, p):
    """Rung polynomial R_k at exponent p; vectorized over p.

    At p = 1 the (p-1)^4 prefactor removes the pole of Q4(4/(p-1)) and the
    value is the limit 4^4*((k-1)/(k+1))^4 - 4^4, patched exactly.
    """
    if k < 1:
        raise InvalidParams(f"k >= 1 required, got k={k}")
    at_one = 256.0 * (((k - 1.0) / (k + 1.0)) ** 4 - 1.0)
    return _patched(lambda pv: _rk_direct(pv, n, k), p, 1.0, at_one)


def _tail_bracket(n: int, k):
    # Q4((n-4)/(k+1)) - 8(n-2)(n-4), R_k's t^4 coefficient; float or array k
    return q4_eval(n, (n - 4.0) / (k + 1.0)) - 8.0 * (n - 2.0) * (n - 4.0)


def tail_limit(n: int, k: int) -> float:
    """Limit of R_k(p)/p^4 as p -> +/-inf: Q4((n-4)/(k+1)) - 8(n-2)(n-4)."""
    if k < 1:
        raise InvalidParams(f"k >= 1 required, got k={k}")
    return _tail_bracket(n, k)


def f_quartic(n: int, k):
    """Tail limit rescaled to a quartic in k: 2(k+1)^4/(n-4) * tail_limit(n, k).

    The removable singularity at k = -1 is patched with the closed value
    2(n-4)^3.  Accepts real (possibly array) k.
    """
    if n < 5:
        raise InvalidParams(f"n >= 5 required, got n={n}")
    return _patched(
        lambda kv: 2.0 * (kv + 1.0) ** 4 / (n - 4.0) * _tail_bracket(n, kv),
        k, -1.0, 2.0 * (n - 4.0) ** 3,
    )


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
    tails = _tail_bracket(n, np.arange(1.0, n + 1.0))  # k = 1..n
    ends = np.flatnonzero(tails[1:] <= 0.0)
    if not ends.size:
        raise LadderMismatch(f"runaway ladder at n={n}: every tail limit up to k={n} is positive")
    n_rungs = int(ends[0]) + 1
    ks = np.arange(2, n_rungs + 1)
    at_pc = _rk_direct(pc, n, ks)
    for k, f_lo in zip(ks[at_pc >= 0.0], at_pc[at_pc >= 0.0]):
        raise LadderMismatch(f"R_{k}(p_c) = {f_lo:.6g} >= 0 at n={n}; expected negative")
    rungs = np.concatenate([[pc], _quartic_roots(n, ks, pc)])
    for k in ks[np.isnan(rungs[1:])]:
        raise LadderMismatch(f"R_{k} has no real root above p_c at n={n}")
    for k in ks[rungs[1:] <= rungs[:-1]]:
        raise LadderMismatch(f"rungs not strictly increasing at n={n}: p_{k}={rungs[k - 1]}")
    expected = ladder_length_formula(n)
    if n_rungs != expected:
        raise LadderMismatch(
            f"computed {n_rungs} rungs at n={n} but the closed formula gives {expected}"
        )
    tails = tuple(tails[: n_rungs + 1].tolist())
    return CriticalLadder(n=n, p_c=pc, rungs=tuple(rungs.tolist()), N=n_rungs, tail_limits=tails)


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
