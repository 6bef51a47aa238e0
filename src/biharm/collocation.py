"""Collocation solver for shoot's boundary value problem on the s-chart.

The problem is y' = fun(y) for n states on a mesh x_0 < ... < x_{m-1},
with one scalar unknown v and n + 1 conditions:

    y(x_0) = ya + (v - v_ref) slope,        right . y(x_{m-1}) = 0.

The method within a round is scipy.integrate.solve_bvp's (Kierzenka &
Shampine, ACM TOMS 27(3), 2001), kept in its operation order: the
solution is the C1 cubic Hermite spline through the nodes whose slope
meets fun at the nodes and at each interval's midpoint (Lobatto IIIA,
Simpson's rule); a damped Newton iteration on the affine-invariant
criterion |J^-1 r|^2 solves the collocation equations; each interval's
rms residual, relative to 1 + |fun|, comes from 5-point Lobatto
quadrature.  The mesh rule is not solve_bvp's: the collocation residual
is O(h^3), so the residuals of one round predict the next round's mesh,
each interval cut into equal pieces enough to meet the tolerance.  The
linear algebra is not solve_bvp's either.  With the unknowns
ordered (v, y_0, ..., y_{m-1}) and the equations (the n left conditions,
the n collocation residuals of each interval in turn, the right
condition), the Jacobian is a band with 2n - 2 subdiagonals and n
superdiagonals, so LAPACK's banded LU (dgbtrf / dgbtrs) factors it in
O(m) with no bordering (Ascher, Mattheij & Russell, Numerical Solution of
Boundary Value Problems for ODEs, 1995, ch. 7).  The two routines are
scipy's, the ones scipy.linalg.lapack re-exports, taken from its extension
scipy.linalg._flapack: a solve loads scipy's top-level package and that one
extension, not the scipy.linalg package (see _load_flapack).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from typing import Callable

import numpy as np
import scipy

from .errors import NoConvergence


def _load_flapack():
    """scipy's LAPACK extension, scipy.linalg._flapack, loaded alone.  The
    package import that scipy.linalg.lapack goes through costs about 0.3 s,
    most of it in scipy's array-API shim, which star-imports numpy and so
    loads numpy.f2py, numpy.testing and numpy.ma.  The module is registered
    under its own name, so a later import of scipy.linalg.lapack re-exports
    these very routines; a missing file raises ImportError naming its path."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        base = os.path.join(scipy.__path__[0], "linalg", "_flapack")
        path = next((base + s for s in EXTENSION_SUFFIXES if os.path.exists(base + s)),
                    base + EXTENSION_SUFFIXES[0])
        loader = ExtensionFileLoader(name, path)
        module = module_from_spec(spec_from_loader(name, loader))
        sys.modules[name] = module
        loader.exec_module(module)
    return sys.modules[name]


_flapack = _load_flapack()
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs

# solve_bvp's Newton constants
_MAX_NJEV = 4     # Jacobians, each factored once, per round
_MAX_ITER = 8     # Newton iterations per round
_ARMIJO = 0.2     # least relative decrease of the criterion a step must make
_BACKTRACKS = 4   # step halvings before a step is taken as it is
# a Newton step below max|dy| <= 64 eps max|y| and |dv| <= 16 eps |v| is
# rounding: from the second iteration on, it is not taken
_ROUND_Y, _ROUND_V = 64 * np.finfo(float).eps, 16 * np.finfo(float).eps
# rounds after which a solve that still misses the tolerance fails
_MAX_ROUNDS = 10
# The collocation residual on an interval is O(h^3): the next round cuts an
# interval with residual r into ceil(_MESH_SAFETY (r / tol)^(1/3)) pieces.
_MESH_SAFETY = 1.2


@dataclass(frozen=True)
class Bvp:
    """y' = fun(y), with jac(y) = df/dy as (n, n, k) for y as (n, k); the
    conditions y(x_0) = ya + (v - v_ref) slope and right . y(x_{m-1}) = 0;
    residuals are solved to tol, relative to 1 + |fun|."""

    fun: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    ya: np.ndarray
    slope: np.ndarray
    v_ref: float
    right: np.ndarray
    tol: float

    def conditions(self, y_a, y_b, v):
        """The n left residuals, then the right one."""
        return np.append(y_a - self.ya - (v - self.v_ref) * self.slope, self.right @ y_b)


@dataclass(frozen=True)
class Collocation:
    """The last round of a solve: the mesh x, the node values y (n, m), v,
    the rms residual of each interval, every round of the solve up to this
    one, each (nodes, Newton iterations, max rms residual, the nodes it
    predicts or None when it met tol), and the spline's coefficients
    (4, n, m - 1), highest power first in the distance from the interval's
    left node.  Called with 1-D s, it is the spline at s as (n, s.size); an
    s outside the mesh takes the end interval's cubic."""

    x: np.ndarray
    y: np.ndarray
    v: float
    rms: np.ndarray
    rounds: tuple
    coeffs: np.ndarray

    def __call__(self, s):
        i = np.clip(np.searchsorted(self.x, s, "right") - 1, 0, self.x.size - 2)
        return _value(self.coeffs[:, :, i], s - self.x[i])

    def describe(self, tol):
        nodes, newton, max_rms, _ = self.rounds[-1]
        return (f"round {len(self.rounds)} on {nodes} nodes ({newton} Newton "
                f"iterations, max rms residual {max_rms:.3g} against tol {tol:.3g})")


def solve(bvp: Bvp, x: np.ndarray, y: np.ndarray, v: float, max_nodes: int) -> Collocation:
    """Solve bvp from the guess (y on the mesh x, v) by rounds of Newton
    iteration, each on the mesh the last one's residuals predict.

    A round whose rms residuals and condition residuals all meet tol is
    returned.  Otherwise interval i, with rms residual r_i, is cut into
    ceil(_MESH_SAFETY (r_i / tol)^(1/3)) equal pieces, at least one, and
    the next round starts from the spline on that mesh.  A prediction of
    more than max_nodes nodes, a singular band LU, and a solve still
    unconverged after _MAX_ROUNDS rounds raise NoConvergence, each naming
    its round, node count, Newton iterations and residual, and carrying the
    rounds that finished, as the result does.
    """
    tol = bvp.tol
    rounds = []
    while True:
        h = np.diff(x)
        y, v, newton, col_res, f, f_mid, bc = _newton(bvp, h, y, v, rounds)
        coeffs = _hermite(y, f, h)
        rms = _rms(bvp.fun, coeffs, x, h, 1.5 * col_res / h, f_mid)
        miss = np.max(np.abs(bc))
        met = np.all(rms <= tol) and miss <= tol
        pieces = np.maximum(np.ceil(_MESH_SAFETY * np.cbrt(rms / tol)), 1.0)
        nodes = pieces.sum() + 1.0
        rounds.append((x.size, newton, float(np.max(rms)), None if met else int(nodes)))
        res = Collocation(x, y, v, rms, tuple(rounds), coeffs)
        if met:
            return res
        if not nodes <= max_nodes:
            raise NoConvergence(
                f"{res.describe(tol)} predicts {nodes:.0f} nodes, more than the cap {max_nodes}",
                res.rounds,
            )
        if len(rounds) == _MAX_ROUNDS:
            raise NoConvergence(
                f"{res.describe(tol)} still misses tol after {_MAX_ROUNDS} rounds (boundary "
                f"conditions' residual {miss:.3g})", res.rounds
            )
        x = _split_intervals(x, pieces.astype(int))
        y = res(x)


def _split_intervals(x: np.ndarray, pieces: np.ndarray) -> np.ndarray:
    """The mesh x with its interval i cut into pieces[i] equal parts."""
    start = np.repeat(x[:-1], pieces)
    j = np.arange(start.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    return np.append(start + j * np.repeat(np.diff(x) / pieces, pieces), x[-1])


def _newton(bvp, h, y, v, rounds):
    """solve_bvp's damped Newton iteration on one mesh, with the Jacobian
    factored by banded LU, as the round after the finished rounds; it stops
    early at a step that is rounding (_ROUND_Y, _ROUND_V).  Returns
    (y, v, iterations, and at the returned iterate the collocation
    residuals, fun at the nodes and at the midpoints, and the condition
    residuals)."""
    n, m = y.shape
    kl, ku = 2 * n - 2, n
    # solve_bvp stops when every collocation residual is below 1.5 orders
    # of the tolerance on the residual it implies at the interval's middle
    tol_r = 2 / 3 * h * 5e-2 * bvp.tol
    col_res, y_mid, f, f_mid = _collocation(bvp.fun, y, h)
    bc = bvp.conditions(y[:, 0], y[:, -1], v)
    njev, recompute = 0, True
    for it in range(1, _MAX_ITER + 1):
        if recompute:
            lu, piv, info = dgbtrf(_band(bvp, h, y, y_mid), kl, ku, overwrite_ab=True)
            if info > 0:
                raise NoConvergence(
                    f"round {len(rounds) + 1} on {m} nodes: the band LU is singular (dgbtrf "
                    f"info = {info}) at Newton iteration {it}", tuple(rounds)
                )
            njev += 1
            step = dgbtrs(lu, kl, ku, _residual(col_res, bc, n), piv)[0]
            # squared norms by einsum, not BLAS: a dot of 4m + 1 entries may
            # wake OpenBLAS's thread pool, whose hand-offs cost more than the sum
            cost = np.einsum("i,i->", step, step)
        v_step, y_step = step[0], step[1:].reshape(m, n).T
        if it > 1 and (np.max(np.abs(y_step)) <= _ROUND_Y * np.max(np.abs(y))
                       and abs(v_step) <= _ROUND_V * abs(v)):
            return y, v, it - 1, col_res, f, f_mid, bc
        alpha = 1.0
        for trial in range(_BACKTRACKS + 1):
            y_new = y - alpha * y_step
            v_new = v - alpha * v_step
            col_res, y_mid, f, f_mid = _collocation(bvp.fun, y_new, h)
            bc = bvp.conditions(y_new[:, 0], y_new[:, -1], v_new)
            step_new = dgbtrs(lu, kl, ku, _residual(col_res, bc, n), piv)[0]
            cost_new = np.einsum("i,i->", step_new, step_new)
            if cost_new < (1 - 2 * alpha * _ARMIJO) * cost:
                break
            if trial < _BACKTRACKS:
                alpha *= 0.5
        y, v = y_new, v_new
        if njev == _MAX_NJEV:
            break
        if np.all(np.abs(col_res) < tol_r * (1 + np.abs(f_mid))) and np.all(np.abs(bc) < bvp.tol):
            break
        # after a full step the next one reuses the factors, as BVP_SOLVER does
        recompute = alpha != 1.0
        if not recompute:
            step, cost = step_new, cost_new
    return y, v, it, col_res, f, f_mid, bc


def _collocation(fun, y, h):
    """Collocation residuals y_{i+1} - y_i - h/6 (f_i + 4 f_mid + f_{i+1}),
    the spline's midpoint values, and fun at the nodes and midpoints."""
    f = fun(y)
    y_mid = 0.5 * (y[:, 1:] + y[:, :-1]) - 0.125 * h * (f[:, 1:] - f[:, :-1])
    f_mid = fun(y_mid)
    col_res = y[:, 1:] - y[:, :-1] - h / 6 * (f[:, :-1] + f[:, 1:] + 4 * f_mid)
    return col_res, y_mid, f, f_mid


def _residual(col_res, bc, n):
    """The residual vector in the band's row order."""
    return np.concatenate((bc[:n], col_res.ravel(order="F"), bc[n:]))


def _band(bvp, h, y, y_mid):
    """The Jacobian of the collocation system at (y, y_mid) in LAPACK's
    banded-LU storage: entry (i, j) at [kl + ku + i - j, j], kl = 2n - 2,
    ku = n, the first kl rows left for the factorisation's fill-in.

    Each interval's two n-by-n blocks are solve_bvp's (Kierzenka & Shampine,
    p. 306), formed in its operation order; the left conditions' rows hold
    -slope in v's column and 1 in y_0's, the right condition's row holds
    right in y_{m-1}'s columns.
    """
    n, m = y.shape
    kl, ku = 2 * n - 2, n
    d = kl + ku  # the main diagonal's row
    jac = np.transpose(bvp.jac(y), (2, 0, 1))
    jac_mid = np.transpose(bvp.jac(y_mid), (2, 0, 1))
    hh = h[:, None, None]
    left = np.empty((m - 1, n, n))
    left[:] = -np.identity(n)
    left -= hh / 6 * (jac[:-1] + 2 * jac_mid)
    left -= hh**2 / 12 * np.einsum("...ij,...jk->...ik", jac_mid, jac[:-1])
    right = np.empty((m - 1, n, n))
    right[:] = np.identity(n)
    right -= hh / 6 * (jac[1:] + 2 * jac_mid)
    right += hh**2 / 12 * np.einsum("...ij,...jk->...ik", jac_mid, jac[1:])
    ab = np.zeros((2 * kl + ku + 1, n * m + 1), order="F")
    a, b = np.indices((n, n))
    # interval q's rows n + n q + a; its left block in the columns
    # 1 + n q + b, its right block n columns on
    cols = ab[:, 1 : 1 + n * (m - 1)].reshape(-1, m - 1, n)
    cols[d + n - 1 + a - b, :, b] = left.transpose(1, 2, 0)
    cols = ab[:, 1 + n : 1 + n * m].reshape(-1, m - 1, n)
    cols[d - 1 + a - b, :, b] = right.transpose(1, 2, 0)
    ab[d : d + n, 0] = -bvp.slope
    ab[d - 1, 1 : 1 + n] = 1.0
    ab[d + n - 1 - np.arange(n), np.arange(1 + n * (m - 1), 1 + n * m)] = bvp.right
    return ab


def _hermite(y, yp, h):
    """The cubic Hermite spline through values y and slopes yp at the nodes,
    as coefficients (4, n, m - 1), highest power first."""
    slope = (y[:, 1:] - y[:, :-1]) / h
    t = (yp[:, :-1] + yp[:, 1:] - 2 * slope) / h
    return np.array([t / h, (slope - yp[:, :-1]) / h - t, yp[:, :-1], y[:, :-1]])


def _value(c, d):
    """The cubic with coefficients c at the distance d from its left node,
    summed in ascending powers as scipy's PPoly does."""
    dd = d * d
    return c[3] + c[2] * d + c[1] * dd + c[0] * (dd * d)


def _slope(c, d):
    """The cubic's derivative, summed as _value."""
    return c[2] + c[1] * d * 2 + c[0] * (d * d) * 3


def _rms(fun, coeffs, x, h, r_mid, f_mid):
    """Each interval's rms residual |y' - fun(y)| / (1 + |fun(y)|) from
    5-point Lobatto quadrature; the residual is 0 at the nodes, and r_mid,
    divided in place, is the one at the midpoint."""
    x_mid = x[:-1] + 0.5 * h
    s = 0.5 * h * (3 / 7) ** 0.5
    # the quadrature points' offsets from each interval's left node, taken
    # from the points as PPoly takes them
    d1, d2 = (x_mid + s) - x[:-1], (x_mid - s) - x[:-1]
    y1, y2 = _value(coeffs, d1), _value(coeffs, d2)
    f1, f2 = fun(y1), fun(y2)
    r1 = _slope(coeffs, d1) - f1
    r2 = _slope(coeffs, d2) - f2
    r_mid /= 1 + np.abs(f_mid)
    r1 /= 1 + np.abs(f1)
    r2 /= 1 + np.abs(f2)
    r1 = np.sum(r1 * r1, axis=0)
    r2 = np.sum(r2 * r2, axis=0)
    r_mid = np.sum(r_mid * r_mid, axis=0)
    return (0.5 * (32 / 45 * r_mid + 49 / 90 * (r1 + r2))) ** 0.5
