"""Collocation solver for shoot's boundary value problem on the s-chart.

The problem is y' = fun(y) for n states on a mesh x_0 < ... < x_{m-1},
with one scalar unknown v and n + 1 conditions:

    y(x_0) = ya + (v - v_ref) slope,        right . y(x_{m-1}) = 0.

Each interval, of length h from y_i to y_{i+1}, holds the sixth-order
mono-implicit Runge-Kutta (MIRK) formula of Cash & Singhal (IMA J. Numer.
Anal. 2, 1982), Boole's rule on five stages:

    K1 = fun(y_i),   K2 = fun(y_{i+1}),
    K3 = fun(27/32 y_i + 5/32 y_{i+1} + h (9/64 K1 - 3/64 K2)),
    K4 = fun(5/32 y_i + 27/32 y_{i+1} + h (3/64 K1 - 9/64 K2)),
    K5 = fun((y_i + y_{i+1}) / 2 + h (5/24 (K2 - K1) + 2/3 (K3 - K4))),
    y_{i+1} - y_i - h (7/90 (K1 + K2) + 16/45 (K3 + K4) + 2/15 K5) = 0.

The stages are explicit in the two end values, so the node values are the
only unknowns besides v, and their error falls as h^6.  A damped Newton
iteration on the affine-invariant criterion |J^-1 r|^2, with
scipy.integrate.solve_bvp's constants (Kierzenka & Shampine, ACM TOMS
27(3), 2001), solves these equations.  Between nodes the solution is the C2
quintic Hermite spline through y, fun(y) and jac(y) fun(y) at the nodes.
Its defect y' - fun(y), relative to 1 + |fun|, is O(h^5); each interval's
rms defect from 5-point Lobatto quadrature is the error that must meet the
tolerance (defect control as in Enright & Muir, SIAM J. Sci. Comput. 17,
1996), and the defects of one round predict the next round's mesh, each
interval cut into equal pieces enough to meet the tolerance.  With the
unknowns ordered (v, y_0, ..., y_{m-1}) and the equations (the n left
conditions, the n residuals of each interval in turn, the right
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
# The spline's rms defect on an interval is O(h^5): the next round cuts an
# interval with defect r into ceil(_MESH_SAFETY (r / tol)^(1/5)) pieces.
_MESH_SAFETY = 2.0


@dataclass(frozen=True)
class Bvp:
    """y' = fun(y), with jac(y) = df/dy as (n, n, k) for y as (n, k); the
    conditions y(x_0) = ya + (v - v_ref) slope and right . y(x_{m-1}) = 0;
    the spline's rms defects and the conditions' residuals are solved to
    tol, the defects relative to 1 + |fun|."""

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
    the rms defect of each interval, every round of the solve up to this
    one, each (nodes, Newton iterations, max rms residual, the nodes it
    predicts or None when it met tol), and the quintic spline's
    coefficients (6, n, m - 1), highest power first in the distance from
    the interval's left node.  Called with 1-D s, it is the spline at s as
    (n, s.size); an s outside the mesh takes the end interval's quintic."""

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
    iteration, each on the mesh the last one's defects predict.

    A round whose rms defects and condition residuals all meet tol is
    returned.  Otherwise interval i, with rms defect r_i, is cut into
    ceil(_MESH_SAFETY (r_i / tol)^(1/5)) equal pieces, at least one, and
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
        y, v, newton, f, bc = _newton(bvp, h, y, v, rounds)
        coeffs = _hermite(y, f, np.einsum("ijk,jk->ik", bvp.jac(y), f), h)
        rms = _rms(bvp.fun, coeffs, h)
        miss = np.max(np.abs(bc))
        met = np.all(rms <= tol) and miss <= tol
        pieces = np.maximum(np.ceil(_MESH_SAFETY * (rms / tol) ** 0.2), 1.0)
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
    """The damped Newton iteration on one mesh's MIRK equations, with
    solve_bvp's caps (_MAX_NJEV Jacobians, _MAX_ITER iterations), Armijo
    test and backtracking, and the Jacobian factored by banded LU, as the
    round after the finished rounds.  It stops early at a step that is
    rounding (_ROUND_Y, _ROUND_V), or once the conditions' residuals are
    below tol and every interval's residual r has 1.5 |r| / h < 5e-2 tol
    (1 + |K5|), solve_bvp's test with K5 as the midpoint slope.  Returns
    (y, v, iterations, fun at the nodes and the condition residuals at the
    returned iterate)."""
    n, m = y.shape
    kl, ku = 2 * n - 2, n
    tol_r = 2 / 3 * h * 5e-2 * bvp.tol
    res, stages, f, f_mid = _collocation(bvp.fun, y, h)
    bc = bvp.conditions(y[:, 0], y[:, -1], v)
    njev, recompute = 0, True
    for it in range(1, _MAX_ITER + 1):
        if recompute:
            lu, piv, info = dgbtrf(_band(bvp, h, y, stages), kl, ku, overwrite_ab=True)
            if info > 0:
                raise NoConvergence(
                    f"round {len(rounds) + 1} on {m} nodes: the band LU is singular (dgbtrf "
                    f"info = {info}) at Newton iteration {it}", tuple(rounds)
                )
            njev += 1
            step = dgbtrs(lu, kl, ku, _residual(res, bc, n), piv)[0]
            # squared norms by einsum, not BLAS: a dot of 4m + 1 entries may
            # wake OpenBLAS's thread pool, whose hand-offs cost more than the sum
            cost = np.einsum("i,i->", step, step)
        v_step, y_step = step[0], step[1:].reshape(m, n).T
        if it > 1 and (np.max(np.abs(y_step)) <= _ROUND_Y * np.max(np.abs(y))
                       and abs(v_step) <= _ROUND_V * abs(v)):
            return y, v, it - 1, f, bc
        alpha = 1.0
        for trial in range(_BACKTRACKS + 1):
            y_new = y - alpha * y_step
            v_new = v - alpha * v_step
            res, stages, f, f_mid = _collocation(bvp.fun, y_new, h)
            bc = bvp.conditions(y_new[:, 0], y_new[:, -1], v_new)
            step_new = dgbtrs(lu, kl, ku, _residual(res, bc, n), piv)[0]
            cost_new = np.einsum("i,i->", step_new, step_new)
            if cost_new < (1 - 2 * alpha * _ARMIJO) * cost:
                break
            if trial < _BACKTRACKS:
                alpha *= 0.5
        y, v = y_new, v_new
        if njev == _MAX_NJEV:
            break
        if np.all(np.abs(res) < tol_r * (1 + np.abs(f_mid))) and np.all(np.abs(bc) < bvp.tol):
            break
        # after a full step the next one reuses the factors, as BVP_SOLVER does
        recompute = alpha != 1.0
        if not recompute:
            step, cost = step_new, cost_new
    return y, v, it, f, bc


def _collocation(fun, y, h):
    """Each interval's MIRK residual, its stages' arguments (Y3, Y4, Y5),
    fun at the nodes and K5, fun at the midpoint stage."""
    f = fun(y)
    y_i, y_j, k1, k2 = y[:, :-1], y[:, 1:], f[:, :-1], f[:, 1:]
    y3 = 27 / 32 * y_i + 5 / 32 * y_j + h * (9 / 64 * k1 - 3 / 64 * k2)
    y4 = 5 / 32 * y_i + 27 / 32 * y_j + h * (3 / 64 * k1 - 9 / 64 * k2)
    k3, k4 = np.split(fun(np.hstack((y3, y4))), 2, axis=1)
    y5 = 0.5 * (y_i + y_j) + h * (5 / 24 * (k2 - k1) + 2 / 3 * (k3 - k4))
    k5 = fun(y5)
    res = y_j - y_i - h * (7 / 90 * (k1 + k2) + 16 / 45 * (k3 + k4) + 2 / 15 * k5)
    return res, (y3, y4, y5), f, k5


def _residual(res, bc, n):
    """The residual vector in the band's row order."""
    return np.concatenate((bc[:n], res.ravel(order="F"), bc[n:]))


def _band(bvp, h, y, stages):
    """The Jacobian of the MIRK system at y, with the stages' arguments
    (Y3, Y4, Y5), in LAPACK's banded-LU storage: entry (i, j) at
    [kl + ku + i - j, j], kl = 2n - 2, ku = n, the first kl rows left for
    the factorisation's fill-in.

    Each interval's two n-by-n blocks, d residual / d y_i and
    d residual / d y_{i+1}, follow the stages by the chain rule through
    jac at y_i, y_{i+1}, Y3, Y4 and Y5, the pair (i, i+1) as one leading
    axis; the left conditions' rows hold -slope in v's column and 1 in
    y_0's, the right condition's row holds right in y_{m-1}'s columns.
    """
    n, m = y.shape
    kl, ku = 2 * n - 2, n
    d = kl + ku  # the main diagonal's row
    jac = np.transpose(bvp.jac(np.hstack((y, *stages))), (2, 0, 1))
    j12 = np.stack((jac[: m - 1], jac[1:m]))  # at y_i, at y_{i+1}
    j3, j4, j5 = jac[m:].reshape(3, m - 1, n, n)
    eye, hh = np.identity(n), h[:, None, None]
    dot = lambda a, b: np.einsum("...ij,...jk->...ik", a, b)
    # each stack holds d/dy_i, then d/dy_{i+1}: h dK1/dy_i and h dK2/dy_{i+1},
    # then dK3, dK4 and dK5 through the derivatives of Y3, Y4 and Y5
    hk = hh * j12
    dk3 = dot(j3, np.stack((27 / 32 * eye + 9 / 64 * hk[0], 5 / 32 * eye - 3 / 64 * hk[1])))
    dk4 = dot(j4, np.stack((5 / 32 * eye + 3 / 64 * hk[0], 27 / 32 * eye - 9 / 64 * hk[1])))
    dk5 = dot(j5, 0.5 * eye + 5 / 24 * np.stack((-hk[0], hk[1])) + 2 / 3 * hh * (dk3 - dk4))
    blocks = 7 / 90 * hk + hh * (16 / 45 * (dk3 + dk4) + 2 / 15 * dk5)
    left, right = -eye - blocks[0], eye - blocks[1]
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


def _hermite(y, yp, ypp, h):
    """The quintic Hermite spline through values y, slopes yp and second
    derivatives ypp at the nodes, as coefficients (6, n, m - 1), highest
    power first."""
    hp, hpp = h * yp[:, :-1], h * h * ypp[:, :-1]
    val = y[:, 1:] - y[:, :-1] - hp - 0.5 * hpp   # h^3 c3 + h^4 c4 + h^5 c5
    slo = h * yp[:, 1:] - hp - hpp                # 3 h^3 c3 + 4 h^4 c4 + 5 h^5 c5
    cur = h * h * ypp[:, 1:] - hpp                # 6 h^3 c3 + 12 h^4 c4 + 20 h^5 c5
    return np.array([(6 * val - 3 * slo + 0.5 * cur) / h**5, (-15 * val + 7 * slo - cur) / h**4,
                     (10 * val - 4 * slo + 0.5 * cur) / h**3, 0.5 * ypp[:, :-1], yp[:, :-1], y[:, :-1]])


def _value(c, d):
    """The polynomial with coefficients c, highest power first, at the
    distance d from its left node, by Horner's rule."""
    out = c[0]
    for ck in c[1:]:
        out = out * d + ck
    return out


def _slope(c, d):
    """The polynomial's derivative, by Horner's rule."""
    return _value([(len(c) - 1 - k) * ck for k, ck in enumerate(c[:-1])], d)


def _rms(fun, coeffs, h):
    """Each interval's rms defect |y' - fun(y)| / (1 + |fun(y)|) of the
    spline from 5-point Lobatto quadrature; the defect is 0 at the nodes."""
    # the three inner points' offsets from each left node, (3, m - 1)
    d = 0.5 * h * (1.0 + np.array([-(3 / 7) ** 0.5, 0.0, (3 / 7) ** 0.5])[:, None])
    c = coeffs[:, :, None, :]
    y = _value(c, d)
    f = fun(y.reshape(y.shape[0], -1)).reshape(y.shape)
    r = np.sum(((_slope(c, d) - f) / (1 + np.abs(f))) ** 2, axis=0)
    return (0.5 * (49 / 90 * (r[0] + r[2]) + 32 / 45 * r[1])) ** 0.5
