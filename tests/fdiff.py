"""Central finite-difference stencils on uniform grids: the tests' reference
derivatives of solved and synthetic arrays (the package itself uses none).

Weights are generated by solving the moment (Vandermonde) system, so no
hard-coded coefficient tables are involved.
"""

from __future__ import annotations

import math

import numpy as np

from biharm.errors import GridTooCoarse


def fd_weights(offsets, deriv: int) -> np.ndarray:
    """Stencil weights for d^deriv/ds^deriv at offset 0, in units of h = 1.

    Solves sum_j w_j * o_j^k = k! * delta_{k,deriv} for k = 0..len(offsets)-1.
    """
    offsets = np.asarray(offsets, dtype=float)
    npts = offsets.size
    if deriv >= npts:
        raise ValueError(f"need more than {deriv} points for derivative {deriv}")
    vander = np.vander(offsets, npts, increasing=True).T
    rhs = np.zeros(npts)
    rhs[deriv] = math.factorial(deriv)
    return np.linalg.solve(vander, rhs)


def central_offsets(deriv: int, acc: int) -> np.ndarray:
    """Symmetric offsets giving accuracy order `acc` for derivative `deriv`."""
    if acc % 2 != 0 or acc < 2:
        raise ValueError("accuracy order must be even and >= 2")
    npts = 2 * ((deriv + 1) // 2) - 1 + acc
    half = npts // 2
    return np.arange(-half, half + 1)


def diff_uniform(y: np.ndarray, h: float, deriv: int, acc: int = 4) -> np.ndarray:
    """Interior derivative values; output is shorter than y by 2*margin nodes."""
    offsets = central_offsets(deriv, acc)
    w = fd_weights(offsets, deriv) / h**deriv
    half = offsets[-1]
    n = y.size - 2 * half
    if n < 1:
        raise GridTooCoarse(f"grid of {y.size} nodes too short for a {offsets.size}-point stencil")
    out = np.zeros(n)
    for off, wj in zip(offsets, w):
        out += wj * y[half + off : half + off + n]
    return out

