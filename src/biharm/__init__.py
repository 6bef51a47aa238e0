"""Numerics for positive radial solutions of Delta^2 phi = phi^p, p >= p_c.

Subpackages cover the eigenvalue structure of the linearized equation
(`spectrum`), the critical exponent and rung ladder (`ladder`), a shooting
solver for the radial ODE (`shooting`), and asymptotic-expansion fitting
(`expansion`).  The `cli` module exposes everything on the command line.
"""

import importlib

from .errors import (
    BiharmError,
    BracketNotFound,
    DomainError,
    GridTooCoarse,
    IllConditioned,
    InvalidParams,
    LadderMismatch,
    NoConvergence,
    NoPcValue,
    StepFailure,
    SubcriticalInput,
    WindowTooShort,
)
from .params import ProblemParams, sobolev_exponent
from .spectrum import Spectrum, compute_spectrum, eigen_poly_eval, lambda_star, q4_eval
from .ladder import (
    CriticalLadder,
    ParityBoundary,
    compute_ladder,
    compute_pc,
    f_quartic,
    ladder_length_formula,
    parity_boundary_check,
    pc_defect,
    rk_eval,
    tail_limit,
)

# The solving layers load scipy; their names are imported on first use
# (PEP 562), so `import biharm` and the algebra above load none of it.
_LAZY = {
    **dict.fromkeys([
        "BlowUp",
        "RadialSolution",
        "SignLoss",
        "dump_solution",
        "emden_fowler_residual",
        "integrate_radial",
        "rescale_solution",
        "shoot",
        "y_integral_identity_check",
    ], "shooting"),
    **dict.fromkeys([
        "ExpansionFit",
        "Nonlinearity",
        "Regime",
        "VariationKernel",
        "detect_regime",
        "fit_expansion",
        "g_eval",
        "representation_check",
        "taylor_coeffs",
        "variation_kernel",
    ], "expansion"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "BiharmError",
    "BlowUp",
    "BracketNotFound",
    "CriticalLadder",
    "DomainError",
    "ExpansionFit",
    "GridTooCoarse",
    "IllConditioned",
    "InvalidParams",
    "LadderMismatch",
    "NoConvergence",
    "NoPcValue",
    "Nonlinearity",
    "ParityBoundary",
    "ProblemParams",
    "RadialSolution",
    "Regime",
    "SignLoss",
    "Spectrum",
    "StepFailure",
    "SubcriticalInput",
    "VariationKernel",
    "WindowTooShort",
    "compute_ladder",
    "compute_pc",
    "compute_spectrum",
    "detect_regime",
    "dump_solution",
    "eigen_poly_eval",
    "emden_fowler_residual",
    "f_quartic",
    "fit_expansion",
    "g_eval",
    "integrate_radial",
    "ladder_length_formula",
    "lambda_star",
    "parity_boundary_check",
    "pc_defect",
    "q4_eval",
    "rescale_solution",
    "representation_check",
    "rk_eval",
    "shoot",
    "sobolev_exponent",
    "tail_limit",
    "taylor_coeffs",
    "variation_kernel",
    "y_integral_identity_check",
]

__version__ = "0.1.0"
