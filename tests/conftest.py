import time

import numpy as np
import pytest

from biharm import ProblemParams, compute_ladder, compute_pc
from biharm.shooting import shoot


@pytest.fixture(scope="session")
def pc13():
    return compute_pc(13)


@pytest.fixture(scope="session")
def pc15():
    return compute_pc(15)


@pytest.fixture(scope="session")
def shoot_timings():
    """Wall-clock seconds of each acceptance shooting case."""
    return {}


def _timed_shoot(timings, label, params, r_max):
    t0 = time.perf_counter()
    sol = shoot(params, alpha=1.0, r_max=r_max)
    timings[label] = time.perf_counter() - t0
    return sol


@pytest.fixture(scope="session")
def sol_a(pc13, shoot_timings):
    """n=13, p = p_c + 0.5, r_max = 1e4 (acceptance case)."""
    return _timed_shoot(shoot_timings, "A", ProblemParams(13, pc13 + 0.5), 1e4)


@pytest.fixture(scope="session")
def sol_b(pc15, shoot_timings):
    """n=15, p = p_c + 1, r_max = 1e4 (acceptance case)."""
    return _timed_shoot(shoot_timings, "B", ProblemParams(15, pc15 + 1.0), 1e4)


@pytest.fixture(scope="session")
def sol_c(pc13, shoot_timings):
    """n=13, p = p_c (critical), r_max = 1e4 (acceptance case)."""
    return _timed_shoot(shoot_timings, "C", ProblemParams(13, pc13), 1e4)


@pytest.fixture(scope="session")
def sol_quick(pc13):
    """Small, fast run for structural tests."""
    return shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=500.0)


@pytest.fixture(scope="session")
def sol_rung(pc15):
    """n=15 exactly on the second rung (regime b)."""
    p2 = compute_ladder(15).rungs[1]
    return shoot(ProblemParams(15, p2), alpha=1.0, r_max=2000.0)


@pytest.fixture(scope="session")
def sol_n200_10pc():
    """n = 200 at p = 10 p_c, r_max 1e4 (about 0.4 s): regime a with k = 95."""
    return shoot(ProblemParams(200, 10.0 * compute_pc(200)), alpha=1.0, r_max=1e4)


def _scipy_problem(bvp):
    """bvp as solve_bvp's fun, bc, fun_jac and bc_jac, with v as p[0]."""
    n = bvp.ya.size
    dbc = (np.vstack((np.eye(n), np.zeros(n))), np.vstack((np.zeros((n, n)), bvp.right)),
           np.append(-bvp.slope, 0.0)[:, None])
    return dict(
        fun=lambda x, y, p: bvp.fun(y),
        bc=lambda ya, yb, p: bvp.conditions(ya, yb, p[0]),
        fun_jac=lambda x, y, p: (bvp.jac(y), np.zeros((n, 1, x.size))),
        bc_jac=lambda ya, yb, p: dbc,
    )


@pytest.fixture(scope="session")
def scipy_problem():
    """The map from a biharm.collocation.Bvp to scipy.integrate.solve_bvp's
    keyword arguments (fun, bc, fun_jac, bc_jac; v as p[0]): scipy's solver
    is the collocation's reference."""
    return _scipy_problem
