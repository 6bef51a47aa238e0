"""biharm.collocation against scipy.integrate.solve_bvp, the method it keeps.

scipy's solver is the reference here only: the band, the spline, the rms
estimate and the refinement rounds must be solve_bvp's, with the unknowns
and equations reordered and the LU banded.
"""

import ast
import inspect

import numpy as np
import pytest
from scipy.integrate import _bvp, solve_bvp

import biharm.collocation
import biharm.shooting
from biharm import ProblemParams
from biharm.collocation import _band, _collocation, _hermite, _rms, _slope
from biharm.shooting import _BVP_MAX_NODES, _BVP_NODES, shoot


def _recorded(params, r_max):
    """The (bvp, x, y, v, max_nodes) and result of each collocation.solve
    call of shoot(params, 1, r_max)."""
    calls, plain = [], biharm.collocation.solve

    def solve(bvp, x, y, v, max_nodes=None):
        res = plain(bvp, x, y, v, max_nodes)
        calls.append(((bvp, x.copy(), y.copy(), v, max_nodes), res))
        return res

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(biharm.collocation, "solve", solve)
        shoot(params, alpha=1.0, r_max=r_max)
    return calls


@pytest.fixture(scope="module")
def quick_calls(pc13):
    return _recorded(ProblemParams(13, pc13 + 0.5), 500.0)


@pytest.fixture(scope="module")
def c_calls(pc13):
    return _recorded(ProblemParams(13, pc13), 1e4)


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


def test_band_is_solve_bvps_jacobian_reordered(quick_calls):
    # On a random state and mesh the band, expanded, is scipy's global
    # collocation Jacobian with its rows taken as (left conditions,
    # collocation residuals, right condition) and its columns as (v, y),
    # bit for bit; the fill-in rows stay zero.
    bvp = quick_calls[0][0][0]
    rng = np.random.default_rng(7)
    n, m = 4, 9
    x = np.cumsum(rng.uniform(0.05, 0.3, m))
    h = np.diff(x)
    y = rng.normal(scale=0.3, size=(n, m))
    _, y_mid, _, _ = _collocation(bvp.fun, y, h)
    ab = _band(bvp, h, y, y_mid)
    kl, ku = 2 * n - 2, n
    assert ab.shape == (2 * kl + ku + 1, n * m + 1) and not ab[:kl].any()
    dense = np.zeros((n * m + 1, n * m + 1))
    for i in range(n * m + 1):
        for j in range(max(0, i - kl), min(n * m + 1, i + ku + 1)):
            dense[i, j] = ab[kl + ku + i - j, j]
    i_jac, j_jac = _bvp.compute_jac_indices(n, m, 1)
    dbc_dya, dbc_dyb, dbc_dp = _scipy_problem(bvp)["bc_jac"](None, None, None)
    ref = _bvp.construct_global_jac(
        n, m, 1, i_jac, j_jac, h, bvp.jac(y), bvp.jac(y_mid), np.zeros((n, 1, m)),
        np.zeros((n, 1, m - 1)), dbc_dya, dbc_dyb, dbc_dp,
    ).toarray()
    col = n * (m - 1)  # scipy's first condition row
    rows = np.r_[col : col + n, 0:col, col + n]
    cols = np.r_[n * m, 0 : n * m]
    assert np.array_equal(dense, ref[np.ix_(rows, cols)])


def test_spline_and_rms_are_solve_bvps(quick_calls):
    # The spline of a round is scipy's create_spline (a PPoly), evaluated
    # in PPoly's order, and the rms estimate is estimate_rms_residuals, bit
    # for bit: at the nodes, between them and outside the mesh
    (bvp, *_), res = quick_calls[0]
    x, y = res.x, res.y
    h = np.diff(x)
    col_res, _, f, f_mid = _collocation(bvp.fun, y, h)
    spline = _bvp.create_spline(y, f, x, h)
    s = np.sort(np.concatenate((x, x[:-1] + 0.37 * h, [x[0] - 0.1, x[-1] + 0.1])))
    assert np.array_equal(res(s), spline(s))
    i = np.clip(np.searchsorted(x, s, "right") - 1, 0, x.size - 2)
    assert np.array_equal(_slope(_hermite(y, f, h)[:, :, i], s - x[i]), spline(s, 1))
    ref = _bvp.estimate_rms_residuals(
        lambda x, y, p: bvp.fun(y), spline, x, h, None, 1.5 * col_res / h, f_mid.copy()
    )
    assert np.array_equal(_rms(bvp.fun, res.coeffs, x, h, 1.5 * col_res / h, f_mid.copy()), ref)
    assert np.array_equal(res.rms, ref)


@pytest.mark.parametrize("calls", ["quick_calls", "c_calls"])
def test_refinement_from_the_start_mesh_matches_solve_bvp(calls, request):
    # Refining from the 200 uniform start nodes alone takes insertion rounds
    # (as n40_pc's final solve does); it reaches the mesh scipy's
    # refinement reaches, in as many rounds, and v0 to 1e-14 relative.
    (bvp, x, y, v, _), _ = request.getfixturevalue(calls)[0]
    assert x.size == _BVP_NODES
    ours = biharm.collocation.solve(bvp, x, y, v, _BVP_MAX_NODES)
    ref = solve_bvp(x=x, y=y, p=[v], tol=bvp.tol, max_nodes=_BVP_MAX_NODES, **_scipy_problem(bvp))
    assert ref.status == 0 and ours.converged
    assert ours.niter == ref.niter > 1
    assert np.array_equal(ours.x, ref.x)
    assert abs(ours.v - ref.p[0]) <= 1e-14 * abs(ref.p[0])


@pytest.mark.parametrize("amp, v_end", [(0.0, 0.549), (3.0, 10.85)])
def test_damped_newton_follows_solve_bvp_on_bratu(amp, v_end):
    # Bratu's problem y'' = -e^y, y(0) = y(1) = 0, as n = 2 states (a band
    # with kl = ku = 2) and v = y'(0): from a guess 3 sin(pi x) the Newton
    # steps must backtrack to reach the upper branch.  Both solvers take the
    # same path: equal meshes and rounds, and v within 1e-13 relative.
    def jac(y):
        out = np.zeros((2, 2, y.shape[1]))
        out[0, 1], out[1, 0] = 1.0, -np.exp(y[0])
        return out

    bvp = biharm.collocation.Bvp(
        lambda y: np.vstack((y[1], -np.exp(y[0]))), jac, ya=np.zeros(2),
        slope=np.array([0.0, 1.0]), v_ref=0.0, right=np.array([1.0, 0.0]), tol=1e-8,
    )
    x = np.linspace(0.0, 1.0, 11)
    y = amp * np.vstack((np.sin(np.pi * x), np.pi * np.cos(np.pi * x)))
    ours = biharm.collocation.solve(bvp, x, y, amp * np.pi, 10_000)
    ref = solve_bvp(x=x, y=y, p=[amp * np.pi], tol=bvp.tol, max_nodes=10_000, **_scipy_problem(bvp))
    assert ref.status == 0 and ours.converged
    assert ours.niter == ref.niter and np.array_equal(ours.x, ref.x)
    assert abs(ours.v - ref.p[0]) <= 1e-13 * abs(ref.p[0]) and ours.v == pytest.approx(v_end, rel=1e-3)


def test_coarse_round_is_solve_bvps_first_round(quick_calls):
    # The coarse round is solve_bvp's first round on the start mesh: its
    # rms residuals (which predict the final mesh) and v agree, and it
    # stops, not converged, where solve_bvp would insert nodes
    (bvp, x, y, v, max_nodes), coarse = quick_calls[0]
    assert max_nodes is None and coarse.round == "coarse" and not coarse.converged
    ref = solve_bvp(x=x, y=y, p=[v], tol=bvp.tol, max_nodes=x.size, **_scipy_problem(bvp))
    assert ref.status == 1 and ref.niter == coarse.niter == 1
    assert np.array_equal(coarse.x, ref.x)
    assert abs(coarse.v - ref.p[0]) <= 1e-14 * abs(ref.p[0])
    assert np.allclose(coarse.rms, ref.rms_residuals, rtol=1e-6, atol=1e-3 * bvp.tol)


def test_shooting_imports_nothing_from_scipy():
    # the collocation takes only LAPACK's banded LU from scipy, in its own
    # module; shooting imports no scipy module itself
    tree = ast.parse(inspect.getsource(biharm.shooting))
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert not any(name and name.split(".")[0] == "scipy" for name in modules), modules
