"""biharm.collocation against scipy.integrate.solve_bvp, the method it keeps.

scipy's solver is the reference here only: the band, the spline, the rms
estimate and each round's damped Newton solve must be solve_bvp's, with the
unknowns and equations reordered and the LU banded; the mesh rule is not
scipy's, so a converged solve must agree with scipy's to its tolerance.
"""

import ast
import inspect
import re

import numpy as np
import pytest
from scipy.integrate import _bvp, solve_bvp

import biharm.collocation
import biharm.shooting
from biharm import ProblemParams
from biharm.collocation import _band, _collocation, _hermite, _newton, _rms, _slope
from biharm.errors import NoConvergence
from biharm.shooting import _BVP_MAX_NODES, _BVP_NODES, shoot


def _recorded(params, r_max):
    """The (bvp, x, y, v, max_nodes) and result of each collocation.solve
    call of shoot(params, 1, r_max)."""
    calls, plain = [], biharm.collocation.solve

    def solve(bvp, x, y, v, max_nodes):
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


def _first_round(bvp, x, y, v):
    """(y, v, rms) after solve's first round on the mesh x."""
    h = np.diff(x)
    y, v, _, col_res, f, f_mid, _ = _newton(bvp, h, y, v, [])
    return y, v, _rms(bvp.fun, _hermite(y, f, h), x, h, 1.5 * col_res / h, f_mid)


def test_band_is_solve_bvps_jacobian_reordered(quick_calls, scipy_problem):
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
    dbc_dya, dbc_dyb, dbc_dp = scipy_problem(bvp)["bc_jac"](None, None, None)
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
def test_refinement_from_the_start_mesh_matches_solve_bvp(calls, request, scipy_problem):
    # From the 200 uniform start nodes shoot's one solve predicts its
    # meshes, where solve_bvp inserts one or two nodes per interval a round
    # and takes more rounds to a finer mesh.  The two converged solutions
    # agree: v0 to 1e-14 relative and y0 = W / L - 1 to 1e-12 on both
    # meshes (measured: v0 bit-identical, y0 within 2.2e-14).
    (bvp, x, y, v, max_nodes), ours = request.getfixturevalue(calls)[0]
    assert x.size == _BVP_NODES and max_nodes == _BVP_MAX_NODES
    ref = solve_bvp(x=x, y=y, p=[v], tol=bvp.tol, max_nodes=max_nodes, **scipy_problem(bvp))
    assert ref.status == 0 and ref.niter > len(ours.rounds) and ref.x.size > ours.x.size
    assert abs(ours.v - ref.p[0]) <= 1e-14 * abs(ref.p[0])
    s = np.union1d(ours.x, ref.x)
    assert np.max(np.abs(ours(s)[0] - ref.sol(s)[0])) <= 1e-12


@pytest.mark.parametrize("amp, v_end", [(0.0, 0.549), (3.0, 10.85)])
def test_damped_newton_follows_solve_bvp_on_bratu(amp, v_end, scipy_problem):
    # Bratu's problem y'' = -e^y, y(0) = y(1) = 0, as n = 2 states (a band
    # with kl = ku = 2) and v = y'(0): from a guess 3 sin(pi x) the Newton
    # steps must backtrack to reach the upper branch.  The first round
    # takes solve_bvp's path on the start mesh: v within 1e-13 relative and
    # the rms residuals scipy reads.  The converged v stays on its branch and
    # agrees with scipy's, found on another mesh, to 1e-11 relative
    # (measured: 2.7e-12 and 2.8e-13 at tol 1e-8).
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
    problem = scipy_problem(bvp)
    y_1, v_1, rms_1 = _first_round(bvp, x, y, amp * np.pi)
    ref_1 = solve_bvp(x=x, y=y, p=[amp * np.pi], tol=bvp.tol, max_nodes=x.size, **problem)
    assert ref_1.status == 1 and ref_1.niter == 1
    assert abs(v_1 - ref_1.p[0]) <= 1e-13 * abs(ref_1.p[0])
    assert np.allclose(rms_1, ref_1.rms_residuals, rtol=1e-6, atol=1e-3 * bvp.tol)
    ours = biharm.collocation.solve(bvp, x, y, amp * np.pi, 10_000)
    ref = solve_bvp(x=x, y=y, p=[amp * np.pi], tol=bvp.tol, max_nodes=10_000, **problem)
    assert ref.status == 0 and abs(ours.v - ref.p[0]) <= 1e-11 * abs(ref.p[0])
    assert ours.v == pytest.approx(v_end, rel=1e-3)


def test_coarse_round_is_solve_bvps_first_round(quick_calls, scipy_problem):
    # The first round, one Newton solve on the start mesh, is solve_bvp's
    # first round: its rms residuals (which predict the next mesh) and v
    # agree, and it misses tol where solve_bvp would insert nodes
    (bvp, x, y, v, _), res = quick_calls[0]
    assert len(res.rounds) > 1
    y_1, v_1, rms_1 = _first_round(bvp, x, y, v)
    ref = solve_bvp(x=x, y=y, p=[v], tol=bvp.tol, max_nodes=x.size, **scipy_problem(bvp))
    assert ref.status == 1 and ref.niter == 1
    assert abs(v_1 - ref.p[0]) <= 1e-14 * abs(ref.p[0])
    assert np.allclose(rms_1, ref.rms_residuals, rtol=1e-6, atol=1e-3 * bvp.tol)
    assert np.max(rms_1) > bvp.tol


def test_unconverged_conditions_fail_after_max_rounds(monkeypatch):
    # y'' = -1, y(0) = y(1) = 0, has a quadratic solution, which the
    # collocation meets exactly: every round's mesh needs no node.  With the
    # condition residuals read 10 tol high, the solve runs _MAX_ROUNDS
    # rounds on the start mesh and raises NoConvergence naming the round,
    # its nodes and Newton iterations, and the residuals, and carrying the
    # rounds.
    plain, meshes = biharm.collocation._newton, []

    def missing(bvp, h, y, v, rounds):
        *out, bc = plain(bvp, h, y, v, rounds)
        meshes.append(h.size + 1)
        return (*out, bc + 10.0 * bvp.tol)

    def jac(y):
        out = np.zeros((2, 2, y.shape[1]))
        out[0, 1] = 1.0
        return out

    bvp = biharm.collocation.Bvp(
        lambda y: np.vstack((y[1], -np.ones_like(y[0]))), jac, ya=np.zeros(2),
        slope=np.array([0.0, 1.0]), v_ref=0.0, right=np.array([1.0, 0.0]), tol=1e-8,
    )
    x = np.linspace(0.0, 1.0, 11)
    monkeypatch.setattr(biharm.collocation, "_newton", missing)
    with pytest.raises(NoConvergence) as info:
        biharm.collocation.solve(bvp, x, np.zeros((2, 11)), 0.0, 10_000)
    rounds = biharm.collocation._MAX_ROUNDS
    assert meshes == [11] * rounds
    found = re.fullmatch(
        r"round (\d+) on 11 nodes \((\d+) Newton iterations, max rms residual (\S+) against tol "
        r"1e-08\) still misses tol after (\d+) rounds \(boundary conditions' residual (\S+)\)",
        str(info.value),
    )
    assert found is not None, str(info.value)
    assert int(found[1]) == int(found[4]) == rounds and int(found[2]) >= 1
    assert float(found[3]) <= 1e-3 * bvp.tol
    assert float(found[5]) == pytest.approx(10.0 * bvp.tol)
    # the error carries every round, each on the start mesh and predicting it
    assert [(r[0], r[3]) for r in info.value.rounds] == [(11, 11)] * rounds


def test_shooting_imports_nothing_from_scipy():
    # the collocation takes only LAPACK's banded LU from scipy, in its own
    # module; shooting imports no scipy module itself
    tree = ast.parse(inspect.getsource(biharm.shooting))
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert not any(name and name.split(".")[0] == "scipy" for name in modules), modules
