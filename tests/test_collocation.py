"""biharm.collocation's sixth-order MIRK method, by its properties.

The band is the residuals' Jacobian, the spline is exact on quintics, and on
a problem with a closed-form solution the node error falls as h^6 and the
rms defect as h^5.  scipy.integrate.solve_bvp, a different method on its own
mesh, checks the answers: a converged solve must agree with scipy's to its
tolerance.
"""

import ast
import inspect
import re

import numpy as np
import pytest
from scipy.integrate import solve_bvp

import biharm.collocation
import biharm.shooting
from biharm import ProblemParams
from biharm.collocation import _band, _collocation, _hermite, _newton, _residual, _rms, _slope, _value
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


def test_band_is_the_residuals_complex_step_jacobian(quick_calls):
    # On a random state and mesh of shoot's problem the band, expanded, is
    # the Jacobian of the residual vector (left conditions, each interval's
    # MIRK residuals, right condition) in the unknowns (v, y_0, ...), taken
    # column by column by complex steps, to rounding; the fill-in rows stay
    # zero.
    bvp = quick_calls[0][0][0]
    rng = np.random.default_rng(7)
    n, m = 4, 9
    x = np.cumsum(rng.uniform(0.05, 0.3, m))
    h = np.diff(x)
    y = rng.normal(scale=0.3, size=(n, m))
    v = rng.normal()
    _, stages, _, _ = _collocation(bvp.fun, y, h)
    ab = _band(bvp, h, y, stages)
    kl, ku = 2 * n - 2, n
    assert ab.shape == (2 * kl + ku + 1, n * m + 1) and not ab[:kl].any()
    dense = np.zeros((n * m + 1, n * m + 1))
    for i in range(n * m + 1):
        for j in range(max(0, i - kl), min(n * m + 1, i + ku + 1)):
            dense[i, j] = ab[kl + ku + i - j, j]

    def residual(z):
        y_z = z[1:].reshape(m, n).T
        return _residual(_collocation(bvp.fun, y_z, h)[0], bvp.conditions(y_z[:, 0], y_z[:, -1], z[0]), n)

    z = np.concatenate(([v], y.T.ravel())).astype(complex)
    cs = np.empty_like(dense)
    for j in range(z.size):
        dz = z.copy()
        dz[j] += 1e-30j
        cs[:, j] = residual(dz).imag / 1e-30
    assert np.max(np.abs(dense - cs)) <= 1e-14 * np.max(np.abs(cs))


def test_spline_reproduces_a_quintic():
    # The spline through a quintic's values, slopes and second derivatives
    # at random nodes is that quintic to rounding, between the nodes and
    # outside the mesh, and so is its slope; and on y' = (1, 5 y_0^4), whose
    # solution (x, x^5) the spline meets, the rms defect is rounding.
    rng = np.random.default_rng(11)
    q = [np.polynomial.Polynomial(rng.normal(size=6)) for _ in range(2)]
    x = np.sort(rng.uniform(0.0, 2.0, 9))
    h = np.diff(x)
    coeffs = _hermite(*(np.array([qk.deriv(j)(x) for qk in q]) for j in range(3)), h)
    s = np.sort(np.concatenate((x, x[:-1] + 0.37 * h, [x[0] - 0.1, x[-1] + 0.1])))
    i = np.clip(np.searchsorted(x, s, "right") - 1, 0, x.size - 2)
    for j, evaluate in enumerate((_value, _slope)):
        exact = np.array([qk.deriv(j)(s) for qk in q])
        assert np.max(np.abs(evaluate(coeffs[:, :, i], s - x[i]) - exact)) <= 1e-13 * np.max(np.abs(exact))
    fun = lambda y: np.vstack((np.ones_like(y[0]), 5 * y[0] ** 4))
    y = np.vstack((x, x**5))
    coeffs = _hermite(y, fun(y), np.vstack((0 * x, 20 * x**3)), h)
    assert np.max(_rms(fun, coeffs, h)) <= 1e-13


def _linear(k):
    """y'' = k^2 y as two states, y(0) = 1, y'(0) = v and k y(1) - y'(1) =
    0: the solution is e^{kx}, v = k."""
    def jac(y):
        out = np.zeros((2, 2, y.shape[1]))
        out[0, 1], out[1, 0] = 1.0, k * k
        return out

    return biharm.collocation.Bvp(
        lambda y: np.vstack((y[1], k * k * y[0])), jac, ya=np.array([1.0, 0.0]),
        slope=np.array([0.0, 1.0]), v_ref=0.0, right=np.array([k, -1.0]), tol=1e-8,
    )


def test_halving_the_mesh_follows_the_sixth_order_law():
    # On y'' = 9 y with the solution e^{3x} on [0, 1], each halving of a
    # uniform mesh from 11 nodes cuts the node error at least 50x (h^6:
    # 64x) and the spline's largest rms defect at least 25x (h^5: 32x);
    # measured 64.2 and 63.8, 32.2 and 32.1, with errors 1.3e-6 down to
    # 3.2e-10, far above rounding.
    bvp = _linear(3.0)
    errors, defects = [], []
    for m in (11, 21, 41):
        x = np.linspace(0.0, 1.0, m)
        h = np.diff(x)
        y, v, _, f, _ = _newton(bvp, h, np.zeros((2, m)), 0.0, [])
        errors.append(np.max(np.abs(y - np.vstack((np.exp(3 * x), 3 * np.exp(3 * x))))))
        coeffs = _hermite(y, f, np.einsum("ijk,jk->ik", bvp.jac(y), f), h)
        defects.append(np.max(_rms(bvp.fun, coeffs, h)))
    assert errors[0] >= 50 * errors[1] >= 2500 * errors[2] > 0
    assert defects[0] >= 25 * defects[1] >= 625 * defects[2] > 0


@pytest.mark.parametrize("calls", ["quick_calls", "c_calls"])
def test_refinement_from_the_start_mesh_matches_solve_bvp(calls, request, scipy_problem):
    # From the 200 uniform start nodes shoot's one solve closes on them,
    # where solve_bvp inserts one or two nodes per interval a round and
    # takes more rounds to a finer mesh.  The two converged solutions
    # agree: v0 to 1e-14 relative and y0 = W / L - 1 to 1e-12 on both
    # meshes (measured: v0 bit-identical, y0 within 3.6e-15 and 5.7e-15).
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
    # steps must backtrack to reach the upper branch.  The converged v stays
    # on its branch, and it and y agree with solve_bvp's, a fourth-order
    # method on its own mesh, to the tolerance 1e-8; so does v with the
    # closed form theta tanh(theta / 4), theta = sqrt(2) cosh(theta / 4)
    # (measured: 2.8e-10 and 8.0e-13 relative from it, where scipy's reads
    # 6.5e-12 and 7.1e-13).
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
    ref = solve_bvp(x=x, y=y, p=[amp * np.pi], tol=bvp.tol, max_nodes=10_000, **scipy_problem(bvp))
    theta = max(2 * v_end**0.5, v_end)  # Newton's start on the branch
    for _ in range(20):
        theta -= (theta - 2**0.5 * np.cosh(theta / 4)) / (1 - 2**0.5 / 4 * np.sinh(theta / 4))
    exact = theta * np.tanh(theta / 4)
    assert ref.status == 0 and ours.v == pytest.approx(v_end, rel=1e-3)
    assert abs(ours.v - ref.p[0]) <= bvp.tol * abs(ref.p[0])
    assert abs(ours.v - exact) <= bvp.tol * exact
    s = np.union1d(ours.x, ref.x)
    assert np.max(np.abs(ours(s)[0] - ref.sol(s)[0])) <= bvp.tol


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


def test_newton_ends_at_a_step_that_is_rounding():
    # y'' = -1, y(0) = y(1) = 0: the collocation meets the quadratic
    # exactly, so one Newton step solves it and the next is rounding.  At
    # tol 1e-16 the stop test sits below the residuals' own rounding: the
    # iteration ran on to 4 factorisations (6 iterations), its line search
    # backtracking at rounding.  It now ends after the one step, without
    # taking the next, at the iterate the stop test accepts at tol 1e-8.
    def jac(y):
        out = np.zeros((2, 2, y.shape[1]))
        out[0, 1] = 1.0
        return out

    x = np.linspace(0.0, 1.0, 11)
    results = []
    for tol in (1e-8, 1e-16):
        bvp = biharm.collocation.Bvp(
            lambda y: np.vstack((y[1], -np.ones_like(y[0]))), jac, ya=np.zeros(2),
            slope=np.array([0.0, 1.0]), v_ref=0.0, right=np.array([1.0, 0.0]), tol=tol,
        )
        results.append(_newton(bvp, np.diff(x), np.zeros((2, 11)), 0.0, []))
    (y_8, v_8, it_8, *_), (y_16, v_16, it_16, *_) = results
    assert it_8 == it_16 == 1
    assert v_16 == v_8 == pytest.approx(0.5, rel=1e-15)
    assert np.array_equal(y_16, y_8)
