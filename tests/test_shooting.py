import io
import math
from dataclasses import replace

import numpy as np
import pytest

from biharm import GridTooCoarse, InvalidParams, ProblemParams, compute_pc
from biharm.fdiff import central_offsets, diff_uniform, fd_weights
from biharm.shooting import (
    BlowUp,
    ShootControls,
    SignLoss,
    _Integrator,
    _power,
    _s_operator_coeffs,
    check_monotone_y,
    check_positivity,
    decay_slope,
    dump_solution,
    emden_fowler_residual,
    exp_kernel_convolve,
    integrate_radial,
    rescale_solution,
    resolved_top_index,
    shoot,
    y_integral_identity_check,
)


def test_fd_weights_reproduce_exponential():
    # stencils generated from the moment system must differentiate e^{cs}
    c, h = 1.7, 0.01
    s = h * np.arange(-6, 7)
    y = np.exp(c * s)
    for deriv in (1, 2, 3, 4):
        offs = central_offsets(deriv, 4)
        w = fd_weights(offs, deriv) / h**deriv
        approx = sum(wj * math.exp(c * o * h) for wj, o in zip(w, offs))
        assert approx == pytest.approx(c**deriv, rel=1e-6)


def test_diff_uniform_interior():
    h = 0.01
    s = h * np.arange(200)
    y = np.exp(-2.0 * s)
    d3 = diff_uniform(y, h, 3, acc=4)
    margin = (y.size - d3.size) // 2
    expected = -8.0 * np.exp(-2.0 * s[margin:-margin])
    assert np.allclose(d3, expected, rtol=1e-8)
    with pytest.raises(GridTooCoarse):
        diff_uniform(y[:6], h, 4, acc=4)


def test_v0_zero_blows_up(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    out = integrate_radial(params, alpha=1.0, v0=0.0, r_max=100.0)
    assert isinstance(out, BlowUp)
    out = integrate_radial(params, alpha=1.0, v0=-1e-6, r_max=100.0)
    assert isinstance(out, BlowUp)


def test_too_negative_v0_loses_sign(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    out = integrate_radial(params, alpha=1.0, v0=-100.0, r_max=100.0)
    assert isinstance(out, SignLoss)
    assert out.r > 0.0


@pytest.mark.parametrize("n, p_of_pc", [
    (13, lambda pc: pc + 0.5),
    (20, lambda pc: 10.0 * pc),
    (100, lambda pc: pc),
])
def test_scalar_rhs_matches_array_reference(n, p_of_pc):
    # the scalar right-hand sides must reproduce the array formula built on
    # _power bit for bit, including u < 0, u = 0 and u above the power cap
    params = ProblemParams(n, p_of_pc(compute_pc(n)))
    integ = _Integrator(params, 1.0, ShootControls())
    c = _s_operator_coeffs(n, params.m)
    nm1, cap = n - 1.0, integ.pow_cap
    rng = np.random.default_rng(20240)
    states = rng.normal(size=(64, 4)) * 10.0 ** rng.uniform(-6.0, 3.0, size=(64, 1))
    states[:8, 0] = -np.abs(states[:8, 0])
    states[8:12, 0] = 0.0
    states[12:16, 0] = min(cap * 10.0, 1e300) * rng.uniform(0.2, 1.0, size=4)
    assert np.all(states[12:16, 0] > cap)
    for y, r in zip(states, rng.uniform(1e-3, 12.0, size=64)):
        u, w, v, z = y
        ref_r = (w, v - nm1 * w / r, z, _power(u, params.p, cap) - nm1 * z / r)
        ref_s = (w, v, z, _power(u, params.p, cap) - (c[1] * z + c[2] * v + c[3] * w + c[4] * u))
        for ref, got in ((ref_r, integ.rhs_r(r, y)), (ref_s, integ.rhs_s(math.log(r), y))):
            ref, got = np.array(ref, dtype=float), np.array(got, dtype=float)
            assert np.all(got == ref)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_integrate_radial_at_converged_v0(sol_quick):
    again = integrate_radial(
        sol_quick.params, alpha=1.0, v0=sol_quick.v0, r_max=500.0
    )
    assert not isinstance(again, (BlowUp, SignLoss))
    assert np.allclose(again.W, sol_quick.W, rtol=0, atol=1e-9)


def test_shoot_converges(sol_quick):
    assert abs(sol_quick.target_residual) < 1e-3
    assert check_positivity(sol_quick)
    assert check_monotone_y(sol_quick)
    assert sol_quick.chart_overlap_residual < 1e-9
    assert sol_quick.v0 < 0.0


def test_shoot_v0_regression(sol_quick, sol_a):
    # frozen shooting parameters for phi(0) = 1 (regression fixtures)
    assert sol_quick.v0 == pytest.approx(-0.2668911534, rel=1e-6)
    assert sol_a.v0 == pytest.approx(-0.2668911534, rel=1e-6)


def test_determinism(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    s1 = shoot(params, alpha=1.0, r_max=60.0)
    s2 = shoot(params, alpha=1.0, r_max=60.0)
    assert s1.v0 == s2.v0
    assert np.array_equal(s1.W, s2.W)


def test_w_is_scaled_phi(sol_quick):
    m = sol_quick.params.m
    w_from_phi = sol_quick.r_grid**m * sol_quick.phi
    assert np.allclose(w_from_phi, sol_quick.W, rtol=1e-12)


def test_scale_covariance(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    base = shoot(params, alpha=1.0, r_max=100.0)
    alpha = 2.0**params.m
    mapped = rescale_solution(base, alpha)
    direct = shoot(params, alpha=alpha, r_max=50.0)
    lo = max(direct.s_grid[0], mapped.s_grid[0]) + 0.1
    hi = min(direct.s_grid[-1], mapped.s_grid[-1]) - 0.1
    ss = np.linspace(lo, hi, 300)
    wd = np.interp(ss, direct.s_grid, direct.W)
    wm = np.interp(ss, mapped.s_grid, mapped.W)
    assert np.max(np.abs(wd - wm)) / np.max(np.abs(wd)) < 1e-5
    # v0 transforms with kappa^{m+2}
    kappa = alpha ** (1.0 / params.m)
    assert mapped.v0 == pytest.approx(base.v0 * kappa ** (params.m + 2.0))
    assert direct.v0 == pytest.approx(mapped.v0, rel=1e-6)


def test_phia_limit_window(sol_quick):
    # |r^m phi / L - 1| below tolerance and decreasing over the resolved tail
    L = sol_quick.spectrum.L
    top = resolved_top_index(sol_quick, 1e-9)
    ratio = np.abs(sol_quick.W[: top + 1] / L - 1.0)
    start = int(0.9 * ratio.size)
    window = ratio[start:]
    assert np.all(window < 1e-3)
    assert np.all(np.diff(window) <= 0.0)


def test_z_nonnegative_on_resolved_range(sol_quick):
    top = resolved_top_index(sol_quick, 1e-8)
    Z = sol_quick.Z[: top + 1]
    assert np.all(Z > -1e-8 * np.max(np.abs(Z)))


def test_decay_slope_matches_lam3(sol_quick):
    lam3 = sol_quick.spectrum.lambdas[2]
    slope = decay_slope(sol_quick)
    assert abs(slope - lam3) <= 0.1 * abs(lam3)


def test_emden_fowler_residual(sol_quick):
    res = emden_fowler_residual(sol_quick)
    assert res < 1e-4
    # the singular solution W = L satisfies the transform identically
    L = sol_quick.spectrum.L
    flat = replace(sol_quick, W=np.full_like(sol_quick.W, L))
    # constant W: the defect is pure stencil rounding, eps amplified by 1/h^4
    assert emden_fowler_residual(flat) < 1e-7
    # residual is sensitive: a 1e-3 multiplicative ripple must stand out
    ripple = sol_quick.W * (1.0 + 1e-3 * np.sin(sol_quick.s_grid))
    bent = replace(sol_quick, W=ripple)
    assert emden_fowler_residual(bent) > 10.0 * res


def test_emden_fowler_grid_too_coarse(sol_quick):
    stub = replace(
        sol_quick,
        s_grid=sol_quick.s_grid[:12],
        W=sol_quick.W[:12],
    )
    with pytest.raises(GridTooCoarse):
        emden_fowler_residual(stub)


def test_y_integral_identity(sol_quick):
    dev = y_integral_identity_check(sol_quick)
    assert dev < 1e-3
    # deviation grows monotonically as lam4 is misstated
    spec = sol_quick.spectrum
    devs = [dev]
    for bump in (1.01, 1.02):
        l = spec.lambdas
        fake = replace(spec, lambdas=(l[0], l[1], l[2], l[3] * bump))
        devs.append(y_integral_identity_check(sol_quick, fake))
    assert devs[0] < devs[1] < devs[2]


def test_exp_kernel_convolve_zero_and_oracle():
    s = np.linspace(0.0, 4.0, 401)
    assert np.all(exp_kernel_convolve(-3.0, s, np.zeros_like(s)) == 0.0)
    # closed form for exponential forcing
    lam, mu = -3.0, -1.0
    g = np.exp(mu * s)
    got = exp_kernel_convolve(lam, s, g)
    exact = (np.exp(mu * s) - np.exp(lam * s)) / (mu - lam)
    assert np.max(np.abs(got - exact)) < 1e-4 * np.max(np.abs(exact))


def test_grid_consistency_under_tolerance_halving(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    base = shoot(params, alpha=1.0, r_max=500.0)
    tight = shoot(
        params, alpha=1.0, r_max=500.0,
        controls=ShootControls(rtol=5e-13, atol=5e-15),
    )
    change = abs(base.W[-1] - tight.W[-1])
    assert change < base.error_estimate


def test_dump_roundtrip(sol_quick):
    buf = io.StringIO()
    dump_solution(sol_quick, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "s,r,phi,W,Y,Z"
    assert len(lines) == sol_quick.s_grid.size + 1
    values = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(values[:, 0], sol_quick.s_grid)
    assert np.array_equal(values[:, 3], sol_quick.W)
    assert np.array_equal(values[:, 5], sol_quick.Z)


def test_input_validation(pc13):
    params = ProblemParams(13, pc13 + 0.5)
    with pytest.raises(InvalidParams):
        shoot(params, alpha=-1.0, r_max=100.0)
    with pytest.raises(InvalidParams):
        integrate_radial(params, alpha=1.0, v0=-0.1, r_max=-5.0)
