import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biharm import (
    InvalidParams,
    NoPcValue,
    ProblemParams,
    compute_ladder,
    compute_pc,
    compute_spectrum,
    f_quartic,
    ladder_length_formula,
    parity_boundary_check,
    pc_defect,
    q4_eval,
    rk_eval,
    tail_limit,
)
from biharm.ladder import _nearest_r1_root, _quartic_roots, _r1_root_float, _r1_sign
from biharm.params import sobolev_exponent
from biharm.spectrum import eigen_poly_eval, lambda_star


@pytest.mark.parametrize("n", range(5, 13))
def test_no_pc_below_13(n):
    # the k = 1 quartic has no real root above the Sobolev exponent there
    with pytest.raises(NoPcValue, match="no real root above the Sobolev exponent"):
        compute_pc(n)


def _companion_pc(n):
    # p_c by the k = 1 companion root and the exact ulp walk from it, the
    # route compute_pc took before its Brent bracket
    p = float(_quartic_roots(n, [1], sobolev_exponent(n))[0])
    side = _r1_sign(n, *p.as_integer_ratio())
    toward = math.inf if side < 0 else -math.inf
    q = math.nextafter(p, toward)
    while _r1_sign(n, *q.as_integer_ratio()) == side:
        p, q = q, math.nextafter(q, toward)
    (a, b), (c, d) = p.as_integer_ratio(), q.as_integer_ratio()
    return q if _r1_sign(n, a * d + c * b, 2 * b * d) == side else p


def test_pc_brent_route_is_the_companion_route():
    # Brent's root of R_1 in floats, walked to the nearest float, is the
    # companion route's p_c at every n = 13..200, and the walk is short
    # (measured at most 8 ulps)
    for n in range(13, 201):
        start = _r1_root_float(n)
        pc = compute_pc(n)
        assert pc == _companion_pc(n) == _nearest_r1_root(n, start), n
        walk = abs(int(np.float64(pc).view(np.int64)) - int(np.float64(start).view(np.int64)))
        assert walk <= 16, (n, walk)


@pytest.mark.parametrize("n", range(-1, 5))
def test_pc_needs_n_at_least_5(n):
    with pytest.raises(InvalidParams, match="n >= 5 required"):
        compute_pc(n)


def test_pc_examples():
    pc = compute_pc(13)
    assert pc > 17.0 / 9.0
    # defining equality restated through the eigenvalue polynomial
    params = ProblemParams(13, pc)
    assert abs(eigen_poly_eval(params, lambda_star(params))) < 1e-8 * (
        1.0 + abs(pc * q4_eval(13, params.m))
    )
    # independent confirmation: the spectrum there carries a double root
    assert compute_spectrum(params).degenerate


def test_pc_regression_values():
    # frozen solver outputs (regression fixtures)
    assert compute_pc(13) == pytest.approx(28.1723798198671, rel=1e-12)
    assert compute_pc(15) == pytest.approx(5.732463882336733, rel=1e-12)
    assert compute_pc(20) == pytest.approx(2.484541127242273, rel=1e-12)


def test_rk_at_one():
    for n in (13, 20, 41):
        for k in (1, 2, 5):
            expected = 256.0 * (((k - 1.0) / (k + 1.0)) ** 4 - 1.0)
            assert rk_eval(n, k, 1.0) == pytest.approx(expected, rel=1e-14)
            assert rk_eval(n, k, 1.0) < 0.0


def test_rk_at_minus_one():
    for n in (13, 20, 41):
        for k in (1, 2, 5, n):
            expected = 16.0 * q4_eval(n, n / (k + 1.0) - 2.0)
            assert rk_eval(n, k, -1.0) == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_rk_at_n_over_n_minus_4():
    for n in (13, 20, 41):
        for k in (1, 2, 5):
            p = n / (n - 4.0)
            expected = (4.0 / (n - 4.0)) ** 4 * q4_eval(n, k * (n - 4.0) / (k + 1.0))
            assert rk_eval(n, k, p) == pytest.approx(expected, rel=1e-10)
            assert rk_eval(n, k, p) > 0.0


def test_rk_vectorized_matches_scalar():
    ps = np.array([1.0, -1.0, 2.5, 1e6])
    vals = rk_eval(13, 2, ps)
    for p, v in zip(ps, vals):
        assert v == rk_eval(13, 2, float(p))
    # bit for bit over three decades above p_c: with (p-1)^4 as a power,
    # about 5% of these p rounded differently on the array path
    pc = compute_pc(200)
    ps = pc * 10.0 ** np.random.default_rng(200).uniform(0.0, 3.0, size=10_000)
    for k in (2, 50, 90):
        vals = rk_eval(200, k, ps).tolist()
        assert vals == [rk_eval(200, k, p) for p in ps.tolist()], k


def test_tail_limit_hand_values():
    # Q4(4.5) - 8*11*9 at n=13, k=1
    assert tail_limit(13, 1) == pytest.approx(63.5625)
    # Q4(3) = 3*5*(-8)*(-6) = 720 at n=13, so k=2 gives 720 - 792
    assert tail_limit(13, 2) == pytest.approx(-72.0)
    # (n-4)/(k+1) = n-4 at k=0 is outside the domain; nearest in-domain claim:
    assert tail_limit(13, 1) > 0.0 > tail_limit(13, 2)


def test_tail_limit_sign_matches_f_quartic():
    for n in range(13, 41):
        for k in range(1, n // 2):
            t = tail_limit(n, k)
            f = f_quartic(n, float(k))
            assert np.sign(t) == np.sign(f)


def test_tail_limit_is_rk_limit():
    p = 1e8
    for n in (13, 22, 40):
        for k in (1, 2, 3, 7):
            t = tail_limit(n, k)
            if t == 0.0:
                continue
            assert abs(rk_eval(n, k, p) / p**4 - t) < 1e-3 * abs(t)


def test_f_quartic_closed_forms():
    for n in range(13, 61):
        assert f_quartic(n, -1.0) == pytest.approx(2.0 * (n - 4.0) ** 3, rel=1e-12)
        assert f_quartic(n, 1.0) == pytest.approx(
            2.0 * n**3 - 8.0 * n**2 - 256.0 * n + 512.0, rel=1e-10
        )
        v5 = 2.0 * n**4 - 60.0 * n**3 + 608.0 * n**2 - 2336.0 * n + 2432.0
        v4 = -(n**4) + 18.0 * n**3 - 124.0 * n**2 + 416.0 * n - 608.0
        assert f_quartic(n, n / 2.0 - 5.0) == pytest.approx(v5, rel=1e-10)
        assert f_quartic(n, n / 2.0 - 4.0) == pytest.approx(v4, rel=1e-10)
        assert v5 > 0.0 > v4


def test_f_sign_structure():
    for n in range(13, 61):
        assert f_quartic(n, 1.0 - n / 2.0) < 0.0
        assert f_quartic(n, -1.0) > 0.0
        assert f_quartic(n, 0.0) < 0.0
        assert f_quartic(n, 1.0) > 0.0


def test_ladder_length_formula():
    assert ladder_length_formula(13) == 1
    assert ladder_length_formula(19) == 4
    assert ladder_length_formula(20) == 5
    with pytest.raises(InvalidParams):
        ladder_length_formula(12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=13, max_value=200))
@example(n=200)
def test_ladder_length_matches_formula_up_to_n_200(n):
    assert compute_ladder(n).N == ladder_length_formula(n)


def test_ladder_structure():
    for n in (13, 15, 20, 37, 60):
        lad = compute_ladder(n)
        assert lad.N == ladder_length_formula(n)
        assert lad.rungs[0] == lad.p_c
        assert all(a < b for a, b in zip(lad.rungs, lad.rungs[1:]))
        assert len(lad.tail_limits) == lad.N + 1
        assert all(t > 0.0 for t in lad.tail_limits[1:-1])
        assert lad.tail_limits[-1] < 0.0


def test_ladder_rung_relation():
    for n in (14, 15, 20, 31):
        lad = compute_ladder(n)
        for k, p_k in enumerate(lad.rungs, start=1):
            assert abs(rk_eval(n, k, p_k)) < 1e-8 * p_k**4
            if k >= 2:
                spec = compute_spectrum(ProblemParams(n, p_k))
                l2, l3 = spec.lambdas[1], spec.lambdas[2]
                assert abs(l2 - k * l3) < 1e-6 * abs(l3)
            # R_k is negative below its own rung, in particular at p_c
            if k >= 2:
                assert rk_eval(n, k, lad.p_c) < 0.0


def test_ladder_tail_limits_equal_tail_limit():
    # the ladder evaluates its tail limits as one array; bit for bit the scalar ones
    for n in range(13, 201):
        lad = compute_ladder(n)
        assert lad.tail_limits == tuple(tail_limit(n, k) for k in range(1, lad.N + 2)), n


def _mp_rk(n, k, p):
    # R_k(p) at mpmath's working precision, multiplied out in t = p - 1:
    # t^4 Q4(a/t + b) = prod(a + (b + c) t) and t^4 Q4(4/t) = prod(4 + c t)
    t, c = p - 1, (0, 2, 2 - n, 4 - n)
    a, b = mpmath.mpf(4 * (k - 1)) / (k + 1), mpmath.mpf(n - 4) / (k + 1)
    return mpmath.fprod(a + (b + ci) * t for ci in c) - p * mpmath.fprod(4 + ci * t for ci in c)


def test_pc_is_correctly_rounded():
    # p_c is the float nearest the 50-digit root of R_1 for every n = 13..200
    with mpmath.workdps(50):
        for n in range(13, 201):
            pc = compute_pc(n)
            root = mpmath.findroot(lambda p: _mp_rk(n, 1, p), mpmath.mpf(pc))
            below = (mpmath.mpf(pc) + math.nextafter(pc, -math.inf)) / 2
            above = (mpmath.mpf(pc) + math.nextafter(pc, math.inf)) / 2
            assert below <= root <= above, (n, float((pc - root) / math.ulp(pc)))


def test_rungs_match_50_digit_roots():
    # 200 seeded rungs, each within 1e-13 relative of its 50-digit root
    rng = np.random.default_rng(13)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(200):
            n = int(rng.integers(14, 201))
            lad = compute_ladder(n)
            k = int(rng.integers(2, lad.N + 1))
            p_k = lad.rungs[k - 1]
            root = mpmath.findroot(lambda p: _mp_rk(n, k, p), mpmath.mpf(p_k))
            worst = max(worst, float(abs(p_k - root) / root))
    assert worst <= 1e-13


def test_rk_root_count_above_pc():
    for n in (13, 17, 25, 40):
        lad = compute_ladder(n)
        grid = np.geomspace(lad.p_c * (1 + 1e-9), 1e6, 10_000)
        for k in range(2, lad.N + 1):
            if tail_limit(n, k) <= 0.0:
                continue
            vals = rk_eval(n, k, grid)
            crossings = int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))
            assert crossings == 1, (n, k)


def test_parity_boundary():
    pb = parity_boundary_check(13)
    assert pb.k == 2
    assert pb.factored_value == pytest.approx(6.0 * (2197.0 - 5577.0 + 4056.0 - 892.0))
    assert pb.factored_value == pytest.approx(-1296.0)
    assert not pb.positive
    assert parity_boundary_check(21).positive
    for n in range(13, 62, 2):
        pb = parity_boundary_check(n)
        assert pb.rel_diff <= 1e-8
        assert pb.positive == (n >= 20)
    with pytest.raises(InvalidParams):
        parity_boundary_check(14)


def test_limit_ap_richardson():
    for a in (1.0, 2.0, 4.0):
        vals = [(10.0**-j) ** 4 * q4_eval(13, a / 10.0**-j) for j in range(2, 7)]
        rich = (10.0 * vals[-1] - vals[-2]) / 9.0
        assert abs(rich - a**4) <= 1e-4 * a**4


def test_pc_defect_signs():
    for n in (13, 25, 60):
        pc = compute_pc(n)
        assert pc_defect(n, pc * 0.9) > 0.0 or pc * 0.9 < (n + 4) / (n - 4)
        assert pc_defect(n, pc * 1.5) < 0.0
