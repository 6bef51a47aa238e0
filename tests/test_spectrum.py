import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biharm import (
    InvalidParams,
    ProblemParams,
    SubcriticalInput,
    compute_pc,
    compute_spectrum,
    eigen_poly_eval,
    q4_eval,
    sobolev_exponent,
)
from biharm.spectrum import lambda_star


def test_params_validation():
    with pytest.raises(InvalidParams):
        ProblemParams(4, 10.0)
    with pytest.raises(InvalidParams):
        ProblemParams(13, sobolev_exponent(13))  # not strictly above
    with pytest.raises(InvalidParams):
        ProblemParams(13, float("inf"))
    params = ProblemParams(13, 3.0)
    assert params.m == pytest.approx(2.0)


def test_q4_examples():
    assert q4_eval(13, 0.0) == 0.0
    assert q4_eval(13, 9.0) == 0.0  # n - 4
    assert q4_eval(13, 2.0) == 504.0  # 2 * 4 * (-9) * (-7)
    assert q4_eval(13, -2.0) == 0.0
    assert q4_eval(13, 11.0) == 0.0  # n - 2


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=200),
    t=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_q4_sign_structure(n, t):
    inside = t * (n - 4.0)
    if 1e-9 < inside < n - 4.0 - 1e-9:
        assert q4_eval(n, inside) > 0.0
    neg = -2.0 + 2.0 * t
    if -2.0 + 1e-9 < neg < -1e-9:
        assert q4_eval(n, neg) < 0.0


def test_eigen_poly_fixed_points():
    for n, dp in ((13, 0.7), (20, 3.0), (41, 0.2)):
        params = ProblemParams(n, compute_pc(n) + dp)
        q4m = q4_eval(n, params.m)
        assert eigen_poly_eval(params, 0.0) == pytest.approx((1.0 - params.p) * q4m)
        assert eigen_poly_eval(params, 0.0) < 0.0
        ls = lambda_star(params)
        assert eigen_poly_eval(params, 2.0 * ls) == pytest.approx(
            eigen_poly_eval(params, 0.0), rel=1e-12
        )
        # P(lam_star) = Q4((n-4)/2) - p Q4(m), nonnegative at/above p_c
        expected = q4_eval(n, (n - 4.0) / 2.0) - params.p * q4_eval(n, params.m)
        assert eigen_poly_eval(params, ls) == pytest.approx(expected, rel=1e-12)
        assert eigen_poly_eval(params, ls) >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=13, max_value=60),
    dp=st.floats(min_value=0.0, max_value=40.0),
    u=st.floats(min_value=-30.0, max_value=30.0),
)
def test_reflection_symmetry(n, dp, u):
    params = ProblemParams(n, compute_pc(n) + dp)
    ls = lambda_star(params)
    scale = 1.0 + abs(params.p * q4_eval(n, params.m))
    lhs = eigen_poly_eval(params, ls + u)
    rhs = eigen_poly_eval(params, ls - u)
    assert abs(lhs - rhs) <= 1e-10 * (scale + abs(lhs))


def test_spectrum_against_companion_matrix():
    # independent oracle: roots of the expanded quartic via the companion
    # matrix, here and over the algebra layer's whole range of n
    cells = [(13, 1.0), (15, 2.5), (33, 12.0), (60, 0.3)]
    cells += [(n, dp) for n in range(13, 201) for dp in (0.5, 50.0)]
    for n, dp in cells:
        params = ProblemParams(n, compute_pc(n) + dp)
        s = compute_spectrum(params)
        m = params.m
        a = (m, m + 2.0, m + 2.0 - n, m + 4.0 - n)
        coeffs = np.poly(a).copy()
        coeffs[4] -= params.p * q4_eval(n, m)
        # P(lam) = prod(a_i - lam); roots in lam coincide with prod(x - a_i) shifted
        oracle = np.sort(np.roots(coeffs).real)
        assert np.allclose(np.sort(s.lambdas), oracle, rtol=1e-9, atol=1e-9), (n, dp)


def test_spectrum_ordering_and_symmetry(pc13):
    s = compute_spectrum(ProblemParams(13, pc13 + 1.0))
    l1, l2, l3, l4 = s.lambdas
    ls = s.lambda_star
    assert l1 < 2 * ls < l2 <= ls <= l3 < 0 < l4
    assert abs(l1 + l4 - 2 * ls) < 1e-9
    assert abs(l2 + l3 - 2 * ls) < 1e-9
    assert not s.degenerate
    assert s.L == pytest.approx(q4_eval(13, s.params.m) ** (1.0 / (s.params.p - 1.0)))


def test_spectrum_degenerate_at_pc():
    # verify's double_root_at_pc covers n <= 60; the spectrum holds to n = 200
    for n in range(13, 201):
        s = compute_spectrum(ProblemParams(n, compute_pc(n)))
        assert s.degenerate, n
        assert s.lambdas[1] == s.lambda_star == s.lambdas[2], n


def test_spectrum_rejects_subcritical(pc13):
    with pytest.raises(SubcriticalInput):
        compute_spectrum(ProblemParams(13, pc13 - 0.5))
    # n <= 12: every supercritical p lies below p_c = infinity
    with pytest.raises(SubcriticalInput):
        compute_spectrum(ProblemParams(12, 5.0))


def test_poly_residual_at_roots(pc13):
    params = ProblemParams(13, pc13 + 1.0)
    s = compute_spectrum(params)
    scale = 1.0 + abs(params.p * q4_eval(13, params.m))
    for lam in s.lambdas:
        assert abs(eigen_poly_eval(params, lam)) < 1e-9 * scale


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=13, max_value=200),
    dp=st.floats(min_value=0.0, max_value=50.0),
)
@example(n=200, dp=0.0)
@example(n=200, dp=50.0)
@example(n=45, dp=2.7857391689820003e-14)  # near the double root, where P is flat
def test_spectral_identities_up_to_n_200(n, dp):
    # criterion 1's checks (ordering chain, pair symmetry about 2 lambda*,
    # polynomial residual at the roots) over the algebra layer's whole range
    params = ProblemParams(n, compute_pc(n) + dp)
    s = compute_spectrum(params)
    l1, l2, l3, l4 = s.lambdas
    ls = s.lambda_star
    assert l1 < 2 * ls < l2 <= ls <= l3 < 0 < l4
    assert abs(l1 + l4 - 2 * ls) < 1e-9
    assert abs(l2 + l3 - 2 * ls) < 1e-9
    scale = 1.0 + abs(params.p * q4_eval(n, params.m))
    assert max(abs(eigen_poly_eval(params, lam)) for lam in s.lambdas) < 1e-9 * scale
