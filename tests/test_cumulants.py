import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgelab.cumulants import (CumulantSet, MomentSet, as_points, chi_poly,
                               averaged_standardized_cumulants,
                               enumerate_multi_indices, inv_sqrt_spd,
                               moments_to_cumulants, multi_factorial,
                               raw_moments_from_points)
from edgelab.jets import series_mul
from oracles import cumulants_to_moments


def random_moment_table(d, order, rng, scale=0.5):
    table = {(0,) * d: 1.0}
    for nu in enumerate_multi_indices(d, order):
        if sum(nu) > 0:
            table[nu] = float(rng.normal(scale=scale))
    return MomentSet(d, order, table)


def test_graded_lex_order():
    idx = enumerate_multi_indices(2, 2)
    assert idx == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_multi_factorial():
    assert multi_factorial((3, 0, 2)) == 12
    assert multi_factorial(()) == 1


def test_moment_table_completeness_enforced():
    with pytest.raises(ValueError):
        MomentSet(2, 2, {(1, 0): 0.0})


def test_roundtrip_float():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        m = random_moment_table(d, 4, rng)
        back = cumulants_to_moments(moments_to_cumulants(m))
        for nu in enumerate_multi_indices(d, 4):
            assert back[nu] == pytest.approx(m[nu], rel=1e-12, abs=1e-12)


def test_roundtrip_exact_rational():
    rng = np.random.default_rng(1)
    d = 2
    table = {(0, 0): Fraction(1)}
    for nu in enumerate_multi_indices(d, 5):
        if sum(nu) > 0:
            table[nu] = Fraction(int(rng.integers(-20, 20)), 7)
    m = MomentSet(d, 5, table)
    back = cumulants_to_moments(moments_to_cumulants(m))
    for nu in enumerate_multi_indices(d, 5):
        assert back[nu] == m[nu]      # exact Fraction equality


def test_univariate_cumulants_match_textbook():
    # kappa_3 = m3 - 3 m2 m1 + 2 m1^3 for raw moments m_k
    rng = np.random.default_rng(2)
    m1, m2, m3 = rng.normal(size=3)
    m = MomentSet(1, 3, {(0,): 1.0, (1,): m1, (2,): m2, (3,): m3})
    c = moments_to_cumulants(m)
    assert c[(1,)] == pytest.approx(m1)
    assert c[(2,)] == pytest.approx(m2 - m1 ** 2)
    assert c[(3,)] == pytest.approx(m3 - 3 * m2 * m1 + 2 * m1 ** 3)


def test_cumulant_additivity_under_convolution():
    """Cumulants of a sum of independent variables add."""
    rng = np.random.default_rng(3)
    order = 5
    ma = random_moment_table(1, order, rng)
    mb = random_moment_table(1, order, rng)
    # raw moments of X+Y by the binomial convolution
    conv = {(0,): 1.0}
    for k in range(1, order + 1):
        conv[(k,)] = sum(math.comb(k, i) * ma[(i,)] * mb[(k - i,)]
                         for i in range(k + 1))
    ca = moments_to_cumulants(ma)
    cb = moments_to_cumulants(mb)
    cc = moments_to_cumulants(MomentSet(1, order, conv))
    for k in range(1, order + 1):
        assert cc[(k,)] == pytest.approx(ca[(k,)] + cb[(k,)], rel=1e-10,
                                         abs=1e-10)


def test_raw_moments_from_points_matches_loops():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(50, 2))
    m = raw_moments_from_points(pts, 3)
    for nu in enumerate_multi_indices(2, 3):
        direct = np.mean(pts[:, 0] ** nu[0] * pts[:, 1] ** nu[1])
        assert m[nu] == pytest.approx(direct, rel=1e-12)


def test_raw_moments_one_dimensional_input():
    pts = np.array([1.0, 2.0, 3.0])
    m = raw_moments_from_points(pts, 2)
    assert m[(1,)] == pytest.approx(2.0)
    assert m[(2,)] == pytest.approx(14.0 / 3.0)


def test_as_points_validation():
    pts = as_points(np.arange(5.0))
    assert pts.shape == (5, 1) and pts.dtype == float
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="all coordinates must be finite"):
            as_points(np.array([[1.0, bad]]))
    with pytest.raises(ValueError, match="nonempty"):
        as_points(np.empty((0, 2)))


def test_gaussian_cumulants_from_sample_are_small():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal(500_000)
    c = moments_to_cumulants(raw_moments_from_points(pts, 4))
    assert abs(c[(3,)]) < 0.02
    assert abs(c[(4,)]) < 0.08


def test_inv_sqrt_spd():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(3, 3))
    V = A @ A.T + 0.5 * np.eye(3)
    W = inv_sqrt_spd(V)
    assert np.allclose(W @ V @ W, np.eye(3), atol=1e-12)
    with pytest.raises(ValueError):
        inv_sqrt_spd(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_averaged_standardized_cumulants_identity():
    """Standardizing by the exact average covariance gives mean 0, cov I."""
    rng = np.random.default_rng(7)
    sources = []
    for _ in range(3):
        A = rng.normal(size=(2, 2)) * 0.4
        cov = A @ A.T + np.eye(2)
        table = {(1, 0): 0.0, (0, 1): 0.0,
                 (2, 0): cov[0, 0], (1, 1): cov[0, 1], (0, 2): cov[1, 1],
                 (3, 0): rng.normal(), (2, 1): rng.normal(),
                 (1, 2): rng.normal(), (0, 3): rng.normal()}
        sources.append(CumulantSet(2, 3, table))
    V = sum(np.array([[c[(2, 0)], c[(1, 1)]], [c[(1, 1)], c[(0, 2)]]])
            for c in sources) / len(sources)
    avg = averaged_standardized_cumulants(sources, 3, V)
    assert avg.check_standardized()
    assert avg[(1, 0)] == pytest.approx(0.0, abs=1e-12)
    assert avg[(0, 1)] == pytest.approx(0.0, abs=1e-12)
    assert avg[(2, 0)] == pytest.approx(1.0, rel=1e-10)
    assert avg[(1, 1)] == pytest.approx(0.0, abs=1e-10)
    assert avg[(0, 2)] == pytest.approx(1.0, rel=1e-10)


def test_chi_poly_coefficients():
    table = {(1,): 0.0, (2,): 1.0, (3,): 0.7}
    c = CumulantSet(1, 3, table)
    p = chi_poly(3, c)
    # chi_3(z) = 3! * (chi_(3,) / 3!) z^3
    assert p == {(3,): pytest.approx(0.7)}


def test_polynomial_arithmetic():
    p = {(1,): 2.0, (0,): 1.0}
    q = series_mul(p, p, 2)
    assert q[(2,)] == pytest.approx(4.0)
    assert q[(1,)] == pytest.approx(4.0)
    assert sum(c * 3.0 ** nu[0] for nu, c in q.items()) == \
        pytest.approx((2 * 3 + 1) ** 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=10 ** 6))
def test_roundtrip_property(d, order, seed):
    rng = np.random.default_rng(seed)
    m = random_moment_table(d, order, rng)
    back = cumulants_to_moments(moments_to_cumulants(m))
    for nu in enumerate_multi_indices(d, order):
        assert back[nu] == pytest.approx(m[nu], rel=1e-11, abs=1e-11)
