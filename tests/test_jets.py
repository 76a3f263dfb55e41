import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgelab.bootstrap import g_value_and_jet
from edgelab.cumulants import enumerate_multi_indices, multi_factorial
from edgelab.jets import series_mul, series_pow


def derivative(series, alpha):
    """D^alpha at the base point of the function a Taylor series stands for."""
    return series.get(alpha, 0.0) * multi_factorial(alpha)


def test_polynomial_jet_coefficients():
    # f(x, y) = (x + 2y)^3 around (0, 0)
    lin = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 2.0}
    f = series_mul(series_mul(lin, lin, 3), lin, 3)
    # D^(1,2) f = 3! / (1! 2!) * 1 * 2^2 * (1,2)-multinomial = 24
    assert derivative(f, (1, 2)) == pytest.approx(24.0)
    assert derivative(f, (3, 0)) == pytest.approx(6.0)
    assert f[(0, 0)] == 0.0


def test_integer_power_matches_repeated_product():
    x = {(0,): 1.5, (1,): 1.0}
    f = series_mul(x, x, 4)
    f[(0,)] += 2.0
    assert series_pow(f, 3, 4) == pytest.approx(
        series_mul(series_mul(f, f, 4), f, 4))


def test_sqrt_jet_derivatives():
    # d^k/dx^k sqrt(x) at x0
    x0 = 2.3
    g = series_pow({(0,): x0, (1,): 1.0}, 0.5, 3)
    assert g[(0,)] == pytest.approx(math.sqrt(x0))
    assert derivative(g, (1,)) == pytest.approx(0.5 * x0 ** -0.5)
    assert derivative(g, (2,)) == pytest.approx(-0.25 * x0 ** -1.5)
    assert derivative(g, (3,)) == pytest.approx(0.375 * x0 ** -2.5)


def test_reciprocal_jet():
    x0 = 0.7
    inv = series_pow({(0,): x0, (1,): 1.0}, -1.0, 4)
    for k in range(5):
        want = (-1) ** k * math.factorial(k) / x0 ** (k + 1)
        assert derivative(inv, (k,)) == pytest.approx(want, rel=1e-12)


def test_fractional_power_requires_positive_value():
    with pytest.raises(ValueError):
        series_pow({(0,): -1.0, (1,): 1.0}, 0.5, 2)


def test_arithmetic_identities():
    x = {(0,): 0.4, (1,): 1.0}
    neg = series_mul({(0,): -1.0}, x, 3)
    z = {nu: x[nu] + c for nu, c in neg.items()}
    assert all(c == 0 for c in z.values())
    assert derivative(series_mul({(0,): 3.0}, x, 3), (1,)) == \
        pytest.approx(3.0)
    assert 1.0 + neg[(0,)] == pytest.approx(0.6)


def test_g_jet_at_symmetric_point():
    """At xbar = (w, w^2 + v) with wbar = w the statistic vanishes and the
    first partials collapse to 1/sigma and 0."""
    w, v = 0.3, 1.7
    jet = g_value_and_jet(np.array([w, w * w + v]), wbar=w, order=3)
    sigma = math.sqrt(v)
    assert jet[(0, 0)] == pytest.approx(0.0, abs=1e-14)
    # dg/dx1 = 1/sqrt(var) + (x1 - wbar) x1 / var^{3/2}; second term is 0 here
    assert jet[(1, 0)] == pytest.approx(1 / sigma, rel=1e-12)
    # dg/dx2 = -(x1 - wbar) / (2 var^{3/2}) = 0 here
    assert jet[(0, 1)] == pytest.approx(0.0, abs=1e-14)


def test_g_jet_rejects_singular_base():
    with pytest.raises(ValueError):
        g_value_and_jet(np.array([1.0, 1.0]), wbar=0.0, order=2)
    with pytest.raises(ValueError):
        g_value_and_jet(np.array([1.0, 1.0, 1.0]), wbar=0.0, order=2)


def test_derivative_jet_table_and_max():
    x = {(0,): 0.0, (1,): 1.0}
    f = series_mul(series_mul(x, x, 2), {(0,): 1.5}, 2)
    f[(0,)] += 1.0
    f[(1,)] += 2.0
    table = {a: derivative(f, a) for a in enumerate_multi_indices(1, 2)}
    assert table[(0,)] == pytest.approx(1.0)
    assert table[(1,)] == pytest.approx(2.0)
    assert table[(2,)] == pytest.approx(3.0)
    assert max(abs(v) for v in table.values()) == pytest.approx(3.0)


def test_jet_against_finite_differences():
    w, wbar = 0.1, -0.2
    base = np.array([w, w * w + 1.1])
    jet = g_value_and_jet(base, wbar, order=3)

    def g(x1, x2):
        return (x1 - wbar) / math.sqrt(x2 - x1 * x1)

    h = 1e-5
    fd = (g(base[0] + h, base[1]) - g(base[0] - h, base[1])) / (2 * h)
    assert jet[(1, 0)] == pytest.approx(fd, rel=1e-8)
    fd2 = (g(base[0], base[1] + h) - g(base[0], base[1] - h)) / (2 * h)
    assert jet[(0, 1)] == pytest.approx(fd2, rel=1e-8)


@pytest.fixture(scope="module")
def g_partials():
    """Symbolic D^alpha of (x1 - w) / sqrt(x2 - x1^2) for |alpha| <= 5."""
    sympy = pytest.importorskip("sympy")
    x1, x2, w = sympy.symbols("x1 x2 w")
    g = (x1 - w) / sympy.sqrt(x2 - x1 ** 2)
    return (x1, x2, w), {a: sympy.diff(g, x1, a[0], x2, a[1])
                         for a in enumerate_multi_indices(2, 5)}


@settings(max_examples=25, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(0.2, 3.0), st.floats(-1.0, 1.0))
def test_g_jet_matches_sympy_derivatives(g_partials, x1, v, w):
    (s1, s2, sw), partials = g_partials
    jet = g_value_and_jet(np.array([x1, x1 * x1 + v]), w, order=5)
    subs = {s1: x1, s2: x1 * x1 + v, sw: w}
    for alpha, expr in partials.items():
        want = float(expr.evalf(30, subs=subs))
        assert jet[alpha] == pytest.approx(want, rel=1e-10, abs=1e-12)


def _series_mul_reference(a, b, max_order):
    """series_mul with both orders summed inside the inner loop."""
    out = {}
    for nu1, c1 in a.items():
        for nu2, c2 in b.items():
            if sum(nu1) + sum(nu2) > max_order:
                continue
            nu = tuple(x + y for x, y in zip(nu1, nu2))
            out[nu] = out.get(nu, 0) + c1 * c2
    return out


@st.composite
def _series_pair(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    coef = draw(st.sampled_from([
        st.floats(min_value=-10.0, max_value=10.0),
        st.fractions(min_value=-10, max_value=10, max_denominator=60)]))
    index = st.tuples(*[st.integers(min_value=0, max_value=4)] * d)
    a, b = (draw(st.dictionaries(index, coef, max_size=12)) for _ in "ab")
    return a, b, draw(st.integers(min_value=0, max_value=9))


@settings(max_examples=200, deadline=None)
@given(_series_pair())
def test_series_mul_matches_the_per_pair_order_test(case):
    """The same terms, in the same order, with the same values and types,
    for float and exact Fraction coefficients."""
    a, b, max_order = case
    got = series_mul(a, b, max_order)
    want = _series_mul_reference(a, b, max_order)
    assert list(got.items()) == list(want.items())
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
