import json
import math
from fractions import Fraction
from math import factorial, inf, sqrt, pi
from pathlib import Path
from typing import List

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, ndtr
from scipy.stats import norm

from edgelab import _temme, expansion
from edgelab.cumulants import (CumulantSet, chi_poly,
                               enumerate_multi_indices, multi_factorial)
from edgelab.expansion import (SetSpec, _hermite_column,
                               _lower_gamma_regularized, _ndtr,
                               build_expansion, pj_polynomial, set_measure)
from oracles import (density, enlarged, from_json_dict, full_space,
                     hermite_tensor, hermite_value, importance_measure)


def standardized_cumulants(d, s, rng, scale=0.4):
    table = {}
    for nu in enumerate_multi_indices(d, s):
        o = sum(nu)
        if o == 0:
            continue
        if o == 1:
            table[nu] = 0.0
        elif o == 2:
            table[nu] = 1.0 if 2 in nu else 0.0
        else:
            table[nu] = float(rng.normal(scale=scale))
    return CumulantSet(d, s, table)


# -- Hermite polynomials ----------------------------------------------------

def test_hermite_matches_numpy():
    xs = np.linspace(-4, 4, 31)
    for k in range(9):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        ref = np.polynomial.hermite_e.hermeval(xs, coef)
        ours = _hermite_column(8, xs)[k]
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_hermite_orthogonality():
    nodes, weights = np.polynomial.hermite_e.hermegauss(30)
    norm_const = sqrt(2 * pi)
    he = _hermite_column(5, nodes)
    for j in range(6):
        for k in range(6):
            val = np.sum(weights * he[j] * he[k]) / norm_const
            want = float(np.prod(range(1, j + 1))) if j == k else 0.0
            assert val == pytest.approx(want, abs=1e-8)


def test_hermite_tensor_is_product():
    x = np.array([0.3, -1.2])
    assert hermite_tensor((2, 3), x) == pytest.approx(
        hermite_value(2, x[0]) * hermite_value(3, x[1]))


# -- correction polynomials -------------------------------------------------

def test_p1_p2_exact_univariate():
    """Hand-derived skewness/kurtosis terms, exact rational arithmetic."""
    k3, k4 = Fraction(7, 5), Fraction(-3, 4)
    table = {(1,): Fraction(0), (2,): Fraction(1), (3,): k3, (4,): k4}
    c = CumulantSet(1, 4, table)
    p1 = pj_polynomial(1, c)
    assert p1 == {(3,): k3 / 6}
    p2 = pj_polynomial(2, c)
    assert p2 == {(4,): k4 / 24, (6,): k3 ** 2 / 72}


def test_pj_degree_window():
    rng = np.random.default_rng(0)
    for d in (1, 2):
        c = standardized_cumulants(d, 6, rng)
        for j in range(1, 5):
            degs = {sum(nu) for nu in pj_polynomial(j, c)}
            assert degs, "vanishing correction polynomial"
            assert min(degs) >= j + 2
            assert max(degs) <= 3 * j


def test_pj_needs_enough_cumulants():
    rng = np.random.default_rng(1)
    c = standardized_cumulants(1, 3, rng)
    with pytest.raises(ValueError):
        pj_polynomial(2, c)


def test_pj_symbolic_series_oracle():
    """Coefficient of u^j in exp(sum_r chi_r(z) u^{r-2} / r!), via sympy."""
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(2)
    j_max, d = 3, 2
    table = {}
    for nu in enumerate_multi_indices(d, j_max + 2):
        o = sum(nu)
        if o == 0:
            continue
        if o == 1:
            table[nu] = Fraction(0)
        elif o == 2:
            table[nu] = Fraction(1) if 2 in nu else Fraction(0)
        else:
            table[nu] = Fraction(int(rng.integers(-9, 9)), 4)
    c = CumulantSet(d, j_max + 2, table)

    u = sympy.Symbol("u")
    z = sympy.symbols("z0 z1")
    arg = sympy.Integer(0)
    for r in range(3, j_max + 3):
        chi_r = sympy.Integer(0)
        for nu, v in table.items():
            if sum(nu) == r:
                chi_r += (sympy.Rational(v.numerator, v.denominator)
                          * sympy.Rational(sympy.factorial(r),
                                           sympy.factorial(nu[0])
                                           * sympy.factorial(nu[1]))
                          * z[0] ** nu[0] * z[1] ** nu[1])
        arg += chi_r * u ** (r - 2) / sympy.factorial(r)
    series = sympy.exp(arg).series(u, 0, j_max + 1).removeO()
    for j in range(1, j_max + 1):
        want = sympy.expand(series.coeff(u, j))
        got = pj_polynomial(j, c)
        expr = sympy.Integer(0)
        for nu, v in got.items():
            expr += (sympy.Rational(v.numerator, v.denominator)
                     * z[0] ** nu[0] * z[1] ** nu[1])
        assert sympy.simplify(expr - want) == 0


def _compositions(total, parts):
    """All tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def pj_by_compositions(j, c):
    """Reference P_j: sum over m of 1/m! times the sum over compositions
    (j_1..j_m) of j of prod_k chi_{j_k+2}(z) / (j_k+2)!, with untruncated
    products."""
    d = c.dimension
    base = {r: chi_poly(r + 2, c) for r in range(1, j + 1)}
    total = {}
    for m in range(1, j + 1):
        for comp in _compositions(j, m):
            term = {(0,) * d: 1}
            denom = factorial(m)
            for jk in comp:
                prod = {}
                for nu1, c1 in term.items():
                    for nu2, c2 in base[jk].items():
                        nu = tuple(a + b for a, b in zip(nu1, nu2))
                        prod[nu] = prod.get(nu, 0) + c1 * c2
                term = prod
                denom *= factorial(jk + 2)
            for nu, v in term.items():
                total[nu] = total.get(nu, 0) + v / denom
    return {nu: v for nu, v in total.items() if v != 0}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10 ** 6))
def test_pj_recurrence_matches_composition_sum(d, j, seed):
    """The exp recurrence gives exactly the composition-sum P_j."""
    rng = np.random.default_rng(seed)
    table = {nu: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
             for nu in enumerate_multi_indices(d, j + 2) if sum(nu) > 0}
    c = CumulantSet(d, j + 2, table)
    assert pj_polynomial(j, c) == pj_by_compositions(j, c)


# -- expansion construction and evaluation ----------------------------------

def test_build_expansion_rejects_unstandardized():
    c = CumulantSet(1, 3, {(1,): 0.5, (2,): 1.0, (3,): 0.0})
    with pytest.raises(ValueError):
        build_expansion(c, 50, 3)


def test_s2_expansion_is_gaussian():
    rng = np.random.default_rng(3)
    c = standardized_cumulants(1, 4, rng)
    e = build_expansion(c, 100, 2)
    for t in (-2.0, 0.0, 1.3):
        assert e.cdf_1d(t) == pytest.approx(norm.cdf(t), abs=1e-14)


def test_cdf_matches_quadrature_of_density():
    rng = np.random.default_rng(4)
    c = standardized_cumulants(1, 4, rng)
    e = build_expansion(c, 40, 4)
    for t in (-1.5, 0.2, 2.8):
        val, err = quad(lambda x: density(e, [x]), -12, t, limit=200)
        assert e.cdf_1d(t) == pytest.approx(val, abs=1e-9)


def test_cdf_limits():
    rng = np.random.default_rng(5)
    e = build_expansion(standardized_cumulants(1, 3, rng), 30, 3)
    assert e.cdf_1d(float("inf")) == 1.0
    assert e.cdf_1d(float("-inf")) == 0.0
    assert e.cdf_1d(12.0) == pytest.approx(1.0, abs=1e-8)
    # huge finite endpoints: phi underflows before He_k overflows
    assert np.array_equal(e.cdf_1d(np.array([1e200, -1e200, 1e30])),
                          [1.0, 0.0, 1.0])


def test_total_mass_is_one():
    rng = np.random.default_rng(6)
    for d in (1, 2, 3):
        e = build_expansion(standardized_cumulants(d, 4, rng), 25, 4)
        assert set_measure(e, full_space(d)) == pytest.approx(1.0,
                                                              abs=1e-12)


def test_skewness_shifts_mass_correctly():
    # positive kappa_3 lightens the left tail relative to the Gaussian
    table = {(1,): 0.0, (2,): 1.0, (3,): 1.5}
    e = build_expansion(CumulantSet(1, 3, table), 50, 3)
    # He_2(-2) > 0, so the skewness term subtracts mass at t = -2
    assert e.cdf_1d(-2.0) < norm.cdf(-2.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(min_value=2, max_value=6),
       st.integers(min_value=5, max_value=500),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_weight_matches_pointwise_hermite_sum(d, s, n, seed):
    rng = np.random.default_rng(seed)
    e = build_expansion(standardized_cumulants(d, max(s, 3), rng), n, s)
    x = rng.uniform(-3, 3, size=(7, d))
    ref = [sum(n ** (-j / 2.0) * c * hermite_tensor(nu, p)
               for j, tab in e.hermite_coeffs.items()
               for nu, c in tab.items()) for p in x]
    assert np.allclose(e.weight(x), ref, rtol=1e-12, atol=1e-12)


def test_weight_reduces_to_one_for_gaussian():
    table = {(1,): 0.0, (2,): 1.0, (3,): 0.0, (4,): 0.0}
    e = build_expansion(CumulantSet(1, 4, table), 10, 4)
    x = np.linspace(-3, 3, 7)[:, None]
    assert np.allclose(e.weight(x), 1.0)


# -- scalar special functions (scipy is the oracle) -------------------------

@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(-40.0, 40.0),
                 st.sampled_from([-math.inf, math.inf])))
def test_ndtr_matches_scipy(x):
    got = _ndtr(np.asarray(x))
    assert abs(got - ndtr(x)) <= 4.4e-16
    if math.isinf(x):
        assert got == (x > 0)
    # the array pass gives the scalar's bits
    assert _ndtr(np.array([[x, -x]])).tolist() == [[got, _ndtr(
        np.asarray(-x))]]


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.one_of(st.floats(0.0, 60.0),
                 st.floats(0.0, 60.0).map(lambda r: r * r / 2.0)))
@example(14, 5.000000000000001e-35)
@example(19, 5e-27)
def test_lower_incomplete_gamma_matches_scipy(two_s, x):
    """gamma(s, x) for integer and half-integer s <= 20, at x in [0, 60]
    and at x = r^2 / 2 for ball radii r in [0, 60].  The reference is
    mpmath at 50 digits: scipy's gammainc is off by up to 1.2e-13 relative
    at tiny x (s = 7, x = 5e-35), where ours is within 2e-16.  Values
    below about 1e-280 are only required to be tiny, as the float series
    underflows there."""
    s = two_s / 2.0
    with mpmath.workdps(50):
        ref = float(mpmath.gammainc(s, 0, x))
    got = _lower_gamma_regularized(s, x) * math.gamma(s)
    if ref < 1e-280:
        assert 0.0 <= got < 1e-279
    else:
        assert abs(got - ref) <= 1e-13 * ref


def _mp_lower_gamma(a: float, x: float) -> float:
    """P(a, x) from mpmath at 50 digits: the lower integral below x = a,
    one minus the upper one above it (where mpmath's series for the lower
    one can fail to converge at large a)."""
    with mpmath.workdps(50):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        if x <= a:
            return float(mpmath.gammainc(a, 0, x, regularized=True))
        return float(1 - mpmath.gammainc(a, x, mpmath.inf, regularized=True))


def _assert_close_to_mpmath(a: float, x: np.ndarray) -> None:
    """Within 1e-13 relative of mpmath, or 4 eps |ln P| in the far left
    tail, where P < 1e-48: there P is about e^(-a eta^2 / 2), and the
    exponential loses eps times its argument; 0 where mpmath's value
    underflows."""
    got = _lower_gamma_regularized(a, x)
    for xi, g in zip(x.tolist(), got.tolist()):
        ref = _mp_lower_gamma(a, xi)
        if ref == 0.0:
            assert g == 0.0, (a, xi, g)
        else:
            bound = max(1e-13, 4 * 2.0 ** -52 * abs(math.log(ref)))
            assert abs(g - ref) <= bound * ref, (a, xi, g, ref)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.5, 30.0, 170.5, 400.0,
                               3200.0, 4e4, 19.5, 20.0, 20.5, 33.5, 50.0,
                               1000.5, 12345.6])
def test_lower_incomplete_gamma_matches_scipy_for_large_shapes(a):
    """P(a, x) at x = a + t sqrt(a), t in [-5, 5] (the standardized sums'
    grid), and in both tails, at a/50, a/10 and 3 a + 100, against
    mpmath at 50 digits (_assert_close_to_mpmath), inside the Temme window
    (a >= 20, |eta| <= 1.5) and outside it.  (The name is older than the
    oracle: scipy's gammainc was the reference, within 1e-10 absolute.)"""
    x = np.concatenate([a + np.linspace(-5.0, 5.0, 101) * sqrt(a),
                        [a / 50.0, a / 10.0, 3.0 * a + 100.0]])
    _assert_close_to_mpmath(a, x[x > 0.0])


def _window_lambdas() -> List[float]:
    """The roots lambda < 1 < lambda' of lambda - 1 - ln lambda = H^2 / 2,
    where the Temme window ends (|eta| = H), by bisection."""
    roots = []
    for lo, hi in ((1e-3, 1.0), (1.0, 10.0)):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            g = mid - 1.0 - math.log(mid) - _temme.H ** 2 / 2.0
            if (g > 0) == (mid < 1.0):
                lo = mid
            else:
                hi = mid
        roots.append(lo)
    return roots


_WINDOW_LAMBDAS = _window_lambdas()


def _temme_edges(a: float) -> List[float]:
    """x at both edges |eta| = H of the Temme window at shape a, and
    their neighbours 1e-14 relative apart."""
    return [a * lam * (1.0 + k * 1e-14) for lam in _WINDOW_LAMBDAS
            for k in range(-8, 9)]


@pytest.mark.parametrize("a", [20.0, 21.5, 50.0, 400.0])
def test_lower_incomplete_gamma_is_continuous_across_the_window(a):
    """At both eta edges, neighbouring points 1e-14 apart, inside and
    outside the window, are each as close to mpmath as anywhere, so the
    branches meet to that accuracy."""
    x = np.array(_temme_edges(a))
    eta, _ = expansion._temme_eta(np.full(x.shape, a), x)
    inside = np.abs(eta) <= _temme.H
    assert inside[:17].any() and not inside[:17].all()
    assert inside[17:].any() and not inside[17:].all()
    _assert_close_to_mpmath(a, x)
    # the batch holds both branches; each element is its scalar call
    got = _lower_gamma_regularized(a, x)
    assert got.tolist() == [float(_lower_gamma_regularized(a, xi))
                            for xi in x]


def test_lower_incomplete_gamma_is_continuous_at_the_window_shape():
    """a = 20 takes the Temme branch near x = a and the float below 20
    the series and the fraction; they agree within 1e-13 relative on the
    grid x = a + t sqrt(a), t in [-5, 5]."""
    below = float(np.nextafter(_temme.A0, 0.0))
    x = _temme.A0 + np.linspace(-5.0, 5.0, 401) * sqrt(_temme.A0)
    x = x[x > 0.0]
    assert np.allclose(_lower_gamma_regularized(below, x),
                       _lower_gamma_regularized(_temme.A0, x),
                       rtol=1e-13, atol=0.0)


def test_temme_table_is_its_rounded_rationals():
    """The committed table is the generator's output: every d_{k,n} is the
    float nearest its exact rational, re-derived here (the generator also
    checks that the poles of each recurrence step cancel), with the same
    window and the same truncation."""
    import temme_table

    rows = temme_table.table()
    assert (_temme.A0, _temme.H) == (temme_table.A0, float(temme_table.H))
    assert [len(r) for r in _temme.D] == [len(r) for r in rows]
    for committed, exact in zip(_temme.D, rows):
        assert list(committed) == [float(d) for d in exact]
    assert (Path(_temme.__file__).read_text()
            == temme_table.module_text(rows))


def test_temme_coefficients_match_the_known_ones():
    """The first coefficients as printed in DLMF 8.12.9 and Temme (1979),
    and the Stirling coefficients of DLMF 5.11.4."""
    import temme_table

    c = temme_table.temme_rows(3, 6)
    assert c[0][:4] == [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135),
                        Fraction(1, 864)]
    assert c[1][:3] == [Fraction(-1, 540), Fraction(-1, 288),
                        Fraction(1, 378)]
    assert c[2][0] == Fraction(25, 6048)
    assert temme_table.stirling_g(4) == [1, Fraction(1, 12),
                                         Fraction(1, 288),
                                         Fraction(-139, 51840),
                                         Fraction(-571, 2488320)]


@pytest.mark.parametrize("a, x", [(200.0, 190.0), (0.5, 900.0),
                                  (750.0, 800.0), (4e4, 4e4)])
def test_lower_incomplete_gamma_neither_overflows_nor_underflows(a, x):
    """x^a alone overflows at (200, 190) and (4e4, 4e4), and e^-x alone
    underflows to 0 at x = 800, which once gave P(750, 800) = 1."""
    assert float(_lower_gamma_regularized(a, x)) == pytest.approx(
        gammainc(a, x), rel=1e-10, abs=0.0)


def test_lower_incomplete_gamma_broadcasts_its_shape():
    """An array of a broadcasts with x, as one ball measure asks for
    every degree at once; the (a, x) grid reaches large a and x > 745,
    where e^-x alone underflows."""
    a = np.array([0.5, 1.0, 1.5, 2.0, 3.5, 7.0, 30.0, 170.5, 750.0, 4e4])
    x = np.array([1e-30, 0.3, 2.0, 9.5, 40.0, 160.0, 700.0, 746.0, 800.0,
                  3e3, 4e4, 4.1e4])
    got = _lower_gamma_regularized(a[:, None], x[None, :])
    assert got.shape == (a.size, x.size)
    assert np.max(np.abs(got - gammainc(a[:, None], x[None, :]))) <= 1e-10
    # each element is the scalar-a kernel's value, to the last bit
    for i, ai in enumerate(a):
        assert np.array_equal(got[i], _lower_gamma_regularized(ai, x))


def _gamma_point(a: float, kind: int, u: float) -> float:
    """An x for shape a: across a +- 6 sqrt(a) (kind 0), in the left tail
    down to 1e-30 a (kind 1), in the right tail out to a + 60 sqrt(a)
    (kind 2), or within 1e-12 relative of an edge of the Temme window
    (kind 3), from u in [0, 1]."""
    if kind == 0:
        return max(a + (12.0 * u - 6.0) * sqrt(a), 0.0)
    if kind == 1:
        return a * 10.0 ** (-30.0 * u)
    if kind == 2:
        return a + (6.0 + 54.0 * u) * sqrt(a)
    lam = _WINDOW_LAMBDAS[u >= 0.5]
    return a * lam * (1.0 + (u % 0.5 - 0.25) * 4e-12)


_SHAPES = st.one_of(st.integers(1, 80_000).map(lambda k: k / 2.0),
                    st.floats(0.5, 4e4), st.floats(19.0, 21.0))
_GAMMA_POINTS = st.lists(
    st.tuples(_SHAPES, st.integers(0, 3), st.floats(0.0, 1.0)).map(
        lambda p: (p[0], _gamma_point(*p))), min_size=1, max_size=12)
_LO, _HI = _WINDOW_LAMBDAS


@settings(max_examples=60, deadline=None)
@given(_GAMMA_POINTS, st.randoms(use_true_random=False))
@example([(400.0, 400.0 + 0.5 * sqrt(400.0)), (25.0, 20.0), (4e4, 1e-26),
          (0.5, 30.0)], None)
@example([(400.0, 400.0 * _LO * (1 - 1e-13)), (400.0, 400.0 * _LO),
          (50.0, 50.0 * _HI), (50.0, 50.0 * _HI * (1 + 1e-13)),
          (float(np.nextafter(20.0, 0.0)), 20.0), (20.0, 20.0)], None)
def test_lower_incomplete_gamma_is_elementwise(points, rnd):
    """Each element of a batch stops at its own convergence or takes the
    fixed passes of the Temme window, so it is the scalar call's float,
    and permuting or duplicating the batch changes nothing; batches mix
    points inside and outside the window."""
    a = np.array([p[0] for p in points])
    x = np.array([p[1] for p in points])
    got = _lower_gamma_regularized(a, x)
    alone = [float(_lower_gamma_regularized(ai, xi)) for ai, xi in points]
    assert got.tolist() == alone
    perm = np.arange(a.size)
    if rnd is not None:
        rnd.shuffle(perm)
    assert np.array_equal(_lower_gamma_regularized(a[perm], x[perm]),
                          got[perm])
    twice = _lower_gamma_regularized(np.concatenate([a, a[::-1]]),
                                     np.concatenate([x, x[::-1]]))
    assert np.array_equal(twice, np.concatenate([got, got[::-1]]))


def test_ball_measure_matches_one_kernel_call_per_degree():
    """The ball measure, with its radial factors from one array call,
    equals the sum over even monomials with one scalar call per degree."""
    rng = np.random.default_rng(11)
    for d, s in [(1, 4), (2, 4), (3, 5)]:
        e = build_expansion(standardized_cumulants(d, s, rng), 50, s)
        for r in (0.2, 1.0, 1.6, 3.0, 8.0):
            total = 0.0
            for j, tab in e.hermite_coeffs.items():
                for mu, c in expansion._basis_change(tab).items():
                    if any(p % 2 for p in mu):
                        continue
                    a = sum(mu) + d
                    P = float(_lower_gamma_regularized(a / 2.0, r * r / 2.0))
                    total += (50 ** (-j / 2.0) * c
                              * math.prod(math.gamma((p + 1) / 2.0)
                                          for p in mu)
                              * 2.0 ** (a / 2.0) * P)
            ref = total / (2 * pi) ** (d / 2.0)
            got = set_measure(e, SetSpec.ball([0.0] * d, r))
            assert got == pytest.approx(ref, rel=1e-14, abs=1e-16)


def test_lower_incomplete_gamma_edges():
    got = _lower_gamma_regularized(3.0, np.array([[-1.0, 0.0], [inf, 2.0]]))
    assert got.shape == (2, 2)
    assert got[0].tolist() == [0.0, 0.0] and got[1, 0] == 1.0
    assert got[1, 1] == pytest.approx(gammainc(3.0, 2.0), rel=1e-14)


# -- signed set measures ----------------------------------------------------

def test_box_vs_halfline_1d():
    rng = np.random.default_rng(7)
    e = build_expansion(standardized_cumulants(1, 4, rng), 60, 4)
    a, b = -0.7, 1.9
    box = set_measure(e, SetSpec.box([a], [b]))
    diff = e.cdf_1d(b) - e.cdf_1d(a)
    assert box == pytest.approx(diff, abs=1e-13)
    # the same on arrays of endpoints, infinite ones included
    a = np.array([-np.inf, -np.inf, -2.5, 0.0, 1.2, -np.inf])
    b = np.array([np.inf, 0.4, -1.0, 0.0, np.inf, -np.inf])
    box = [set_measure(e, SetSpec.box([lo], [hi])) for lo, hi in zip(a, b)]
    assert np.allclose(box, e.cdf_1d(b) - e.cdf_1d(a), rtol=0, atol=1e-13)
    # a half-line is the box (-inf, t], and its measure the CDF itself,
    # bit for bit
    t = np.linspace(-6, 6, 25)
    assert all(SetSpec.halfline(v) == SetSpec.box([-np.inf], [v]) for v in t)
    assert np.array_equal(
        [set_measure(e, SetSpec.halfline(v)) for v in t], e.cdf_1d(t))


@pytest.mark.parametrize("A, d", [
    (SetSpec.box([-1.0, -1.0, -5.0], [1.0, 1.0, -4.0]), 3),
    (SetSpec.box([-1.0], [1.0]), 1),
    (SetSpec.halfline(0.0), 1),
    (SetSpec.ball([0.0, 0.0, 0.0], 1.0), 3),
    (SetSpec.ball([0.0], 1.0), 1),
    (SetSpec.halfspace([1.0, 0.5, -0.3], 0.4), 3),
    (SetSpec.halfspace([1.0], 0.4), 1),
], ids=["box-3", "box-1", "halfline", "ball-3", "ball-1", "halfspace-3",
        "halfspace-1"])
def test_region_of_another_dimension_is_refused(A, d):
    """A region whose dimension is not the expansion's gets no measure,
    and the error names both dimensions."""
    e = build_expansion(standardized_cumulants(2, 3,
                                               np.random.default_rng(2)),
                        200, 3)
    assert A.dimension == d
    with pytest.raises(ValueError, match="region has dimension %d but the "
                       "expansion has dimension 2" % d):
        set_measure(e, A)


def test_box_bounds_of_different_lengths_are_refused():
    with pytest.raises(ValueError, match="same length, not 2 and 1"):
        SetSpec.box([-1.0, -1.0], [1.0])


def _cdf_reference(e, t):
    """The expansion CDF by numpy.polynomial.hermite_e: per correction
    order j, c_0 Phi(t) - phi(t) sum_{k>=1} c_k He_{k-1}(t)."""
    t = np.asarray(t, dtype=float)
    fin = np.isfinite(t)
    tf = np.where(fin, t, 0.0)
    phi = np.where(fin, norm.pdf(tf), 0.0)
    out = np.zeros_like(t)
    for j, tab in e.hermite_coeffs.items():
        coef = np.zeros(max((k for (k,) in tab), default=0) + 2)
        for (k,), c in tab.items():
            coef[k] = c
        tail = np.polynomial.hermite_e.hermeval(tf, coef[1:])
        out += e.n ** (-j / 2.0) * (coef[0] * norm.cdf(t) - tail * phi)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=5, max_value=500),
       st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=4,
                max_size=4),
       st.lists(st.floats(min_value=-8.0, max_value=8.0), min_size=1,
                max_size=30))
def test_cdf_1d_matches_hermite_e_reference(s, n, kappas, ts):
    table = {(1,): 0.0, (2,): 1.0}
    for r in range(3, s + 1):
        table[(r,)] = kappas[r - 3]
    e = build_expansion(CumulantSet(1, s, table), n, s)
    grid = np.array(ts + [-np.inf, np.inf])
    got = e.cdf_1d(grid)
    assert got.shape == grid.shape
    assert got[-2] == 0.0 and got[-1] == 1.0
    assert np.allclose(got, _cdf_reference(e, grid), rtol=0, atol=1e-13)
    assert e.cdf_1d(ts[0]) == got[0]


def test_ball_vs_box_1d():
    rng = np.random.default_rng(8)
    e = build_expansion(standardized_cumulants(1, 4, rng), 60, 4)
    r = 1.3
    ball = set_measure(e, SetSpec.ball([0.0], r))
    box = set_measure(e, SetSpec.box([-r], [r]))
    assert ball == pytest.approx(box, abs=1e-12)


def test_ball_tables_convert_once_per_expansion(monkeypatch):
    rng = np.random.default_rng(10)
    c = standardized_cumulants(3, 5, rng)
    radii = (1.0, 1.6, 2.2, 3.0)
    fresh = [set_measure(build_expansion(c, 50, 5),
                         SetSpec.ball([0.0] * 3, r)) for r in radii]
    calls = []
    convert = expansion._basis_change
    monkeypatch.setattr(expansion, "_basis_change",
                        lambda tab: calls.append(1) or convert(tab))
    e = build_expansion(c, 50, 5)
    shared = [set_measure(e, SetSpec.ball([0.0] * 3, r)) for r in radii]
    assert shared == fresh
    assert len(calls) == len(e.hermite_coeffs)


def test_ball_terms_build_once_per_expansion(monkeypatch):
    """Every centered ball of one expansion reads the same (coefficient,
    degree) terms: four balls take the Gamma products of one."""
    c = standardized_cumulants(3, 5, np.random.default_rng(12))
    radii = (1.0, 1.6, 2.2, 3.0)
    fresh = [set_measure(build_expansion(c, 50, 5),
                         SetSpec.ball([0.0] * 3, r)) for r in radii]
    calls = []
    gamma = expansion.gamma
    monkeypatch.setattr(expansion, "gamma",
                        lambda x: calls.append(x) or gamma(x))
    set_measure(build_expansion(c, 50, 5), SetSpec.ball([0.0] * 3, 1.0))
    one_ball = len(calls)
    calls.clear()
    e = build_expansion(c, 50, 5)
    shared = [set_measure(e, SetSpec.ball([0.0] * 3, r)) for r in radii]
    assert shared == fresh
    assert 0 < len(calls) == one_ball


def _projected_reference(e, u):
    """The projected half-space tables with one np.prod per monomial."""
    projected = {}
    for j, tab in e.hermite_coeffs.items():
        proj = {}
        for nu, c in tab.items():
            key = (sum(nu),)
            proj[key] = proj.get(key, 0.0) + c * float(np.prod(u ** nu))
        projected[j] = proj
    return projected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(min_value=3, max_value=6),
       st.sampled_from([0.0, 0.4]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=-4.0, max_value=4.0))
def test_halfspace_projection_matches_per_monomial_loop(d, s, scale, seed,
                                                        offset):
    """One power table per correction order gives the bits of one np.prod
    per monomial, for random normals; scale 0 leaves the correction tables
    empty."""
    rng = np.random.default_rng(seed)
    e = build_expansion(standardized_cumulants(d, s, rng, scale), 40, s)
    normal = rng.standard_normal(d)
    norm = np.linalg.norm(normal)
    want = _projected_reference(e, normal / norm)
    got = expansion._projected_tables(e, normal / norm)
    assert [list(t.items()) for t in got.values()] == \
        [list(t.items()) for t in want.values()]
    ints = expansion._hermite_interval(e.max_hermite_degree, -inf,
                                       offset / norm)
    assert set_measure(e, SetSpec.halfspace(normal, offset)) == \
        float(expansion._contract(want, e.n, [ints]))


def test_halfspace_axis_aligned_matches_box():
    rng = np.random.default_rng(9)
    e = build_expansion(standardized_cumulants(2, 4, rng), 45, 4)
    t = 0.8
    hs = set_measure(e, SetSpec.halfspace([1.0, 0.0], t))
    box = set_measure(e, SetSpec.box([-np.inf, -np.inf], [t, np.inf]))
    assert hs == pytest.approx(box, abs=1e-11)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(min_value=3, max_value=6),
       st.integers(min_value=5, max_value=500),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3,
                max_size=3).filter(lambda a: np.linalg.norm(a[:2]) > 0.1),
       st.floats(min_value=-4.0, max_value=4.0))
def test_halfspace_is_cdf_of_projected_cumulants(d, s, n, seed, a, offset):
    """The half-space {a'x <= offset} has the measure of the half-line
    y <= offset/||a|| under the 1-d expansion built from the cumulants of
    y = u'x: kappa_m(u'X) = sum over |nu| = m of m!/nu! u^nu kappa_nu."""
    rng = np.random.default_rng(seed)
    c = standardized_cumulants(d, s, rng)
    a = np.array(a[:d])
    u = a / np.linalg.norm(a)
    table = {(m,): 0.0 for m in range(1, s + 1)}
    for nu, k in c.table.items():
        m = sum(nu)
        table[(m,)] += (factorial(m) / multi_factorial(nu)
                        * float(np.prod(u ** np.array(nu))) * k)
    e1 = build_expansion(CumulantSet(1, s, table), n, s)
    got = set_measure(build_expansion(c, n, s), SetSpec.halfspace(a, offset))
    assert got == pytest.approx(e1.cdf_1d(offset / np.linalg.norm(a)),
                                abs=1e-12)


def _contains_reference(A, x):
    """Box and ball membership as one whole-array expression."""
    if A.kind == "box":
        return np.all((x >= np.asarray(A.low)) & (x <= np.asarray(A.high)),
                      axis=1)
    return np.sum((x - np.asarray(A.center)) ** 2, axis=1) <= A.radius ** 2


@st.composite
def _regions_and_points(draw):
    """A box, a ball and points in d = 1, 2 or 3 dimensions.  Box bounds
    may be infinite, some coordinates are moved onto a box face, and the
    ball's sphere passes through the first point."""
    d = draw(st.sampled_from([1, 2, 3]))
    coord = st.floats(min_value=-3.0, max_value=3.0)
    bound = st.one_of(coord, st.sampled_from([-inf, inf]))
    low, high = zip(*(sorted(draw(st.lists(bound, min_size=2, max_size=2)))
                      for _ in range(d)))
    x = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                               min_size=1, max_size=12)))
    for i in range(x.shape[0]):
        for k in range(d):
            end = draw(st.sampled_from([None, low[k], high[k]]))
            if end is not None and np.isfinite(end):
                x[i, k] = end
    center = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
    radius = sqrt(np.sum((x[0] - center) ** 2))
    return SetSpec.box(low, high), SetSpec.ball(center, radius), x


# The first point lies on the sphere when its squared coordinates add
# first to last, and outside it in any other order; the second lies on
# three box faces.
@settings(max_examples=200, deadline=None)
@given(_regions_and_points())
@example((SetSpec.box([-1.0, -inf, 0.5], [1.0, 2.0, inf]),
          SetSpec.ball([0.0, 0.0, 0.0], 1.7643327350587812),
          np.array([[-1.109, 1.17, 0.717], [1.0, -5.0, 0.5]])))
def test_contains_matches_whole_array_membership(case):
    box, ball, x = case
    for A in (box, ball):
        got = A.contains(x)
        assert got.dtype == bool and got.shape == (x.shape[0],)
        assert np.array_equal(got, _contains_reference(A, x))


@pytest.mark.parametrize("make_set", [
    lambda: SetSpec.box([-1.0, -0.5], [0.7, 1.4]),
    lambda: SetSpec.ball([0.0, 0.0], 1.2),
    lambda: SetSpec.halfspace([0.6, -0.8], 0.3),
])
def test_quadrature_agrees_with_importance_mc(make_set):
    rng = np.random.default_rng(10)
    e = build_expansion(standardized_cumulants(2, 4, rng), 35, 4)
    A = make_set()
    exact = set_measure(e, A)
    mc, err = importance_measure(e, A, 400_000, np.random.default_rng(11))
    assert abs(mc - exact) < 4 * err


def test_offcenter_ball_needs_mc():
    rng = np.random.default_rng(12)
    e = build_expansion(standardized_cumulants(2, 3, rng), 35, 3)
    A = SetSpec.ball([0.5, 0.0], 1.0)
    with pytest.raises(ValueError, match="centered at the origin") as exc:
        set_measure(e, A)
    assert "method" not in str(exc.value)
    # the importance sample is the only route to an off-centre ball
    value, err = importance_measure(e, A, 50_000,
                                    np.random.default_rng(13))
    assert np.isfinite(value) and err > 0


def test_set_spec_validation():
    with pytest.raises(ValueError):
        SetSpec.box([1.0], [0.0])
    with pytest.raises(ValueError):
        SetSpec.ball([0.0], -1.0)
    with pytest.raises(ValueError):
        SetSpec("wedge")
    with pytest.raises(ValueError, match="normal"):
        SetSpec.halfspace([0.0, 0.0], 1.0)


def test_enlarged_sets():
    A = SetSpec.box([0.0, 0.0], [1.0, 1.0])
    B = enlarged(A, 0.25)
    assert B.low == (-0.25, -0.25) and B.high == (1.25, 1.25)
    # shrinking past the midpoint collapses to a point, not an error
    C = enlarged(A, -2.0)
    assert C.low == C.high
    H = enlarged(SetSpec.halfspace([3.0, 4.0], 1.0), 0.1)
    assert H.offset == pytest.approx(1.0 + 0.1 * 5.0)


def test_json_roundtrip():
    rng = np.random.default_rng(14)
    e = build_expansion(standardized_cumulants(2, 4, rng), 75, 4)
    blob = json.dumps(e.to_json_dict())
    e2 = from_json_dict(json.loads(blob))
    x = np.array([[0.4, -0.9]])
    assert e2.weight(x)[0] == pytest.approx(e.weight(x)[0], rel=1e-15)
    assert e2.n == e.n and e2.order == e.order
