"""Truncated multivariate power series: the one series kernel.

A series is a plain ``{multi-index: coefficient}`` table meaning
sum_nu a_nu t^nu, truncated at a total order.  One truncated multiply and
one power-sum composition serve every use: cumulants are the log of the
moment series, correction polynomials products of cumulant polynomials,
and the derivative table of the studentized mean a product with a real
power.  The arithmetic is
generic over the value type: floats in normal use, ``fractions.Fraction``
when an exact result is wanted.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

MultiIndex = Tuple[int, ...]
Series = Dict[MultiIndex, object]

__all__ = ["MultiIndex", "series_mul", "series_compose", "series_log1p",
           "series_pow"]


def series_mul(a: Series, b: Series, max_order: int) -> Series:
    """The product a b, without the terms past total order max_order."""
    out: Series = {}
    b_terms = [(nu2, c2, sum(nu2)) for nu2, c2 in b.items()]
    for nu1, c1 in a.items():
        room = max_order - sum(nu1)
        for nu2, c2, order2 in b_terms:
            if order2 > room:
                continue
            nu = tuple(x + y for x, y in zip(nu1, nu2))
            out[nu] = out.get(nu, 0) + c1 * c2
    return out


def series_compose(u: Series, max_order: int,
                   term: Callable[[int, object], object],
                   const: Series) -> Series:
    """const + sum_{k >= 1} term(k, .) applied to the coefficients of u^k,
    for a series u with zero constant term (so u^k vanishes past max_order)."""
    out = dict(const)
    power = dict(u)
    k = 1
    while power and k <= max_order:
        for nu, c in power.items():
            out[nu] = out.get(nu, 0) + term(k, c)
        k += 1
        power = series_mul(power, u, max_order)
    return out


def series_log1p(u: Series, max_order: int) -> Series:
    """log(1 + u) for a series u with zero constant term."""
    return series_compose(u, max_order,
                          lambda k, c: (1 if k % 2 == 1 else -1) * c / k, {})


def series_pow(a: Series, p: float, max_order: int) -> Series:
    """a^p for a real p, by the binomial series around the constant term
    a_0, which must be positive (nonzero when p is an integer)."""
    zero = (0,) * len(next(iter(a)))
    c0 = a.get(zero, 0)
    if c0 == 0 or (c0 < 0 and not float(p).is_integer()):
        raise ValueError("power %r of a series with constant term %r"
                         % (p, c0))
    v = {nu: c / c0 for nu, c in a.items() if nu != zero}
    binom = [1.0]
    for k in range(1, max_order + 1):
        binom.append(binom[-1] * ((p - (k - 1)) / k))
    out = series_compose(v, max_order, lambda k, c: c * binom[k],
                         {zero: 1.0})
    return {nu: c * c0 ** p for nu, c in out.items()}
