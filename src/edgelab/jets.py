"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the Taylor coefficients of a function around a base point up
to a fixed total order; composing jets through the elementary operations
gives all mixed partial derivatives of rational/power compositions to
machine precision, without symbolic differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .cumulants import (MultiIndex, _series_compose, _series_mul,
                        enumerate_multi_indices, multi_factorial)

__all__ = ["Jet", "jet_variable", "jet_constant", "DerivativeJet"]


@dataclass
class Jet:
    dimension: int
    order: int
    coeffs: Dict[MultiIndex, float] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {a: c for a, c in self.coeffs.items() if c != 0.0}

    @property
    def value(self) -> float:
        return self.coeffs.get((0,) * self.dimension, 0.0)

    def _like(self, coeffs) -> "Jet":
        return Jet(self.dimension, self.order, coeffs)

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = jet_constant(other, self.dimension, self.order)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0.0) + c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._like({a: c * other for a, c in self.coeffs.items()})
        return self._like(_series_mul(self.coeffs, other.coeffs, self.order))

    __rmul__ = __mul__

    def __pow__(self, p: float) -> "Jet":
        """Real power via the binomial series around the jet's value."""
        c0 = self.value
        if c0 <= 0 and not float(p).is_integer():
            raise ValueError("fractional power of a jet with nonpositive value")
        zero = (0,) * self.dimension
        v = {a: c / c0 for a, c in self.coeffs.items() if a != zero}
        binom = [1.0]
        for k in range(1, self.order + 1):
            binom.append(binom[-1] * ((p - (k - 1)) / k))
        out = _series_compose(v, self.order, lambda k, c: c * binom[k],
                              {zero: 1.0})
        return self._like(out) * (c0 ** p)

    def derivative(self, alpha: MultiIndex) -> float:
        """D^alpha of the represented function at the base point."""
        return self.coeffs.get(alpha, 0.0) * multi_factorial(alpha)


def jet_constant(value: float, d: int, order: int) -> Jet:
    return Jet(d, order, {(0,) * d: float(value)})


def jet_variable(i: int, base: float, d: int, order: int) -> Jet:
    e = tuple(int(k == i) for k in range(d))
    return Jet(d, order, {(0,) * d: float(base), e: 1.0})


@dataclass(frozen=True)
class DerivativeJet:
    """All partial derivatives of a scalar function at a base point."""

    base: Tuple[float, ...]
    order: int
    table: Dict[MultiIndex, float]

    def __getitem__(self, alpha: MultiIndex) -> float:
        return self.table[tuple(alpha)]

    def max_abs(self, max_order: int = None) -> float:
        mo = self.order if max_order is None else max_order
        return max(abs(v) for a, v in self.table.items() if sum(a) <= mo)

    @staticmethod
    def from_jet(j: Jet, base) -> "DerivativeJet":
        d = j.dimension
        table = {a: j.derivative(a)
                 for a in enumerate_multi_indices(d, j.order)}
        return DerivativeJet(tuple(float(v) for v in base), j.order, table)
