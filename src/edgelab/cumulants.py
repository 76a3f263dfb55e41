"""Multi-index bookkeeping and moment/cumulant algebra.

Everything here is formal power-series arithmetic on coefficient tables
keyed by multi-indices.  The arithmetic is generic over the value type:
floats in normal use, ``fractions.Fraction`` when an exact result is
wanted (the test suite uses that mode as an oracle).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

MultiIndex = Tuple[int, ...]

__all__ = [
    "MultiIndex",
    "enumerate_multi_indices",
    "multi_factorial",
    "MomentSet",
    "CumulantSet",
    "Polynomial",
    "as_points",
    "raw_moments_from_points",
    "raw_moments_from_function",
    "moments_to_cumulants",
    "cumulants_to_moments",
    "averaged_standardized_cumulants",
    "chi_poly",
    "inv_sqrt_spd",
]


def enumerate_multi_indices(d: int, max_order: int) -> List[MultiIndex]:
    """All multi-indices of dimension ``d`` with total order <= ``max_order``.

    Graded lexicographic order: sorted by total order first, then
    lexicographically with the first coordinate dominating, e.g. for
    d=2, order 1: (0,0), (1,0), (0,1).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1, got %r" % (d,))
    if max_order < 0:
        raise ValueError("max_order must be >= 0, got %r" % (max_order,))
    out: List[MultiIndex] = []
    for order in range(max_order + 1):
        grade = [nu for nu in itertools.product(range(order + 1), repeat=d)
                 if sum(nu) == order]
        grade.sort(key=lambda nu: tuple(-e for e in nu))
        out.extend(grade)
    return out


def multi_factorial(nu: MultiIndex) -> int:
    """nu! = nu_1! * ... * nu_d!"""
    out = 1
    for k in nu:
        out *= factorial(k)
    return out


def _check_table(d: int, max_order: int, table: Dict[MultiIndex, object],
                 min_order: int = 0) -> None:
    expected = {nu for nu in enumerate_multi_indices(d, max_order)
                if sum(nu) >= min_order}
    if set(table) != expected:
        missing = expected - set(table)
        extra = set(table) - expected
        raise ValueError(
            "incomplete coefficient table (missing %d, extra %d entries)"
            % (len(missing), len(extra)))


@dataclass(frozen=True)
class MomentSet:
    """Raw moments E[X^nu] for all |nu| <= max_order."""

    dimension: int
    max_order: int
    table: Dict[MultiIndex, object]

    def __post_init__(self):
        _check_table(self.dimension, self.max_order, self.table)
        zero = (0,) * self.dimension
        if abs(self.table[zero] - 1) > 1e-12:
            raise ValueError("zeroth moment must be 1 (total mass)")

    def __getitem__(self, nu: MultiIndex):
        return self.table[nu]


@dataclass(frozen=True)
class CumulantSet:
    """Cumulants chi_nu for all 1 <= |nu| <= max_order."""

    dimension: int
    max_order: int
    table: Dict[MultiIndex, object]
    standardized: bool = False

    def __post_init__(self):
        _check_table(self.dimension, self.max_order, self.table, min_order=1)

    def __getitem__(self, nu: MultiIndex):
        return self.table[nu]

    def check_standardized(self, tol: float = 1e-8) -> bool:
        """True when first cumulants vanish and second ones are the identity."""
        d = self.dimension
        for nu in self.table:
            order = sum(nu)
            if order == 1 and abs(self.table[nu]) > tol:
                return False
            if order == 2:
                want = 1.0 if 2 in nu else 0.0
                if abs(self.table[nu] - want) > tol:
                    return False
        return True


@dataclass
class Polynomial:
    """Polynomial in d variables as a multi-index -> coefficient table.

    Used both for the homogeneous cumulant polynomials and their products.
    Zero coefficients are dropped on construction.
    """

    dimension: int
    coeffs: Dict[MultiIndex, object] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {nu: c for nu, c in self.coeffs.items() if c != 0}

    @property
    def degrees(self) -> set:
        return {sum(nu) for nu in self.coeffs}

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        out = dict(self.coeffs)
        for nu, c in other.coeffs.items():
            out[nu] = out.get(nu, 0) + c
        return Polynomial(self.dimension, out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.dimension != other.dimension:
                raise ValueError("dimension mismatch")
            out: Dict[MultiIndex, object] = {}
            for nu1, c1 in self.coeffs.items():
                for nu2, c2 in other.coeffs.items():
                    nu = tuple(a + b for a, b in zip(nu1, nu2))
                    out[nu] = out.get(nu, 0) + c1 * c2
            return Polynomial(self.dimension, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, a) -> "Polynomial":
        return Polynomial(self.dimension,
                          {nu: c * a for nu, c in self.coeffs.items()})

    def __call__(self, x: Sequence[float]) -> float:
        total = 0.0
        for nu, c in self.coeffs.items():
            term = c
            for xk, p in zip(x, nu):
                if p:
                    term = term * xk ** p
            total += term
        return total


# ---------------------------------------------------------------------------
# truncated power-series helpers (tables of series coefficients a_nu,
# meaning sum a_nu t^nu, truncated at a total order)

def _series_mul(a: Dict[MultiIndex, object], b: Dict[MultiIndex, object],
                max_order: int) -> Dict[MultiIndex, object]:
    out: Dict[MultiIndex, object] = {}
    for nu1, c1 in a.items():
        for nu2, c2 in b.items():
            if sum(nu1) + sum(nu2) > max_order:
                continue
            nu = tuple(x + y for x, y in zip(nu1, nu2))
            out[nu] = out.get(nu, 0) + c1 * c2
    return out


def _series_compose(u: Dict[MultiIndex, object], max_order: int,
                    term: Callable[[int, object], object],
                    const: Dict[MultiIndex, object]
                    ) -> Dict[MultiIndex, object]:
    """const + sum_{k >= 1} term(k, .) applied to the coefficients of u^k,
    for a series u with zero constant term (so u^k vanishes past max_order)."""
    out = dict(const)
    power = dict(u)
    k = 1
    while power and k <= max_order:
        for nu, c in power.items():
            out[nu] = out.get(nu, 0) + term(k, c)
        k += 1
        power = _series_mul(power, u, max_order)
    return out


def _series_log1p(u: Dict[MultiIndex, object], max_order: int
                  ) -> Dict[MultiIndex, object]:
    """log(1 + u) for a series u with zero constant term."""
    return _series_compose(u, max_order,
                           lambda k, c: (1 if k % 2 == 1 else -1) * c / k, {})


def _series_exp(u: Dict[MultiIndex, object], max_order: int
                ) -> Dict[MultiIndex, object]:
    """exp(u) for a series u with zero constant term."""
    d = len(next(iter(u))) if u else 1
    return _series_compose(u, max_order, lambda k, c: c / factorial(k),
                           {(0,) * d: 1})


def _series_substitute_linear(a: Dict[MultiIndex, object], B: np.ndarray,
                              max_order: int) -> Dict[MultiIndex, object]:
    """Coefficients of t -> series(B t), i.e. substitute t_k = sum_l B[k,l] u_l."""
    d = B.shape[1]
    lin = [Polynomial(d, {tuple(int(i == l) for i in range(d)): B[k, l]
                          for l in range(d)})
           for k in range(B.shape[0])]
    out: Dict[MultiIndex, object] = {}
    for nu, c in a.items():
        mono = Polynomial(d, {(0,) * d: 1})
        for k, p in enumerate(nu):
            for _ in range(p):
                mono = mono * lin[k]
        for mu, cm in mono.coeffs.items():
            if sum(mu) <= max_order:
                out[mu] = out.get(mu, 0) + c * cm
    return {nu: c for nu, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# moment sources

def as_points(points) -> np.ndarray:
    """A nonempty float (n, d) point array; a 1-d array is n points in R^1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, d) array")
    return pts


def raw_moments_from_points(points: np.ndarray, max_order: int) -> MomentSet:
    """Empirical raw moments (1/n) sum_i X_i^nu of a point cloud (n, d)."""
    pts = as_points(points)
    n, d = pts.shape
    table = {}
    for nu in enumerate_multi_indices(d, max_order):
        prod = np.ones(n)
        for k, p in enumerate(nu):
            if p:
                prod = prod * pts[:, k] ** p
        table[nu] = float(prod.mean())
    return MomentSet(d, max_order, table)


def raw_moments_from_function(d: int, max_order: int,
                              moment: Callable[[MultiIndex], float]) -> MomentSet:
    """Analytic raw moments supplied by a closed-form callable.

    The callable may raise ``KeyError``/``ValueError`` for unsupported
    orders, which is surfaced as-is.
    """
    table = {nu: moment(nu) for nu in enumerate_multi_indices(d, max_order)}
    return MomentSet(d, max_order, table)


# ---------------------------------------------------------------------------
# conversions

def moments_to_cumulants(m: MomentSet) -> CumulantSet:
    """Cumulants from raw moments via the log of the formal moment series."""
    d, s = m.dimension, m.max_order
    series = {nu: m.table[nu] / multi_factorial(nu)
              for nu in m.table}
    zero = (0,) * d
    u = {nu: c for nu, c in series.items() if nu != zero}
    logm = _series_log1p(u, s)
    table = {}
    for nu in enumerate_multi_indices(d, s):
        if sum(nu) == 0:
            continue
        table[nu] = logm.get(nu, 0) * multi_factorial(nu)
    c = CumulantSet(d, s, table)
    return CumulantSet(d, s, table, standardized=_is_float_standardized(c))


def cumulants_to_moments(c: CumulantSet) -> MomentSet:
    """Inverse of :func:`moments_to_cumulants` (exp of the cumulant series)."""
    d, s = c.dimension, c.max_order
    u = {nu: c.table[nu] / multi_factorial(nu) for nu in c.table}
    em = _series_exp(u, s)
    table = {nu: em.get(nu, 0) * multi_factorial(nu)
             for nu in enumerate_multi_indices(d, s)}
    return MomentSet(d, s, table)


def _is_float_standardized(c: CumulantSet) -> bool:
    try:
        return c.check_standardized()
    except TypeError:  # exact-arithmetic values without abs ordering vs float
        return False


def inv_sqrt_spd(V: np.ndarray) -> np.ndarray:
    """Inverse of the symmetric positive-definite square root of V."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("V must be a square matrix")
    if not np.allclose(V, V.T, atol=1e-10):
        raise ValueError("V must be symmetric")
    w, U = np.linalg.eigh(V)
    if w.min() <= 0:
        raise ValueError("V must be positive definite (min eigenvalue %g)"
                         % w.min())
    return (U / np.sqrt(w)) @ U.T


def _transform_cumulants(c: CumulantSet, A: np.ndarray) -> CumulantSet:
    """Cumulants of A X from cumulants of X (K_{AX}(t) = K_X(A' t))."""
    d, s = c.dimension, c.max_order
    series = {nu: c.table[nu] / multi_factorial(nu) for nu in c.table}
    # substitute t = A' u
    new = _series_substitute_linear(series, np.asarray(A).T, s)
    table = {}
    for nu in enumerate_multi_indices(d, s):
        if sum(nu) == 0:
            continue
        table[nu] = new.get(nu, 0) * multi_factorial(nu)
    return CumulantSet(d, s, table)


def averaged_standardized_cumulants(sources, s: int,
                                    V: np.ndarray) -> CumulantSet:
    """Average over units of the cumulants of V^{-1/2} X_i.

    ``sources`` is a list of per-unit MomentSet/CumulantSet objects, or a
    single (n, d) array treated as the empirical law of i.i.d. units.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    A = inv_sqrt_spd(V)
    if isinstance(sources, np.ndarray) or (
            not isinstance(sources, (list, tuple))):
        sources = [raw_moments_from_points(np.asarray(sources), s)]
    per_unit = []
    for src in sources:
        if isinstance(src, MomentSet):
            src = moments_to_cumulants(src)
        if not isinstance(src, CumulantSet):
            raise TypeError("sources must be MomentSet/CumulantSet/array")
        per_unit.append(_transform_cumulants(src, A))
    d = per_unit[0].dimension
    table = {}
    for nu in enumerate_multi_indices(d, s):
        if sum(nu) == 0:
            continue
        table[nu] = sum(c.table[nu] for c in per_unit) / len(per_unit)
    out = CumulantSet(d, s, table)
    return CumulantSet(d, s, table, standardized=out.check_standardized())


def chi_poly(j: int, c: CumulantSet) -> Polynomial:
    """The degree-j cumulant polynomial j! sum_{|nu|=j} chi_nu / nu! z^nu."""
    if not 1 <= j <= c.max_order:
        raise ValueError("order %d not available (max %d)" % (j, c.max_order))
    jf = factorial(j)
    coeffs = {}
    for nu, chi in c.table.items():
        if sum(nu) == j and chi != 0:
            coeffs[nu] = jf * chi / multi_factorial(nu)
    return Polynomial(c.dimension, coeffs)
