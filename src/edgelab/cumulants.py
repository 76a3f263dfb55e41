"""Multi-index bookkeeping and moment/cumulant algebra.

Everything here is formal power-series arithmetic on coefficient tables
keyed by multi-indices, done by the series kernel of ``edgelab.jets``.
The arithmetic is generic over the value type: floats in normal use,
``fractions.Fraction`` when an exact result is wanted (the test suite uses
that mode as an oracle).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Dict, List

import numpy as np

from .jets import MultiIndex, series_log1p, series_mul

__all__ = [
    "MultiIndex",
    "enumerate_multi_indices",
    "multi_factorial",
    "MomentSet",
    "CumulantSet",
    "as_points",
    "raw_moments_from_points",
    "moments_to_cumulants",
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


# ---------------------------------------------------------------------------
# moment sources

def as_points(points) -> np.ndarray:
    """A nonempty, finite float (n, d) point array; a 1-d array is n points
    in R^1."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("all coordinates must be finite")
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


# ---------------------------------------------------------------------------
# conversions

def moments_to_cumulants(m: MomentSet) -> CumulantSet:
    """Cumulants from raw moments via the log of the formal moment series."""
    d, s = m.dimension, m.max_order
    series = {nu: m.table[nu] / multi_factorial(nu)
              for nu in m.table}
    zero = (0,) * d
    u = {nu: c for nu, c in series.items() if nu != zero}
    logm = series_log1p(u, s)
    table = {nu: logm.get(nu, 0) * multi_factorial(nu)
             for nu in enumerate_multi_indices(d, s) if sum(nu)}
    return CumulantSet(d, s, table)


def inv_sqrt_spd(V: np.ndarray) -> np.ndarray:
    """Inverse of the symmetric positive-definite square root of V."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("V must be a square matrix")
    if not np.allclose(V, V.T, atol=1e-10):
        raise ValueError("V must be symmetric")
    lam_min, _, inv_root = _spd_roots(V)
    if inv_root is None:
        raise ValueError("V must be positive definite (min eigenvalue %g)"
                         % lam_min)
    return inv_root


def _spd_roots(V: np.ndarray):
    """(smallest eigenvalue, V^{1/2}, V^{-1/2}) of a symmetric V from one
    eigendecomposition; both roots are None unless V is positive
    definite."""
    w, U = np.linalg.eigh(V)
    if w[0] <= 0:
        return float(w[0]), None, None
    r = np.sqrt(w)
    return float(w[0]), (U * r) @ U.T, (U / r) @ U.T


def _series_substitute_linear(a: Dict[MultiIndex, object], B: np.ndarray,
                              max_order: int) -> Dict[MultiIndex, object]:
    """Coefficients of t -> series(B t), i.e. substitute t_k = sum_l B[k,l] u_l."""
    d = B.shape[1]
    lin = [{tuple(int(i == l) for i in range(d)): B[k, l] for l in range(d)}
           for k in range(B.shape[0])]
    out: Dict[MultiIndex, object] = {}
    for nu, c in a.items():
        mono = {(0,) * d: 1}
        for k, p in enumerate(nu):
            for _ in range(p):
                mono = series_mul(mono, lin[k], max_order)
        for mu, cm in mono.items():
            out[mu] = out.get(mu, 0) + c * cm
    return {nu: c for nu, c in out.items() if c != 0}


def _transform_cumulants(c: CumulantSet, A: np.ndarray) -> CumulantSet:
    """Cumulants of A X from cumulants of X (K_{AX}(t) = K_X(A' t))."""
    d, s = c.dimension, c.max_order
    series = {nu: c.table[nu] / multi_factorial(nu) for nu in c.table}
    # substitute t = A' u
    new = _series_substitute_linear(series, np.asarray(A).T, s)
    table = {nu: new.get(nu, 0) * multi_factorial(nu)
             for nu in enumerate_multi_indices(d, s) if sum(nu)}
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
    return CumulantSet(d, s, table)


def chi_poly(j: int, c: CumulantSet) -> Dict[MultiIndex, object]:
    """The degree-j cumulant polynomial j! sum_{|nu|=j} chi_nu / nu! z^nu,
    as a coefficient table without zero entries."""
    if not 1 <= j <= c.max_order:
        raise ValueError("order %d not available (max %d)" % (j, c.max_order))
    jf = factorial(j)
    coeffs = {}
    for nu, chi in c.table.items():
        if sum(nu) == j and chi != 0:
            coeffs[nu] = jf * chi / multi_factorial(nu)
    return coeffs
