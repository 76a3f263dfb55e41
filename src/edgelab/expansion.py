"""Edgeworth expansion construction and signed-measure evaluation.

An expansion is stored as one Hermite-basis coefficient table per
correction order j: the degree-j correction polynomial applied to the
Gaussian as a differential operator turns each monomial z^nu into the
tensor Hermite polynomial He_nu(x) times the Gaussian density, so the
polynomial coefficient tables double as Hermite coefficient tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import erfc, factorial, gamma, inf, lgamma, pi, sqrt
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _temme
from .cumulants import CumulantSet, MultiIndex, chi_poly
from .jets import series_mul

__all__ = [
    "pj_polynomial",
    "EdgeworthExpansion",
    "build_expansion",
    "SetSpec",
    "set_measure",
]


# ---------------------------------------------------------------------------
# Hermite machinery (probabilists' convention)

def _hermite_column(max_k: int, x) -> np.ndarray:
    """He_0..He_max_k stacked along the first axis, by the recurrence
    He_{k+1} = x He_k - k He_{k-1}."""
    x = np.asarray(x, dtype=float)
    out = np.empty((max_k + 1,) + x.shape)
    out[0] = 1.0
    if max_k >= 1:
        out[1] = x
    for m in range(1, max_k):
        out[m + 1] = x * out[m] - m * out[m - 1]
    return out


def _basis_1d(k: int) -> Dict[int, float]:
    """He_k in the monomial basis."""
    return {k - 2 * m: ((-1) ** m * factorial(k)
                        / (factorial(m) * 2 ** m * factorial(k - 2 * m)))
            for m in range(k // 2 + 1)}


def _basis_change(coeffs: Dict[MultiIndex, float]) -> Dict[MultiIndex, float]:
    """A tensor Hermite table rewritten in the monomial basis."""
    out: Dict[MultiIndex, float] = {}
    for nu, c in coeffs.items():
        partial = {(): c}
        for p in nu:
            table = _basis_1d(p)
            nxt: Dict[Tuple[int, ...], float] = {}
            for prefix, cp in partial.items():
                for q, cq in table.items():
                    key = prefix + (q,)
                    nxt[key] = nxt.get(key, 0.0) + cp * cq
            partial = nxt
        for mu, cm in partial.items():
            out[mu] = out.get(mu, 0.0) + cm
    return {nu: c for nu, c in out.items() if c != 0.0}


def _contract(tables: Dict[int, Dict[MultiIndex, float]], n: int, cols):
    """Sum over j of n^{-j/2} sum_nu c_nu prod_k cols[k][nu_k], where
    cols[k][p] holds He_p values (or integrals) on axis k; the result has
    the shape of one cols[k][p]."""
    total = 0.0
    for j, tab in tables.items():
        scale = n ** (-j / 2.0)
        for nu, c in tab.items():
            prod = 1.0
            for k, p in enumerate(nu):
                prod = prod * cols[k][p]
            total = total + scale * c * prod
    return np.asarray(total)


# ---------------------------------------------------------------------------
# correction polynomials

def pj_polynomial(j: int, c: CumulantSet) -> Dict[MultiIndex, object]:
    """Correction polynomial of order j built from the cumulant table.

    P_j is the eps^j coefficient of exp(sum_r eps^r U_r) with
    U_r = chi_{r+2}(z) / (r+2)!, got by the recurrence P_0 = 1,
    P_i = (1/i) sum_{r=1..i} r U_r P_{i-r}.  P_i has degree at most 3i, so
    truncating the products there drops nothing.  Returns the coefficient
    table without zero entries; exact when the cumulant table holds exact
    rationals.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if j + 2 > c.max_order:
        raise ValueError("order %d cumulants needed, table stops at %d"
                         % (j + 2, c.max_order))
    U = {r: {nu: v / factorial(r + 2)
             for nu, v in chi_poly(r + 2, c).items()}
         for r in range(1, j + 1)}
    P = [{(0,) * c.dimension: 1}]
    for i in range(1, j + 1):
        acc: Dict[MultiIndex, object] = {}
        for r in range(1, i + 1):
            for nu, v in series_mul(U[r], P[i - r], 3 * i).items():
                acc[nu] = acc.get(nu, 0) + r * v
        P.append({nu: v / i for nu, v in acc.items() if v != 0})
    return P[j]


@dataclass(frozen=True)
class EdgeworthExpansion:
    """Signed-measure expansion of a standardized sum at sample size n."""

    dimension: int
    order: int          # s
    n: int
    cumulants: CumulantSet
    hermite_coeffs: Dict[int, Dict[MultiIndex, float]]

    @property
    def max_hermite_degree(self) -> int:
        return max((sum(nu) for tab in self.hermite_coeffs.values()
                    for nu in tab), default=0)

    @cached_property
    def _ball_terms(self) -> List[Tuple[float, int]]:
        """(n^(-j/2) c_mu prod_k Gamma((mu_k + 1)/2), |mu| + d) for each
        monomial mu with even exponents of the Hermite tables rewritten in
        the monomial basis; built on first use, for every centered ball."""
        terms = []
        for j, tab in self.hermite_coeffs.items():
            scale = self.n ** (-j / 2.0)
            for mu, c in _basis_change(tab).items():
                if any(p % 2 for p in mu):
                    continue
                ang = 1.0
                for p in mu:
                    ang *= gamma((p + 1) / 2.0)
                terms.append((scale * c * ang, sum(mu) + self.dimension))
        return terms

    def weight(self, x: np.ndarray) -> np.ndarray:
        """Signed density divided by the Gaussian density, at points (m, d)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        K = self.max_hermite_degree
        return _contract(self.hermite_coeffs, self.n,
                         [_hermite_column(K, x[:, k])
                          for k in range(self.dimension)])

    def cdf_1d(self, t):
        """One-dimensional CDF at t (a scalar or an array): the measure of
        (-inf, t]."""
        if self.dimension != 1:
            raise ValueError("cdf_1d requires dimension 1")
        val = _box_measure(self, [-inf], [np.asarray(t, dtype=float)])
        return val if val.ndim else float(val)

    def to_json_dict(self) -> dict:
        return {
            "d": self.dimension,
            "s": self.order,
            "n": self.n,
            "cumulants": [[list(nu), float(v)]
                          for nu, v in sorted(self.cumulants.table.items(),
                                              key=_glex_key)],
            "hermite": [{"j": j,
                         "terms": [[list(nu), float(c)]
                                   for nu, c in sorted(tab.items(),
                                                       key=_glex_key)]}
                        for j, tab in sorted(self.hermite_coeffs.items())],
        }


def _glex_key(item):
    nu = item[0]
    return (sum(nu), tuple(-e for e in nu))


def build_expansion(c: CumulantSet, n: int, s: int) -> EdgeworthExpansion:
    """Assemble the order-s expansion at sample size n from cumulants."""
    if not 2 <= s <= c.max_order:
        raise ValueError("need 2 <= s <= cumulant order %d, got s=%d"
                         % (c.max_order, s))
    if n < 1:
        raise ValueError("n must be >= 1")
    if not c.check_standardized():
        raise ValueError("cumulants must be standardized "
                         "(zero mean, identity second order)")
    d = c.dimension
    coeffs: Dict[int, Dict[MultiIndex, float]] = {0: {(0,) * d: 1.0}}
    for j in range(1, s - 1):
        coeffs[j] = pj_polynomial(j, c)
    return EdgeworthExpansion(d, s, n, c, coeffs)


# ---------------------------------------------------------------------------
# sets and signed measures

@dataclass(frozen=True)
class SetSpec:
    """Convex evaluation region: box, centered/offset ball, half-space."""

    kind: str
    low: Optional[Tuple[float, ...]] = None        # box
    high: Optional[Tuple[float, ...]] = None       # box
    center: Optional[Tuple[float, ...]] = None     # ball
    radius: Optional[float] = None                 # ball
    normal: Optional[Tuple[float, ...]] = None     # halfspace {a'x <= offset}
    offset: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("box", "ball", "halfspace"):
            raise ValueError("unknown set kind %r" % (self.kind,))
        if self.kind == "box":
            if len(self.low) != len(self.high):
                raise ValueError("box bounds low and high must have the "
                                 "same length, not %d and %d"
                                 % (len(self.low), len(self.high)))
            if any(l > h for l, h in zip(self.low, self.high)):
                raise ValueError("box bounds must satisfy low <= high")
        if self.kind == "ball" and self.radius < 0:
            raise ValueError("ball radius must be >= 0")
        if self.kind == "halfspace" and not any(self.normal):
            raise ValueError("half-space normal must be nonzero")

    @property
    def dimension(self) -> int:
        """The dimension of the space the region lies in."""
        return len({"box": self.low, "ball": self.center,
                    "halfspace": self.normal}[self.kind])

    @staticmethod
    def halfline(t: float) -> "SetSpec":
        """The half-line (-inf, t], as a 1-d box."""
        return SetSpec.box((-inf,), (t,))

    @staticmethod
    def box(low: Sequence[float], high: Sequence[float]) -> "SetSpec":
        return SetSpec("box", low=tuple(float(v) for v in low),
                       high=tuple(float(v) for v in high))

    @staticmethod
    def ball(center: Sequence[float], radius: float) -> "SetSpec":
        return SetSpec("ball", center=tuple(float(v) for v in center),
                       radius=float(radius))

    @staticmethod
    def halfspace(normal: Sequence[float], offset: float) -> "SetSpec":
        return SetSpec("halfspace",
                       normal=tuple(float(v) for v in normal),
                       offset=float(offset))

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Boolean membership for points of shape (m, d).  Boxes and balls
        are tested one coordinate at a time, on the columns of x; a ball's
        squared distance adds the coordinates first to last."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "box":
            inside = np.ones(x.shape[0], dtype=bool)
            for col, lo, hi in zip(x.T, self.low, self.high):
                inside &= col >= lo
                inside &= col <= hi
            return inside
        if self.kind == "ball":
            dist2 = np.zeros(x.shape[0])
            for col, c in zip(x.T, self.center):
                dist2 += np.square(col - c)
            return dist2 <= self.radius ** 2
        a = np.asarray(self.normal)
        return x @ a <= self.offset


_TEMME_ROWS = [np.array(row) for row in _temme.D]


def _ndtr(x: np.ndarray):
    """Standard normal CDF, erfc(-x / sqrt 2) / 2: a float for a 0-d array,
    else an array filled by one elementwise pass over the entries that are
    not infinite; exactly 0 and 1 at -inf and +inf."""
    if x.ndim == 0:
        return 0.5 * erfc(-float(x) / sqrt(2.0))
    out = np.where(x > 0, 1.0, 0.0)
    fin = ~np.isinf(x)
    z = (np.negative(x[fin], dtype=float) / sqrt(2.0)).tolist()
    out[fin] = 0.5 * np.fromiter(map(erfc, z), float, len(z))
    return out


def _hermite_interval(K: int, a, b) -> np.ndarray:
    """Integrals of He_k(u) phi(u) over [a, b] for k = 0..K, stacked along
    the first axis; a and b broadcast and may be infinite.

    Exact antiderivatives: Phi for k = 0, -He_{k-1} phi for k >= 1.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))

    def tail(t):
        # phi is 0 for |t| > 38.6 and at +-inf; He is evaluated at 0 there,
        # so that a huge endpoint does not give inf * 0
        with np.errstate(over="ignore"):
            gauss = np.exp(-0.5 * t * t)
        live = gauss > 0.0
        return (_hermite_column(K - 1, np.where(live, t, 0.0))
                * np.where(live, gauss, 0.0) / sqrt(2 * pi))

    out = np.empty((K + 1,) + a.shape)
    out[0] = _ndtr(b) - _ndtr(a)
    if K >= 1:
        out[1:] = tail(a) - tail(b)
    return out


def _box_measure(e: EdgeworthExpansion, low, high) -> np.ndarray:
    """Measure of the box [low, high]; each bound may be an array, and the
    result has their broadcast shape."""
    K = e.max_hermite_degree
    return _contract(e.hermite_coeffs, e.n,
                     [_hermite_interval(K, a, b) for a, b in zip(low, high)])


def _lower_gamma_regularized(a, x) -> np.ndarray:
    """P(a, x) = gamma(a, x) / Gamma(a) for a > 0, elementwise over the
    broadcast of a and x (0 at x <= 0, 1 at x = inf), in three regions.

    With lambda = x / a and eta^2 / 2 = lambda - 1 - ln lambda (sign eta =
    sign(lambda - 1)), the window a >= 20, |eta| <= 1.5 (0.137 <= lambda
    <= 3.327) takes Temme's uniform expansion (_gamma_temme), a fixed
    number of array passes for any a; it holds x = a + t sqrt(a) for every
    |t| <= 5 once a >= 34.  Outside it, below x = a + 1 the series
    sum_k x^k / (a)_{k+1} has positive terms (_gamma_series); above it
    Q = 1 - P is a continued fraction (_gamma_fraction), and Q < 1/2
    there, so 1 - Q does not cancel.  Both scale by x^a e^-x / Gamma(a),
    taken in log space as exp(a ln x - x - lgamma(a)), so no factor
    overflows for any a; where x^a and e^-x / Gamma(a) are both normal
    floats their direct product is used: it is correctly rounded, while
    exp of a large log loses about eps * |a ln x| (1e-13 relative at
    x = 1e-35, a = 7).  Each element of the series and the fraction stops
    at its own convergence and then leaves the live arrays, and the
    window's passes are elementwise, so P(a, x) at a point is the same
    float alone as in any batch.

    Largest relative error against mpmath at 50 digits over x = a +
    t sqrt(a), t in [-5, 5] (201 points), and time per 401-point call
    (best of 7 x 50 calls, 2 vCPUs), without the window and with it:

        a       error without  error with  ms without  ms with
        25      4.3e-15        1.1e-14     0.59        0.27
        100     1.7e-15        1.2e-14     0.99        0.23
        400     3.7e-13        4.3e-15     1.74        0.23
        3200    5.7e-12        5.8e-15     3.45        0.24
        4e4     7.0e-11        6.2e-15     8.52        0.23

    The error stays below 2.2e-14 over 40 shapes from 20 to 4e4.  In the
    far left tail, where P < 1e-48, e^(-a eta^2 / 2) loses about eps
    times its argument, so the error grows to about 4 eps |ln P|.
    """
    a = np.asarray(a, dtype=float)
    lga = np.fromiter(map(lgamma, a.flat), float, a.size).reshape(a.shape)
    a, lga, x = np.broadcast_arrays(a, lga, np.asarray(x, dtype=float))
    out = np.where(x > 0, 1.0, 0.0)
    live = (x > 0) & np.isfinite(x)
    big = live & (a >= _temme.A0)
    if big.any():
        eta, half_sq = _temme_eta(a[big], x[big])
        window = np.abs(eta) <= _temme.H
        inside = np.zeros_like(live)
        inside[big] = window
        out[inside] = _gamma_temme(a[inside], eta[window], half_sq[window])
        live &= ~inside
    xl, al, lg = x[live], a[live], lga[live]
    ax = al * np.log(xl)
    pre = np.exp(ax - xl - lg)
    direct = (np.abs(ax) < 700.0) & (xl + lg < 700.0)
    pre[direct] = xl[direct] ** al[direct] * np.exp(-xl[direct] - lg[direct])
    series = xl < al + 1.0
    pre[series] *= _gamma_series(al[series], xl[series])
    fraction = ~series
    pre[fraction] = 1.0 - pre[fraction] * _gamma_fraction(al[fraction],
                                                          xl[fraction])
    out[live] = pre
    return out


def _temme_eta(a: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """eta and eta^2 / 2 = mu - ln(1 + mu), mu = (x - a) / a, over 1-d
    arrays.  For |mu| < 0.3 the difference is taken without cancellation
    as r mu - 2 r^3 sum_j r^(2j) / (2j + 3), r = mu / (2 + mu) (so that
    ln(1 + mu) = 2 artanh r), ten terms of the sum reaching 2^-53."""
    mu = (x - a) / a
    r = mu / (2.0 + mu)
    r2 = r * r
    tail = 0.0
    for j in range(9, -1, -1):
        tail = tail * r2 + 1.0 / (2 * j + 3)
    with np.errstate(divide="ignore"):
        half_sq = np.where(np.abs(mu) < 0.3, r * mu - 2.0 * r * r2 * tail,
                           mu - np.log1p(mu))
    return np.copysign(np.sqrt(2.0 * half_sq), mu), half_sq


def _gamma_temme(a: np.ndarray, eta: np.ndarray, half_sq: np.ndarray
                 ) -> np.ndarray:
    """P(a, x) = Phi(eta sqrt a) - R_a(eta) over 1-d arrays (DLMF 8.12.3),
    R_a(eta) = e^(-a eta^2 / 2) / sqrt(2 pi a) sum_{k,n} d_{k,n} eta^n a^-k
    with the table edgelab._temme.D (Temme 1979; DiDonato and Morris
    1986).  The sums over k, e_n(a) = sum_k d_{k,n} a^-k, are taken once
    per distinct a, and the sum over n by Horner's rule in eta, which
    gathers e_n for the elements one n at a time (the whole gathered
    table raised a rate study's peak memory by 0.5 MB); every pass is
    elementwise, so an element's float does not depend on the batch."""
    shapes, which = np.unique(a, return_inverse=True)
    inv = 1.0 / shapes
    e = np.zeros((_TEMME_ROWS[0].size, shapes.size))
    for row in reversed(_TEMME_ROWS):
        e *= inv
        e[:row.size] += row[:, None]
    total = e[-1].take(which)
    for n in range(e.shape[0] - 2, -1, -1):
        total *= eta
        total += e[n].take(which)
    remainder = np.exp(-a * half_sq) / np.sqrt(2.0 * pi * a) * total
    return _ndtr(eta * np.sqrt(a)) - remainder


def _gamma_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k x^k / (a)_{k+1} over 1-d arrays, 16 terms at a time; an
    element stops after the first block whose last term is at most 1e-17
    of its sum."""
    out = np.empty(a.shape)
    rows = np.arange(a.size)
    term = total = 1.0 / a
    k = a[:, None] + np.arange(1.0, 17.0)
    x = x[:, None]
    while rows.size:
        block = term[:, None] * np.cumprod(x / k, axis=1)
        total = total + block.sum(axis=1)
        term = block[:, -1]
        k += 16.0
        done = ~(term > 1e-17 * total)
        if done.any():
            out[rows[done]] = total[done]
            rows, term, total, k, x = (v[~done] for v in
                                       (rows, term, total, k, x))
    return out


def _gamma_fraction(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q(a, x) x^-a e^x Gamma(a) over 1-d arrays: the continued fraction
    of Numerical Recipes (2007) section 6.2, evaluated by the modified
    Lentz method; an element stops at the first step whose factor d c is
    within 1e-15 of 1."""
    tiny = 1e-300
    out = np.empty(a.shape)
    rows = np.arange(a.size)
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / tiny)
    d = h = 1.0 / b
    i = 0
    while rows.size:
        i += 1
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        h = h * d * c
        done = np.abs(d * c - 1.0) <= 1e-15
        if done.any():
            out[rows[done]] = h[done]
            rows, a, b, c, d, h = (v[~done] for v in (rows, a, b, c, d, h))
    return out


def _centered_ball_measure(e: EdgeworthExpansion, r: float) -> float:
    """Measure of the centered ball of radius r.  In polar coordinates
    x^mu phi(x) integrates over the ball to 0 when some mu_k is odd, and
    otherwise to 2^(a/2) prod_k Gamma((mu_k + 1)/2) P(a/2, r^2/2)
    / (2 pi)^(d/2) with a = |mu| + d (EdgeworthExpansion._ball_terms); the
    radial factor depends on mu only through a, so it is computed once per
    degree, in one kernel call."""
    terms = e._ball_terms
    degrees = sorted({a for _, a in terms})
    P = _lower_gamma_regularized(np.array(degrees) / 2.0, r * r / 2.0)
    radial = {a: 2.0 ** (a / 2.0) * float(p) for a, p in zip(degrees, P)}
    total = 0.0
    for coef, a in terms:
        total += coef * radial[a]
    return total / (2 * pi) ** (e.dimension / 2.0)


def _halfspace_measure(e: EdgeworthExpansion, normal, offset: float) -> float:
    """Measure of {a'x <= offset}.  He_nu(x) phi(x) = (-D)^nu phi(x), so
    the law of y = u'x with u = a/||a|| carries u^nu He_|nu|(y) phi(y): the
    half-space is the half-line y <= offset/||a|| of the projected 1-d
    tables (_projected_tables)."""
    a = np.asarray(normal, dtype=float)
    norm = float(np.linalg.norm(a))
    ints = _hermite_interval(e.max_hermite_degree, -inf, offset / norm)
    return float(_contract(_projected_tables(e, a / norm), e.n, [ints]))


def _projected_tables(e: EdgeworthExpansion, u: np.ndarray
                      ) -> Dict[int, Dict[MultiIndex, float]]:
    """{j: {(m,): sum over |nu| = m of c_nu u^nu}} for the unit vector u,
    with the powers u^nu of a whole table taken in one array pass."""
    projected: Dict[int, Dict[MultiIndex, float]] = {}
    for j, tab in e.hermite_coeffs.items():
        nus = np.array(list(tab), dtype=int).reshape(len(tab), u.size)
        powers = np.prod(u ** nus, axis=1).tolist()
        proj: Dict[MultiIndex, float] = {}
        for (nu, c), w in zip(tab.items(), powers):
            key = (sum(nu),)
            proj[key] = proj.get(key, 0.0) + c * w
        projected[j] = proj
    return projected


def set_measure(e: EdgeworthExpansion, A: SetSpec) -> float:
    """Signed measure of a region of the expansion's dimension, by exact
    Hermite antiderivatives: boxes, half-spaces and balls centered at the
    origin."""
    if A.dimension != e.dimension:
        raise ValueError("the region has dimension %d but the expansion has "
                         "dimension %d" % (A.dimension, e.dimension))
    if A.kind == "box":
        return float(_box_measure(e, A.low, A.high))
    if A.kind == "ball":
        if any(A.center):
            raise ValueError("set_measure supports balls centered at the "
                             "origin only")
        return _centered_ball_measure(e, A.radius)
    return _halfspace_measure(e, A.normal, A.offset)
