"""Characteristic-function scans and weak Cramer certificates.

A certificate records evidence that |cf(t)| <= 1 - c / ||t||^b for all
||t|| in (R, T_max] on a finite radial-shell grid, a violation witness
when the inequality fails, or a pairwise wrapped-square U-statistic bound
that certifies the condition together with a data-level failure
probability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cumulants import as_points

__all__ = [
    "CharFunctionHandle",
    "CramerCertificate",
    "eval_cf",
    "weak_cramer_scan",
    "mean_weak_cramer_scan",
    "ustat_certificate",
    "c_r_lower_bound",
    "failure_prob_bound",
    "scan_grid",
]


# frequency-by-atom elements per block (a row if longer): 128 KB per float
# temporary, so a block's few temporaries stay in a core's L2 cache
_BLOCK = 2 ** 14


def _atoms(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a finite (n, d) array and their weights counts / n.

    The empirical measure (1/n) sum_i delta_{x_i} is exactly
    sum_k w_k delta_{a_k}; rows are compared by their bytes, through one
    sort of a contiguous void view.
    """
    pts = np.ascontiguousarray(points)
    rows = pts.view(np.dtype((np.void, pts.dtype.itemsize * pts.shape[1])))
    _, first, counts = np.unique(rows.ravel(), return_index=True,
                                 return_counts=True)
    return pts[first], counts / pts.shape[0]


@dataclass(frozen=True)
class CharFunctionHandle:
    """Characteristic function of the empirical law of ``points`` (an
    (n, d) array, or a 1-d array of n points in R^1), with uniform
    weights.  The handle keeps its points and evaluates the same measure
    from its distinct rows ``atoms`` and their ``weights``.
    """

    points: np.ndarray
    atoms: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = as_points(self.points)
        atoms, weights = _atoms(pts)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def values(self, T: np.ndarray) -> np.ndarray:
        """cf evaluated at frequencies T of shape (m, d)."""
        T = np.atleast_2d(np.asarray(T, dtype=float))
        out = np.empty(T.shape[0], dtype=complex)
        rows = max(1, _BLOCK // self.atoms.shape[0])
        for lo in range(0, T.shape[0], rows):
            phase = T[lo:lo + rows] @ self.atoms.T
            out.real[lo:lo + rows] = np.cos(phase) @ self.weights
            out.imag[lo:lo + rows] = np.sin(phase, out=phase) @ self.weights
        return out

    def modulus(self, T: np.ndarray) -> np.ndarray:
        return np.abs(self.values(T))


def eval_cf(h: CharFunctionHandle, t) -> complex:
    """Characteristic function at a single frequency point."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return complex(h.values(t[None, :])[0])


@dataclass
class CramerCertificate:
    b: float
    c: float                  # measured margin (min slack) or violated target
    R: float
    T_max: float
    # certified-on-grid | violated | no-margin | certified-by-ustat
    status: str
    witness: Optional[Tuple[float, ...]] = None
    witness_modulus: Optional[float] = None
    evidence: List[dict] = field(default_factory=list)
    S_value: Optional[float] = None
    prob_bound: Optional[float] = None

    def to_json_dict(self) -> dict:
        out = {
            "b": self.b, "c": self.c, "R": self.R, "T_max": self.T_max,
            "status": self.status,
            "evidence": self.evidence,
        }
        if self.witness is not None:
            out["witness"] = list(self.witness)
            out["witness_modulus"] = self.witness_modulus
        if self.S_value is not None:
            out["S_value"] = self.S_value
        if self.prob_bound is not None:
            out["prob_bound"] = self.prob_bound
        return out


# ---------------------------------------------------------------------------
# scan grids

def _directions(d: int, n_dirs: Optional[int]) -> np.ndarray:
    """Unit scan directions.  In d = 1, and in d = 2 for an even count m,
    the second half is the exact negation of the first."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        m = 64 if n_dirs is None else n_dirs
        ang = 2 * math.pi * (np.arange(m) + 0.5) / m
        u = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        if m % 2 == 0:
            u[m // 2:] = -u[:m // 2]
        return u
    if d == 3:
        m = 256 if n_dirs is None else n_dirs
        # Fibonacci sphere
        i = np.arange(m) + 0.5
        z = 1 - 2 * i / m
        r = np.sqrt(np.maximum(1 - z * z, 0))
        golden = math.pi * (3 - math.sqrt(5))
        th = golden * i
        return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)
    raise ValueError("scans support d <= 3")


def scan_grid(d: int, R: float, T_max: float, n_radii: int = 512,
              n_dirs: Optional[int] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Radial-shell grid: geometric radii in (R, T_max], unit directions."""
    if not 0 < R < T_max:
        raise ValueError("need 0 < R < T_max")
    if n_radii < 1:
        raise ValueError("grid resolution too coarse: no radii")
    if n_dirs is not None and n_dirs < 1:
        raise ValueError("need at least one scan direction, got %d"
                         % n_dirs)
    if n_dirs is not None and d == 1:
        raise ValueError("the direction count (--grid-dirs) applies to "
                         "d = 2 and 3; a 1-d scan uses the directions +1 "
                         "and -1")
    radii = np.geomspace(R, T_max, n_radii + 1)[1:]
    return radii, _directions(d, n_dirs)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_REFINE_STEPS = 200   # the bracket shrinks by 0.618 per step


def _refine_radius(modulus_fn, direction: np.ndarray, b: float,
                   r_lo: float, r_hi: float) -> Tuple[float, float, float]:
    """Minimize slack(r) = (1 - |cf(r u)|) r^b over [r_lo, r_hi] by a
    golden-section search; returns the radius, its modulus and its slack.

    The slack is flat to rounding near its minimum, so the search stops
    once the bracket is narrower than sqrt(eps) r + 1e-12 (about 1.5e-8
    relative), where c is exact to rounding and the radius is not.  The
    step cap ends it where float spacing keeps the bracket from
    shrinking further.
    """
    def point(r):
        m = float(modulus_fn((r * direction)[None, :])[0])
        return (1.0 - min(m, 1.0)) * r ** b, r, m

    # the better inner point is kept at each step, so it is the best seen
    lo, hi = r_lo, r_hi
    x1 = point(hi - _GOLDEN * (hi - lo))
    x2 = point(lo + _GOLDEN * (hi - lo))
    for _ in range(_REFINE_STEPS):
        if hi - lo < _SQRT_EPS * hi + 1e-12:
            break
        if x1 < x2:
            hi, x2 = x2[1], x1
            x1 = point(hi - _GOLDEN * (hi - lo))
        else:
            lo, x1 = x1[1], x2
            x2 = point(lo + _GOLDEN * (hi - lo))
    slack, r, m = min(x1, x2)
    return r, m, slack


def _scan(modulus_fn, d: int, b: float, R: float, T_max: float,
          n_radii: int, n_dirs: Optional[int],
          c: Optional[float]) -> CramerCertificate:
    if not b > 0:
        raise ValueError("b must be > 0")
    if c is not None and not (math.isfinite(c) and c > 0):
        raise ValueError("target margin c must be > 0 and finite, got %r"
                         % (c,))
    radii, dirs = scan_grid(d, R, T_max, n_radii, n_dirs)
    try:
        finite = math.isfinite(T_max ** b)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("T_max ** b (%r ** %r) exceeds the float range: "
                         "lower --b or --Tmax" % (T_max, b))
    # |cf(-t)| = |cf(t)|: of an antipodal grid only the first half is
    # scanned, so ties name the first direction of each pair
    half = dirs.shape[0] // 2
    if dirs.shape[0] % 2 == 0 and np.array_equal(dirs[half:], -dirs[:half]):
        dirs = dirs[:half]
    n_r, n_d = radii.size, dirs.shape[0]
    T = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    mod = np.minimum(modulus_fn(T), 1.0).reshape(n_r, n_d)
    slack = (1.0 - mod) * radii[:, None] ** b

    rows, cols = np.arange(n_r), np.argmin(slack, axis=1)
    evidence = [{"t": t, "modulus": m, "slack": sl} for t, m, sl in zip(
        (radii[:, None] * dirs[cols]).tolist(), mod[rows, cols].tolist(),
        slack[rows, cols].tolist())]

    i0, j0 = np.unravel_index(np.argmin(slack), slack.shape)
    best_mod, best_slack = float(mod[i0, j0]), float(slack[i0, j0])
    best_t = radii[i0] * dirs[j0]
    r_lo = float(radii[i0 - 1]) if i0 > 0 else R
    r_hi = float(radii[min(i0 + 1, n_r - 1)])
    r, m, s = _refine_radius(modulus_fn, dirs[j0], b, r_lo, r_hi)
    if s < best_slack:
        best_mod, best_slack, best_t = m, s, r * dirs[j0]

    c_hat = best_slack
    if c is not None and c_hat < c:
        status = "violated"
    else:
        # |cf| = 1 at the witness up to the rounding slack that
        # ustat_certificate allows (a lattice spike): no margin to certify
        c = c_hat
        status = ("no-margin" if 1.0 - best_mod <= 1e-12
                  else "certified-on-grid")
    return CramerCertificate(
        b=b, c=c, R=R, T_max=T_max, status=status,
        witness=tuple(float(v) for v in best_t),
        witness_modulus=best_mod, evidence=evidence)


def weak_cramer_scan(h: CharFunctionHandle, b: float, R: float, T_max: float,
                     n_radii: int = 512, n_dirs: Optional[int] = None,
                     c: Optional[float] = None) -> CramerCertificate:
    """Scan the weak Cramer inequality on a radial-shell grid.

    Returns the minimal slack (1 - |cf(t)|) ||t||^b as the certified
    on-grid margin, or a violation witness when a target ``c`` (which must
    be > 0) is supplied and undercut.  When |cf| is 1 within 1e-12 at the
    minimizer, as on lattice data, the status is "no-margin".  The grid
    minimum is polished by a golden-section search along the worst
    direction, between the neighbouring grid radii.  The slack is flat to
    rounding near its minimum, so the search locates the witness radius
    to about 1.5e-8 relative (sqrt(eps)) and the margin c to rounding.
    Since |cf(-t)| = |cf(t)|, an antipodal grid (d = 1, and d = 2 with an
    even direction count) is evaluated on its first half only.
    """
    return _scan(h.modulus, h.dimension, b, R, T_max, n_radii, n_dirs, c)


def mean_weak_cramer_scan(hs: Sequence[CharFunctionHandle], b: float,
                          R: float, T_max: float, n_radii: int = 512,
                          n_dirs: Optional[int] = None,
                          c: Optional[float] = None) -> CramerCertificate:
    """Scan applied to the average of the per-unit cf moduli."""
    if len(hs) == 0:
        raise ValueError("need at least one handle")
    dims = {h.dimension for h in hs}
    if len(dims) != 1:
        raise ValueError("mixed dimensions in handle list")
    def mean_modulus(T):
        return sum(h.modulus(T) for h in hs) / len(hs)
    return _scan(mean_modulus, dims.pop(), b, R, T_max, n_radii, n_dirs, c)


# ---------------------------------------------------------------------------
# pairwise wrapped-square certificates

def _pairwise_xi_mean(atoms: np.ndarray, w: np.ndarray, n: int,
                      T: np.ndarray) -> np.ndarray:
    """Mean wrapped square over ordered pairs i != j, for each row t of T.

    The n points are the atoms with weights w (counts / n); the wrapped
    square of a pair is inf over integers q of (t'(x_i - x_j) - 2 pi q)^2.
    With y = t'a mod 2 pi sorted, a pair at gap g <= pi adds g^2 and a
    wider pair adds (2 pi - g)^2.  Prefix sums of w, w y and w y^2 give
    both windows of every atom at once; pairs within an atom add 0, so the
    mean is n / (n - 1) sum_{k,l} w_k w_l xi_kl.  Cost O(m k log k) for k
    atoms and m frequencies, in blocks of frequency rows.
    """
    k = atoms.shape[0]
    out = np.empty(T.shape[0])
    rows = max(1, _BLOCK // (2 * k))
    for lo in range(0, T.shape[0], rows):
        y = np.mod(T[lo:lo + rows] @ atoms.T, 2 * math.pi)
        m = y.shape[0]
        ranked = np.argsort(y, axis=1)
        ys = np.take_along_axis(y, ranked, axis=1)
        # merge the sorted queries ys - pi ahead of equal atoms: the i-th
        # query lands after the far[i] atoms with ys < ys_i - pi, which are
        # the atoms more than pi below atom i
        order = np.argsort(np.concatenate([ys - math.pi, ys], axis=1),
                           axis=1, kind="stable")
        far = np.nonzero(order < k)[1].reshape(m, k) - np.arange(k)
        ws = w[ranked]
        P = np.zeros((3, m, k + 1))
        np.cumsum([ws, ws * ys, ws * ys * ys], axis=2, out=P[:, :, 1:])
        below = np.take_along_axis(P, far[None], axis=2)
        near = P[:, :, :k] - below
        z = 2 * math.pi - ys
        xi = (ys * ys * near[0] - 2 * ys * near[1] + near[2]
              + z * z * below[0] + 2 * z * below[1] + below[2])
        out[lo:lo + m] = 2 * np.sum(ws * xi, axis=1)
    return out * (n / (n - 1))


def ustat_certificate(h: CharFunctionHandle, t, b: float, R: float
                      ) -> Tuple[float, dict]:
    """Pairwise U-statistic S(t) lower-bounding 1 - |empirical cf(t)| for
    the empirical handle h, from its atom table.

    Returns S(t) and a record asserting the inequality, plus the implied
    weak Cramer margin S(t) ||t||^b for the scanned frequency.
    """
    n = h.points.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    S = float(_pairwise_xi_mean(h.atoms, h.weights, n, t[None, :])[0]
              / math.pi ** 2)
    lhs = 1.0 - abs(eval_cf(h, t))
    record = {
        "t": [float(v) for v in t],
        "S": S,
        "one_minus_modulus": lhs,
        "holds": bool(lhs >= S - 1e-12),
        "implied_margin": S * float(np.linalg.norm(t)) ** b,
        "b": b,
        "R": R,
    }
    return S, record


def c_r_lower_bound(points, R: float, t_grid) -> Tuple[float, np.ndarray]:
    """Grid lower bound for the sup over ||t|| > R of the mean wrapped square.

    Returns (value, maximizing grid point); value estimates the constant
    entering the failure probability bound.
    """
    pts = as_points(points)
    if pts.shape[0] < 2:
        raise ValueError("need at least 2 points")
    t_grid = np.atleast_2d(np.asarray(t_grid, dtype=float))
    if t_grid.shape[0] == 0:
        raise ValueError("empty frequency grid")
    norms = np.linalg.norm(t_grid, axis=1)
    if np.any(norms <= R):
        raise ValueError("all grid frequencies must satisfy ||t|| > R")
    atoms, w = _atoms(pts)
    vals = _pairwise_xi_mean(atoms, w, pts.shape[0], t_grid)
    i = int(np.argmax(vals))
    return float(vals[i] / (2 * math.pi ** 2)), t_grid[i]


def failure_prob_bound(c_R: float, n: int) -> float:
    """exp(-c_R^2 n / 2): bound on the chance the empirical measure fails."""
    if not (math.isfinite(c_R) and c_R > 0):
        raise ValueError("c_R must be > 0 and finite, got %r" % (c_R,))
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.exp(-c_R ** 2 * n / 2)
