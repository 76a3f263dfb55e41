"""Resampling side: the sample summary, bootstrap draws, the
empirical-cumulant expansion, event checkers, and the studentized-t
functional with its derivative jet."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import pi, sqrt
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .cumulants import (CumulantSet, MultiIndex, _series_substitute_linear,
                        _spd_roots, as_points, enumerate_multi_indices,
                        moments_to_cumulants, multi_factorial,
                        raw_moments_from_points)
from .expansion import (EdgeworthExpansion, _hermite_column,
                        _hermite_interval, build_expansion)
from .jets import series_mul, series_pow

__all__ = [
    "SampleStats",
    "EventFlags",
    "sample_stats",
    "bootstrap_draws",
    "bootstrap_counts",
    "counts_at_or_below",
    "empirical_edgeworth",
    "event_checks",
    "g_value_and_jet",
    "tstat_bootstrap",
    "tstat_counts",
    "tstat_pushforward",
    "edgeworth_tstat_curve",
    "edgeworth_tstat_exact",
    "child_rng",
    "map_chunks",
]

_CHUNK = 16384   # fixed bootstrap chunk so streams do not depend on workers
_BLOCK = 2 ** 16  # index elements drawn and reduced at once within a chunk
_MC_CHUNK = 2 ** 16  # importance-sample points per t-statistic curve chunk
_GL_NODES = 64   # Gauss-Legendre nodes per piece of the t-statistic p-integral
_EDGE = 12.0     # Gaussian mass beyond |p| = 12 is below 1e-32
_T_BLOCK = 16    # grid points per quadrature block; bounds the node arrays


def _is_count(v) -> bool:
    """v is an int >= 1, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream derived from a master seed and a key path."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(int(k) for k in key)))


@dataclass(frozen=True)
class SampleStats:
    """One sample's summary: its (n, d) points, their mean, the covariance
    Vhat (denominator n), Vhat's smallest eigenvalue, and Vhat^{1/2} and
    Vhat^{-1/2}, both from one eigendecomposition of Vhat."""
    points: np.ndarray
    n: int
    mean: np.ndarray
    cov: np.ndarray
    lam_min: float
    root: np.ndarray
    inv_root: np.ndarray


def sample_stats(data) -> SampleStats:
    """The summary of a sample of at least 2 points with a nonsingular
    covariance; a 1-d array is n points in R^1."""
    pts = as_points(data)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered / n
    cov = (cov + cov.T) / 2
    lam_min, root, inv_root = _spd_roots(cov)
    if root is None:
        raise ValueError("sample covariance is singular; cannot standardize")
    return SampleStats(points=pts, n=n, mean=mean, cov=cov, lam_min=lam_min,
                       root=root, inv_root=inv_root)


def _standardized_chunks(stats: SampleStats, B: int, seed: int,
                         stream_key: Tuple[int, ...], tally: Callable
                         ) -> list:
    """tally(z) for each chunk z of B draws of sqrt(n) Vhat^{-1/2}
    (bootstrap mean - sample mean), in chunk order, for the sample
    summarized by stats.  Each chunk's (m, d) resample means are
    standardized in place, then multiplied by Vhat^{-1/2} once."""
    def standardize(z):
        z -= stats.mean
        z *= sqrt(stats.n)
        return tally(z @ stats.inv_root.T)

    return _resample(np.ascontiguousarray(stats.points.T), B, seed,
                     stream_key, standardize)


def bootstrap_draws(stats: SampleStats, B: int, seed: int = 0,
                    stream_key: Tuple[int, ...] = ()) -> np.ndarray:
    """B draws of sqrt(n) Vhat^{-1/2} (bootstrap mean - sample mean) for
    the sample summarized by stats, as a (B, d) array.

    Streams are derived per fixed-size chunk from (seed, stream_key, chunk),
    so the output is bit-identical for any number of worker threads;
    resampling runs on every available CPU.  bootstrap_counts tallies the
    same draws without joining them.
    """
    return np.concatenate(_standardized_chunks(stats, B, seed, stream_key,
                                               lambda z: z))


def bootstrap_counts(stats: SampleStats, B: int,
                     tally: Callable[[np.ndarray], np.ndarray],
                     seed: int = 0, stream_key: Tuple[int, ...] = ()
                     ) -> np.ndarray:
    """The sum of tally(z) over the chunks z of the B draws of
    bootstrap_draws(stats, B, seed, stream_key), where tally maps an
    (m, d) chunk of draws to a vector of int counts and may reorder the
    chunk in place.  Each chunk is tallied on the thread that drew it, so
    memory holds, per thread, one block of indices and of one coordinate's
    values (_resample) and one chunk of draws, and a vector per chunk,
    never all B draws; the integer sum does not depend on the CPU count.
    """
    return sum(_standardized_chunks(stats, B, seed, stream_key, tally))


def counts_at_or_below(samples: np.ndarray, grid) -> np.ndarray:
    """The number of 1-d samples at or below each grid point; sorts
    samples in place."""
    samples.sort()
    return np.searchsorted(samples, np.asarray(grid, dtype=float),
                           side="right")


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def map_chunks(chunk: Callable[[int], object], n_chunks: int) -> list:
    """[chunk(0), ..., chunk(n_chunks - 1)], run on one thread per
    available CPU (at most one per chunk) and joined in chunk order, so the
    result does not depend on the CPU count."""
    threads = min(n_chunks, _available_cpus())
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(chunk, range(n_chunks)))


def _resample(rows: np.ndarray, B: int, seed: int,
              stream_key: Tuple[int, ...], finish: Callable,
              squares: bool = False) -> list:
    """finish(means) for each chunk of B resamples of the n columns of the
    (d, n) array rows, in chunk order, where means is the chunk's
    C-contiguous (m, d) array of each resample's mean of each row; with
    squares it is (m, 2 d), and column d + k holds the mean of the
    squares of row k's resampled values.

    Chunk ci holds resamples ci * _CHUNK onwards and draws from the stream
    (seed, *stream_key, ci), in row blocks of about _BLOCK indices: a
    block of r resamples draws its (r, n) indices, then gathers one row of
    rows at a time and adds each resample's n values of it pairwise,
    straight into that row's column of means; the chunk's sums are divided
    by n once, the floats of numpy's mean.  So a thread holds one block of
    indices, one block of one row's values and the chunk's means, whatever
    d and B are.  The chunks run through map_chunks.
    """
    if not _is_count(B):
        raise ValueError("B must be an integer >= 1, not %r" % (B,))
    d, n = rows.shape
    block = max(1, _BLOCK // n)

    def chunk_means(ci):
        m = min(_CHUNK, B - ci * _CHUNK)
        rng = child_rng(seed, *stream_key, ci)
        means = np.empty((m, 2 * d if squares else d))
        for lo in range(0, m, block):
            r = min(block, m - lo)
            idx = rng.integers(0, n, size=(r, n))
            for k, row in enumerate(rows):
                res = np.take(row, idx)
                np.add.reduce(res, axis=-1, out=means[lo:lo + r, k])
                if squares:
                    np.add.reduce(np.square(res, out=res), axis=-1,
                                  out=means[lo:lo + r, d + k])
                del res     # before the next row is gathered
            del idx     # before the next block draws its own
        means /= n
        return means

    return map_chunks(lambda ci: finish(chunk_means(ci)), -(-B // _CHUNK))


def empirical_edgeworth(stats: SampleStats, s: int) -> EdgeworthExpansion:
    """Expansion built from the standardized empirical cumulants at size n."""
    std_pts = (stats.points - stats.mean) @ stats.inv_root.T
    cums = moments_to_cumulants(raw_moments_from_points(std_pts, s))
    table = dict(cums.table)
    # exact standardization up to float rounding; pin the order-1/2 entries
    for nu in table:
        o = sum(nu)
        if o == 1:
            table[nu] = 0.0
        elif o == 2:
            table[nu] = 1.0 if 2 in nu else 0.0
    cums = CumulantSet(cums.dimension, s, table)
    return build_expansion(cums, stats.n, s)


@dataclass(frozen=True)
class EventFlags:
    e0: bool
    e1: bool
    e2: bool
    abs_moment: float        # (1/n) sum ||X_i||^s
    max_mixed_moment: float  # max over |v| <= s of (1/n) sum prod |X_ik|^{v_k}


def event_checks(stats: SampleStats, s: int, rho_bar: float, c1: float,
                 c2: float) -> EventFlags:
    """Threshold events on the sample summarized by stats: e0 caps the
    absolute moment of order s by rho_bar, e1 floors Vhat's smallest
    eigenvalue by c1, and e2 caps the largest mixed absolute moment of
    order at most s by c2.  Each threshold must be a finite number > 0."""
    for name, v in (("rho_bar", rho_bar), ("c1", c1), ("c2", c2)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError("%s must be a finite number > 0, not %r"
                             % (name, v))
    pts = stats.points
    abs_moment = float((np.sqrt(np.sum(pts * pts, axis=1)) ** s).mean())
    max_mixed = max(raw_moments_from_points(np.abs(pts), s).table.values())
    return EventFlags(e0=bool(abs_moment <= rho_bar),
                      e1=bool(stats.lam_min >= c1),
                      e2=bool(max_mixed <= c2), abs_moment=abs_moment,
                      max_mixed_moment=max_mixed)


def g_value_and_jet(xbar, wbar: float,
                    order: int) -> Dict[MultiIndex, float]:
    """Partials {alpha: D^alpha g} at xbar of g(x) = (x1 - wbar) /
    sqrt(x2 - x1^2), for every |alpha| <= order."""
    xbar = np.asarray(xbar, dtype=float)
    if xbar.shape != (2,):
        raise ValueError("base point must lie in R^2")
    x1, x2 = float(xbar[0]), float(xbar[1])
    if x2 - x1 * x1 <= 0:
        raise ValueError("nonpositive variance at base point (x2 <= x1^2)")
    # x2 - x1^2 and x1 - wbar as series in the displacement h from xbar
    var = {(0, 0): x2 - x1 * x1, (1, 0): -2.0 * x1, (0, 1): 1.0,
           (2, 0): -1.0}
    g = series_mul({(0, 0): x1 - wbar, (1, 0): 1.0},
                   series_pow(var, -0.5, order), order)
    return {alpha: g.get(alpha, 0.0) * multi_factorial(alpha)
            for alpha in enumerate_multi_indices(2, order)}


def _studentized_chunks(W, B: int, seed: int, stream_key: Tuple[int, ...],
                        tally: Callable) -> list:
    """tally(t) for each chunk's kept draws t of the studentized mean
    statistic, in chunk order: each of B resamples with replacement is
    studentized by its standard deviation (denominator n) and centered at
    the original sample mean, and draws with zero resample variance are
    left out."""
    w = np.asarray(W, dtype=float).ravel()
    n = w.size
    if np.unique(w).size < 2:
        raise ValueError("need at least two distinct values")
    wbar = w.mean()

    def studentize(means):
        mb = means[:, 0]
        s2 = means[:, 1] - mb * mb
        ok = s2 > 0
        return tally(sqrt(n) * (mb[ok] - wbar) / np.sqrt(s2[ok]))

    return _resample(w[None, :], B, seed, stream_key, studentize,
                     squares=True)


def tstat_bootstrap(W, B: int, seed: int = 0,
                    stream_key: Tuple[int, ...] = ()
                    ) -> Tuple[np.ndarray, int]:
    """B bootstrap draws of the studentized mean statistic.

    Resamples with replacement, studentizes by the resample standard
    deviation (denominator n), and centers at the original sample mean.
    Draws with zero resample variance are excluded and counted.  Streams
    are as in bootstrap_draws; resampling runs on every available CPU.
    tstat_counts counts the same draws without joining them.
    """
    kept = np.concatenate(_studentized_chunks(W, B, seed, stream_key,
                                              lambda t: t))
    return kept, B - kept.size


def tstat_counts(W, B: int, grid, seed: int = 0,
                 stream_key: Tuple[int, ...] = ()) -> Tuple[np.ndarray, int]:
    """The number of the kept draws of tstat_bootstrap(W, B, seed,
    stream_key) at or below each grid point, and the number of degenerate
    draws, those with zero resample variance, which no count includes.
    Each chunk is sorted and counted on the thread that drew it, so memory
    holds one chunk per thread, never all B draws.
    """
    parts = _studentized_chunks(W, B, seed, stream_key, lambda t: (
        t.size, counts_at_or_below(t, grid)))
    return (sum(counts for _, counts in parts),
            B - sum(kept for kept, _ in parts))


def tstat_pushforward(x: np.ndarray, stats: SampleStats
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """sqrt(n) g(Xbar + Vhat^{1/2} x / sqrt(n)) for points x of shape (m, 2),
    with g centered at wbar = Xbar_1, the sample mean of the data (W, W^2)
    that stats summarizes.

    Returns (values, valid); invalid points are those where the shifted
    second coordinate fails x2 > x1^2, reported so callers can count them.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rn = sqrt(stats.n)
    shifted = stats.mean + x @ stats.root.T / rn
    var = shifted[:, 1] - shifted[:, 0] ** 2
    valid = var > 0
    vals = np.zeros(x.shape[0])
    vals[valid] = rn * (shifted[valid, 0] - stats.mean[0]) / np.sqrt(
        var[valid])
    return vals, valid


def edgeworth_tstat_curve(t_grid, e: EdgeworthExpansion, stats: SampleStats,
                          *, budget: int, seed: int,
                          stream_key: Tuple[int, ...] = ()
                          ) -> Tuple[np.ndarray, np.ndarray, int]:
    """MC estimate of the expansion measure of the t-statistic regions.

    Returns (values, standard errors, singular point count) on the t grid;
    one Gaussian importance sample of budget points is shared across the
    whole grid.  Chunk ci holds points ci * _MC_CHUNK onwards, drawn from
    the stream (seed, *stream_key, ci); it sorts its t values and sums the
    weights and squared weights at or below each grid point.  The chunks
    run through map_chunks and their sums add in chunk order, so the curve
    does not depend on the CPU count and each thread holds one chunk of
    points at a time.
    """
    if not _is_count(budget):
        raise ValueError("budget must be an integer >= 1, not %r"
                         % (budget,))
    t_grid = np.asarray(t_grid, dtype=float)

    def sums(ci):
        m = min(_MC_CHUNK, budget - ci * _MC_CHUNK)
        z = child_rng(seed, *stream_key, ci).standard_normal((m, 2))
        u, valid = tstat_pushforward(z, stats)
        u[~valid] = np.inf
        order = np.argsort(u)
        w = np.where(valid, e.weight(z), 0.0)[order]
        pos = np.searchsorted(u[order], t_grid, side="right")
        at = [np.concatenate([[0.0], np.cumsum(v)])[pos] for v in (w, w * w)]
        return np.array(at), int(np.sum(~valid))

    parts = map_chunks(sums, -(-budget // _MC_CHUNK))
    values, second = sum(at for at, _ in parts) / budget
    # se of mean(1{u<=t} w): sqrt((E w^2 1 - (E w 1)^2)/budget)
    var = np.maximum(second - values ** 2, 0.0) / budget
    return values, np.sqrt(var), sum(k for _, k in parts)


def edgeworth_tstat_exact(t_grid, e: EdgeworthExpansion, stats: SampleStats
                          ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Expansion measure of the t-statistic regions {u <= t}, by quadrature.

    Returns (values, error bounds, singular mass) on the t grid: the
    values of a 64-node rule, their distance to a 32-node rule, and the
    expansion mass of the singular set {x2 <= x1^2}, where the statistic
    is undefined.  The same regions as edgeworth_tstat_curve, without
    Monte Carlo error; nothing is random.
    """
    (values, coarse), singular = _tstat_quadrature(
        np.asarray(t_grid, dtype=float), e, stats,
        (_GL_NODES, _GL_NODES // 2))
    return values, np.abs(values - coarse), singular


def _quadratic_roots(c2, c1, c0) -> Tuple[np.ndarray, np.ndarray]:
    """The roots of c2 x^2 + c1 x + c0 for c2 > 0; NaN where complex."""
    with np.errstate(invalid="ignore"):
        disc = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
    return (-c1 - disc) / (2.0 * c2), (-c1 + disc) / (2.0 * c2)


def _tstat_quadrature(t_grid: np.ndarray, e: EdgeworthExpansion,
                      stats: SampleStats, rules: Sequence[int]
                      ) -> Tuple[List[np.ndarray], float]:
    """The measures of {u <= t} on the grid, one array per Gauss-Legendre
    rule in rules (its node count per piece of the p-integral), and the
    measure of the singular set by the first rule.

    Write z = p e_p + q e_q, with e_p along the first row s1 of
    S = Vhat^{1/2} and beta = s2.e_q > 0.  The statistic is centered at
    wbar = mu1, so its mean shift is a = |s1| p, and its variance is
    beta (q - q0(p)) / sqrt(n) with q0 quadratic in p; so for each p the
    region {u <= t} is one q-interval, with q0 and
    qa = q0 + (a/t)^2 sqrt(n)/beta as its ends, and the singular set is
    q <= q0.  Tensor Hermite polynomials rotate like monomials, so the
    rotated tables give the q-integral exactly (_hermite_interval).  The
    p-integral over [-12, 12] is split at p = 0, where a changes sign and
    so the interval, and where q0 or qa crosses +-12: there an end sweeps
    across the Gaussian bulk within a p-width of about |t|.  The rotation,
    the rotated table and the breakpoints are shared by the rules.
    """
    S = stats.root
    r1 = float(np.hypot(*S[0]))
    e_p = S[0] / r1
    e_q = np.array([-e_p[1], e_p[0]])
    if S[1] @ e_q < 0:
        e_q = -e_q
    beta = float(S[1] @ e_q)
    Q = np.column_stack([e_p, e_q])
    K = e.max_hermite_degree
    C = np.zeros((K + 1, K + 1))
    for j, tab in e.hermite_coeffs.items():
        for (k1, k2), c in _series_substitute_linear(tab, Q, K).items():
            C[k1, k2] += e.n ** (-j / 2.0) * c
    rn = sqrt(stats.n)
    mu1, mu2 = (float(v) for v in stats.mean)
    A0 = -(mu2 - mu1 * mu1) * rn / beta
    A1 = -(float(S[1] @ e_p) - 2.0 * mu1 * r1) / beta
    A2 = r1 * r1 / (rn * beta)
    gl = [np.polynomial.legendre.leggauss(nodes) for nodes in rules]
    q0_edges = [r for c0 in (A0 - _EDGE, A0 + _EDGE)
                for r in _quadratic_roots(A2, A1, c0)]

    def integrals(edges, interval, gl):
        """For each rule (x, w) in gl and each row of breakpoints, the
        p-integral over the pieces between them of He(p) phi(p) C He(q)
        phi(q) over the q-interval interval(row, p, q0); empty intervals
        are skipped."""
        edges = np.sort(np.clip(np.nan_to_num(edges, nan=-_EDGE),
                                -_EDGE, _EDGE), axis=1)
        rows, piece = np.nonzero(np.diff(edges, axis=1) > 0)
        lo, hi = edges[rows, piece], edges[rows, piece + 1]
        half = (hi - lo)[:, None] / 2.0
        mid = (lo + hi)[:, None] / 2.0
        out = []
        for x, w in gl:
            p = (mid + half * x).ravel()
            wt = (half * w).ravel()
            row = np.repeat(rows, x.size)
            q_lo, q_hi = interval(row, p, A0 + (A1 + A2 * p) * p)
            live = q_hi > q_lo
            row, p, wt, q_lo, q_hi = (v[live]
                                      for v in (row, p, wt, q_lo, q_hi))
            outer = _hermite_column(K, p) * (np.exp(-0.5 * p * p) * wt
                                             / sqrt(2 * pi))
            vals = np.einsum("kp,kl,lp->p", outer, C,
                             _hermite_interval(K, q_lo, q_hi))
            out.append(np.bincount(row, vals, minlength=edges.shape[0]))
        return out

    def block(t):
        # qa's quadratic coefficients; k is inf at t = 0, where the roots
        # come out NaN and are dropped
        with np.errstate(divide="ignore", invalid="ignore"):
            k = rn / (beta * t * t)
            qa_edges = [r for c0 in (A0 - _EDGE, A0 + _EDGE)
                        for r in _quadratic_roots(A2 + k * r1 * r1, A1, c0)]
        edges = np.column_stack(
            [np.broadcast_to(v, t.shape)
             for v in [-_EDGE, _EDGE, 0.0] + q0_edges] + qa_edges)

        def interval(row, p, q0):
            tt = t[row]
            a = r1 * p
            with np.errstate(divide="ignore", invalid="ignore"):
                qa = q0 + (a / tt) ** 2 * (rn / beta)
            lo = np.where((tt > 0) & (a > 0), qa, q0)
            hi = np.where(tt < 0, np.where(a < 0, qa, q0),
                          np.where((tt > 0) | (a <= 0), np.inf, q0))
            return lo, hi

        return integrals(edges, interval, gl)

    blocks = [block(t_grid[lo:lo + _T_BLOCK])
              for lo in range(0, t_grid.size, _T_BLOCK)]
    values = [np.concatenate(rule) for rule in zip(*blocks)]
    singular, = integrals(
        np.array([[-_EDGE, _EDGE] + q0_edges]),
        lambda row, p, q0: (np.full_like(q0, -np.inf), q0), gl[:1])
    return values, float(singular[0])
