"""Distribution families used by the Monte Carlo studies.

Each family carries a sampler, its analytic mean/sd, raw cumulants where
closed forms exist, an optional exact characteristic function, the exact
CDF of its standardized sums, and an optional shortcut for sampling those
sums directly (sums of exponentials/gammas are gammas); the sum samplers
serve the tests as the oracle of the exact law.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, exp, factorial, isfinite, lgamma, log, sqrt
from numbers import Real
from typing import Callable, Dict, Optional

import numpy as np

from .cumulants import CumulantSet, moments_to_cumulants, MomentSet
from .expansion import _lower_gamma_regularized, _ndtr

__all__ = ["Family", "make_family"]

_SUM_CHUNK = 200_000  # max scalar draws materialized at once


@dataclass(frozen=True)
class Family:
    name: str
    theta: Dict[str, float]
    lattice: bool
    mean: float
    sd: float
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    cumulant_fn: Optional[Callable[[int], float]] = None   # raw kappa_r
    cf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sum_cdf_fn: Optional[Callable] = None                   # (n, x)
    sum_sampler: Optional[Callable] = None                  # (n, M, rng)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.sampler(rng, size)

    def standardized_cumulants(self, s: int) -> CumulantSet:
        """Cumulants of (X - mean)/sd up to order s (d = 1 families)."""
        if self.cumulant_fn is None:
            raise ValueError("family %r has no analytic cumulants" % self.name)
        table = {}
        for r in range(1, s + 1):
            if r == 1:
                table[(1,)] = 0.0
            elif r == 2:
                table[(2,)] = 1.0
            else:
                table[(r,)] = self.cumulant_fn(r) / self.sd ** r
        return CumulantSet(1, s, table)

    def sum_cdf(self, n, x) -> np.ndarray:
        """Exact P((sum of n draws - n mean) / (sd sqrt n) <= x), elementwise
        over the broadcast of the integer array n (each >= 1) and the
        array x.  The Gamma laws take every n in one incomplete-gamma call,
        the other laws one n at a time; either way an entry is the same
        float as in a call for its n alone, so a rate study evaluates all
        its laws in one call."""
        if self.sum_cdf_fn is None:
            raise ValueError("family %r has no exact sum law" % self.name)
        n = np.asarray(n)
        if n.dtype.kind not in "iu" or np.any(n < 1):
            raise ValueError("n must hold integers >= 1, not %r"
                             % (n.tolist(),))
        return self.sum_cdf_fn(n, np.asarray(x, dtype=float))

    def sum_sample(self, n: int, M: int, rng: np.random.Generator
                   ) -> np.ndarray:
        """M standardized sums (sum of n draws, centered and scaled)."""
        if self.sum_sampler is not None:
            return self.sum_sampler(n, M, rng)
        out = np.empty(M)
        per = max(1, _SUM_CHUNK // n)
        for lo in range(0, M, per):
            m = min(per, M - lo)
            draws = self.sample(rng, m * n).reshape(m, n)
            out[lo:lo + m] = (draws.sum(axis=1) - n * self.mean) \
                / (self.sd * sqrt(n))
        return out


# ---------------------------------------------------------------------------
# exact laws of standardized sums: each takes (n, x) and returns
# P((S_n - n mean) / (sd sqrt n) <= x) elementwise over the broadcast of
# the integer array n and the array x

def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n."""
    return np.array([lgamma(k + 1.0) for k in range(n + 1)])


def _each_n(law):
    """A law of one int n, taken over the broadcast of an integer array n
    and x: one call per distinct n, on the points that carry it."""
    def cdf(n, x):
        n, x = np.broadcast_arrays(n, x)
        out = np.empty(x.shape)
        for m in np.unique(n):
            at = n == m
            out[at] = law(int(m), x[at])
        return out
    return cdf


def _gamma_sum_cdf(k: float):
    """Sums of n centered Gamma(k) draws: S_n + nk ~ Gamma(nk), every n
    in one kernel call."""
    def cdf(n, x):
        a = n * k
        return _lower_gamma_regularized(a, a + x * np.sqrt(a))
    return cdf


def _bernoulli_sum_cdf(p: float):
    """S_n ~ Binomial(n, p).  The atoms are standardized with the float
    expression of Family.sum_sample, so an atom that lands on a grid point
    counts there as a simulated sum does."""
    sd = sqrt(p * (1 - p))

    def cdf(n, x):
        k = np.arange(n + 1.0)
        lf = _log_factorials(n)
        pmf = np.exp(lf[n] - lf - lf[::-1] + k * log(p) + (n - k) * log(1 - p))
        cum = np.concatenate(([0.0], np.cumsum(pmf)))
        atoms = (k - n * p) / (sd * sqrt(n))
        return cum[np.searchsorted(atoms, x, side="right")]
    return _each_n(cdf)


def _three_point_sum_cdf(mean: float, sd: float):
    """S_n = B + C sqrt 2 for draws from {0, 1, sqrt 2}: C ~ Binomial(n,
    1/3) draws sit at sqrt 2 and, given C = c, B ~ Binomial(n - c, 1/2),
    so P(S_n <= y) = sum_c P(C = c) P(B <= floor(y - c sqrt 2)), with one
    cumulative Binomial(n - c, 1/2) table per c."""
    def cdf(n, x):
        y = x * (sd * sqrt(n)) + n * mean
        lf = _log_factorials(n)
        out = np.zeros(x.shape)
        for c in range(n + 1):
            m = n - c
            b = np.arange(m + 1)
            cum = np.concatenate(([0.0], np.cumsum(
                np.exp(lf[m] - lf[b] - lf[m - b] - m * log(2.0)))))
            top = np.clip(np.floor(y - c * sqrt(2.0)), -1, m).astype(int)
            out += (exp(lf[n] - lf[c] - lf[m] + c * log(1 / 3)
                        + m * log(2 / 3)) * cum[top + 1])
        return out
    return _each_n(cdf)


def _compositions(n: int, K: int):
    """Every vector of K non-negative integers adding up to n, yielded in
    blocks of at most n + 1 rows."""
    if K == 1:
        yield np.array([[n]])
    elif K == 2:
        j = np.arange(n + 1)
        yield np.column_stack((j, n - j))
    else:
        for first in range(n + 1):
            for rest in _compositions(n - first, K - 1):
                yield np.column_stack((np.full(len(rest), first), rest))


def _mixture_sum_cdf(w, mus, sigmas, mean: float, sd: float):
    """Given the component counts N ~ Multinomial(n, w), S_n is normal
    with mean N.mus and variance N.sigmas^2.  The count vectors run in
    blocks of at most n + 1, so memory is O(n x grid) for any K; those
    below 2^-60 / (their number) in probability, together below 2^-60, are
    skipped.  Components of weight 0 never occur and are dropped."""
    w, mus, var = (np.asarray(v, dtype=float) for v in (w, mus, sigmas))
    w, mus, var = w[w > 0], mus[w > 0], var[w > 0] ** 2

    def cdf(n, x):
        y = x * (sd * sqrt(n)) + n * mean
        lf = _log_factorials(n)
        floor = 2.0 ** -60 / comb(n + len(w) - 1, len(w) - 1)
        out = np.zeros(x.shape)
        for counts in _compositions(n, len(w)):
            pmf = np.exp(lf[n] - lf[counts].sum(axis=1)
                         + (counts * np.log(w)).sum(axis=1))
            keep = pmf > floor
            if not keep.any():
                continue
            counts = counts[keep]
            loc = (counts * mus).sum(axis=1)[:, None]
            scale = np.sqrt((counts * var).sum(axis=1))[:, None]
            out += (pmf[keep, None] * _ndtr((y - loc) / scale)).sum(axis=0)
        return out
    return _each_n(cdf)


def _normal_raw_moment(mu: float, sigma: float, k: int) -> float:
    total = 0.0
    for i in range(0, k + 1, 2):
        dfact = 1.0
        for j in range(1, i, 2):
            dfact *= j
        total += comb(k, i) * mu ** (k - i) * sigma ** i * dfact
    return total


def _cumulant_fn(raw_moment: Callable[[int], float]):
    """kappa(r), the r-th cumulant, from the raw moments raw_moment(k)."""
    def kappa(r: int) -> float:
        table = {(k,): float(raw_moment(k)) for k in range(r + 1)}
        return moments_to_cumulants(MomentSet(1, r, table))[(r,)]
    return kappa


def _discrete_cumulant_fn(support: np.ndarray, weights: np.ndarray):
    return _cumulant_fn(lambda k: (weights * support ** k).sum())


def _mixture_cumulant_fn(w, mus, sigmas):
    return _cumulant_fn(lambda k: sum(wi * _normal_raw_moment(m, s, k)
                                      for wi, m, s in zip(w, mus, sigmas)))


def _real(family: str, name: str, v) -> float:
    """v as a float, once it is a finite real number (not a bool or a
    string)."""
    if isinstance(v, bool) or not isinstance(v, Real) or not isfinite(v):
        raise ValueError("%s %s must be a finite number, not %r"
                         % (family, name, v))
    return float(v)


def _positive(family: str, name: str, v) -> float:
    out = _real(family, name, v)
    if out <= 0:
        raise ValueError("%s %s must be a finite number > 0, not %r"
                         % (family, name, v))
    return out


def _reals(family: str, name: str, v, check=_real) -> tuple:
    """A non-empty list of parameters as a tuple, once check accepts each
    of them."""
    if not isinstance(v, (list, tuple)) or not v:
        raise ValueError("%s %s must be a non-empty list of numbers, not %r"
                         % (family, name, v))
    for u in v:
        check(family, name, u)
    return tuple(v)


_PARAMETERS = {"gaussian": (), "three-point-irrational": (),
               "centered-exponential": (), "bernoulli": ("p",),
               "gamma": ("shape",),
               "gaussian-mixture": ("weights", "means", "sds")}


def make_family(name: str, **theta) -> Family:
    """Construct a builtin family, overriding default parameters.  A
    parameter the family does not take, or a value outside its domain,
    is refused with a ValueError that names the family and the
    parameter."""
    if name not in _PARAMETERS:
        raise ValueError("unknown family %r" % (name,))
    unknown = sorted(set(theta) - set(_PARAMETERS[name]))
    if unknown:
        raise ValueError("%s takes no parameter %s"
                         % (name, ", ".join(map(repr, unknown))))
    if name == "gaussian":
        return Family(
            name="gaussian", theta={}, lattice=False, mean=0.0, sd=1.0,
            sampler=lambda rng, m: rng.standard_normal(m),
            cumulant_fn=lambda r: {1: 0.0, 2: 1.0}.get(r, 0.0),
            cf=lambda t: np.exp(-0.5 * np.asarray(t, dtype=float)[..., 0] ** 2),
            sum_cdf_fn=lambda n, x: _ndtr(np.broadcast_arrays(n, x)[1]),
            sum_sampler=lambda n, M, rng: rng.standard_normal(M))
    if name == "bernoulli":
        p = _real(name, "p", theta.get("p", 0.5))
        if not 0 < p < 1:
            raise ValueError("bernoulli p must lie in (0, 1), not %r" % (p,))
        support = np.array([0.0, 1.0])
        weights = np.array([1 - p, p])
        return Family(
            name="bernoulli", theta={"p": p}, lattice=True,
            mean=p, sd=sqrt(p * (1 - p)),
            sampler=lambda rng, m: (rng.random(m) < p).astype(float),
            cumulant_fn=_discrete_cumulant_fn(support, weights),
            cf=lambda t: (1 - p) + p * np.exp(
                1j * np.asarray(t, dtype=float)[..., 0]),
            sum_cdf_fn=_bernoulli_sum_cdf(p))
    if name == "three-point-irrational":
        support = np.array([0.0, 1.0, sqrt(2.0)])
        weights = np.full(3, 1 / 3)
        mean = float(support.mean())
        sd = float(np.sqrt(np.mean(support ** 2) - mean ** 2))
        return Family(
            name="three-point-irrational", theta={}, lattice=False,
            mean=mean, sd=sd,
            sampler=lambda rng, m: support[rng.integers(0, 3, m)],
            cumulant_fn=_discrete_cumulant_fn(support, weights),
            cf=lambda t: np.mean(np.exp(
                1j * np.asarray(t, dtype=float)[..., :1] * support), axis=-1),
            sum_cdf_fn=_three_point_sum_cdf(mean, sd))
    if name == "gamma":
        k = _positive(name, "shape", theta.get("shape", 2.0))

        def cf(t):
            t = np.asarray(t, dtype=float)[..., 0]
            return np.exp(-1j * k * t) * (1 - 1j * t) ** -k
        return Family(
            name="gamma", theta={"shape": k}, lattice=False,
            mean=0.0, sd=sqrt(k),
            sampler=lambda rng, m: rng.gamma(k, size=m) - k,
            cumulant_fn=lambda r: 0.0 if r == 1
                else float(factorial(r - 1)) * k,
            cf=cf,
            sum_cdf_fn=_gamma_sum_cdf(k),
            sum_sampler=lambda n, M, rng:
                (rng.gamma(n * k, size=M) - n * k) / sqrt(n * k))
    if name == "centered-exponential":
        # Gamma(1) is Exp(1); numpy's shape-1 gamma draw is its exponential
        return replace(make_family("gamma", shape=1.0),
                       name="centered-exponential", theta={})
    if name == "gaussian-mixture":
        w = _reals(name, "weights", theta.get("weights", (0.5, 0.5)))
        mus = _reals(name, "means", theta.get("means", (-1.0, 1.0)))
        sigmas = _reals(name, "sds", theta.get("sds", (0.5, 1.0)), _positive)
        if not len(w) == len(mus) == len(sigmas):
            raise ValueError("gaussian-mixture weights, means and sds must "
                             "have the same length")
        if abs(sum(w) - 1) > 1e-12 or min(w) < 0:
            raise ValueError("gaussian-mixture weights must be >= 0 and "
                             "sum to 1")
        mean = sum(wi * m for wi, m in zip(w, mus))
        second = sum(wi * (s * s + m * m) for wi, m, s in zip(w, mus, sigmas))
        sd = sqrt(second - mean ** 2)
        w_arr = np.asarray(w)
        def sampler(rng, m):
            comp = rng.choice(len(w), size=m, p=w_arr)
            z = rng.standard_normal(m)
            return np.asarray(mus)[comp] + np.asarray(sigmas)[comp] * z
        return Family(
            name="gaussian-mixture",
            theta={"weights": list(w), "means": list(mus),
                   "sds": list(sigmas)},
            lattice=False, mean=mean, sd=sd, sampler=sampler,
            cumulant_fn=_mixture_cumulant_fn(w, mus, sigmas),
            sum_cdf_fn=_mixture_sum_cdf(w, mus, sigmas, mean, sd))
