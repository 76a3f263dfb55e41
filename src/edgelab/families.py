"""Distribution families used by the Monte Carlo studies.

Each family carries a sampler, its analytic mean/sd, raw cumulants where
closed forms exist, an optional exact characteristic function, and an
optional shortcut for sampling standardized sums directly (sums of
exponentials/gammas are gammas).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, sqrt
from typing import Callable, Dict, Optional

import numpy as np

from .cumulants import CumulantSet, moments_to_cumulants, MomentSet

__all__ = ["Family", "make_family"]

_SUM_CHUNK = 200_000  # max scalar draws materialized at once


@dataclass(frozen=True)
class Family:
    name: str
    d: int
    theta: Dict[str, float]
    lattice: bool
    mean: float
    sd: float
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    cumulant_fn: Optional[Callable[[int], float]] = None   # raw kappa_r
    cf: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
        return CumulantSet(1, s, table, standardized=True)

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


def make_family(name: str, **theta) -> Family:
    """Construct a builtin family, overriding default parameters."""
    if name == "gaussian":
        return Family(
            name="gaussian", d=1, theta={}, lattice=False, mean=0.0, sd=1.0,
            sampler=lambda rng, m: rng.standard_normal(m),
            cumulant_fn=lambda r: {1: 0.0, 2: 1.0}.get(r, 0.0),
            cf=lambda t: np.exp(-0.5 * np.asarray(t, dtype=float)[..., 0] ** 2),
            sum_sampler=lambda n, M, rng: rng.standard_normal(M))
    if name == "bernoulli":
        p = float(theta.get("p", 0.5))
        support = np.array([0.0, 1.0])
        weights = np.array([1 - p, p])
        return Family(
            name="bernoulli", d=1, theta={"p": p}, lattice=True,
            mean=p, sd=sqrt(p * (1 - p)),
            sampler=lambda rng, m: (rng.random(m) < p).astype(float),
            cumulant_fn=_discrete_cumulant_fn(support, weights),
            cf=lambda t: (1 - p) + p * np.exp(
                1j * np.asarray(t, dtype=float)[..., 0]))
    if name == "three-point-irrational":
        support = np.array([0.0, 1.0, sqrt(2.0)])
        weights = np.full(3, 1 / 3)
        mean = float(support.mean())
        sd = float(np.sqrt(np.mean(support ** 2) - mean ** 2))
        return Family(
            name="three-point-irrational", d=1,
            theta={}, lattice=False, mean=mean, sd=sd,
            sampler=lambda rng, m: support[rng.integers(0, 3, m)],
            cumulant_fn=_discrete_cumulant_fn(support, weights),
            cf=lambda t: np.mean(np.exp(
                1j * np.asarray(t, dtype=float)[..., :1] * support), axis=-1))
    if name == "centered-exponential":
        return Family(
            name="centered-exponential", d=1, theta={}, lattice=False,
            mean=0.0, sd=1.0,
            sampler=lambda rng, m: rng.exponential(size=m) - 1.0,
            cumulant_fn=lambda r: 0.0 if r == 1 else float(factorial(r - 1)),
            cf=lambda t: np.exp(-1j * np.asarray(t, dtype=float)[..., 0])
                / (1 - 1j * np.asarray(t, dtype=float)[..., 0]),
            sum_sampler=lambda n, M, rng:
                (rng.gamma(n, size=M) - n) / sqrt(n))
    if name == "gamma":
        k = float(theta.get("shape", 2.0))
        return Family(
            name="gamma", d=1, theta={"shape": k}, lattice=False,
            mean=0.0, sd=sqrt(k),
            sampler=lambda rng, m: rng.gamma(k, size=m) - k,
            cumulant_fn=lambda r: 0.0 if r == 1
                else float(factorial(r - 1)) * k,
            sum_sampler=lambda n, M, rng:
                (rng.gamma(n * k, size=M) - n * k) / sqrt(n * k))
    if name == "gaussian-mixture":
        w = tuple(theta.get("weights", (0.5, 0.5)))
        mus = tuple(theta.get("means", (-1.0, 1.0)))
        sigmas = tuple(theta.get("sds", (0.5, 1.0)))
        if abs(sum(w) - 1) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        mean = sum(wi * m for wi, m in zip(w, mus))
        second = sum(wi * (s * s + m * m) for wi, m, s in zip(w, mus, sigmas))
        sd = sqrt(second - mean ** 2)
        w_arr = np.asarray(w)
        def sampler(rng, m):
            comp = rng.choice(len(w), size=m, p=w_arr)
            z = rng.standard_normal(m)
            return np.asarray(mus)[comp] + np.asarray(sigmas)[comp] * z
        return Family(
            name="gaussian-mixture", d=1,
            theta={"weights": list(w), "means": list(mus),
                   "sds": list(sigmas)},
            lattice=False, mean=mean, sd=sd, sampler=sampler,
            cumulant_fn=_mixture_cumulant_fn(w, mus, sigmas))
    raise ValueError("unknown family %r" % (name,))
