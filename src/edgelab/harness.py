"""Monte Carlo experiment drivers: rate studies, uniform sweeps, reports.

All randomness is derived from a single master seed via per-cell child
streams keyed by (family, theta index, n, replication), so results do not
depend on how many threads the resampling inside a cell uses.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field
from math import log, sqrt
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
# bootstrap_draws is not called here; the benchmark's tracer self-test
# (perfbench/tests) checks that the tracer rebinds harness.bootstrap_draws
from .bootstrap import (_is_count, bootstrap_counts, bootstrap_draws,
                        child_rng, counts_at_or_below, empirical_edgeworth,
                        sample_stats)
from .expansion import _contract, _hermite_interval, build_expansion
from .families import Family, _positive

__all__ = [
    "StudyRecord",
    "StudyReport",
    "cell_probabilities",
    "dkw_halfwidth",
    "exact_sum_cdf_mc",
    "rate_study",
    "uniform_sweep",
    "emit_report",
    "default_t_grid",
]


def default_t_grid() -> np.ndarray:
    """401-point evaluation grid on [-5, 5]."""
    return np.linspace(-5.0, 5.0, 401)


def dkw_halfwidth(M: int, alpha: float = 0.01) -> float:
    """Dvoretzky-Kiefer-Wolfowitz uniform band half-width at level alpha."""
    return sqrt(log(2.0 / alpha) / (2.0 * M))


def _family_key(name: str) -> int:
    return zlib.crc32(name.encode())


@dataclass(frozen=True)
class StudyRecord:
    family: str
    theta: str
    n: int
    rep: int
    s: int
    metric: str
    value: float
    mc_se: float
    flag: str          # "" or "inconclusive"
    seed: int

    def sort_key(self):
        return (self.family, self.theta, self.n, self.rep, self.s,
                self.metric)


@dataclass
class StudyReport:
    records: List[StudyRecord] = field(default_factory=list)
    slopes: Dict[str, dict] = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    config_hash: str = ""
    version: str = __version__

    def finalize(self):
        self.records.sort(key=StudyRecord.sort_key)
        payload = json.dumps(self.config, sort_keys=True).encode()
        self.config_hash = hashlib.sha256(payload).hexdigest()[:16]
        return self

    def json_slopes(self) -> Dict[str, dict]:
        """The slopes with None (JSON null) for an undefined slope or
        stderr, which the fits report as NaN."""
        return {key: {k: None if isinstance(v, float) and math.isnan(v)
                      else v for k, v in fit.items()}
                for key, fit in self.slopes.items()}


def fit_loglog_slope(ns: Sequence[int], values: Sequence[float]
                     ) -> Tuple[float, float]:
    """OLS slope and standard error of log(value) against log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    if x.size < 2:
        return float("nan"), float("nan")
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    if x.size > 2 and res.size:
        sigma2 = float(res[0]) / (x.size - 2)
        sxx = float(np.sum((x - x.mean()) ** 2))
        return slope, sqrt(sigma2 / sxx)
    return slope, float("nan")


def exact_sum_cdf_mc(p: np.ndarray, M: int, seed: int,
                     stream_key: Tuple[int, ...] = ()
                     ) -> Tuple[np.ndarray, float]:
    """Empirical CDF of M standardized sums on a grid, with its DKW band.

    p holds the probabilities of the cells (-inf, t_0], (t_0, t_1], ...,
    (t_last, inf) under the sum's exact law, one row of
    cell_probabilities(Family.sum_cdf(...)).  The numbers of M sums in
    those cells follow the Multinomial(M, p) law; one draw from the stream
    child_rng(seed, *stream_key) gives them, and their cumulative sums are
    the counts at or below each grid point.  This is the same experiment
    as simulating the M sums, in O(grid) memory and time for any M.
    """
    counts = child_rng(seed, *stream_key).multinomial(M, p)
    return np.cumsum(counts[:-1]) / M, dkw_halfwidth(M)


def cell_probabilities(F: np.ndarray) -> np.ndarray:
    """The grid cells' probabilities under exact CDFs F, given at the grid
    points along the last axis: the increments of F clipped to [0, 1],
    from 0 before the first point to 1 after the last, with rounding's
    negative increments set to 0.  One call takes every row of a study."""
    F = np.clip(F, 0.0, 1.0)
    return np.maximum(np.diff(F, prepend=0.0, append=1.0), 0.0)


def _hermite_tables(cumulants, s_values) -> Dict[int, dict]:
    """The Hermite tables of the order-s expansion for each s in s_values.
    They do not depend on n, so the n = 1 expansion gives them."""
    return {s: build_expansion(cumulants, 1, s).hermite_coeffs
            for s in s_values}


def _bootstrap_cell(family: Family, n: int, rep: int, s_values, B: int,
                    t_grid, seed: int):
    """One bootstrap-mode cell: the CDF on t_grid of B bootstrap draws from
    a sample of n drawn on the stream (seed, family key, 1, n, rep), its
    DKW band, and the Hermite tables of that sample's empirical-cumulant
    expansions, one per s in the increasing s_values; the largest s takes
    the table of the empirical expansion itself."""
    fam_key = _family_key(family.name)
    stats = sample_stats(family.sample(child_rng(seed, fam_key, 1, n, rep), n))
    draw_seed = int(child_rng(seed, fam_key, 2, n, rep).integers(0, 2 ** 63))
    cdf = bootstrap_counts(stats, B, lambda z: counts_at_or_below(
        z[:, 0], t_grid), seed=draw_seed) / B
    e = empirical_edgeworth(stats, s_values[-1])
    tables = _hermite_tables(e.cumulants, s_values[:-1])
    tables[s_values[-1]] = e.hermite_coeffs
    return cdf, dkw_halfwidth(B), tables


def _checked_settings(n_grid: Sequence[int], reps, s, seed) -> List[int]:
    """n_grid as a list, once it and reps are known to hold ints >= 1,
    n_grid to increase strictly over at least 4 points, s to be an int
    >= 2 and seed an int >= 0."""
    n_grid = list(n_grid)
    for n in n_grid:
        if not _is_count(n):
            raise ValueError("n_grid entries must be integers >= 1, not %r"
                             % (n,))
    if not _is_count(reps):
        raise ValueError("reps must be an integer >= 1, not %r" % (reps,))
    if len(n_grid) < 4 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing with >= 4 points")
    if not (_is_count(s) and s >= 2):
        raise ValueError("s must be an integer >= 2, not %r" % (s,))
    if not (isinstance(seed, int) and not isinstance(seed, bool)
            and seed >= 0):
        raise ValueError("seed must be an integer >= 0, not %r" % (seed,))
    return n_grid


def rate_study(family: Family, s: int, n_grid: Sequence[int], M: int,
               seed: int, mode: str = "analytic", B: Optional[int] = None,
               reps: int = 1) -> StudyReport:
    """Sup-deviation metric across an n-grid, with the s=2 Gaussian baseline.

    analytic mode compares the empirical CDF of M standardized sums, drawn
    from the sum's exact law (exact_sum_cdf_mc), against the
    analytic-cumulant expansion.  bootstrap mode compares bootstrap draws
    against the empirical-cumulant expansion of each cell's sample.  Both
    evaluate on default_t_grid(), where the integrals of He_k phi up to
    each grid point, for every degree k the expansions reach, are computed
    once for the study.

    What does not depend on n runs once per study: the integrals, the
    theta string, and in analytic mode the cumulant table of order
    max(s_values), the Hermite tables of each s (the correction
    polynomials P_j) and, in one Family.sum_cdf call and one pass over its
    rows, the cell probabilities of every n.  Each (n, rep) cell, in
    order, draws its CDF on its own stream and contracts each s's tables
    with the integrals at its n (the floats of EdgeworthExpansion.cdf_1d,
    bit for bit).  Fitted log-log slopes use non-flagged records only.
    """
    n_grid = _checked_settings(n_grid, reps, s, seed)
    t_grid = default_t_grid()
    s_values = sorted({2, s})
    if mode not in ("analytic", "bootstrap"):
        raise ValueError("mode must be 'analytic' or 'bootstrap'")
    if mode == "bootstrap" and not _is_count(B):
        raise ValueError("bootstrap mode needs a resampling budget B, an "
                         "integer >= 1, not %r" % (B,))
    if mode == "analytic" and not _is_count(M):
        raise ValueError("M must be an integer >= 1, not %r" % (M,))
    fam_key = _family_key(family.name)
    theta = json.dumps(family.theta, sort_keys=True)
    if mode == "analytic":
        tables = _hermite_tables(
            family.standardized_cumulants(max(s_values)), s_values)
        laws = cell_probabilities(family.sum_cdf(np.array(n_grid)[:, None],
                                                 t_grid))
        metric = "sup_dev"
    else:
        metric = "bootstrap_sup_dev"
    # P_j has degree at most 3 j, and j < max(s_values) - 1
    basis = _hermite_interval(3 * (max(s_values) - 2), -math.inf, t_grid)
    report = StudyReport(config={
        "driver": "rate_study", "family": family.name,
        "theta": family.theta, "s": s, "n_grid": n_grid, "M": M, "B": B,
        "reps": reps, "mode": mode, "seed": seed,
        "t_grid": [float(t_grid[0]), float(t_grid[-1]), int(t_grid.size)],
    })
    for i, n in enumerate(n_grid):
        for rep in range(reps):
            if mode == "analytic":
                cdf, band = exact_sum_cdf_mc(laws[i], M, seed,
                                             (fam_key, 0, n, rep))
            else:
                cdf, band, tables = _bootstrap_cell(family, n, rep, s_values,
                                                    B, t_grid, seed)
            for sv in s_values:
                value = float(np.max(np.abs(
                    cdf - _contract(tables[sv], n, [basis]))))
                flag = "inconclusive" if band >= value else ""
                report.records.append(StudyRecord(
                    family.name, theta, n, rep, sv, metric, value, band,
                    flag, seed))
    report.finalize()
    for sv in s_values:
        report.slopes["s=%d" % sv] = _fit([r for r in report.records
                                           if r.s == sv and r.flag == ""])
    return report


def uniform_sweep(families: Sequence[Family], s: int, n_grid: Sequence[int],
                  M: int, seed: int, rho_cap: Optional[float] = None,
                  reps: int = 1, mode: str = "analytic",
                  B: Optional[int] = None) -> StudyReport:
    """Max-over-theta version of the rate study.

    Every family variant runs with the same derived seeds as a standalone
    rate study would use; per-n records of the max are added under the
    pseudo-family name "sweep-max".  Variants whose moment proxy exceeds
    ``rho_cap``, a finite number > 0 when given, are rejected with a
    report entry instead of being run.
    """
    if len(families) == 0:
        raise ValueError("need at least one family variant")
    n_grid = _checked_settings(n_grid, reps, s, seed)
    if rho_cap is not None:
        _positive("uniform_sweep", "rho_cap", rho_cap)
    report = StudyReport(config={
        "driver": "uniform_sweep",
        "families": [{"name": f.name, "theta": f.theta} for f in families],
        "s": s, "n_grid": n_grid, "M": M, "B": B, "reps": reps,
        "mode": mode, "seed": seed, "rho_cap": rho_cap,
    })
    accepted = []
    for idx, fam in enumerate(families):
        rho_proxy = _moment_proxy(fam, s, seed, idx)
        theta = json.dumps(fam.theta, sort_keys=True)
        if rho_cap is not None and not (rho_proxy <= rho_cap):
            report.records.append(StudyRecord(
                fam.name, theta, 0, 0, s, "rho_proxy_rejected",
                rho_proxy, 0.0, "rejected", seed))
            continue
        report.records.append(StudyRecord(
            fam.name, theta, 0, 0, s, "rho_proxy", rho_proxy, 0.0, "", seed))
        accepted.append(fam)
    if not accepted:
        raise ValueError("every variant exceeded the moment cap")
    for f in accepted:
        report.records.extend(rate_study(f, s, n_grid, M, seed, mode=mode,
                                         B=B, reps=reps).records)
    for sv in sorted({2, s}):
        per_n = []
        for n in n_grid:
            cand = [r for r in report.records
                    if r.s == sv and r.n == n and r.metric.endswith("sup_dev")]
            if not cand:
                continue
            worst = max(cand, key=lambda r: r.value)
            per_n.append(StudyRecord("sweep-max", "{}", n, 0, sv,
                                     "max_sup_dev", worst.value, worst.mc_se,
                                     worst.flag, seed))
        report.records.extend(per_n)
        report.slopes["max,s=%d" % sv] = _fit([r for r in per_n
                                               if r.flag == ""])
    return report.finalize()


def _fit(recs: Sequence[StudyRecord]) -> dict:
    """The slopes entry of a log-log fit of the records' values on n."""
    slope, se = fit_loglog_slope([r.n for r in recs], [r.value for r in recs])
    return {"slope": slope, "stderr": se, "n_used": len(recs)}


def _moment_proxy(fam: Family, s: int, seed: int, idx: int) -> float:
    """Monte Carlo estimate of E|Z|^s, Z the standardized family variable,
    from 100,000 pilot draws."""
    rng = child_rng(seed, _family_key(fam.name), 9, idx)
    draws = fam.sample(rng, 100_000)
    z = (draws - fam.mean) / fam.sd
    val = float(np.mean(np.abs(z) ** s))
    return val if math.isfinite(val) else float("inf")


# ---------------------------------------------------------------------------
# reports

_CSV_HEADER = "family,theta,n,rep,s,metric,value,mc_se,flag,seed"


def emit_report(report: StudyReport, fmt: str, path: str) -> None:
    """Write a report as CSV (records) or JSON (records + slopes + hash)."""
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(_CSV_HEADER.split(","))
                for r in report.records:
                    writer.writerow([r.family, r.theta, r.n, r.rep, r.s,
                                     r.metric, repr(r.value), repr(r.mc_se),
                                     r.flag, r.seed])
        elif fmt == "json":
            payload = {
                "version": report.version,
                "config": report.config,
                "config_hash": report.config_hash,
                "slopes": report.json_slopes(),
                "records": [vars(r) for r in report.records],
            }
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
            with open(path, "w") as fh:
                fh.write(text + "\n")
        else:
            raise ValueError("format must be 'csv' or 'json'")
    except OSError as exc:
        raise OSError("failed writing report to %s: %s" % (path, exc)) from exc
