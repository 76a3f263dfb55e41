"""Reference routes that the tests compare the program against.

Nothing in ``src/edgelab`` imports this module.  Each function is either a
second route to a quantity the program computes (the Gaussian importance
sample of a set measure, the density behind a CDF, the moments that a
cumulant table came from) or a helper that only a test needs.
"""

import csv
from math import factorial, inf, pi, sqrt

import numpy as np

from edgelab.cumulants import (CumulantSet, MomentSet,
                               enumerate_multi_indices, multi_factorial)
from edgelab.expansion import EdgeworthExpansion, SetSpec, _hermite_column
from edgelab.harness import _CSV_HEADER, StudyRecord
from edgelab.jets import series_compose


# -- Hermite polynomials -----------------------------------------------------

def hermite_value(k: int, x):
    """He_k(x), a float for scalar x."""
    val = _hermite_column(k, x)[k]
    return val if val.ndim else float(val)


def hermite_tensor(nu, x) -> float:
    """Product over coordinates of He_{nu_k}(x_k)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    val = 1.0
    for k, p in enumerate(nu):
        val *= hermite_value(p, x[k])
    return float(val)


# -- moments -----------------------------------------------------------------

def cumulants_to_moments(c: CumulantSet) -> MomentSet:
    """Raw moments from cumulants, as the exp of the cumulant series: the
    inverse of moments_to_cumulants."""
    d, s = c.dimension, c.max_order
    u = {nu: c.table[nu] / multi_factorial(nu) for nu in c.table}
    em = series_compose(u, s, lambda k, v: v / factorial(k), {(0,) * d: 1})
    table = {nu: em.get(nu, 0) * multi_factorial(nu)
             for nu in enumerate_multi_indices(d, s)}
    return MomentSet(d, s, table)


# -- expansions --------------------------------------------------------------

def density(e: EdgeworthExpansion, x) -> float:
    """Signed density of the expansion at a single point (may be
    negative)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phi = np.exp(-0.5 * float(x @ x)) / (2 * pi) ** (e.dimension / 2)
    return float(e.weight(x[None, :])[0] * phi)


def from_json_dict(obj: dict) -> EdgeworthExpansion:
    """The expansion that EdgeworthExpansion.to_json_dict wrote as obj."""
    d, s, n = obj["d"], obj["s"], obj["n"]
    table = {tuple(nu): v for nu, v in obj["cumulants"]}
    hc = {blk["j"]: {tuple(nu): c for nu, c in blk["terms"]}
          for blk in obj["hermite"]}
    return EdgeworthExpansion(d, s, n, CumulantSet(d, s, table), hc)


# -- regions -----------------------------------------------------------------

def full_space(d: int) -> SetSpec:
    """R^d, as the box with infinite bounds."""
    return SetSpec.box([-inf] * d, [inf] * d)


def enlarged(A: SetSpec, eta: float) -> SetSpec:
    """A grown (eta > 0) or shrunk (eta < 0).

    Boxes pad per axis (sup-norm convention), so a half-line box moves its
    finite end; balls change radius; half-spaces shift the boundary along
    the normal.
    """
    if A.kind == "box":
        lo = [l - eta for l in A.low]
        hi = [h + eta for h in A.high]
        if any(l > h for l, h in zip(lo, hi)):   # shrunk to nothing
            mid = [(l + h) / 2 for l, h in zip(A.low, A.high)]
            return SetSpec.box(mid, mid)
        return SetSpec.box(lo, hi)
    if A.kind == "ball":
        return SetSpec.ball(A.center, max(A.radius + eta, 0.0))
    a = np.asarray(A.normal)
    return SetSpec.halfspace(A.normal,
                             A.offset + eta * float(np.linalg.norm(a)))


def enlargement_deviation(A: SetSpec, eta: float, draws: np.ndarray) -> float:
    """Empirical mass gained by enlarging A by eta, under the given draws."""
    if eta < 0:
        raise ValueError("eta must be >= 0")
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    base = float(A.contains(draws).mean())
    grown = float(enlarged(A, eta).contains(draws).mean())
    return grown - base


def importance_measure(e: EdgeworthExpansion, A: SetSpec, budget: int,
                       rng: np.random.Generator):
    """(value, standard error) of the expansion measure of any region, by
    a Gaussian importance sample of budget points weighted by the
    expansion's Hermite factor (EdgeworthExpansion.weight)."""
    z = rng.standard_normal((budget, e.dimension))
    vals = A.contains(z) * e.weight(z)
    return float(vals.mean()), float(vals.std(ddof=1) / sqrt(budget))


# -- reports -----------------------------------------------------------------

def parse_report_csv(path: str):
    """The StudyRecords of a report that emit_report wrote as CSV."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _CSV_HEADER.split(","):
            raise ValueError("unexpected report header in %s" % path)
        for row in reader:
            fam, theta, n, rep, s, metric, value, mc_se, flag, seed = row
            records.append(StudyRecord(fam, theta, int(n), int(rep), int(s),
                                       metric, float(value), float(mc_se),
                                       flag, int(seed)))
    return records
