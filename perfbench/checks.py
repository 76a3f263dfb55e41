"""Independent checks of edgelab's CLI outputs.

Every check recomputes what the output claims from the inputs with numpy
and scipy alone, or tests a property the method must have.  None imports
edgelab and none compares against a stored copy of an earlier output.
Each function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.hermite_e import hermeval
from scipy.special import ndtr

# A strict per-record DKW level: the chance that a correct report fails
# the rate check is below 1e-5 per run.
STRICT_ALPHA = 1e-6
# q_tilde may differ from Hall's one-term formula by this share of the
# formula's own distance from the Gaussian CDF.  The formula drops O(1/n)
# terms that grow with the sample's kurtosis; over 60 seeds the share was
# at most 0.30 (excess kurtosis 32), and 0.12-0.20 on typical samples.
TSTAT_SHARE = 0.5
# Largest accepted sup-deviation of bootstrap-compare on the set class.
SETCLASS_SUP_TOL = 0.03


def load_csv_points(path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh)
                         if row])


def _rows(data: bytes):
    return list(csv.DictReader(io.StringIO(data.decode())))


def _num(cell: str) -> float:
    """A CSV number.  bootstrap-compare writes repr() of numpy scalars,
    which numpy 2 renders as `np.float64(x)`; the value inside is read."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _phi(t):
    return np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)


def dkw_halfwidth(M: int, alpha: float) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * M))


# ---------------------------------------------------------------------------
# rate

def check_rate(report: bytes, n_grid, M: int, t_grid) -> list:
    """Compare each centered-exponential sup_dev record with sup|F - E_s|.

    F is the exact law of the standardized sum of n Exp(1) draws, a
    standardized Gamma(n); E_2 is the Gaussian CDF and E_3 adds the
    one-term correction with kappa_3 = 2.  The empirical CDF of M sums
    lies within a DKW band of F, so value and sup|F - E_s| differ by at
    most the strict DKW half-width.
    """
    from scipy.stats import gamma
    problems = []
    t = np.asarray(t_grid, dtype=float)
    strict = dkw_halfwidth(M, STRICT_ALPHA)
    band = dkw_halfwidth(M, 0.01)
    seen = set()
    for r in _rows(report):
        n, s = int(r["n"]), int(r["s"])
        key = (n, s)
        seen.add(key)
        value, mc_se = float(r["value"]), float(r["mc_se"])
        F = gamma.cdf(n + t * math.sqrt(n), n)
        E = ndtr(t)
        if s == 3:
            E = E - _phi(t) * 2.0 * (t * t - 1) / (6 * math.sqrt(n))
        elif s != 2:
            problems.append("unexpected order s=%d" % s)
            continue
        exact = float(np.max(np.abs(F - E)))
        if abs(value - exact) > strict:
            problems.append("n=%d s=%d: value %.6g but sup|F-E| = %.6g "
                            "(allowed %.3g)" % (n, s, value, exact, strict))
        if not _close(mc_se, band, 1e-12):
            problems.append("n=%d s=%d: mc_se %r is not the DKW half-width "
                            "%r of M=%d" % (n, s, mc_se, band, M))
        if (r["flag"] == "inconclusive") != (band >= value):
            problems.append("n=%d s=%d: flag %r does not match value and "
                            "band" % (n, s, r["flag"]))
    want = {(n, s) for n in n_grid for s in (2, 3)}
    if seen != want:
        problems.append("records cover %s, expected %s"
                        % (sorted(seen), sorted(want)))
    return problems


# ---------------------------------------------------------------------------
# tstat

def hall_tstat_cdf(t, w: np.ndarray) -> np.ndarray:
    """Hall's one-term expansion of the bootstrap-t CDF of the sample w."""
    n = w.size
    c = w - w.mean()
    gam = float(np.mean(c ** 3) / np.mean(c ** 2) ** 1.5)
    t = np.asarray(t, dtype=float)
    return ndtr(t) + gam * (2 * t * t + 1) * _phi(t) / (6 * math.sqrt(n))


def check_tstat(table: bytes, summary: bytes, w: np.ndarray, t_grid) -> list:
    """q_tilde against Hall's formula; q_emp a CDF on the requested grid."""
    problems = []
    rows = _rows(table)
    t = np.array([float(r["t"]) for r in rows])
    q_emp = np.array([float(r["q_emp"]) for r in rows])
    q_tilde = np.array([float(r["q_tilde"]) for r in rows])
    if t.shape != np.shape(t_grid) or not np.allclose(t, t_grid,
                                                       rtol=0, atol=1e-12):
        return ["t grid of the report differs from the requested grid"]
    hall = hall_tstat_cdf(t, w)
    gap = float(np.max(np.abs(q_tilde - hall)))
    allowed = TSTAT_SHARE * float(np.max(np.abs(hall - ndtr(t))))
    if gap > allowed:
        problems.append("q_tilde is %.4g from Hall's formula (allowed %.4g)"
                        % (gap, allowed))
    if np.any(np.diff(q_emp) < 0) or q_emp.min() < 0 or q_emp.max() > 1:
        problems.append("q_emp is not a CDF on the grid")
    sup = float(np.max(np.abs(q_emp - q_tilde)))
    if not _close(json.loads(summary)["sup_deviation"], sup, 1e-12):
        problems.append("sup_deviation disagrees with the table")
    return problems


# ---------------------------------------------------------------------------
# setclass

def _cumulants_1d(y: np.ndarray, s: int) -> list:
    """kappa_0..kappa_s of the empirical law of y, from raw moments."""
    m = [float(np.mean(y ** r)) for r in range(s + 1)]
    k = [0.0] * (s + 1)
    for r in range(1, s + 1):
        k[r] = m[r] - sum(math.comb(r - 1, j - 1) * k[j] * m[r - j]
                          for j in range(1, r))
    return k


def edgeworth_cdf_1d(kappa, n: int, s: int, t) -> np.ndarray:
    """Order-s Edgeworth CDF of a standardized mean of n draws.

    exp(sum_r kappa_r u^r eps^(r-2) / r!) is expanded in eps = n^(-1/2)
    up to eps^(s-2); u^k in the coefficient of eps^j integrates against
    the Gaussian density to -He_(k-1)(t) phi(t).
    """
    J = s - 2
    # K[j]: the eps^j term of the cumulant series, kappa_(j+2) u^(j+2)/(j+2)!
    K = [Polynomial([0.0])] + [
        Polynomial([0.0] * (j + 2) + [kappa[j + 2] / math.factorial(j + 2)])
        for j in range(1, J + 1)]
    total = [Polynomial([1.0])] + [Polynomial([0.0])] * J
    power = list(total)
    for m in range(1, J + 1):
        power = [sum((power[a] * K[j - a] for a in range(j + 1)),
                     Polynomial([0.0])) / m for j in range(J + 1)]
        total = [total[j] + power[j] for j in range(J + 1)]
    t = np.asarray(t, dtype=float)
    out = ndtr(t)
    for j in range(1, J + 1):
        corr = np.zeros_like(out)
        for k, c in enumerate(total[j].coef):
            if k >= 1 and c != 0.0:
                corr -= c * hermeval(t, [0.0] * (k - 1) + [1.0])
        out = out + n ** (-j / 2) * corr * _phi(t)
    return out


def standardize(points: np.ndarray) -> np.ndarray:
    """(x - mean) V^(-1/2) with the symmetric root of the 1/n covariance."""
    c = points - points.mean(axis=0)
    w, U = np.linalg.eigh(c.T @ c / points.shape[0])
    return c @ (U / np.sqrt(w)) @ U.T


def check_setclass(table: bytes, summary: bytes, points: np.ndarray,
                   s: int) -> list:
    """Half-spaces and slabs against 1-d expansions of projected data;
    nested balls monotone in q_emp; sup_deviation below a tolerance."""
    problems = []
    z = standardize(points)
    n = points.shape[0]

    def cdf_along(direction, t):
        if math.isinf(t):
            return 1.0 if t > 0 else 0.0
        y = z @ direction
        k = _cumulants_1d(y, s)
        k[1], k[2] = 0.0, 1.0
        return float(edgeworth_cdf_1d(k, n, s, t))

    balls = []
    devs = []
    for r in _rows(table):
        spec = json.loads(r["set_id"])
        q_emp, q_tilde = _num(r["q_emp"]), _num(r["q_tilde"])
        devs.append(abs(q_emp - q_tilde))
        if spec["kind"] == "halfspace":
            a = np.asarray(spec["normal"], dtype=float)
            norm = float(np.linalg.norm(a))
            want = cdf_along(a / norm, spec["offset"] / norm)
        elif spec["kind"] == "box":
            axes = [i for i, (lo, hi) in enumerate(zip(spec["low"],
                                                       spec["high"]))
                    if math.isfinite(lo) or math.isfinite(hi)]
            if len(axes) != 1:
                problems.append("box %s is not a slab" % r["set_id"])
                continue
            e = np.eye(points.shape[1])[axes[0]]
            want = (cdf_along(e, spec["high"][axes[0]])
                    - cdf_along(e, spec["low"][axes[0]]))
        elif spec["kind"] == "ball":
            balls.append((spec["radius"], q_emp))
            continue
        else:
            problems.append("unexpected set %s" % r["set_id"])
            continue
        if not _close(q_tilde, want, 1e-9):
            problems.append("%s: q_tilde %r, 1-d expansion gives %r"
                            % (r["set_id"], q_tilde, want))
    balls.sort()
    if any(b[1] < a[1] for a, b in zip(balls, balls[1:])):
        problems.append("q_emp is not monotone over nested balls")
    sup = json.loads(summary)["sup_deviation"]
    if not devs or not _close(sup, max(devs), 1e-12):
        problems.append("sup_deviation disagrees with the table")
    elif sup > SETCLASS_SUP_TOL:
        problems.append("sup_deviation %.4g exceeds %.4g"
                        % (sup, SETCLASS_SUP_TOL))
    return problems


# ---------------------------------------------------------------------------
# certify

def _cf_modulus(points: np.ndarray, T: np.ndarray) -> np.ndarray:
    return np.abs(np.exp(1j * (np.atleast_2d(T) @ points.T)).mean(axis=1))


def _mean_wrapped_square(points: np.ndarray, t: np.ndarray) -> float:
    """Mean over ordered pairs i != j of the squared distance of
    t'(x_i - x_j) to the nearest multiple of 2 pi."""
    p = points @ t
    d = np.remainder(p[:, None] - p[None, :] + math.pi, 2 * math.pi) - math.pi
    n = p.size
    return float((d * d).sum() / (n * (n - 1)))


def lattice_span(x: np.ndarray, tol: float = 1e-9):
    """Span h of the smallest lattice a + hZ holding the 1-d sample x,
    taken as its smallest nonzero gap, or None when x is not on one."""
    gaps = np.diff(np.unique(x))
    if gaps.size == 0:
        return None
    h = float(gaps.min())
    ratio = (x - x.min()) / h
    return h if np.all(np.abs(ratio - np.round(ratio)) <= tol) else None


def check_certify(output: bytes, points: np.ndarray, n_sampled: int = 8
                  ) -> list:
    """Recompute the witness modulus, the margin, the pairwise bound and
    the failure probability of a `certify` run without a target c."""
    problems = []
    out = json.loads(output)
    n = points.shape[0]
    b = out["b"]
    if not out["status"].startswith("certified"):
        return ["status %r without a target margin" % out["status"]]
    h = lattice_span(points[:, 0]) if points.shape[1] == 1 else None
    if h is not None:
        # |cf| = 1 at every multiple of 2 pi / h: no margin exists there
        k = math.floor(out["R"] * h / (2 * math.pi)) + 1
        if 2 * math.pi * k / h <= out["T_max"]:
            spike = 2 * math.pi * k / h
            problems.append(
                "status %r with c = %r on lattice data (span %g): |cf(%g)| "
                "= %r, so the minimal slack on (R, T_max] is 0"
                % (out["status"], out["c"], h, spike,
                   float(_cf_modulus(points, np.array([spike]))[0])))
    w = np.asarray(out["witness"], dtype=float)
    mod_w = float(_cf_modulus(points, w)[0])
    if not _close(out["witness_modulus"], mod_w, 1e-9):
        problems.append("witness_modulus %r, direct |cf(w)| = %r"
                        % (out["witness_modulus"], mod_w))
    c = out["c"]
    want_c = (1.0 - mod_w) * float(np.linalg.norm(w)) ** b
    if not _close(c, want_c, 1e-9):
        problems.append("c %r, (1 - |cf(w)|) ||w||^b = %r" % (c, want_c))
    if not c > 0:
        problems.append("status %r with margin c = %r: a certificate with "
                        "no positive margin certifies nothing"
                        % (out["status"], c))
    ev_t = np.array([e["t"] for e in out["evidence"]], dtype=float)
    ev_slack = np.array([e["slack"] for e in out["evidence"]])
    direct = (1.0 - np.minimum(_cf_modulus(points, ev_t), 1.0)) \
        * np.linalg.norm(ev_t, axis=1) ** b
    if not np.allclose(ev_slack, direct, rtol=1e-9, atol=1e-12):
        problems.append("evidence slacks disagree with direct |cf|")
    if np.any(ev_slack < c - 1e-12):
        problems.append("an evidence slack is below the certified margin")
    S = out["S_value"]
    if S > 1.0 - mod_w + 1e-12:
        problems.append("S %r exceeds 1 - |cf(w)| = %r" % (S, 1.0 - mod_w))
    if not _close(S, _mean_wrapped_square(points, w) / math.pi ** 2, 1e-9):
        problems.append("S differs from the direct pairwise mean")
    c_R = out["c_R"]
    if c_R > 0:
        bound = math.exp(-c_R ** 2 * n / 2)
        if not _close(out.get("prob_bound", float("nan")), bound, 1e-12):
            problems.append("prob_bound is not exp(-c_R^2 n / 2)")
    sampled = ev_t[np.linspace(0, len(ev_t) - 1, n_sampled).astype(int)]
    lower = max(_mean_wrapped_square(points, t) / (2 * math.pi ** 2)
                for t in sampled)
    if c_R < lower - 1e-12 or c_R > 0.5:
        problems.append("c_R %r outside [%r, 0.5]" % (c_R, lower))
    return problems
