"""Acceptance suite.

One test per acceptance criterion; each records a single PASS/FAIL line
with the observed statistic against its threshold. The lines are echoed in
a terminal summary section after the run (see conftest.py).
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import nnls

from edgelab.bootstrap import (bootstrap_draws, child_rng,
                               edgeworth_tstat_curve, empirical_edgeworth,
                               g_value_and_jet, sample_stats, tstat_bootstrap)
from edgelab.cramer import (CharFunctionHandle, ustat_certificate,
                            weak_cramer_scan)
from edgelab.cumulants import (CumulantSet, MomentSet,
                               enumerate_multi_indices, moments_to_cumulants)
from edgelab.expansion import SetSpec, build_expansion, pj_polynomial, \
    set_measure
from edgelab.families import make_family
from edgelab.harness import (default_t_grid, dkw_halfwidth, rate_study)
from oracles import cumulants_to_moments, enlargement_deviation, full_space


def report(num, name, ok, detail):
    from conftest import ACCEPTANCE_LINES
    line = "criterion %2d %-34s %s  %s" % (num, name,
                                           "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def standardized_random_cumulants(d, s, rng, scale=0.35):
    table = {}
    for nu in enumerate_multi_indices(d, s):
        o = sum(nu)
        if o == 0:
            continue
        if o == 1:
            table[nu] = 0.0
        elif o == 2:
            table[nu] = 1.0 if 2 in nu else 0.0
        else:
            table[nu] = float(rng.normal(scale=scale))
    return CumulantSet(d, s, table)


def test_criterion_01_cumulant_round_trip():
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(200):
        d = i % 3 + 1
        order = 2 + i % 5           # 2..6
        table = {(0,) * d: 1.0}
        for nu in enumerate_multi_indices(d, order):
            if sum(nu) > 0:
                table[nu] = float(rng.normal(scale=0.5))
        m = MomentSet(d, order, table)
        back = cumulants_to_moments(moments_to_cumulants(m))
        for nu in enumerate_multi_indices(d, order):
            denom = max(abs(m[nu]), 1.0)
            worst = max(worst, abs(back[nu] - m[nu]) / denom)
    report(1, "cumulant round trip", worst < 1e-12,
           "max rel err %.2e < 1e-12 over 200 tables" % worst)


def test_criterion_02_pj_structure():
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(12)
    j_max = 4
    degrees_ok = True
    symbolic_ok = True
    for d in (1, 2):
        table = {}
        for nu in enumerate_multi_indices(d, j_max + 2):
            o = sum(nu)
            if o == 0:
                continue
            if o == 1:
                table[nu] = Fraction(0)
            elif o == 2:
                table[nu] = Fraction(1) if 2 in nu else Fraction(0)
            else:
                table[nu] = Fraction(int(rng.integers(-9, 9)), 4)
        c = CumulantSet(d, j_max + 2, table)

        u = sympy.Symbol("u")
        z = sympy.symbols("z0:%d" % d)
        arg = sympy.Integer(0)
        for r in range(3, j_max + 3):
            chi_r = sympy.Integer(0)
            for nu, v in table.items():
                if sum(nu) == r:
                    mono = sympy.Integer(1)
                    denom = sympy.Integer(1)
                    for k, p in enumerate(nu):
                        mono *= z[k] ** p
                        denom *= sympy.factorial(p)
                    chi_r += (sympy.Rational(v.numerator, v.denominator)
                              * sympy.factorial(r) / denom * mono)
            arg += chi_r * u ** (r - 2) / sympy.factorial(r)
        series = sympy.exp(arg).series(u, 0, j_max + 1).removeO()
        for j in range(1, j_max + 1):
            p = pj_polynomial(j, c)
            degs = {sum(nu) for nu in p}
            if not degs or min(degs) < j + 2 or max(degs) > 3 * j:
                degrees_ok = False
            expr = sympy.Integer(0)
            for nu, v in p.items():
                mono = sympy.Integer(1)
                for k, pw in enumerate(nu):
                    mono *= z[k] ** pw
                expr += sympy.Rational(v.numerator, v.denominator) * mono
            if sympy.expand(expr - series.coeff(u, j)) != 0:
                symbolic_ok = False
    report(2, "correction polynomial structure",
           degrees_ok and symbolic_ok,
           "degrees in [j+2,3j]: %s, exact symbolic match: %s"
           % (degrees_ok, symbolic_ok))


def test_criterion_03_signed_measure_normalization():
    rng = np.random.default_rng(13)
    worst = 0.0
    for i in range(50):
        d = i % 3 + 1
        s = 2 + i % 4               # 2..5
        e = build_expansion(standardized_random_cumulants(d, s, rng),
                            n=10 + i, s=s)
        total = set_measure(e, full_space(d))
        worst = max(worst, abs(total - 1.0))
    report(3, "signed-measure normalization", worst < 1e-8,
           "max |measure(R^d) - 1| = %.2e < 1e-8 over 50 expansions" % worst)


def test_criterion_04_certificate_soundness():
    rng = np.random.default_rng(14)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 3))
        kind = rng.integers(0, 3)
        if kind == 0:
            pts = rng.normal(size=(n, d)) * rng.uniform(0.3, 3)
        elif kind == 1:
            pts = rng.integers(0, 4, size=(n, d)).astype(float)
        else:
            pts = rng.exponential(size=(n, d))
        h = CharFunctionHandle(pts)
        for _ in range(20):
            t = rng.normal(size=d) * 4
            _, rec = ustat_certificate(h, t, b=1.0, R=1.0)
            if not rec["holds"]:
                violations += 1
    report(4, "pairwise certificate soundness", violations == 0,
           "%d violations of 1-|cf| >= S - 1e-12 in 10000 checks"
           % violations)


def test_criterion_05_lattice_negative_control():
    rng = np.random.default_rng(15)
    pts = (rng.random(200) < 0.5).astype(float)[:, None]
    h = CharFunctionHandle(pts)
    ok = True
    worst_mod = 1.0
    for c in np.logspace(-6, 0, 7)[1:]:      # every target above 1e-6
        cert = weak_cramer_scan(h, b=1.0, R=1.0, T_max=10.0, c=float(c))
        near = abs(abs(cert.witness[0]) - 2 * math.pi) < 1e-4
        if cert.status != "violated" or not near:
            ok = False
        worst_mod = min(worst_mod, cert.witness_modulus)
    ok = ok and worst_mod >= 1 - 1e-10
    report(5, "lattice negative control", ok,
           "witness near 2pi with |cf| >= 1-1e-10 (min %.3e short of 1)"
           % (1 - worst_mod))


def test_criterion_06_nonlattice_positive_control():
    support = np.array([0.0, 1.0, math.sqrt(2.0)])
    certified = 0
    c_min = float("inf")
    for seed in range(20):
        rng = child_rng(seed, 303)
        pts = support[rng.integers(0, 3, 300)][:, None]
        cert = weak_cramer_scan(CharFunctionHandle(pts),
                                b=1.0, R=1.0, T_max=100.0)
        if cert.status == "certified-on-grid" and cert.c > 0:
            certified += 1
            c_min = min(c_min, cert.c)
    report(6, "non-lattice positive control", certified == 20,
           "%d/20 runs certified, min margin %.3g > 0" % (certified, c_min))


def test_criterion_07_gaussian_baseline_rate():
    fam = make_family("centered-exponential")
    rep = rate_study(fam, s=3, n_grid=[25, 50, 100, 200, 400],
                     M=1_000_000, seed=0)
    slope = rep.slopes["s=2"]["slope"]
    ok = -0.65 <= slope <= -0.35
    report(7, "gaussian baseline rate", ok,
           "s=2 slope %.3f in [-0.65, -0.35], M=1e6" % slope)


def test_criterion_08_edgeworth_improvement_and_rate():
    # the n-grid is pinned but M is not; M = 4e7 keeps the MC noise floor
    # (DKW band 2.6e-4) below the s=3 signal over most of the grid
    fam = make_family("centered-exponential")
    rep = rate_study(fam, s=3, n_grid=[25, 50, 100, 200, 400],
                     M=40_000_000, seed=0)
    s2 = {r.n: r.value for r in rep.records if r.s == 2}
    s3_unflagged = [r for r in rep.records if r.s == 3 and r.flag == ""]
    dominance = all(r.value < s2[r.n] for r in s3_unflagged)
    slope = rep.slopes["s=3"]["slope"]
    n_used = rep.slopes["s=3"]["n_used"]
    ok = dominance and n_used >= 2 and slope <= -0.65
    report(8, "edgeworth improvement and rate", ok,
           "s=3 < s=2 at all %d non-flagged n: %s; slope %.3f <= -0.65"
           % (len(s3_unflagged), dominance, slope))


def test_criterion_09_bootstrap_expansion():
    fam = make_family("centered-exponential")
    grid = default_t_grid()
    B = 1_000_000
    wins = 0
    for seed in range(20):
        rng = child_rng(seed, 404)
        stats = sample_stats(fam.sample(rng, 400))
        draws = np.sort(bootstrap_draws(stats, B, seed=seed,
                                        stream_key=(404,))[:, 0])
        cdf = np.searchsorted(draws, grid, side="right") / B
        devs = {}
        for s in (2, 3):
            e = empirical_edgeworth(stats, max(s, 2))
            e = build_expansion(e.cumulants, 400, s)
            approx = np.array([e.cdf_1d(t) for t in grid])
            devs[s] = float(np.max(np.abs(cdf - approx)))
        wins += devs[3] < devs[2]
    report(9, "bootstrap expansion dominance", wins >= 18,
           "s=3 sup below gaussian sup in %d/20 runs (need >= 18)" % wins)


def test_criterion_10_tstat_consistency():
    fam = make_family("centered-exponential")
    grid = default_t_grid()
    B, budget = 1_000_000, 2_000_000
    seq = []
    for n in (100, 200, 400):
        rng = child_rng(0, 505, n)
        w = fam.sample(rng, n)
        draws, _ = tstat_bootstrap(w, B, seed=n, stream_key=(505,))
        draws.sort()
        cdf = np.searchsorted(draws, grid, side="right") / draws.size
        x = np.stack([w, w * w], axis=1)
        stats = sample_stats(x)
        e = empirical_edgeworth(stats, 3)
        vals, ses, _ = edgeworth_tstat_curve(grid, e, stats, budget=budget,
                                             seed=0, stream_key=(506, n))
        dev = float(np.max(np.abs(cdf - vals)))
        band = dkw_halfwidth(B) + float(ses.max())
        seq.append((n, dev, band))
    mono = all(seq[i + 1][1] <= seq[i][1] + seq[i][2] + seq[i + 1][2]
               for i in range(len(seq) - 1))
    report(10, "t-statistic consistency", mono,
           "sup devs %s monotone within combined bands"
           % ["%.4f" % d for _, d, _ in seq])


def test_criterion_11_eta_enlargement():
    fam = make_family("centered-exponential")
    B = 200_000
    etas = [0.01, 0.02, 0.05, 0.1]
    rows, devs, ses = [], [], []
    A = SetSpec.halfline(0.0)
    for n in (100, 400):
        data = fam.sample(child_rng(0, 606, n), n)
        draws = bootstrap_draws(sample_stats(data), B, seed=n,
                                stream_key=(606,))
        for eta in etas:
            dev = enlargement_deviation(A, eta, draws)
            rows.append([n ** -0.5, eta])
            devs.append(dev)
            ses.append(math.sqrt(max(dev, 1e-9) * (1 - dev) / B))
    coef, _ = nnls(np.array(rows), np.array(devs))
    resid = float(np.max(np.abs(np.array(rows) @ coef - np.array(devs))))
    band = max(ses)
    ok = coef[0] >= 0 and coef[1] >= 0 and resid < 2 * band
    report(11, "eta-enlargement bound", ok,
           "a=%.4f b=%.4f >= 0, max residual %.2e < 2x band %.2e"
           % (coef[0], coef[1], resid, 2 * band))


def test_criterion_12_jet_correctness():
    def central(f, x, alpha, h):
        if sum(alpha) == 0:
            return f(*x)
        k = next(i for i, a in enumerate(alpha) if a > 0)
        a2 = list(alpha)
        a2[k] -= 1
        xp = list(x)
        xp[k] += h
        xm = list(x)
        xm[k] -= h
        return (central(f, xp, tuple(a2), h)
                - central(f, xm, tuple(a2), h)) / (2 * h)

    def richardson(f, x, alpha, h):
        return (4 * central(f, x, alpha, h / 2) - central(f, x, alpha, h)) / 3

    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    worst = 0.0
    for _ in range(20):
        x1 = rng.uniform(-1, 1)
        x2 = x1 * x1 + rng.uniform(0.5, 2.0)
        wbar = rng.uniform(-0.5, 0.5)
        jet = g_value_and_jet(np.array([x1, x2]), wbar, order=4)
        f = lambda a, b: (a - wbar) / math.sqrt(b - a * a)
        for alpha in enumerate_multi_indices(2, 4):
            h = eps ** (1.0 / (sum(alpha) + 4))
            fd = richardson(f, (x1, x2), alpha, h)
            jv = jet[alpha]
            worst = max(worst, abs(fd - jv) / max(abs(fd), abs(jv), 1e-12))
    report(12, "jet correctness", worst < 1e-4,
           "max rel err vs central differences %.2e < 1e-4 (20 points, "
           "order <= 4)" % worst)


def test_criterion_13_determinism(tmp_path, monkeypatch):
    from edgelab import bootstrap
    from edgelab.cli import main
    cfg = {"family": "centered-exponential", "s": 3,
           "n_grid": [25, 50, 100, 200], "M": 50_000, "seed": 0}
    cfg_path = tmp_path / "cfg.json"

    def run(out, **extra):
        cfg_path.write_text(json.dumps(dict(cfg, out=str(tmp_path / out),
                                            **extra)))
        main(["rate-study", "--config", str(cfg_path)])
        return (tmp_path / out / "rate_study.csv").read_bytes()

    first, second = run("a"), run("b")
    # bootstrap cells resample over two chunks, on one and on four CPUs
    resampled = []
    for cpus in (1, 4):
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: cpus)
        resampled.append(run("cpus%d" % cpus, mode="bootstrap", B=16389))

    ok = first == second and resampled[0] == resampled[1]
    report(13, "byte-identical determinism", ok,
           "re-run identical: %s; 1 vs 4 CPUs identical: %s"
           % (first == second, resampled[0] == resampled[1]))
