import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom, norm
from scipy.stats import gamma as gamma_law

from edgelab import bootstrap, families, harness
from edgelab.bootstrap import (child_rng, counts_at_or_below,
                               empirical_edgeworth, sample_stats)
from edgelab.expansion import EdgeworthExpansion, build_expansion
from edgelab.families import Family, make_family
from edgelab.harness import (StudyRecord, StudyReport, cell_probabilities,
                             default_t_grid, dkw_halfwidth, emit_report,
                             exact_sum_cdf_mc, fit_loglog_slope,
                             rate_study, uniform_sweep)
from oracles import parse_report_csv


# -- families ---------------------------------------------------------------

def test_registry_contents():
    names = ("gaussian", "bernoulli", "three-point-irrational",
             "centered-exponential", "gamma", "gaussian-mixture")
    assert [make_family(n).name for n in names] == list(names)
    assert make_family("bernoulli").lattice
    assert not make_family("three-point-irrational").lattice


def test_unknown_family():
    with pytest.raises(ValueError):
        make_family("cauchy")


def test_family_cumulants_match_samples():
    rng = np.random.default_rng(0)
    for name in ("centered-exponential", "gamma", "gaussian-mixture",
                 "bernoulli"):
        fam = make_family(name)
        z = (fam.sample(rng, 400_000) - fam.mean) / fam.sd
        cums = fam.standardized_cumulants(3)
        skew = float(np.mean(z ** 3))
        assert cums[(3,)] == pytest.approx(skew, abs=0.1)


def test_centered_exponential_cumulants_closed_form():
    fam = make_family("centered-exponential")
    c = fam.standardized_cumulants(6)
    for r in range(3, 7):
        assert c[(r,)] == pytest.approx(math.factorial(r - 1))


def test_sum_shortcut_matches_generic_path():
    """Gamma sum shortcut and naive summation give the same distribution."""
    fam = make_family("centered-exponential")
    generic = Family(**{**fam.__dict__, "sum_sampler": None})
    n, M = 10, 200_000
    a = fam.sum_sample(n, M, np.random.default_rng(1))
    b = generic.sum_sample(n, M, np.random.default_rng(2))
    qs = np.linspace(0.02, 0.98, 25)
    assert np.max(np.abs(np.quantile(a, qs) - np.quantile(b, qs))) < 0.05


def test_gaussian_cf_is_exact():
    fam = make_family("gaussian")
    t = np.array([[0.7]])
    assert fam.cf(t)[0] == pytest.approx(math.exp(-0.245))


def test_centered_exponential_is_gamma_at_shape_one():
    """The same law, draws and sums as gamma(1), under its own name; the
    draws are numpy's standard exponential bit for bit."""
    exp_fam, gam = make_family("centered-exponential"), make_family(
        "gamma", shape=1.0)
    assert (exp_fam.name, exp_fam.theta) == ("centered-exponential", {})
    assert (exp_fam.mean, exp_fam.sd) == (gam.mean, gam.sd) == (0.0, 1.0)
    assert np.array_equal(exp_fam.sample(np.random.default_rng(3), 1000),
                          np.random.default_rng(3).exponential(size=1000)
                          - 1.0)
    assert np.array_equal(exp_fam.sum_sample(7, 100, np.random.default_rng(4)),
                          gam.sum_sample(7, 100, np.random.default_rng(4)))
    t = np.array([[-2.0], [0.3], [5.0]])
    assert np.allclose(exp_fam.cf(t), np.exp(-1j * t[:, 0])
                       / (1 - 1j * t[:, 0]), rtol=1e-14, atol=0)


def test_gamma_cf_is_the_transform_of_its_density():
    from scipy.integrate import quad
    k, t = 2.5, 0.7
    law = gamma_law(k, loc=-k)
    want = complex(quad(lambda x: law.pdf(x) * math.cos(t * x), -k, 60)[0],
                   quad(lambda x: law.pdf(x) * math.sin(t * x), -k, 60)[0])
    got = make_family("gamma", shape=k).cf(np.array([[t]]))[0]
    assert got == pytest.approx(want, rel=1e-9)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        make_family("gaussian-mixture", weights=(0.7, 0.6))
    # the exact law would give a wrong answer where sampling refused
    with pytest.raises(ValueError, match=">= 0"):
        make_family("gaussian-mixture", weights=(0.6, 0.5, -0.1),
                    means=(-2.0, 2.0, 0.0), sds=(1.0, 1.0, 1.0))


@pytest.mark.parametrize("name, theta, words", [
    ("gamma", {"shape": math.inf}, "gamma shape must be a finite number"),
    ("gamma", {"shape": math.nan}, "gamma shape must be a finite number"),
    ("bernoulli", {"p": math.nan}, "bernoulli p must be a finite number"),
    ("gaussian-mixture", {"means": (0.0, math.inf)},
     "gaussian-mixture means must be a finite number"),
    ("gaussian-mixture", {"sds": (1.0, math.nan)},
     "gaussian-mixture sds must be a finite number"),
    ("gaussian-mixture", {"weights": (0.5, math.nan)},
     "gaussian-mixture weights must be a finite number"),
])
def test_family_parameters_must_be_finite(name, theta, words):
    with pytest.raises(ValueError, match=words):
        make_family(name, **theta)


# -- slope fitting ----------------------------------------------------------

def test_fit_loglog_slope_exact_power_law():
    ns = [10, 20, 40, 80]
    vals = [3.0 * n ** -0.5 for n in ns]
    slope, se = fit_loglog_slope(ns, vals)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-10)


def test_fit_loglog_slope_degenerate():
    slope, se = fit_loglog_slope([10], [1.0])
    assert math.isnan(slope)


def test_dkw_halfwidth_value():
    assert dkw_halfwidth(10 ** 6, 0.01) == pytest.approx(
        math.sqrt(math.log(200.0) / 2e6))


# -- MC cdf and its band ----------------------------------------------------

def test_exact_sum_cdf_gaussian_band_honest():
    """Exact Gaussian CDF inside the 99% band at >= 99% of grid points."""
    fam = make_family("gaussian")
    grid = default_t_grid()
    hits = []
    for seed in range(20):
        cdf, band = exact_sum_cdf_mc(cell_probabilities(fam.sum_cdf(50, grid)),
                                     20_000, seed, (77,))
        inside = np.abs(cdf - norm.cdf(grid)) <= band
        hits.append(inside.mean())
    assert np.mean(hits) >= 0.99


# -- exact laws of the standardized sums --------------------------------------

LAWS = {
    "gaussian": make_family("gaussian"),
    "bernoulli": make_family("bernoulli", p=0.3),
    "centered-exponential": make_family("centered-exponential"),
    "gamma": make_family("gamma", shape=0.7),
    "three-point": make_family("three-point-irrational"),
    "mixture-K2": make_family("gaussian-mixture"),
    "mixture-K3": make_family("gaussian-mixture", weights=(0.2, 0.3, 0.5),
                              means=(-1.0, 0.0, 2.0), sds=(0.5, 1.0, 0.7)),
}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_sum_cdf_agrees_with_simulated_sums(name):
    """The exact law lies within the 99% DKW band of 2^17 simulated sums
    at every grid point, for n = 30 and n = 7."""
    fam = LAWS[name]
    grid = default_t_grid()
    M = 2 ** 17
    for n in (30, 7):
        sums = fam.sum_sample(n, M, child_rng(2024, n))
        F = fam.sum_cdf(n, grid)
        assert np.all(np.diff(F) >= -1e-14)
        assert 0.0 <= F[0] and F[-1] <= 1.0 + 1e-12
        assert np.max(np.abs(counts_at_or_below(sums, grid) / M - F)) \
            <= dkw_halfwidth(M)


@pytest.mark.parametrize("fam, shape", [
    (make_family("centered-exponential"), 1.0),
    (make_family("gamma", shape=0.7), 0.7),
    (make_family("gamma"), 2.0)], ids=["exponential", "gamma-0.7", "gamma-2"])
def test_gamma_sum_cdf_matches_scipy(fam, shape):
    grid = default_t_grid()
    for n in (1, 25, 400, 3200):
        a = n * shape
        ref = gamma_law.cdf(a + grid * math.sqrt(a), a)
        assert np.max(np.abs(fam.sum_cdf(n, grid) - ref)) <= 1e-10


def test_bernoulli_sum_cdf_counts_atoms_on_grid_points():
    """At p = 1/2 and n = 100 the atom k sits at (k - 50) / 5, and some of
    these floats are grid points: such an atom counts at its own grid
    point, as a simulated sum there does."""
    fam = make_family("bernoulli", p=0.5)
    grid = default_t_grid()
    k = np.arange(101.0)
    atoms = (k - 50.0) / 5.0
    on = np.isin(grid, atoms)
    assert on.sum() >= 11
    assert np.allclose(fam.sum_cdf(100, grid[on]),
                       binom.cdf(k[np.isin(atoms, grid)], 100, 0.5),
                       rtol=1e-12, atol=0.0)
    gap = np.min(np.abs(grid[:, None] - atoms[None, :]), axis=1)
    off = (gap > 1e-9) & (np.abs(grid) < 4.0)
    assert np.allclose(fam.sum_cdf(100, grid[off]),
                       binom.cdf(np.floor(50.0 + 5.0 * grid[off]), 100, 0.5),
                       rtol=1e-12, atol=0.0)


def test_mixture_sum_cdf_drops_components_of_weight_zero():
    grid = default_t_grid()
    two = make_family("gaussian-mixture", weights=(0.7, 0.3),
                      means=(-1.0, 2.0), sds=(0.5, 0.7))
    three = make_family("gaussian-mixture", weights=(0.7, 0.0, 0.3),
                        means=(-1.0, 0.0, 2.0), sds=(0.5, 1.0, 0.7))
    assert np.array_equal(three.sum_cdf(20, grid), two.sum_cdf(20, grid))


def test_sum_cdf_takes_an_array_of_n():
    """An integer array n broadcasts against x, and each row is the call
    for its n alone, to the last bit."""
    grid = default_t_grid()
    ns = np.array([1, 7, 30, 64])
    for fam in LAWS.values():
        rows = fam.sum_cdf(ns[:, None], grid)
        assert rows.shape == (ns.size, grid.size)
        for n, row in zip(ns, rows):
            assert np.array_equal(row, fam.sum_cdf(int(n), grid))


@pytest.mark.parametrize("n", [0, 2.5, [3, -1], True])
def test_sum_cdf_needs_integer_sum_sizes(n):
    with pytest.raises(ValueError, match="integers >= 1"):
        make_family("gamma").sum_cdf(n, default_t_grid())


def test_sum_cdf_needs_a_law():
    fam = Family(**{**make_family("gaussian").__dict__, "sum_cdf_fn": None})
    with pytest.raises(ValueError, match="no exact sum law"):
        fam.sum_cdf(5, default_t_grid())


@pytest.mark.parametrize("name, M", [("centered-exponential", 1),
                                     ("bernoulli", 2 ** 16),
                                     ("three-point", 2 * 2 ** 16 + 5),
                                     ("mixture-K2", 2 ** 40)],
                         ids=["one-sum", "bernoulli", "three-point",
                              "mixture-2^40"])
def test_exact_sum_cdf_counts_add_up_to_M(name, M):
    """The counts are one Multinomial(M, p) draw from the stream
    (seed, *stream_key), p the increments of the exact CDF; they add up to
    M."""
    fam = LAWS[name]
    grid = default_t_grid()
    key = (5, 0, 30, 1)
    cdf, band = exact_sum_cdf_mc(cell_probabilities(fam.sum_cdf(30, grid)),
                                 M, 11, key)
    p = np.diff(fam.sum_cdf(30, grid), prepend=0.0, append=1.0)
    counts = child_rng(11, *key).multinomial(M, np.maximum(p, 0.0))
    assert counts.sum() == M
    assert np.array_equal(cdf, np.cumsum(counts[:-1]) / M)
    assert np.all(np.diff(cdf) >= 0.0) and cdf[-1] <= 1.0
    assert band == dkw_halfwidth(M)


def test_exact_sum_cdf_does_not_depend_on_cpus(monkeypatch):
    fam = make_family("centered-exponential")
    out = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: cpus)
        p = cell_probabilities(fam.sum_cdf(30, default_t_grid()))
        cdf, band = exact_sum_cdf_mc(p, 131_077, 11, (5, 0, 30, 1))
        out.append(cdf.tobytes() + np.float64(band).tobytes())
    assert out[0] == out[1] == out[2]


def test_exact_sum_cdf_memory_does_not_grow_with_M():
    """A cell holds a few arrays of the grid's size, as many at M = 2^40 as
    at M = 1: the chunked sampler held 2^16 sums (0.5 MB) per thread."""
    fam = make_family("centered-exponential")
    grid = default_t_grid()
    p = cell_probabilities(fam.sum_cdf(400, grid))
    peaks = []
    for M in (1, 1, 2 ** 40):    # the first call warms numpy's caches
        tracemalloc.start()
        try:
            exact_sum_cdf_mc(p, M, 0, (1,))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1] + 4096
    assert peaks[2] < 64 * grid.nbytes


# -- rate studies -----------------------------------------------------------

def test_rate_study_structure():
    fam = make_family("centered-exponential")
    rep = rate_study(fam, 3, [25, 50, 100, 200], M=20_000, seed=0)
    assert {r.s for r in rep.records} == {2, 3}
    assert {r.n for r in rep.records} == {25, 50, 100, 200}
    assert set(rep.slopes) == {"s=2", "s=3"}
    assert rep.config_hash and len(rep.config_hash) == 16
    for r in rep.records:
        assert r.metric == "sup_dev"
        assert r.flag in ("", "inconclusive")
        assert r.mc_se == pytest.approx(dkw_halfwidth(20_000))


def test_rate_study_grid_validation():
    fam = make_family("gaussian")
    with pytest.raises(ValueError):
        rate_study(fam, 3, [25, 50, 100], M=1000, seed=0)
    with pytest.raises(ValueError):
        rate_study(fam, 3, [25, 50, 50, 100], M=1000, seed=0)
    with pytest.raises(ValueError):
        rate_study(fam, 3, [25, 50, 100, 200], M=1000, seed=0,
                   mode="bootstrap")  # needs B


@pytest.mark.parametrize("B", [None, True, 2.5, 0])
def test_bootstrap_rate_study_refuses_a_bad_budget_before_resampling(
        monkeypatch, B):
    def no_resampling(*args, **kwargs):
        raise AssertionError("resampled before refusing B")
    monkeypatch.setattr(harness, "bootstrap_counts", no_resampling)
    with pytest.raises(ValueError, match="budget B, an integer >= 1"):
        rate_study(make_family("gaussian"), 3, [25, 50, 100, 200], M=1000,
                   seed=0, mode="bootstrap", B=B)


def _count_kernel_calls(monkeypatch):
    """A list that grows by one per call of the incomplete-gamma kernel
    from the Gamma laws."""
    calls = []
    kernel = families._lower_gamma_regularized

    def counted(a, x):
        calls.append(np.shape(a))
        return kernel(a, x)
    monkeypatch.setattr(families, "_lower_gamma_regularized", counted)
    return calls


def test_rate_study_evaluates_its_gamma_laws_in_one_kernel_call(
        monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    rate_study(make_family("gamma", shape=0.7), 3, [25, 50, 100, 200, 400],
               M=20_000, seed=0, reps=2)
    assert calls == [(5, 1)]


def test_uniform_sweep_calls_the_kernel_once_per_gamma_variant(monkeypatch):
    """Shape 0.25 exceeds the moment cap (E|Z|^3 about 4.1) and is not
    run; the Gaussian law calls no kernel."""
    calls = _count_kernel_calls(monkeypatch)
    fams = [make_family("centered-exponential"), make_family("gaussian"),
            make_family("gamma", shape=0.25), make_family("gamma")]
    rep = uniform_sweep(fams, 3, [25, 50, 100, 200], M=20_000, seed=4,
                        rho_cap=3.0)
    assert [(r.family, r.theta) for r in rep.records
            if r.metric == "rho_proxy_rejected"] == [
                ("gamma", '{"shape": 0.25}')]
    assert calls == [(4, 1), (4, 1)]


@pytest.mark.parametrize("name", sorted(LAWS))
def test_rate_study_rows_are_each_n_law(monkeypatch, name):
    """Every analytic cell draws from the cell probabilities of the row
    that Family.sum_cdf gives for its n alone, bit for bit: the study's one
    pass over all its rows gives each row's clipped increments."""
    fam = LAWS[name]
    grid = default_t_grid()
    seen = {}
    draw = harness.exact_sum_cdf_mc

    def recorded(p, M, seed, stream_key=()):
        seen[stream_key[2:]] = p.copy()
        return draw(p, M, seed, stream_key)
    monkeypatch.setattr(harness, "exact_sum_cdf_mc", recorded)
    n_grid = [1, 7, 30, 64]
    rate_study(fam, 3, n_grid, M=1000, seed=0, reps=2)
    assert sorted(seen) == [(n, rep) for n in n_grid for rep in (0, 1)]
    for (n, rep), p in seen.items():
        F = np.clip(fam.sum_cdf(n, grid), 0.0, 1.0)
        assert np.array_equal(p, np.maximum(
            np.diff(F, prepend=0.0, append=1.0), 0.0))


@pytest.mark.parametrize("mode", ["analytic", "bootstrap"])
def test_rate_study_takes_one_hermite_basis(monkeypatch, mode):
    """A study integrates He_k phi up to its grid points once, for the
    degrees of its largest s, and calls no cdf_1d: each cell contracts
    that basis."""
    degrees = []
    interval = harness._hermite_interval

    def counted(K, a, b):
        degrees.append(K)
        return interval(K, a, b)

    def refused(self, t):
        raise AssertionError("cdf_1d called")
    monkeypatch.setattr(harness, "_hermite_interval", counted)
    monkeypatch.setattr(EdgeworthExpansion, "cdf_1d", refused)
    rate_study(make_family("gamma", shape=0.7), 5, [25, 50, 100, 200],
               M=2000, seed=0, mode=mode, B=500, reps=2)
    assert degrees == [9]


def _per_cell_records(fam: Family, s: int, n_grid, M: int, seed: int,
                      reps: int):
    """Analytic rate-study records as each cell once built them: the
    cell's own law row, cumulant table and expansions, and the CDF
    contracted by cdf_1d."""
    grid = default_t_grid()
    key = harness._family_key(fam.name)
    recs = []
    for n in n_grid:
        for rep in range(reps):
            F = np.clip(fam.sum_cdf(n, grid), 0.0, 1.0)
            p = np.maximum(np.diff(F, prepend=0.0, append=1.0), 0.0)
            counts = child_rng(seed, key, 0, n, rep).multinomial(M, p)
            cdf = np.cumsum(counts[:-1]) / M
            band = dkw_halfwidth(M)
            cumulants = fam.standardized_cumulants(max(2, s))
            for sv in sorted({2, s}):
                e = build_expansion(cumulants, n, sv)
                value = float(np.max(np.abs(cdf - e.cdf_1d(grid))))
                recs.append(StudyRecord(
                    fam.name, json.dumps(fam.theta, sort_keys=True), n, rep,
                    sv, "sup_dev", value, band,
                    "inconclusive" if band >= value else "", seed))
    return sorted(recs, key=StudyRecord.sort_key)


HOISTED = [make_family("centered-exponential"),
           make_family("bernoulli", p=0.3),
           make_family("three-point-irrational"),
           make_family("gaussian-mixture")]


@pytest.mark.parametrize("s", [2, 3, 4])
@pytest.mark.parametrize("fam", HOISTED, ids=lambda f: f.name)
def test_rate_study_equals_per_cell_reference(fam, s):
    """Building the cumulants, the Hermite tables and the cell
    probabilities once per study changes no float: every record equals,
    with ==, the one its cell computed alone."""
    n_grid = [3, 10, 30, 64]
    got = rate_study(fam, s, n_grid, M=5003, seed=17, reps=2).records
    assert got == _per_cell_records(fam, s, n_grid, 5003, 17, 2)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_uniform_sweep_equals_per_cell_reference(s):
    """The sweep's records of each variant equal the per-cell reference
    with ==, and its per-n maxima are theirs."""
    n_grid = [3, 10, 30, 64]
    rep = uniform_sweep(HOISTED, s, n_grid, M=5003, seed=17, reps=2)
    want = []
    for fam in HOISTED:
        want += _per_cell_records(fam, s, n_grid, 5003, 17, 2)
    assert [r for r in rep.records if r.metric == "sup_dev"] == sorted(
        want, key=StudyRecord.sort_key)
    for r in rep.records:
        if r.family == "sweep-max":
            assert r.value == max(w.value for w in want
                                  if (w.n, w.s) == (r.n, r.s))


@pytest.mark.parametrize("n_grid", [[25, 50, 100, 200],
                                    [5, 10, 20, 40, 80, 160, 320]])
def test_analytic_rate_study_builds_its_tables_once(monkeypatch, n_grid):
    """An analytic study reads one cumulant table and builds each s's
    Hermite tables once, whatever the length of its n-grid."""
    orders, built = [], []
    cumulants = Family.standardized_cumulants
    build = harness.build_expansion

    def counted_cumulants(self, order):
        orders.append(order)
        return cumulants(self, order)

    def counted_build(c, n, s):
        built.append(s)
        return build(c, n, s)
    monkeypatch.setattr(Family, "standardized_cumulants", counted_cumulants)
    monkeypatch.setattr(harness, "build_expansion", counted_build)
    rate_study(make_family("gamma", shape=0.7), 5, n_grid, M=2000, seed=0,
               reps=2)
    assert orders == [5]
    assert built == [2, 5]


def test_bootstrap_rate_study_builds_each_cells_expansions_once(
        monkeypatch):
    """A bootstrap-mode cell builds its order-max expansion once, for the
    empirical cumulants and its Hermite table, and one expansion per
    smaller s: a 4-cell study at s = 5 makes 8 builds, not 12."""
    built = []

    def counted(module):
        build = module.build_expansion

        def counted_build(c, n, s):
            built.append(s)
            return build(c, n, s)
        monkeypatch.setattr(module, "build_expansion", counted_build)
    counted(harness)
    counted(bootstrap)
    rate_study(make_family("gamma", shape=0.7), 5, [25, 50, 100, 200],
               M=None, seed=0, mode="bootstrap", B=64)
    assert sorted(built) == [2] * 4 + [5] * 4


@pytest.mark.parametrize("name, s", [("centered-exponential", 2),
                                     ("centered-exponential", 3),
                                     ("gamma", 5), ("bernoulli", 4),
                                     ("gaussian", 4),
                                     ("three-point-irrational", 5)])
def test_hermite_contraction_is_cdf_1d(name, s):
    """The cells' contraction of one basis of degree 3 (s - 2) is the
    expansion's cdf_1d on the grid, bit for bit, for every s up to s and
    for analytic and empirical cumulants."""
    grid = default_t_grid()
    basis = harness._hermite_interval(3 * (s - 2), -math.inf, grid)
    fam = make_family(name)
    sample = fam.sample(child_rng(0, 9), 50)
    tables = [fam.standardized_cumulants(s),
              empirical_edgeworth(sample_stats(sample), s).cumulants]
    for cumulants in tables:
        for order in range(2, s + 1):
            e = build_expansion(cumulants, 40, order)
            assert np.array_equal(
                harness._contract(e.hermite_coeffs, e.n, [basis]),
                e.cdf_1d(grid))


def test_rate_study_bootstrap_mode():
    fam = make_family("centered-exponential")
    rep = rate_study(fam, 3, [25, 50, 100, 200], M=0, seed=3,
                     mode="bootstrap", B=20_000)
    assert all(r.metric == "bootstrap_sup_dev" for r in rep.records)
    assert len(rep.records) == 8


def test_rate_study_workers_agree(tmp_path, monkeypatch):
    """Records and slopes do not depend on how many resampling workers
    run; bootstrap cells resample over two chunks, the last one partial,
    on one thread or on four."""
    fam = make_family("centered-exponential")
    studies = []
    for cpus in (1, 4):
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: cpus)
        studies.append(rate_study(fam, 3, [25, 50, 100, 200], M=20_000,
                                  seed=1))
    a, b = studies
    assert a.records == b.records
    # nan-tolerant comparison for degenerate slope fits
    assert json.dumps(a.slopes, sort_keys=True) == \
        json.dumps(b.slopes, sort_keys=True)
    reports = []
    for cpus in (1, 4):
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: cpus)
        rep = rate_study(fam, 3, [25, 50, 100, 200], M=0, seed=1,
                         mode="bootstrap", B=16384 + 5)
        emit_report(rep, "csv", str(tmp_path / "r.csv"))
        emit_report(rep, "json", str(tmp_path / "r.json"))
        reports.append(((tmp_path / "r.csv").read_bytes(),
                        (tmp_path / "r.json").read_bytes()))
    assert reports[0] == reports[1]


def test_rate_study_reports_do_not_depend_on_cpus(tmp_path, monkeypatch):
    """Analytic and bootstrap-mode studies write the same bytes on one,
    two and three CPUs; bootstrap cells resample over two chunks, the
    last one partial."""
    fam = make_family("centered-exponential")
    for mode in ("analytic", "bootstrap"):
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(bootstrap, "_available_cpus", lambda: cpus)
            rep = rate_study(fam, 3, [25, 50, 100, 200], M=131_077, seed=1,
                             mode=mode, B=16384 + 5)
            emit_report(rep, "csv", str(tmp_path / "r.csv"))
            emit_report(rep, "json", str(tmp_path / "r.json"))
            reports.append(((tmp_path / "r.csv").read_bytes(),
                            (tmp_path / "r.json").read_bytes()))
        assert reports[0] == reports[1] == reports[2]


def test_rate_study_replications():
    fam = make_family("centered-exponential")
    rep = rate_study(fam, 3, [25, 50, 100, 200], M=5_000, seed=2, reps=3)
    assert len(rep.records) == 4 * 3 * 2
    assert {r.rep for r in rep.records} == {0, 1, 2}
    # replications use distinct streams
    vals = {r.value for r in rep.records if r.s == 3 and r.n == 25}
    assert len(vals) == 3


# -- sweeps -----------------------------------------------------------------

def test_uniform_sweep_max_dominates():
    fams = [make_family("centered-exponential"), make_family("gamma")]
    rep = uniform_sweep(fams, 3, [25, 50, 100, 200], M=20_000, seed=4)
    for n in (25, 50, 100, 200):
        per_fam = [r.value for r in rep.records
                   if r.metric == "sup_dev" and r.n == n and r.s == 3]
        sweep = [r.value for r in rep.records
                 if r.family == "sweep-max" and r.n == n and r.s == 3]
        assert len(sweep) == 1
        assert sweep[0] == pytest.approx(max(per_fam))
    assert "max,s=3" in rep.slopes


def test_uniform_sweep_moment_cap():
    fams = [make_family("gaussian"), make_family("centered-exponential")]
    rep = uniform_sweep(fams, 4, [25, 50, 100, 200], M=5_000, seed=5,
                        rho_cap=4.0)
    rejected = [r for r in rep.records if r.flag == "rejected"]
    assert len(rejected) == 1           # exponential 4th moment exceeds cap
    assert rejected[0].family == "centered-exponential"
    with pytest.raises(ValueError):
        uniform_sweep(fams, 4, [25, 50, 100, 200], M=5_000, seed=5,
                      rho_cap=1e-6)


@pytest.mark.parametrize("rho_cap", [math.nan, math.inf, -math.inf,
                                     np.float64(math.nan), 0.0, "3", True,
                                     [1.0]],
                         ids=["nan", "inf", "-inf", "numpy-nan", "zero",
                              "string", "bool", "list"])
def test_uniform_sweep_refuses_a_bad_rho_cap(monkeypatch, rho_cap):
    """rho_cap is a finite number > 0 and not a bool, checked before any
    pilot draw; NaN used to reject every variant."""
    def no_pilot(*args):
        raise AssertionError("drew a pilot before refusing rho_cap")
    monkeypatch.setattr(harness, "_moment_proxy", no_pilot)
    with pytest.raises(ValueError, match="rho_cap must be a finite number"):
        uniform_sweep([make_family("gaussian")], 2, [25, 50, 100, 200],
                      M=1000, seed=0, rho_cap=rho_cap)


# -- reports ----------------------------------------------------------------

def test_emit_and_parse_csv_roundtrip(tmp_path):
    fam = make_family("centered-exponential")
    rep = rate_study(fam, 3, [25, 50, 100, 200], M=5_000, seed=6)
    path = tmp_path / "report.csv"
    emit_report(rep, "csv", str(path))
    back = parse_report_csv(str(path))
    assert back == rep.records


def test_emit_json_contains_slopes(tmp_path):
    fam = make_family("gaussian")
    rep = rate_study(fam, 2, [25, 50, 100, 200], M=5_000, seed=7)
    path = tmp_path / "report.json"
    emit_report(rep, "json", str(path))
    payload = json.loads(path.read_text())
    assert payload["config_hash"] == rep.config_hash
    assert "s=2" in payload["slopes"]
    assert len(payload["records"]) == len(rep.records)


def test_emit_json_is_strict_for_a_two_point_fit(tmp_path):
    slope, se = fit_loglog_slope([25, 100], [0.2, 0.1])
    rep = StudyReport(slopes={"s=3": {"slope": slope, "stderr": se,
                                      "n_used": 2}}).finalize()
    path = tmp_path / "report.json"
    emit_report(rep, "json", str(path))

    def reject(name):
        raise ValueError("not strict JSON: %s" % name)

    payload = json.loads(path.read_text(), parse_constant=reject)
    assert payload["slopes"]["s=3"] == {"slope": pytest.approx(-0.5),
                                        "stderr": None, "n_used": 2}
    assert math.isnan(rep.slopes["s=3"]["stderr"])


def test_emit_report_bad_format(tmp_path):
    fam = make_family("gaussian")
    rep = rate_study(fam, 2, [25, 50, 100, 200], M=1_000, seed=8)
    with pytest.raises(ValueError):
        emit_report(rep, "parquet", str(tmp_path / "x"))


def test_csv_byte_identical_across_reruns(tmp_path):
    fam = make_family("centered-exponential")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(rate_study(fam, 3, [25, 50, 100, 200], M=5_000, seed=9),
                "csv", str(p1))
    emit_report(rate_study(fam, 3, [25, 50, 100, 200], M=5_000, seed=9),
                "csv", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
