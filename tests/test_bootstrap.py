import tracemalloc

import numpy as np
import pytest

from edgelab import bootstrap
from edgelab.bootstrap import (_BLOCK, bootstrap_counts, bootstrap_draws,
                               child_rng, counts_at_or_below,
                               edgeworth_tstat_curve, edgeworth_tstat_exact,
                               empirical_edgeworth, event_checks,
                               sample_stats, tstat_bootstrap, tstat_counts,
                               tstat_pushforward)
from edgelab.cumulants import inv_sqrt_spd
from edgelab.expansion import SetSpec, set_measure
from oracles import enlargement_deviation


def skewed_sample(n, seed=0, d=1):
    rng = np.random.default_rng(seed)
    return rng.exponential(size=(n, d)) - 1.0


# -- datasets and statistics ------------------------------------------------

def test_sample_stats_against_numpy():
    pts = skewed_sample(200, seed=1, d=2)
    st = sample_stats(pts)
    assert np.allclose(st.mean, pts.mean(axis=0))
    assert np.allclose(st.cov, np.cov(pts.T, bias=True))
    assert st.lam_min == pytest.approx(np.linalg.eigvalsh(st.cov)[0])
    flags = event_checks(st, 3, rho_bar=1e6, c1=1e-8, c2=1e6)
    norms = np.linalg.norm(pts, axis=1)
    assert flags.abs_moment == pytest.approx(np.mean(norms ** 3))
    assert flags.max_mixed_moment >= flags.abs_moment / 2  # crude dominance


def test_sample_stats_roots_square_back():
    rng = np.random.default_rng(2)
    st = sample_stats(rng.normal(size=(50, 3)) @ rng.normal(size=(3, 3)))
    assert np.allclose(st.root @ st.root, st.cov, atol=1e-10)
    assert np.allclose(st.inv_root @ st.cov @ st.inv_root, np.eye(3),
                       atol=1e-10)
    # the same eigendecomposition as inv_sqrt_spd, bit for bit
    assert np.array_equal(st.inv_root, inv_sqrt_spd(st.cov))


def test_sample_stats_refuses_too_few_points_or_a_singular_covariance():
    with pytest.raises(ValueError, match="need at least 2 points"):
        sample_stats(np.ones((1, 2)))
    with pytest.raises(ValueError, match="sample covariance is singular"):
        sample_stats(np.ones((30, 1)))


# -- bootstrap draws --------------------------------------------------------

def test_bootstrap_draws_deterministic():
    data = skewed_sample(60, seed=3)
    a = bootstrap_draws(sample_stats(data), 5000, seed=42)
    b = bootstrap_draws(sample_stats(data), 5000, seed=42)
    assert np.array_equal(a, b)
    c = bootstrap_draws(sample_stats(data), 5000, seed=43)
    assert not np.array_equal(a, c)


def test_bootstrap_draws_prefix_stable():
    """The first B draws do not depend on the total budget."""
    data = skewed_sample(60, seed=4)
    short = bootstrap_draws(sample_stats(data), 20000, seed=7)
    long = bootstrap_draws(sample_stats(data), 40000, seed=7)
    assert np.array_equal(short, long[:20000])


def test_bootstrap_draws_standardized():
    data = skewed_sample(150, seed=5, d=2)
    draws = bootstrap_draws(sample_stats(data), 200_000, seed=8)
    mean = draws.mean(axis=0)
    cov = np.cov(draws.T, bias=True)
    assert np.all(np.abs(mean) < 0.01)
    assert np.allclose(cov, np.eye(2), atol=0.02)


# Two full chunks of 16384 resamples plus a partial third one.
_GUARD_B = 2 * 16384 + 5


def _per_chunk_loop(values, B, seed, reduce):
    """Reference copy of the chunked resampling loop: chunk ci of at most
    16384 resamples draws its indices from child_rng(seed, ci)."""
    n = values.shape[0]
    out = []
    for ci, lo in enumerate(range(0, B, 16384)):
        m = min(16384, B - lo)
        idx = child_rng(seed, ci).integers(0, n, size=(m, n))
        out.append(reduce(values[idx]))
    return np.concatenate(out)


def _standardize_reference(pts):
    """Each coordinate of a resample's mean adds its n values pairwise, as
    numpy's contiguous mean does; a 1-d mean is the plain row mean."""
    n, d = pts.shape
    st = sample_stats(pts)
    A = inv_sqrt_spd(st.cov)

    def mean(res):
        if d == 1:
            return res.mean(axis=1)
        return np.ascontiguousarray(np.moveaxis(res, -1, 0)).mean(axis=-1).T
    return lambda res: np.sqrt(n) * (mean(res) - st.mean) @ A.T


def _studentize_reference(w):
    wbar = w.mean()

    def studentize(res):
        mb = res.mean(axis=1)
        s2 = (res * res).mean(axis=1) - mb * mb
        ok = s2 > 0
        return np.sqrt(w.size) * (mb[ok] - wbar) / np.sqrt(s2[ok])
    return studentize


_GRID = np.linspace(-3.0, 3.0, 61)


def _tally(d):
    """Counts of an (m, d) array of draws: in a half-space, a box and a
    ball, then at or below each _GRID point on the first coordinate."""
    sets = [SetSpec.halfspace(np.arange(1.0, d + 1), 0.3),
            SetSpec.box(-np.ones(d), np.ones(d)),
            SetSpec.ball(np.zeros(d), 1.5)]

    def tally(z):
        inside = [np.count_nonzero(A.contains(z)) for A in sets]
        return np.concatenate([inside,
                               counts_at_or_below(z[:, 0].copy(), _GRID)])
    return tally


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bootstrap_draws_match_per_chunk_reference(d, monkeypatch):
    """The draws, and the counts of bootstrap_counts, which tallies each
    chunk apart, equal the reference's and the counts of its joined
    draws."""
    pts = skewed_sample(40, seed=21, d=d)
    ref = _per_chunk_loop(pts, _GUARD_B, 9, _standardize_reference(pts))
    want = _tally(d)(ref)
    for workers in (1, 2, 3):
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: workers)
        got = bootstrap_draws(sample_stats(pts), _GUARD_B, seed=9)
        assert got.shape == (_GUARD_B, d)
        assert np.array_equal(got, ref)
        counts = bootstrap_counts(sample_stats(pts), _GUARD_B, _tally(d),
                                  seed=9)
        assert np.array_equal(counts, want)


def test_tstat_bootstrap_matches_per_chunk_reference(monkeypatch):
    w = np.random.default_rng(22).exponential(size=4)  # some degenerate
    ref = _per_chunk_loop(w, _GUARD_B, 10, _studentize_reference(w))
    want = counts_at_or_below(ref.copy(), _GRID)
    for workers in (1, 2, 3):
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: workers)
        got, degenerate = tstat_bootstrap(w, _GUARD_B, seed=10)
        assert np.array_equal(got, ref)
        assert degenerate == _GUARD_B - ref.size > 0
        counts, degenerate = tstat_counts(w, _GUARD_B, _GRID, seed=10)
        assert np.array_equal(counts, want)
        assert degenerate == _GUARD_B - ref.size


# n = 400 splits each chunk into row blocks of 163 resamples; past
# _BLOCK indices every block holds a single resample, and a matrix product
# per one-row block would differ from the reference in the last bit.
@pytest.mark.parametrize("n, d, B", [(400, 3, _GUARD_B), (41, 2, _GUARD_B),
                                     (_BLOCK + 3, 1, 3), (_BLOCK + 3, 3, 8)])
def test_resampling_in_row_blocks_matches_per_chunk_reference(
        n, d, B, monkeypatch):
    pts = skewed_sample(n, seed=23, d=d)
    ref = _per_chunk_loop(pts, B, 11, _standardize_reference(pts))
    w = pts[:, 0]
    ref_t = _per_chunk_loop(w, B, 12, _studentize_reference(w))
    want = _tally(d)(ref)
    want_t = counts_at_or_below(ref_t.copy(), _GRID)
    for workers in (1, 2, 3):
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: workers)
        assert np.array_equal(bootstrap_draws(sample_stats(pts), B,
                                              seed=11), ref)
        assert np.array_equal(bootstrap_counts(sample_stats(pts), B,
                                               _tally(d), seed=11), want)
        got, _ = tstat_bootstrap(w, B, seed=12)
        assert np.array_equal(got, ref_t)
        counts, degenerate = tstat_counts(w, B, _GRID, seed=12)
        assert np.array_equal(counts, want_t)
        assert degenerate == B - ref_t.size


def test_resampling_default_workers_and_validation(monkeypatch):
    pts = skewed_sample(30, seed=24)
    st = sample_stats(pts)
    default = bootstrap_draws(st, _GUARD_B, seed=13)
    monkeypatch.setattr(bootstrap, "_available_cpus", lambda: 1)
    assert np.array_equal(default, bootstrap_draws(st, _GUARD_B, seed=13))
    with pytest.raises(ValueError, match="B must be"):
        bootstrap_draws(st, 0)
    with pytest.raises(ValueError, match="B must be"):
        tstat_bootstrap(pts[:, 0], 0)


@pytest.mark.parametrize("B", [True, 2.5, 0])
def test_resampling_budget_is_a_count(B):
    """B is an int >= 1 and not a bool, as every count of the program:
    True is not one draw and 2.5 is refused, not a TypeError."""
    pts = skewed_sample(30, seed=25)
    with pytest.raises(ValueError, match="B must be an integer >= 1"):
        bootstrap_draws(sample_stats(pts), B)
    with pytest.raises(ValueError, match="B must be an integer >= 1"):
        tstat_bootstrap(pts[:, 0], B)
    with pytest.raises(ValueError, match="B must be an integer >= 1"):
        bootstrap_counts(sample_stats(pts), B, _tally(1))
    with pytest.raises(ValueError, match="B must be an integer >= 1"):
        tstat_counts(pts[:, 0], B, _GRID)


def _traced_peak(run) -> int:
    """The peak of memory traced while run() runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("count", ["bootstrap", "tstat"])
def test_counting_memory_does_not_grow_with_B(count, monkeypatch):
    """On one CPU the counts hold one chunk of draws and one block of
    resamples at a time (about 1.4 MiB for the d = 3 draws, 1.3 MiB for
    the t draws) and a few ints per chunk, so the peak at B = 2^20 is that
    at B = 2^16 within 0.25 MiB and under 4 MiB.  Tallying the joined
    draws peaks at 48 MiB and 16 MiB at B = 2^20."""
    monkeypatch.setattr(bootstrap, "_available_cpus", lambda: 1)
    pts = skewed_sample(41, seed=27, d=3)
    if count == "bootstrap":
        st = sample_stats(pts)
        tally = _tally(3)

        def run(B):
            bootstrap_counts(st, B, tally, seed=1)
    else:
        def run(B):
            tstat_counts(pts[:, 0], B, _GRID, seed=1)
    small, large = (_traced_peak(lambda: run(B)) for B in (2 ** 16, 2 ** 20))
    assert large < small + 2 ** 18
    assert large < 4 * 2 ** 20


def test_resampling_memory_does_not_grow_with_d(monkeypatch):
    """A block gathers one coordinate at a time, an (r, n) array beside
    its (r, n) indices, about 0.5 MiB each at n = 400, so on one CPU
    only the chunk's (m, d) means and draws grow with d: the peak of
    bootstrap_counts at d = 3 is that at d = 1 within 0.5 MiB (about 1.4
    against 1.14 MiB).  Gathering all d coordinates of a block at once
    peaked at 2.4 MiB."""
    monkeypatch.setattr(bootstrap, "_available_cpus", lambda: 1)
    peaks = []
    for d in (1, 3):
        st = sample_stats(skewed_sample(400, seed=28, d=d))
        tally = _tally(d)
        bootstrap_counts(st, 100, tally, seed=1)    # first-call costs
        peaks.append(_traced_peak(
            lambda: bootstrap_counts(st, 2 ** 16, tally, seed=1)))
    assert peaks[1] < peaks[0] + 2 ** 19


def test_bootstrap_draws_rejects_degenerate_data():
    with pytest.raises(ValueError):
        bootstrap_draws(sample_stats(np.ones((30, 1))), 100)


# -- empirical expansion ----------------------------------------------------

def test_empirical_edgeworth_pins_low_orders():
    data = skewed_sample(100, seed=6, d=2)
    e = empirical_edgeworth(sample_stats(data), 4)
    c = e.cumulants
    assert c.check_standardized()
    assert c[(1, 0)] == 0.0 and c[(0, 1)] == 0.0
    assert c[(2, 0)] == 1.0 and c[(1, 1)] == 0.0 and c[(0, 2)] == 1.0


def test_empirical_edgeworth_matches_sample_skewness():
    data = skewed_sample(5000, seed=7)
    e = empirical_edgeworth(sample_stats(data), 3)
    z = (data[:, 0] - data.mean()) / data.std()
    skew = np.mean(z ** 3)
    assert e.cumulants[(3,)] == pytest.approx(skew, rel=1e-10)


# -- event checkers ---------------------------------------------------------

def test_event_checks_thresholds():
    data = skewed_sample(300, seed=8, d=2)
    st = sample_stats(data)
    flags = event_checks(st, s=3, rho_bar=1e6, c1=1e-8, c2=1e6)
    assert flags.e0 and flags.e1 and flags.e2
    tight = event_checks(st, s=3, rho_bar=1e-12, c1=1e-8, c2=1e6)
    assert not tight.e0 and tight.e1 and tight.e2


def test_event_checks_reproducible():
    data = skewed_sample(100, seed=10, d=2)
    f1 = event_checks(sample_stats(data), 3, 10.0, 0.01, 50.0)
    f2 = event_checks(sample_stats(data), 3, 10.0, 0.01, 50.0)
    assert f1.e0 == f2.e0 and f1.abs_moment == f2.abs_moment


# -- studentized statistic --------------------------------------------------

def test_tstat_bootstrap_deterministic_and_counted():
    rng = np.random.default_rng(11)
    w = rng.exponential(size=3)          # tiny n: some degenerate resamples
    d1, k1 = tstat_bootstrap(w, 50_000, seed=5)
    d2, k2 = tstat_bootstrap(w, 50_000, seed=5)
    assert np.array_equal(d1, d2) and k1 == k2
    assert k1 > 0
    assert d1.size + k1 == 50_000


def test_tstat_bootstrap_needs_spread():
    with pytest.raises(ValueError):
        tstat_bootstrap(np.ones(10), 100)


def test_tstat_pushforward_validity():
    w = skewed_sample(200, seed=12)[:, 0]
    data = np.stack([w, w * w], axis=1)
    st = sample_stats(data)
    x = np.array([[0.0, 0.0], [0.0, -200.0]])
    vals, valid = tstat_pushforward(x, st)
    assert valid[0] and not valid[1]
    # at x = 0 the pushforward is sqrt(n) g(xbar) = the sample t statistic
    tstat = np.sqrt(200) * (w.mean() - w.mean()) / w.std()
    assert vals[0] == pytest.approx(tstat, abs=1e-12)


def test_fhat_indicator_monotone_in_t():
    # the indicator 1{pushforward(x) <= t}, with invalid points counting 0
    w = skewed_sample(150, seed=13)[:, 0]
    data = np.stack([w, w * w], axis=1)
    st = sample_stats(data)
    x = np.array([[0.3, 0.1], [0.0, -50.0]])
    u, valid = tstat_pushforward(x, st)
    vals = [int(valid[0] and u[0] <= t) for t in (-3.0, 0.0, 3.0)]
    assert vals == sorted(vals)
    assert int(valid[1] and u[1] <= 0.0) == 0
    assert int(np.sum(~valid)) == 1


def test_tstat_curve_consistent_with_pointwise():
    w = skewed_sample(300, seed=14)[:, 0]
    data = np.stack([w, w * w], axis=1)
    st = sample_stats(data)
    e = empirical_edgeworth(st, 3)
    rng_state = 2718
    grid = np.array([-1.0, 0.0, 1.5])
    vals, ses, sing = edgeworth_tstat_curve(grid, e, st, budget=100_000,
                                            seed=rng_state)
    v0, s0, _ = edgeworth_tstat_curve(np.array([0.0]), e, st, budget=100_000,
                                      seed=rng_state)
    assert vals[1] == pytest.approx(v0[0], abs=1e-12)
    assert np.all(np.diff(vals) > 0)        # CDF-like on this grid
    assert np.all(ses > 0)


def test_tstat_curve_tracks_gaussian_for_gaussian_data():
    rng = np.random.default_rng(15)
    w = rng.standard_normal(400)
    data = np.stack([w, w * w], axis=1)
    st = sample_stats(data)
    e = empirical_edgeworth(st, 3)
    from scipy.stats import norm
    grid = np.linspace(-2, 2, 9)
    vals, ses, _ = edgeworth_tstat_curve(grid, e, st, budget=400_000,
                                         seed=16)
    assert np.max(np.abs(vals - norm.cdf(grid))) < 0.02


def _tstat_curve_setup(n, seed, s=3):
    w = skewed_sample(n, seed=seed)[:, 0]
    data = np.stack([w, w * w], axis=1)
    st = sample_stats(data)
    return st, empirical_edgeworth(st, s)


def _whole_array_tstat_curve(t_grid, e, st, z):
    """The curve as it was computed before chunking: one sort and one
    cumulative sum over all of z."""
    budget = z.shape[0]
    w = e.weight(z)
    u, valid = tstat_pushforward(z, st)
    w_eff = np.where(valid, w, 0.0)
    u_eff = np.where(valid, u, np.inf)
    order = np.argsort(u_eff)
    csum = np.concatenate([[0.0], np.cumsum(w_eff[order])])
    csum_sq = np.concatenate([[0.0], np.cumsum(w_eff[order] ** 2)])
    pos = np.searchsorted(u_eff[order], t_grid, side="right")
    values = csum[pos] / budget
    var = np.maximum(csum_sq[pos] / budget - values ** 2, 0.0) / budget
    return values, np.sqrt(var), int(np.sum(~valid))


def test_tstat_curve_matches_whole_array_reference():
    """Three chunks, the last of 5 points, against one sort over their
    concatenated draws; n = 20 leaves singular points.  The chunk sums add
    in another order than one cumulative sum, so the values agree to
    rounding (measured up to 4e-14 over 40 samples), not bit for bit."""
    n, budget, chunk = 20, 2 * bootstrap._MC_CHUNK + 5, bootstrap._MC_CHUNK
    st, e = _tstat_curve_setup(n, seed=30)
    z = np.concatenate([child_rng(8, 203, ci).standard_normal(
        (min(chunk, budget - ci * chunk), 2)) for ci in range(3)])
    grid = np.arange(-4.0, 4.025, 0.05)
    vals, ses, sing = edgeworth_tstat_curve(grid, e, st, budget=budget,
                                            seed=8, stream_key=(203,))
    ref_vals, ref_ses, ref_sing = _whole_array_tstat_curve(grid, e, st, z)
    assert sing == ref_sing > 0
    assert np.max(np.abs(vals - ref_vals)) < 1e-12
    assert np.max(np.abs(ses - ref_ses)) < 1e-12


def test_tstat_curve_does_not_depend_on_workers(monkeypatch):
    st, e = _tstat_curve_setup(20, seed=31)
    grid = np.linspace(-3.0, 3.0, 25)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(bootstrap, "_available_cpus", lambda: workers)
        runs.append(edgeworth_tstat_curve(
            grid, e, st, budget=3 * bootstrap._MC_CHUNK + 7, seed=9,
            stream_key=(1, 2)))
    for vals, ses, sing in runs[1:]:
        assert np.array_equal(vals, runs[0][0])
        assert np.array_equal(ses, runs[0][1])
        assert sing == runs[0][2]


def test_tstat_curve_memory_does_not_grow_with_budget(monkeypatch):
    """At budget = 2^21 the whole-array curve allocated 208 MB; each of two
    threads now holds one chunk's points and temporaries (about 8 MB)."""
    monkeypatch.setattr(bootstrap, "_available_cpus", lambda: 2)
    st, e = _tstat_curve_setup(300, seed=32)
    tracemalloc.start()
    try:
        edgeworth_tstat_curve(np.linspace(-4.0, 4.0, 161), e, st,
                              budget=2 ** 21, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 12 * bootstrap._MC_CHUNK * 16


@pytest.mark.parametrize("budget", [2.5, 0, -5])
def test_tstat_curve_refuses_a_bad_budget(budget):
    st, e = _tstat_curve_setup(50, seed=33)
    with pytest.raises(ValueError, match="budget must be an integer >= 1"):
        edgeworth_tstat_curve([0.0], e, st, budget=budget, seed=0)


# (n, seed, s): at n = 100 the singular set holds about 1e-3 of mass
_EXACT_CASES = [(100, 40, 3), (200, 41, 4), (400, 42, 3)]
_TGRID = np.arange(-4.0, 4.025, 0.05)


@pytest.mark.parametrize("n,seed,s", _EXACT_CASES)
def test_tstat_exact_agrees_with_a_doubled_rule(n, seed, s):
    st, e = _tstat_curve_setup(n, seed, s)
    vals, _, sing = edgeworth_tstat_exact(_TGRID, e, st)
    (fine,), fine_sing = bootstrap._tstat_quadrature(
        _TGRID, e, st, (2 * bootstrap._GL_NODES,))
    assert np.max(np.abs(vals - fine)) < 1e-12
    assert abs(sing - fine_sing) < 1e-12


@pytest.mark.parametrize("n,seed,s", _EXACT_CASES)
def test_tstat_exact_mass_adds_to_one(n, seed, s):
    """{u <= 1e6} and the singular set {x2 <= x1^2} split the plane up to
    the sliver u > 1e6, and the expansion's total mass is 1."""
    st, e = _tstat_curve_setup(n, seed, s)
    top, _, sing = edgeworth_tstat_exact([1e6], e, st)
    assert abs(top[0] + sing - 1.0) < 1e-12


@pytest.mark.parametrize("n,seed", [(100, 43), (400, 44)])
def test_tstat_exact_matches_monte_carlo(n, seed):
    """The importance-sample curve at 4e6 points is the oracle: within 4 of
    its standard errors at every grid point."""
    st, e = _tstat_curve_setup(n, seed)
    grid = np.arange(-4.0, 4.05, 0.1)
    vals, _, sing = edgeworth_tstat_exact(grid, e, st)
    mc, ses, _ = edgeworth_tstat_curve(grid, e, st, budget=4_000_000,
                                       seed=seed)
    assert np.all(np.abs(vals - mc) < 4 * ses)


def test_tstat_exact_at_zero_is_a_half_space():
    """At t = 0 the region is {a <= 0} = {s1.z <= 0} less its singular
    part, which is below 1e-12 here."""
    n = 400
    st, e = _tstat_curve_setup(n, seed=45)
    vals, _, sing = edgeworth_tstat_exact([0.0], e, st)
    assert abs(sing) < 1e-12
    half = set_measure(e, SetSpec.halfspace(st.root[0], 0.0))
    assert vals[0] == pytest.approx(half, abs=1e-12)


def test_tstat_exact_one_point_and_negative_grids():
    """Each grid point's value does not depend on the rest of the grid:
    a one-point grid, a grid of negative t only and t = 0 read the same
    as on the full grid, across its 16-point blocks."""
    n = 100
    st, e = _tstat_curve_setup(n, seed=46)
    full, full_errs, sing = edgeworth_tstat_exact(_TGRID, e, st)
    neg = _TGRID < 0
    part, part_errs, part_sing = edgeworth_tstat_exact(_TGRID[neg], e, st)
    assert np.allclose(part, full[neg], rtol=0, atol=1e-15)
    assert np.allclose(part_errs, full_errs[neg], rtol=0, atol=1e-15)
    assert part_sing == sing
    for t in (0.0, -2.5, 3.0):
        i = int(np.argmin(np.abs(_TGRID - t)))
        one, _, _ = edgeworth_tstat_exact([_TGRID[i]], e, st)
        assert one.shape == (1,)
        assert one[0] == pytest.approx(full[i], abs=1e-15)
    assert np.all(np.diff(full) > 0)   # CDF-like on this grid


def test_tstat_exact_memory_does_not_grow_with_the_grid():
    """Blocks of 16 grid points keep the node arrays at about 1.6 MB on a
    161-point grid at s = 4; the whole grid at once allocates 11 MB."""
    st, e = _tstat_curve_setup(400, seed=47, s=4)
    tracemalloc.start()
    try:
        edgeworth_tstat_exact(_TGRID, e, st)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# -- deviations -------------------------------------------------------------

def test_enlargement_deviation_properties():
    draws = np.random.default_rng(17).standard_normal(100_000)
    A = SetSpec.halfline(0.0)
    assert enlargement_deviation(A, 0.0, draws) == 0.0
    d1 = enlargement_deviation(A, 0.05, draws)
    d2 = enlargement_deviation(A, 0.10, draws)
    assert 0 <= d1 <= d2
    with pytest.raises(ValueError):
        enlargement_deviation(A, -0.1, draws)


def test_child_rng_streams_are_independent_of_order():
    a = child_rng(5, 1, 2).standard_normal(4)
    b = child_rng(5, 1, 3).standard_normal(4)
    a2 = child_rng(5, 1, 2).standard_normal(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)
