import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from edgelab import cramer
from edgelab.cramer import (CharFunctionHandle, _atoms, _pairwise_xi_mean,
                            c_r_lower_bound, eval_cf, failure_prob_bound,
                            mean_weak_cramer_scan, scan_grid,
                            ustat_certificate, weak_cramer_scan)


class GaussianCf:
    """The standard Gaussian law in R^d as the scans read a handle: its
    dimension and |cf(t)| = exp(-||t||^2 / 2) for each row t of T.
    ``rows`` records how many frequencies each call asked for."""

    def __init__(self, d=1):
        self.dimension = d
        self.rows = []

    def modulus(self, T):
        self.rows.append(T.shape[0])
        return np.exp(-0.5 * np.sum(np.asarray(T) ** 2, axis=1))


def wrap_sq(w):
    """Elementwise inf over integers q of (w - 2 pi q)^2; ties go to +pi."""
    y = w - 2 * math.pi * np.ceil(w / (2 * math.pi) - 0.5)
    return y * y


def pairwise_xi_mean_reference(points, t):
    """The O(n^2) mean wrapped square over ordered pairs i != j."""
    proj = points @ t
    xi = wrap_sq(proj[:, None] - proj[None, :])
    n = points.shape[0]
    return float((xi.sum() - np.trace(xi)) / (n * (n - 1)))


def pairwise_xi_mean(points, T):
    pts = np.asarray(points, dtype=float)
    return _pairwise_xi_mean(*_atoms(pts), pts.shape[0], np.atleast_2d(T))


# -- handles ----------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_handle_rejects_non_finite_points(bad):
    pts = np.array([[0.5, 0.1], [0.2, bad]])
    with pytest.raises(ValueError, match="finite"):
        CharFunctionHandle(pts)


def test_one_dimensional_array_is_points_on_the_line():
    vals = np.array([0.1, 0.5, 0.9])
    h = CharFunctionHandle(vals)
    assert h.dimension == 1 and h.points.shape == (3, 1)
    S_flat, _ = ustat_certificate(h, [2.0], b=1.0, R=1.0)
    S_col, _ = ustat_certificate(CharFunctionHandle(vals[:, None]),
                                 [2.0], b=1.0, R=1.0)
    assert S_flat == S_col


def test_empirical_cf_at_zero_is_one():
    rng = np.random.default_rng(0)
    h = CharFunctionHandle(rng.normal(size=(40, 2)))
    assert eval_cf(h, [0.0, 0.0]) == pytest.approx(1.0)


def test_atoms_weigh_repeated_rows():
    pts = np.array([[0.5, 1.0], [0.0, 2.0], [0.5, 1.0], [0.5, 1.0]])
    atoms, w = _atoms(pts)
    table = {tuple(a): wk for a, wk in zip(atoms, w)}
    assert table == {(0.5, 1.0): 0.75, (0.0, 2.0): 0.25}


def test_empirical_cf_matches_direct_sum():
    pts = np.array([[0.1], [0.5], [-1.2]])
    h = CharFunctionHandle(pts)
    t = 0.8
    direct = np.mean(np.exp(1j * t * pts[:, 0]))
    assert eval_cf(h, [t]) == pytest.approx(direct)


@pytest.mark.parametrize("block", [None, 200])
def test_blocked_kernels_match_direct_sums_on_repeated_rows(block,
                                                            monkeypatch):
    """Atom weights and frequency blocks give the plain mean of exp(i t'x)
    and the pair loop's mean; a block of 200 elements holds 6 frequencies
    of the cf and 3 of the pair sums over the 30 atoms."""
    if block is not None:
        monkeypatch.setattr(cramer, "_BLOCK", block)
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(30, 2))[rng.integers(0, 30, 500)]
    T = rng.uniform(-50, 50, size=(1000, 2))
    h = CharFunctionHandle(pts)
    assert h.atoms.shape == (30, 2) and h.points.shape == (500, 2)
    direct = np.exp(1j * T @ pts.T).mean(axis=1)
    assert np.max(np.abs(h.values(T) - direct)) <= 1e-14
    pairs = _pairwise_xi_mean(h.atoms, h.weights, 500, T[:40])
    ref = [pairwise_xi_mean_reference(pts, t) for t in T[:40]]
    assert np.max(np.abs(pairs - ref)) <= 1e-12 * np.pi ** 2


# -- grids ------------------------------------------------------------------

def test_scan_grid_shapes():
    radii, dirs = scan_grid(2, 1.0, 50.0, n_radii=100)
    assert radii.shape == (100,)
    assert radii[0] > 1.0 and radii[-1] == pytest.approx(50.0)
    assert dirs.shape == (64, 2)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_scan_grid_validation():
    with pytest.raises(ValueError):
        scan_grid(1, 5.0, 2.0)
    with pytest.raises(ValueError):
        scan_grid(4, 1.0, 10.0)
    for d in (1, 2, 3):
        for n_dirs in (0, -3):
            with pytest.raises(ValueError, match="scan direction"):
                scan_grid(d, 1.0, 10.0, n_dirs=n_dirs)


@pytest.mark.parametrize("m", [2, 4, 10, 64])
def test_even_plane_grid_is_antipodal(m):
    """The second half of an even 2-d grid is the exact negation of the
    first, so the scan may evaluate the first half only."""
    dirs = cramer._directions(2, m)
    assert np.array_equal(dirs[m // 2:], -dirs[:m // 2])
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    ang = 2 * math.pi * (np.arange(m // 2) + 0.5) / m
    assert np.array_equal(dirs[:m // 2],
                          np.stack([np.cos(ang), np.sin(ang)], axis=1))


@pytest.mark.parametrize("m", [1, 3, 7, 63])
def test_odd_plane_grid_is_the_angle_grid(m):
    ang = 2 * math.pi * (np.arange(m) + 0.5) / m
    assert np.array_equal(cramer._directions(2, m),
                          np.stack([np.cos(ang), np.sin(ang)], axis=1))


def test_direction_count_is_refused_in_one_dimension():
    """The 1-d grid is +1 and -1; a count used to be ignored."""
    for n_dirs in (1, 2, 7):
        with pytest.raises(ValueError, match="--grid-dirs"):
            scan_grid(1, 1.0, 10.0, n_dirs=n_dirs)


def test_fibonacci_sphere_is_unit():
    _, dirs = scan_grid(3, 1.0, 10.0, n_radii=4)
    assert dirs.shape == (256, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


# -- scans ------------------------------------------------------------------

def test_gaussian_is_certified():
    cert = weak_cramer_scan(GaussianCf(), b=1.0, R=1.0, T_max=50.0)
    assert cert.status == "certified-on-grid"
    # slack is minimized at the inner edge: (1 - e^{-R^2/2}) R^1
    assert cert.c == pytest.approx((1 - math.exp(-0.5)) * 1.0, rel=1e-3)


def test_violation_when_target_too_large():
    cert = weak_cramer_scan(GaussianCf(), b=1.0, R=1.0, T_max=50.0,
                            c=0.9)
    assert cert.status == "violated"
    assert cert.witness is not None
    assert cert.witness_modulus == pytest.approx(
        math.exp(-0.5 * np.sum(np.array(cert.witness) ** 2)), rel=1e-6)


def test_lattice_spike_located():
    """Integer-valued data: |cf| returns to 1 at t = 2 pi."""
    rng = np.random.default_rng(1)
    pts = (rng.random(200) < 0.5).astype(float)[:, None]
    h = CharFunctionHandle(pts)
    cert = weak_cramer_scan(h, b=1.0, R=1.0, T_max=200.0, c=1e-6)
    assert cert.status == "violated"
    assert cert.witness_modulus >= 1 - 1e-10
    t_star = abs(cert.witness[0])
    assert min(abs(t_star - 2 * math.pi * k) for k in range(1, 33)) < 1e-5


def test_evidence_covers_every_radius():
    cert = weak_cramer_scan(GaussianCf(), b=1.0, R=1.0, T_max=10.0,
                            n_radii=32)
    assert len(cert.evidence) == 32
    assert all({"t", "modulus", "slack"} <= set(rec) for rec in cert.evidence)


@pytest.mark.parametrize("kind", ["lattice", "non-lattice"])
def test_evidence_matches_a_per_radius_reference(kind):
    """One record per radius: the first direction of least slack, as a
    loop over the radii picks it.  On 1-d lattice data the two directions
    tie at every radius."""
    rng = np.random.default_rng(7)
    if kind == "lattice":
        pts = rng.integers(0, 3, size=(120, 1)).astype(float)
    else:
        pts = rng.standard_normal((150, 2)) @ [[1.0, 0.3], [0.0, 1.2]]
    h = CharFunctionHandle(pts)
    d = pts.shape[1]
    cert = weak_cramer_scan(h, b=1.0, R=1.0, T_max=40.0, n_radii=64)
    radii, dirs = scan_grid(d, 1.0, 40.0, 64, None)
    T = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    mod = np.minimum(h.modulus(T), 1.0).reshape(radii.size, -1)
    slack = (1.0 - mod) * radii[:, None]
    reference = []
    for i in range(radii.size):
        j = int(np.argmin(slack[i]))
        reference.append({"t": [float(v) for v in radii[i] * dirs[j]],
                          "modulus": float(mod[i, j]),
                          "slack": float(slack[i, j])})
    if kind == "lattice":
        assert np.all(slack[:, 0] == slack[:, 1])
    assert cert.evidence == reference


def test_scan_is_scale_covariant():
    """Scaling the data by a scales witness frequencies by 1/a."""
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(60, 1))
    a = 2.0
    h1 = CharFunctionHandle(pts)
    h2 = CharFunctionHandle(a * pts)
    m1 = h1.modulus(np.array([[1.0]]))
    m2 = h2.modulus(np.array([[1.0 / a]]))
    assert m1[0] == pytest.approx(m2[0], rel=1e-12)


def test_mean_scan_averages_moduli():
    h = GaussianCf()
    single = weak_cramer_scan(h, 1.0, 1.0, 20.0, n_radii=64)
    double = mean_weak_cramer_scan([h, h], 1.0, 1.0, 20.0, n_radii=64)
    assert double.c == pytest.approx(single.c, rel=1e-12)
    with pytest.raises(ValueError):
        mean_weak_cramer_scan([], 1.0, 1.0, 20.0)


def bowl_modulus(r0, calls):
    """A 1-d modulus whose slack at b = 1 is 0.5 + ((r - r0) / r0)^2."""
    def modulus(T):
        r = abs(float(T[0, 0]))
        calls.append(r)
        return np.array([1.0 - (0.5 + ((r - r0) / r0) ** 2) / r])
    return modulus


@pytest.mark.parametrize("r0", [1.23e-3, 7.5, 1e6 + 0.25])
def test_refine_finds_the_minimum_and_stops(r0):
    calls = []
    modulus = bowl_modulus(r0, calls)
    r, m, slack = cramer._refine_radius(modulus, np.array([1.0]), 1.0,
                                        0.7 * r0, 1.5 * r0)
    # rounding in 1 - |cf| blurs the minimum, most near 1e6
    assert abs(r - r0) <= 1e-4 * r0
    assert slack == pytest.approx(0.5, abs=1e-8)
    assert m == modulus(np.array([[r]]))[0]
    # the sqrt(eps) r + 1e-12 bracket rule ends the search, not the cap
    assert len(calls) < 60


def test_refine_step_cap_bounds_the_search(monkeypatch):
    """Without the sqrt(eps) term the 1e-12 bracket is finer than the
    float spacing near 1e6 (1.2e-10); the step cap still ends the
    search."""
    monkeypatch.setattr(cramer, "_SQRT_EPS", 0.0)
    calls = []
    cramer._refine_radius(bowl_modulus(1e6, calls), np.array([1.0]), 1.0,
                          0.7e6, 1.5e6)
    assert len(calls) == cramer._REFINE_STEPS + 2


# -- half-shell scans -------------------------------------------------------

def full_shell_scan(modulus_fn, d, b, R, T_max, n_radii, n_dirs=None):
    """The scan with |cf| evaluated at every grid direction: the grid
    minimum over the whole shell, refined along its direction; returns
    (status, c)."""
    radii, dirs = scan_grid(d, R, T_max, n_radii, n_dirs)
    T = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    mod = np.minimum(modulus_fn(T), 1.0).reshape(radii.size, -1)
    slack = (1.0 - mod) * radii[:, None] ** b
    i, j = np.unravel_index(np.argmin(slack), slack.shape)
    best_mod, best_slack = mod[i, j], slack[i, j]
    r_lo = radii[i - 1] if i > 0 else R
    _, m, s = cramer._refine_radius(modulus_fn, dirs[j], b, r_lo,
                                    radii[min(i + 1, radii.size - 1)])
    if s < best_slack:
        best_mod, best_slack = m, s
    return ("no-margin" if 1.0 - best_mod <= 1e-12
            else "certified-on-grid"), float(best_slack)


def assert_matches_full_shell(cert, modulus_fn, d, b, T_max, n_radii,
                              n_dirs=None):
    status, c = full_shell_scan(modulus_fn, d, b, 1.0, T_max, n_radii,
                                n_dirs)
    assert cert.status == status
    # a margin at the rounding of |cf| (a lattice) is compared absolutely
    assert cert.c == pytest.approx(c, rel=1e-12, abs=1e-14)
    # a one-row evaluation may round t'a differently from the grid's block
    w = np.asarray(cert.witness)
    assert cert.witness_modulus == pytest.approx(
        float(modulus_fn(w[None, :])[0]), rel=0.0, abs=1e-13)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["generic", "lattice", "near-lattice"]),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=6),
       st.sampled_from([0.5, 1.0, 2.0]),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_half_shell_scan_matches_full_shell(kind, d, k, b, seed):
    """Random atoms with random integer weights: the scan of the first
    half of the antipodal grid gives the full shell's status and margin,
    and its witness modulus is |cf| at the witness."""
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(-2, 2, size=(k, d))
    if kind != "generic":
        atoms = np.round(atoms * 2) / 2
    if kind == "near-lattice":
        atoms = atoms + 1e-6 * rng.standard_normal((k, d))
    h = CharFunctionHandle(
        np.repeat(atoms, rng.integers(1, 5, size=k), axis=0))
    cert = weak_cramer_scan(h, b, 1.0, 30.0, n_radii=48)
    assert_matches_full_shell(cert, h.modulus, d, b, 30.0, 48)
    # the scanned half: t > 0 in d = 1, angles in (0, pi) in d = 2
    assert all(t[-1] > 0 for t in
               [rec["t"] for rec in cert.evidence] + [cert.witness])


@pytest.mark.parametrize("d, n_dirs, scanned", [
    (1, None, 1), (2, None, 32), (2, 10, 5), (2, 7, 7), (3, None, 256)])
def test_analytic_and_mean_scans_evaluate_half_an_antipodal_grid(
        d, n_dirs, scanned):
    """A Gaussian law and the mean of empirical moduli scan one direction
    of each antipodal pair; an odd count and the Fibonacci sphere, which
    have no antipodes, scan every direction."""
    gauss = GaussianCf(d)
    cert = weak_cramer_scan(gauss, 1.0, 1.0, 6.0, 24, n_dirs)
    assert gauss.rows[0] == 24 * scanned    # the grid; then the refinement
    assert_matches_full_shell(cert, GaussianCf(d).modulus, d, 1.0, 6.0, 24,
                              n_dirs)

    rng = np.random.default_rng(5)
    hs = [CharFunctionHandle(rng.exponential(size=(20, d)))
          for _ in range(2)]

    def mean_modulus(T):
        return sum(h.modulus(T) for h in hs) / len(hs)

    cert = mean_weak_cramer_scan(hs, 1.0, 1.0, 30.0, 24, n_dirs)
    assert_matches_full_shell(cert, mean_modulus, d, 1.0, 30.0, 24, n_dirs)


# The benchmark's certify data: 300 draws from six 2-d atoms, no two
# differences on a common lattice, and 60 points of a 1-d lattice.
CERTIFY_ATOMS = np.array([
    [0.0, 0.0], [1.0, math.sqrt(2)], [math.sqrt(3), 0.5],
    [-math.sqrt(5) / 2, 1.0], [math.pi / 3, -math.sqrt(7) / 3],
    [math.e / 2, math.sqrt(11) / 4]])


def bounded_refine_reference(modulus_fn, direction, b, r_lo, r_hi):
    """The refinement by scipy's bounded minimization."""
    def slack(r):
        m = float(modulus_fn((r * direction)[None, :])[0])
        return (1.0 - min(m, 1.0)) * r ** b
    r = float(minimize_scalar(slack, bounds=(r_lo, r_hi), method="bounded",
                              options={"xatol": 1e-12}).x)
    m = float(modulus_fn((r * direction)[None, :])[0])
    return r, m, (1.0 - min(m, 1.0)) * r ** b


@pytest.mark.parametrize("seed", [1, 7])
def test_refined_margin_matches_bounded_minimization(seed, monkeypatch):
    rng = np.random.default_rng([seed, zlib.crc32(b"certify")])
    h2 = CharFunctionHandle(
        CERTIFY_ATOMS[rng.integers(0, len(CERTIFY_ATOMS), 300)])
    h1 = CharFunctionHandle((np.arange(60) % 5).astype(float))
    ours = [weak_cramer_scan(h2, 1.0, 1.0, 200.0),
            weak_cramer_scan(h1, 1.0, 1.0, 50.0)]
    monkeypatch.setattr(cramer, "_refine_radius", bounded_refine_reference)
    ref = [weak_cramer_scan(h2, 1.0, 1.0, 200.0),
           weak_cramer_scan(h1, 1.0, 1.0, 50.0)]
    assert ours[0].status == ref[0].status == "certified-on-grid"
    assert ours[0].c == pytest.approx(ref[0].c, rel=1e-12, abs=0)
    # the witness radius is located only to about sqrt(eps) relative
    assert np.allclose(ours[0].witness, ref[0].witness, rtol=1e-7, atol=0)
    # the lattice spike: both find |cf| = 1 and no margin
    assert ours[1].status == ref[1].status == "no-margin"
    assert 0.0 <= ours[1].c <= 1e-12 and 0.0 <= ref[1].c <= 1e-12


def test_both_scans_refuse_an_infinite_target_margin():
    h = CharFunctionHandle([0.0, 1.0, math.sqrt(2.0)])
    for scan, arg in ((weak_cramer_scan, h), (mean_weak_cramer_scan, [h])):
        with pytest.raises(ValueError, match="c must be > 0 and finite"):
            scan(arg, b=1.0, R=1.0, T_max=20.0, c=math.inf)


@pytest.mark.parametrize("b", [-1.0, 0.0])
def test_both_scans_refuse_nonpositive_b(b):
    h = CharFunctionHandle([0.0, 1.0, math.sqrt(2.0)])
    with pytest.raises(ValueError, match="b must be > 0"):
        weak_cramer_scan(h, b=b, R=1.0, T_max=20.0)
    with pytest.raises(ValueError, match="b must be > 0"):
        mean_weak_cramer_scan([h], b=b, R=1.0, T_max=20.0)


# -- wrapped-square certificates --------------------------------------------

def test_xi_wrap_range_and_exactness():
    # two points w apart at t = 1: each ordered pair adds the wrapped square
    rng = np.random.default_rng(3)
    for _ in range(200):
        w = rng.uniform(-40, 40)
        xi = pairwise_xi_mean([[0.0], [w]], [[1.0]])[0]
        brute = min((w - 2 * math.pi * q) ** 2 for q in range(-10, 11))
        assert 0.0 <= xi <= math.pi ** 2 + 1e-12
        assert xi == pytest.approx(brute, abs=1e-10)


def test_xi_wrap_at_multiples_is_zero():
    assert pairwise_xi_mean([[0.0], [4 * math.pi]], [[1.0]])[0] == \
        pytest.approx(0.0, abs=1e-20)


def _points(kind, n, d, rng):
    if kind == "random":
        return rng.uniform(-2, 2, size=(n, d))
    if kind == "lattice":
        return 0.4 * rng.integers(-5, 6, size=(n, d))
    if kind == "atoms":
        return rng.uniform(-2, 2, size=(3, d))[rng.integers(0, 3, n)]
    return np.tile(rng.uniform(-2, 2, size=(1, d)), (n, 1))


@settings(deadline=None)
@given(st.sampled_from(["random", "lattice", "atoms", "equal"]),
       st.integers(min_value=2, max_value=60),
       st.integers(min_value=1, max_value=3),
       st.floats(min_value=0.0, max_value=200.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_sorted_window_matches_pair_loop(kind, n, d, radius, seed):
    """The sorted-window pair sum equals the O(n^2) loop at every t."""
    rng = np.random.default_rng(seed)
    pts = _points(kind, n, d, rng)
    u = rng.normal(size=(5, d))
    T = radius * u / np.linalg.norm(u, axis=1, keepdims=True)
    got = pairwise_xi_mean(pts, T)
    for t, g in zip(T, got):
        ref = pairwise_xi_mean_reference(pts, t)
        assert abs(g - ref) <= 1e-12 * max(1.0, abs(ref))


def test_ustat_soundness_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 3))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.2, 3)
        t = rng.normal(size=d) * 3
        S, rec = ustat_certificate(CharFunctionHandle(pts), t,
                                   b=1.0, R=1.0)
        assert rec["holds"]
        assert rec["one_minus_modulus"] >= S - 1e-12


def test_ustat_tight_for_antipodal_points():
    # two points pi apart: every cross pair wraps to the full pi^2
    pts = np.array([[0.0], [math.pi]])
    S, rec = ustat_certificate(CharFunctionHandle(pts), [1.0],
                               b=1.0, R=0.5)
    assert S == pytest.approx(1.0)
    assert rec["one_minus_modulus"] == pytest.approx(1.0)


def test_c_r_lower_bound_and_prob():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(80, 1))
    grid = np.linspace(1.5, 30, 40)[:, None]
    val, t_star = c_r_lower_bound(pts, R=1.0, t_grid=grid)
    assert val > 0
    assert np.linalg.norm(t_star) > 1.0
    p = failure_prob_bound(val, 80)
    assert 0 < p < 1
    assert p == pytest.approx(math.exp(-val ** 2 * 80 / 2))


def test_c_r_lower_bound_in_memory_linear_in_n():
    """2e5 normal points: a pair matrix would need 320 GB per frequency,
    the sorted windows O(n).  For X, Y independent N(0, I), t'(X - Y) is
    N(0, 2 |t|^2), so the pair mean is near E wrap_sq(N(0, 2 |t|^2))."""
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(200_000, 2))
    grid = np.array([[1.2, 0.0], [0.0, 1.5], [-1.0, 1.4], [3.0, -1.0]])
    val, t_star = c_r_lower_bound(pts, R=1.0, t_grid=grid)
    z = np.linspace(-12, 12, 200_001)
    density = np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    law = [np.sum(wrap_sq(math.sqrt(2) * np.linalg.norm(t) * z) * density)
           * (z[1] - z[0]) for t in grid]
    assert val == pytest.approx(max(law) / (2 * math.pi ** 2), abs=2e-3)
    assert np.array_equal(t_star, grid[int(np.argmax(law))])


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_frequency_kernels_work_in_cache_sized_blocks():
    """On 2,000 distinct atoms both kernels hold one block of about 2^14
    frequency-by-atom elements at a time: the cf over 16,384 frequencies
    peaked at 0.52 MB (its 0.26 MB output included) and the pair sums
    over 512 frequencies at 1.5 MB.  Blocks of 2^18 elements peaked at
    4.5 and 24 MB."""
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(2000, 2))
    h = CharFunctionHandle(pts)
    assert h.atoms.shape == (2000, 2)
    T = rng.uniform(-100, 100, size=(16384, 2))
    grid = rng.uniform(2, 100, size=(512, 2))
    assert _traced_peak(h.values, T) < 2 ** 20
    assert _traced_peak(c_r_lower_bound, pts, 1.0, grid) < 3 * 2 ** 20


def test_c_r_lower_bound_rejects_small_frequencies():
    with pytest.raises(ValueError):
        c_r_lower_bound(np.zeros((3, 1)), R=2.0,
                        t_grid=np.array([[1.0], [3.0]]))


def test_failure_prob_bound_validation():
    with pytest.raises(ValueError):
        failure_prob_bound(0.0, 10)
    for c_R in (math.nan, math.inf):
        with pytest.raises(ValueError, match="c_R must be > 0 and finite"):
            failure_prob_bound(c_R, 10)
    with pytest.raises(ValueError):
        failure_prob_bound(0.5, 0)
