import math

import numpy as np
import pytest

from edgelab.cramer import (CharFunctionHandle, _wrap_sq, c_kr_estimate,
                            c_r_lower_bound, eval_cf, failure_prob_bound,
                            mean_weak_cramer_scan, scan_grid,
                            ustat_certificate, weak_cramer_scan)


def gaussian_handle(d=1):
    return CharFunctionHandle(
        d, cf=lambda T: np.exp(-0.5 * np.sum(np.asarray(T) ** 2, axis=1)))


# -- handles ----------------------------------------------------------------

def test_handle_requires_exactly_one_source():
    with pytest.raises(ValueError):
        CharFunctionHandle(1)
    with pytest.raises(ValueError):
        CharFunctionHandle(1, points=np.zeros((3, 1)), cf=lambda T: T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_handle_rejects_non_finite_points(bad):
    pts = np.array([[0.5, 0.1], [0.2, bad]])
    with pytest.raises(ValueError, match="finite"):
        CharFunctionHandle.from_points(pts)


def test_one_dimensional_array_is_points_on_the_line():
    vals = np.array([0.1, 0.5, 0.9])
    h = CharFunctionHandle.from_points(vals)
    assert h.dimension == 1 and h.points.shape == (3, 1)
    S_flat, _ = ustat_certificate(vals, [2.0], b=1.0, R=1.0)
    S_col, _ = ustat_certificate(vals[:, None], [2.0], b=1.0, R=1.0)
    assert S_flat == S_col
    assert c_kr_estimate(vals, k=0, r=0.5) == c_kr_estimate(vals[:, None],
                                                            k=0, r=0.5)


def test_empirical_cf_at_zero_is_one():
    rng = np.random.default_rng(0)
    h = CharFunctionHandle.from_points(rng.normal(size=(40, 2)))
    assert eval_cf(h, [0.0, 0.0]) == pytest.approx(1.0)


def test_empirical_cf_matches_direct_sum():
    pts = np.array([[0.1], [0.5], [-1.2]])
    h = CharFunctionHandle.from_points(pts)
    t = 0.8
    direct = np.mean(np.exp(1j * t * pts[:, 0]))
    assert eval_cf(h, [t]) == pytest.approx(direct)


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


def test_fibonacci_sphere_is_unit():
    _, dirs = scan_grid(3, 1.0, 10.0, n_radii=4)
    assert dirs.shape == (256, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


# -- scans ------------------------------------------------------------------

def test_gaussian_is_certified():
    cert = weak_cramer_scan(gaussian_handle(), b=1.0, R=1.0, T_max=50.0)
    assert cert.status == "certified-on-grid"
    # slack is minimized at the inner edge: (1 - e^{-R^2/2}) R^1
    assert cert.c == pytest.approx((1 - math.exp(-0.5)) * 1.0, rel=1e-3)


def test_violation_when_target_too_large():
    cert = weak_cramer_scan(gaussian_handle(), b=1.0, R=1.0, T_max=50.0,
                            c=0.9)
    assert cert.status == "violated"
    assert cert.witness is not None
    assert cert.witness_modulus == pytest.approx(
        math.exp(-0.5 * np.sum(np.array(cert.witness) ** 2)), rel=1e-6)


def test_lattice_spike_located():
    """Integer-valued data: |cf| returns to 1 at t = 2 pi."""
    rng = np.random.default_rng(1)
    pts = (rng.random(200) < 0.5).astype(float)[:, None]
    h = CharFunctionHandle.from_points(pts)
    cert = weak_cramer_scan(h, b=1.0, R=1.0, T_max=200.0, c=1e-6)
    assert cert.status == "violated"
    assert cert.witness_modulus >= 1 - 1e-10
    t_star = abs(cert.witness[0])
    assert min(abs(t_star - 2 * math.pi * k) for k in range(1, 33)) < 1e-5


def test_evidence_covers_every_radius():
    cert = weak_cramer_scan(gaussian_handle(), b=1.0, R=1.0, T_max=10.0,
                            n_radii=32)
    assert len(cert.evidence) == 32
    assert all({"t", "modulus", "slack"} <= set(rec) for rec in cert.evidence)


def test_scan_is_scale_covariant():
    """Scaling the data by a scales witness frequencies by 1/a."""
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(60, 1))
    a = 2.0
    h1 = CharFunctionHandle.from_points(pts)
    h2 = CharFunctionHandle.from_points(a * pts)
    m1 = h1.modulus(np.array([[1.0]]))
    m2 = h2.modulus(np.array([[1.0 / a]]))
    assert m1[0] == pytest.approx(m2[0], rel=1e-12)


def test_mean_scan_averages_moduli():
    h = gaussian_handle()
    single = weak_cramer_scan(h, 1.0, 1.0, 20.0, n_radii=64)
    double = mean_weak_cramer_scan([h, h], 1.0, 1.0, 20.0, n_radii=64)
    assert double.c == pytest.approx(single.c, rel=1e-12)
    with pytest.raises(ValueError):
        mean_weak_cramer_scan([], 1.0, 1.0, 20.0)


@pytest.mark.parametrize("b", [-1.0, 0.0])
def test_both_scans_refuse_nonpositive_b(b):
    h = CharFunctionHandle.from_points([0.0, 1.0, math.sqrt(2.0)])
    with pytest.raises(ValueError, match="b must be > 0"):
        weak_cramer_scan(h, b=b, R=1.0, T_max=20.0)
    with pytest.raises(ValueError, match="b must be > 0"):
        mean_weak_cramer_scan([h], b=b, R=1.0, T_max=20.0)


# -- wrapped-square certificates --------------------------------------------

def test_xi_wrap_range_and_exactness():
    rng = np.random.default_rng(3)
    for _ in range(200):
        w = rng.uniform(-40, 40)
        xi = _wrap_sq(np.array([w]))[0]
        brute = min((w - 2 * math.pi * q) ** 2 for q in range(-10, 11))
        assert 0.0 <= xi <= math.pi ** 2 + 1e-12
        assert xi == pytest.approx(brute, abs=1e-10)


def test_xi_wrap_at_multiples_is_zero():
    assert _wrap_sq(np.array([4 * math.pi]))[0] == pytest.approx(0.0,
                                                              abs=1e-20)


def test_ustat_soundness_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 3))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.2, 3)
        t = rng.normal(size=d) * 3
        S, rec = ustat_certificate(pts, t, b=1.0, R=1.0)
        assert rec["holds"]
        assert rec["one_minus_modulus"] >= S - 1e-12


def test_ustat_tight_for_antipodal_points():
    # two points pi apart: every cross pair wraps to the full pi^2
    pts = np.array([[0.0], [math.pi]])
    S, rec = ustat_certificate(pts, [1.0], b=1.0, R=0.5)
    assert S == pytest.approx(1.0)
    assert rec["one_minus_modulus"] == pytest.approx(1.0)


def test_c_kr_worked_example():
    # pair gap 0.3 inside (0, 0.5] anchored at 0 gives 0.09; the two
    # ordered pairs average to 0.045
    pts = np.array([[0.0], [0.3]])
    assert c_kr_estimate(pts, k=0, r=0.5) == pytest.approx(0.045)


def test_c_kr_odd_anchor():
    # gap 0.8 in (0.5, 1.0], odd k anchors at r(k+1) = 1.0
    pts = np.array([[0.0], [0.8]])
    val = c_kr_estimate(pts, k=1, r=0.5)
    assert val == pytest.approx((0.8 - 1.0) ** 2 / 2)


def test_c_kr_validation():
    with pytest.raises(ValueError):
        c_kr_estimate(np.zeros((2, 1)), k=0, r=0.0)
    with pytest.raises(ValueError):
        c_kr_estimate(np.zeros((1, 1)), k=0, r=1.0)


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


def test_c_r_lower_bound_rejects_small_frequencies():
    with pytest.raises(ValueError):
        c_r_lower_bound(np.zeros((3, 1)), R=2.0,
                        t_grid=np.array([[1.0], [3.0]]))


def test_failure_prob_bound_validation():
    with pytest.raises(ValueError):
        failure_prob_bound(0.0, 10)
    with pytest.raises(ValueError):
        failure_prob_bound(0.5, 0)
