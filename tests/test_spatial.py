import math

import numpy as np
import pytest
from scipy.integrate import quad

from sdhawkes.smc import EngineConfig, ParticleSystem
from sdhawkes.types import GeoPost, Hyperparams, pattern_summary

from oracles import build_stats, spatial_predictive_quadrature
from probes import spatial_term


def test_empty_pattern_density_is_one():
    # a pattern whose posts all had hidden locations, and "new"
    hidden = build_stats(times=[0.0, 1.0], with_location=False)
    assert spatial_term(hidden, 0.5, 3.0, -2.0) == 0.0
    assert spatial_term(None, 0.5, 3.0, -2.0) == 0.0


def test_single_post_at_origin():
    stats = build_stats(times=[0.0], locations=[(0.0, 0.0)])
    assert spatial_term(stats, 0.5, 0.0, 0.0) == pytest.approx(math.log(1.0 / (2.0 * math.pi)))


def test_single_post_matches_quadrature():
    val = spatial_predictive_quadrature([(0.0, 0.0)], 0.5, (0.0, 0.0))
    assert val == pytest.approx(math.log(1.0 / (2.0 * math.pi)), rel=1e-5)


def test_nonfinite_query_rejected():
    system = ParticleSystem(Hyperparams(n_particles=1), EngineConfig())
    system.step(GeoPost(t=0.0, words=[0], x=0.0, y=0.0))
    with pytest.raises(ValueError, match="x, y"):
        system.predictive_logdensity(GeoPost(t=1.0, words=[0], x=math.inf, y=0.0), "spatial")


def test_translation_invariance():
    rng = np.random.default_rng(0)
    pts = rng.normal(0.0, 1.0, size=(6, 2))
    q = np.array([0.7, -0.4])
    shift = np.array([123.4, -77.1])
    stats = build_stats(times=np.arange(6.0), locations=pts)
    stats_shifted = build_stats(times=np.arange(6.0), locations=pts + shift)
    a = spatial_term(stats, 0.2, q[0], q[1])
    b = spatial_term(stats_shifted, 0.2, *(q + shift))
    assert a == pytest.approx(b, rel=1e-9)


def test_rotation_invariance_about_mean():
    rng = np.random.default_rng(1)
    pts = rng.normal(0.0, 1.0, size=(8, 2))
    stats = build_stats(times=np.arange(8.0), locations=pts)
    mean = np.array([stats.mean_x, stats.mean_y])
    radius = 1.3
    vals = []
    for angle in np.linspace(0, 2 * math.pi, 9):
        q = mean + radius * np.array([math.cos(angle), math.sin(angle)])
        vals.append(spatial_term(stats, 0.2, q[0], q[1]))
    assert max(vals) - min(vals) < 1e-9


def test_quadrature_oracle_randomized():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(1, 21))
        pts = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 2.0), size=(n, 2))
        beta = float(rng.uniform(0.05, 2.0))
        q = pts.mean(axis=0) + rng.normal(0, 1.0, size=2)
        stats = build_stats(times=np.arange(float(n)), locations=pts)
        fast = spatial_term(stats, beta, q[0], q[1])
        slow = spatial_predictive_quadrature(pts, beta, q)
        assert abs(fast - slow) / abs(slow) < 1e-4


def test_density_normalizes_over_plane():
    rng = np.random.default_rng(2)
    pts = rng.normal(0.0, 0.7, size=(5, 2))
    stats = build_stats(times=np.arange(5.0), locations=pts)
    beta = 0.3

    def radial(rad):
        q = (stats.mean_x + rad, stats.mean_y)
        return math.exp(spatial_term(stats, beta, *q)) * 2 * math.pi * rad

    mass, _ = quad(radial, 0.0, 400.0, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_chain_rule_exchangeability():
    rng = np.random.default_rng(3)
    pts = rng.normal(0.0, 1.0, size=(5, 2))
    beta = 0.4

    def joint_log(order):
        stats = build_stats(psi_tau=(1.0,))
        total = 0.0
        for idx in order:
            x, y = pts[idx]
            total += spatial_term(stats, beta, x, y)
            stats.attach(float(stats.n_posts), [0], x, y, (1.0,))
        return total

    base = joint_log(range(5))
    for order in [(4, 3, 2, 1, 0), (2, 0, 4, 1, 3)]:
        assert joint_log(order) == pytest.approx(base, abs=1e-8)


def point_estimate(stats):
    return pattern_summary(stats, 0.1).mean


def scale_estimate(stats, beta_space):
    return pattern_summary(stats, beta_space).scale


def test_point_estimate():
    stats = build_stats(times=[0.0], locations=[(1.0, 2.0)])
    assert point_estimate(stats) == pytest.approx((1.0, 2.0))
    stats2 = build_stats(times=[0.0, 1.0], locations=[(0.0, 0.0), (4.0, 0.0)])
    assert point_estimate(stats2) == pytest.approx((2.0, 0.0))


def test_point_estimate_statistical():
    rng = np.random.default_rng(4)
    pts = rng.normal(5.0, 0.5, size=(100, 2))
    stats = build_stats(times=np.arange(100.0), locations=pts)
    est = point_estimate(stats)
    tol = 3 * 0.5 / 10.0
    assert abs(est[0] - 5.0) < tol and abs(est[1] - 5.0) < tol


def test_scale_estimate():
    stats = build_stats(times=[0.0], locations=[(3.0, 1.0)])
    assert scale_estimate(stats, 0.5) == pytest.approx(math.sqrt(0.5))
    stats2 = build_stats(times=[0.0, 1.0], locations=[(0.0, 0.0), (2.0, 0.0)])
    assert scale_estimate(stats2, 1e-12) == pytest.approx(math.sqrt(0.5), rel=1e-6)


def test_scale_shrinks_with_duplicate_mean():
    stats = build_stats(times=[0.0, 1.0], locations=[(0.0, 0.0), (2.0, 0.0)])
    before = scale_estimate(stats, 0.1)
    stats.attach(2.0, [0], 1.0, 0.0, (1.0,))
    after = scale_estimate(stats, 0.1)
    assert after < before


def test_estimates_require_located_posts():
    with pytest.raises(ValueError):
        pattern_summary(build_stats(), 0.1)
    hidden = pattern_summary(build_stats(times=[0.0, 1.0], with_location=False), 0.1)
    assert all(math.isnan(v) for v in hidden.mean)
    assert math.isnan(hidden.scale)
