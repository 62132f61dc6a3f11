import math

import numpy as np
import pytest
from scipy.integrate import dblquad

from sdhawkes.baselines import (
    GmmModel,
    fit_isotropic_gmm,
    gmm_predictive_logdensity,
)
from sdhawkes.evaluation import GmmStreamPredictor
from sdhawkes.generate import SynthConfig, generate
from sdhawkes.smc import EngineConfig, ParticleSystem
from sdhawkes.types import GeoPost, Hyperparams


def base_hyper(**kw):
    defaults = dict(lambda0=10.0, theta0=1.0, beta_space=0.01, alpha_time=0.1,
                    beta_time=0.2, psi_tau=(1.0,), vocab_size=15, n_particles=4)
    defaults.update(kw)
    return Hyperparams(**defaults)


def run_spatial_off(posts, hyper, seed):
    system = ParticleSystem(hyper, EngineConfig(seed=seed, spatial=False))
    return system.run(posts).map_estimate()


def test_dhp_single_word_vocab_reduces_to_prior():
    # with V=1 the content factor is constant, so DHP sampling follows the
    # temporal prior; the strict check on the proposal lives in test_smc
    hyper = base_hyper(vocab_size=1, n_particles=1)
    posts = generate(SynthConfig(hyper=base_hyper(vocab_size=1), n_posts=60,
                                 n_words=1, seed=22, sigma0=0.1)).posts
    result = run_spatial_off(posts, hyper, seed=22)
    assert len(result.assignments) == 60


def test_dhp_ignores_location():
    hyper = base_hyper(n_particles=2)
    cfg = SynthConfig(hyper=hyper, n_posts=120, seed=23, sigma0=0.02)
    posts = generate(cfg).posts
    moved = [type(p)(t=p.t, words=p.words, x=p.x + 100.0, y=p.y - 50.0,
                     label_true=p.label_true) for p in posts]
    a = run_spatial_off(posts, hyper, seed=23)
    b = run_spatial_off(moved, hyper, seed=23)
    assert a.assignments == b.assignments


def test_shared_location_proposals_coincide_on_existing():
    # when every existing pattern has identical spatial statistics, the
    # spatial factor is a single constant across them, so SDHP and DHP
    # proposal odds between existing patterns match
    from sdhawkes.smc import ParticleSystem, proposal_distribution
    from sdhawkes.types import GeoPost, Particle, PatternStats

    hyper = base_hyper(vocab_size=6, n_particles=1)
    loc = (0.4, 0.6)
    particle = Particle()
    for k, (t0, words) in enumerate([(0.0, [1, 2]), (0.3, [3, 4])]):
        stats = PatternStats(1, 1.0, 1.0, 0, owner=particle.token)
        stats.attach(t0, words, loc[0], loc[1], (1.0,))
        particle.patterns[k] = stats
    post = GeoPost(t=0.8, words=[1], x=loc[0], y=loc[1])
    probs = {}
    for name, spatial in (("sdhp", True), ("dhp", False)):
        system = ParticleSystem(hyper, EngineConfig(spatial=spatial,
                                                    fixed_kernel=(1.0, 1.0)))
        system.t_last = 0.3  # the latest existing post
        _, p, _ = proposal_distribution(particle, post, hyper, system=system)
        probs[name] = p
    s, d = probs["sdhp"], probs["dhp"]
    assert s[0] / s[1] == pytest.approx(d[0] / d[1], rel=1e-9)


# ----------------------------------------------------------------------
# GMM


def test_gmm_single_component_fixed_point():
    rng = np.random.default_rng(1)
    x = rng.normal(3.0, 1.5, size=(400, 2))
    floor = 0.02
    model, _ = fit_isotropic_gmm(x, 1, floor)
    assert model.means[0] == pytest.approx(x.mean(axis=0), rel=1e-9)
    expected_var = ((x - x.mean(axis=0)) ** 2).sum() / (2 * len(x))
    assert model.variances[0] == pytest.approx(max(expected_var, floor), rel=1e-9)
    assert model.weights[0] == 1.0


def test_gmm_variance_floor_binds():
    x = np.zeros((50, 2))
    model, _ = fit_isotropic_gmm(x, 1, 0.5)
    assert model.variances[0] == 0.5


def test_gmm_two_separated_clusters():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 0.1, size=(300, 2))
    b = rng.normal(5.0, 0.1, size=(300, 2))
    x = np.vstack([a, b])
    model, _ = fit_isotropic_gmm(x, 2, 1e-6, seed=3)
    means = sorted(model.means[:, 0])
    se = 0.1 / math.sqrt(300)
    assert abs(means[0] - 0.0) < 3 * se + 1e-6
    assert abs(means[1] - 5.0) < 3 * se + 1e-6


def test_gmm_floor_holds_at_every_iteration():
    rng = np.random.default_rng(8)
    x = np.vstack([rng.normal(0, 0.01, size=(60, 2)),
                   rng.normal(2, 0.01, size=(60, 2))])
    floor = 0.05
    model = None
    for max_iter in range(1, 8):
        model, _ = fit_isotropic_gmm(x, 2, floor, init=model, max_iter=1,
                                     seed=9)
        assert np.all(model.variances >= floor - 1e-15)
        assert abs(float(model.weights.sum()) - 1.0) <= 1e-9


def test_gmm_em_loglik_nondecreasing():
    rng = np.random.default_rng(4)
    x = np.vstack([rng.normal(0, 1, size=(100, 2)),
                   rng.normal(4, 0.5, size=(100, 2))])
    _, history = fit_isotropic_gmm(x, 3, 1e-4, seed=5)
    diffs = np.diff(history)
    assert np.all(diffs >= -1e-7)


def test_gmm_predictive_peak_value():
    model = GmmModel(weights=np.array([1.0]), means=np.array([[0.3, -0.2]]),
                     variances=np.array([1.0]))
    got = gmm_predictive_logdensity(model, (0.3, -0.2))
    assert got == pytest.approx(math.log(1.0 / (2.0 * math.pi)))


def test_gmm_predictive_integrates_to_one():
    model = GmmModel(weights=np.array([0.4, 0.6]),
                     means=np.array([[0.0, 0.0], [2.0, 1.0]]),
                     variances=np.array([0.5, 1.2]))
    mass, _ = dblquad(
        lambda y, x: math.exp(gmm_predictive_logdensity(model, (x, y))),
        -12.0, 14.0, lambda _: -12.0, lambda _: 13.0, epsabs=1e-6)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_gmm_mixture_dominates_components():
    model = GmmModel(weights=np.array([0.3, 0.7]),
                     means=np.array([[0.0, 0.0], [1.0, 1.0]]),
                     variances=np.array([0.4, 0.9]))
    r = (0.5, 0.2)
    mix = math.exp(gmm_predictive_logdensity(model, r))
    for j in range(2):
        single = GmmModel(weights=np.array([1.0]), means=model.means[j:j+1],
                          variances=model.variances[j:j+1])
        comp = math.exp(gmm_predictive_logdensity(single, r))
        assert mix >= model.weights[j] * comp - 1e-12


def stream_models(locs, k_schedule, sigma2_min):
    """The mixture a GmmStreamPredictor fits on each location prefix."""
    predictor = GmmStreamPredictor(k_schedule, sigma2_min)
    query = GeoPost(t=0.0, words=[0], x=0.0, y=0.0)
    models = []
    for x, y in locs[:len(k_schedule)]:
        predictor.update(GeoPost(t=0.0, words=[0], x=float(x), y=float(y)))
        predictor.spatial_logdensity(query)
        models.append(predictor._model)
    return models


def test_gmm_fit_stream_clamps_k():
    rng = np.random.default_rng(6)
    locs = rng.normal(0, 1, size=(10, 2))
    models = stream_models(locs, k_schedule=[3, 3, 3, 4], sigma2_min=1e-4)
    assert len(models[0].weights) == 1
    assert len(models[1].weights) == 2
    assert len(models[2].weights) == 3
    assert len(models[3].weights) == 4
    with pytest.raises(ValueError):
        fit_isotropic_gmm(locs, 0, 1e-4)


def test_gmm_fit_stream_warm_start_floor():
    rng = np.random.default_rng(7)
    locs = rng.normal(0, 0.3, size=(40, 2))
    models = stream_models(locs, k_schedule=[2] * 40, sigma2_min=0.05)
    for m in models:
        assert np.all(m.variances >= 0.05 - 1e-12)
        assert abs(m.weights.sum() - 1.0) < 1e-9
