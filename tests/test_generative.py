import math

import numpy as np
import pytest
from scipy import stats as sps

from sdhawkes.generate import (
    GenerativeState,
    PatternParams,
    SynthConfig,
    _LivePattern,
    emit_post,
    generate,
    sample_assignment,
)
from sdhawkes.hawkes import TimeKernel
from sdhawkes.types import Hyperparams


def base_hyper(**kw):
    defaults = dict(lambda0=10.0, theta0=1.0, beta_space=0.01, alpha_time=0.1,
                    beta_time=0.2, psi_tau=(1.0,), vocab_size=15)
    defaults.update(kw)
    return Hyperparams(**defaults)


def test_poisson_limit_gaps_ks():
    hyper = base_hyper()
    cfg = SynthConfig(hyper=hyper, n_posts=5000, n_words=3, sigma0=0.1,
                      alpha0=0.0, seed=0)
    result = generate(cfg)
    times = np.array([p.t for p in result.posts])
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert (gaps > 0).all()
    assert np.mean(gaps) == pytest.approx(0.1, rel=0.05)
    _, p_value = sps.kstest(gaps, "expon", args=(0.0, 1.0 / hyper.lambda0))
    assert p_value > 0.01


def test_zero_excitation_every_post_new():
    cfg = SynthConfig(hyper=base_hyper(), n_posts=200, n_words=2, sigma0=0.1,
                      alpha0=0.0, seed=1)
    result = generate(cfg)
    labels = [p.label_true for p in result.posts]
    assert labels == list(range(200))


def test_determinism():
    cfg = lambda: SynthConfig(hyper=base_hyper(), n_posts=300, n_words=5,
                              sigma0=0.05, seed=7)
    a = generate(cfg())
    b = generate(cfg())
    assert [p.t for p in a.posts] == [p.t for p in b.posts]
    assert [p.words for p in a.posts] == [p.words for p in b.posts]
    assert [(p.x, p.y) for p in a.posts] == [(p.x, p.y) for p in b.posts]
    assert [p.label_true for p in a.posts] == [p.label_true for p in b.posts]


def test_single_post():
    cfg = SynthConfig(hyper=base_hyper(), n_posts=1, n_words=3, seed=2)
    result = generate(cfg)
    assert len(result.posts) == 1
    assert result.posts[0].label_true == 0
    assert set(result.params) == {0}


def test_times_increase_labels_contiguous():
    cfg = SynthConfig(hyper=base_hyper(alpha_time=2.0, beta_time=2.5),
                      n_posts=800, n_words=4, sigma0=0.05, seed=3)
    result = generate(cfg)
    times = [p.t for p in result.posts]
    assert all(b > a for a, b in zip(times, times[1:]))
    labels = {p.label_true for p in result.posts}
    assert labels == set(range(len(result.params)))


def test_unit_square_respected():
    cfg = SynthConfig(hyper=base_hyper(), n_posts=500, n_words=2, sigma0=0.2,
                      seed=4, unit_square=True)
    result = generate(cfg)
    for p in result.posts:
        assert 0.0 <= p.x <= 1.0 and 0.0 <= p.y <= 1.0


def test_emit_degenerate_theta():
    theta = np.zeros(15)
    theta[4] = 1.0
    params = PatternParams(theta=theta, center=(0.5, 0.5), sigma=0.01,
                           kernel=TimeKernel(0.5, 1.0))
    cfg = SynthConfig(hyper=base_hyper(), n_posts=1, n_words=6, seed=5)
    rng = np.random.default_rng(0)
    post = emit_post(params, 1.0, cfg, rng)
    assert post.words == [4] * 6


def test_emit_pointmass_location():
    theta = np.full(15, 1.0 / 15.0)
    params = PatternParams(theta=theta, center=(0.3, 0.6), sigma=1e-12,
                           kernel=TimeKernel(0.5, 1.0))
    cfg = SynthConfig(hyper=base_hyper(), n_posts=1, n_words=2, seed=6)
    rng = np.random.default_rng(1)
    post = emit_post(params, 1.0, cfg, rng)
    assert post.x == pytest.approx(0.3, abs=1e-9)
    assert post.y == pytest.approx(0.6, abs=1e-9)


def test_emit_word_frequencies_ci():
    rng_theta = np.random.default_rng(2)
    theta = rng_theta.dirichlet(np.ones(5))
    params = PatternParams(theta=theta, center=(0.5, 0.5), sigma=0.05,
                           kernel=TimeKernel(0.5, 1.0))
    cfg = SynthConfig(hyper=base_hyper(vocab_size=5), n_posts=1, n_words=1, seed=7)
    rng = np.random.default_rng(3)
    n = 100_000
    counts = np.zeros(5)
    post = emit_post(params, 1.0, cfg, rng)
    draws = rng.choice(5, size=n, p=theta)
    for w in draws:
        counts[w] += 1
    freq = counts / n
    for v in range(5):
        se = math.sqrt(theta[v] * (1 - theta[v]) / n)
        assert abs(freq[v] - theta[v]) < 5 * se + 1e-12


def test_emit_rejection_cap():
    theta = np.full(3, 1.0 / 3.0)
    params = PatternParams(theta=theta, center=(0.5, 0.5), sigma=1e7,
                           kernel=TimeKernel(0.5, 1.0))
    cfg = SynthConfig(hyper=base_hyper(vocab_size=3), n_posts=1, n_words=1,
                      seed=8, unit_square=True)
    rng = np.random.default_rng(4)
    with pytest.raises(RuntimeError):
        emit_post(params, 1.0, cfg, rng)


def test_thinning_acceptance_bound():
    # between events the intensity can only decay, so the left-endpoint
    # bound dominates every candidate
    hyper = base_hyper(lambda0=2.0)
    cfg = SynthConfig(hyper=hyper, n_posts=50, n_words=2, sigma0=0.1,
                      alpha0=5.0, seed=9)
    result = generate(cfg)
    state = GenerativeState(hyper)
    for label, params in result.params.items():
        state.params[label] = params
        state.live[label] = _LivePattern(params)
    for post, lam in zip(result.posts, result.intensities):
        bound = state.total_intensity(state.t)
        assert lam <= bound + 1e-9
        state.live[post.label_true].add_event(post.t)
        state.t = post.t


def test_new_pattern_frequency_monte_carlo():
    hyper = base_hyper(lambda0=4.0)
    cfg = SynthConfig(hyper=hyper, n_posts=1, n_words=1, sigma0=0.1, seed=10)
    rng = np.random.default_rng(11)
    t_query = 1.0
    n_trials = 20_000
    new_count = 0
    for _ in range(n_trials):
        state = GenerativeState(hyper)
        params = PatternParams(theta=np.full(15, 1 / 15), center=(0.5, 0.5),
                               sigma=0.1, kernel=TimeKernel(2.0, 1.0))
        state.params[0] = params
        live = _LivePattern(params)
        live.add_event(0.0)
        live.add_event(0.5)
        state.live[0] = live
        lam = state.total_intensity(t_query)
        if sample_assignment(state, t_query, lam, cfg, rng) == 1:
            new_count += 1
    lam_pattern = 2.0 * (math.exp(-1.0) + math.exp(-0.5))
    p_new = 4.0 / (4.0 + lam_pattern)
    se = math.sqrt(p_new * (1 - p_new) / n_trials)
    assert abs(new_count / n_trials - p_new) < 4 * se


def test_intensity_reconstruction():
    cfg = SynthConfig(hyper=base_hyper(alpha_time=1.0, beta_time=1.0),
                      n_posts=400, n_words=3, sigma0=0.05, seed=12)
    result = generate(cfg)
    for i, post in enumerate(result.posts):
        lam = cfg.hyper.lambda0
        for j in range(i):
            prev = result.posts[j]
            k = result.params[prev.label_true].kernel
            lam += k.alpha * math.exp(-(post.t - prev.t) / k.tau)
        assert lam == pytest.approx(result.intensities[i], rel=1e-9)


def test_sigma_prior_draw_mode():
    cfg = SynthConfig(hyper=base_hyper(beta_space=0.02), n_posts=120,
                      n_words=2, sigma0=None, seed=13, unit_square=False)
    result = generate(cfg)
    sigmas = [p.sigma for p in result.params.values()]
    assert all(s > 0 for s in sigmas)
    assert len(set(sigmas)) == len(sigmas)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(hyper=base_hyper(), n_posts=0).validate()
    with pytest.raises(ValueError):
        SynthConfig(hyper=base_hyper(), n_posts=1, n_words=0).validate()
    with pytest.raises(ValueError):
        SynthConfig(hyper=base_hyper(), n_posts=1, sigma0=-0.1).validate()


def test_fig2a_regime_shape():
    hyper = base_hyper()
    cfg = SynthConfig(hyper=hyper, n_posts=600, n_words=7, sigma0=0.03, seed=14)
    result = generate(cfg)
    assert len(result.posts) == 600
    assert all(p.label_true is not None for p in result.posts)
    assert all(len(p.words) == 7 for p in result.posts)
    assert len(result.params) >= 2
