import math

import numpy as np
import pytest

from sdhawkes.hawkes import TimeKernel, fit_kernel
from sdhawkes.smc import EngineConfig
from sdhawkes.types import Hyperparams, Particle

from oracles import (
    alpha_argmax_grid,
    alpha_objective_direct,
    assignment_prior,
    build_stats,
    compensator_quadrature,
    intensity_direct,
)
from probes import pattern_rates, prior


def test_kernel_eval():
    # the intensity of a one-event pattern is the kernel alpha*exp(-dt/tau)
    def kernel(alpha, tau, dt):
        stats = build_stats(times=[0.0], psi_tau=(tau,), alpha=alpha)
        return pattern_rates(stats, 0.0, dt)[0]

    assert kernel(2.0, 1.0, 0.0) == 2.0
    assert kernel(1.0, 2.0, 2.0) == pytest.approx(math.exp(-1.0))
    assert kernel(0.0, 1.0, 5.0) == 0.0


def test_kernel_validation():
    with pytest.raises(ValueError):
        TimeKernel(-1.0, 1.0)
    with pytest.raises(ValueError):
        TimeKernel(1.0, 0.0)


def test_pattern_intensity():
    assert pattern_rates(build_stats(), 3.0, 3.0)[0] == 0.0

    stats = build_stats(times=[0.0], alpha=2.0)
    assert pattern_rates(stats, 0.0, 1.0)[0] == pytest.approx(2.0 * math.exp(-1.0))

    stats2 = build_stats(times=[0.0, 1.0], alpha=1.0)
    assert pattern_rates(stats2, 1.0, 1.0)[0] == pytest.approx(math.exp(-1.0) + 1.0)


def test_pattern_intensity_matches_direct(subtests=None):
    rng = np.random.default_rng(9)
    times = np.cumsum(rng.exponential(0.5, size=80))
    stats = build_stats(times=times, psi_tau=(2.0,), alpha=0.7, tau=2.0)
    t = times[-1] + 0.3
    assert pattern_rates(stats, times[-1], t)[0] == pytest.approx(
        intensity_direct(times, t, 0.7, 2.0), rel=1e-9
    )


def test_total_intensity():
    config = EngineConfig(refit_all=False)
    particle = Particle()
    assert prior(particle, Hyperparams(lambda0=10.0), 1.0, config)[2] == 10.0

    hyper1 = Hyperparams(lambda0=1.0)
    particle.patterns[0] = build_stats(times=[0.0], alpha=2.0)
    got = prior(particle, hyper1, 1.0, config)[2]
    assert got == pytest.approx(1.0 + 2.0 * math.exp(-1.0))
    assert got >= hyper1.lambda0


def test_assignment_prior_first_post():
    hyper = Hyperparams(lambda0=5.0)
    labels, probs, _ = prior(Particle(), hyper, 0.2, EngineConfig())
    assert labels == []
    assert probs == [1.0]


def test_assignment_prior_hand_case():
    hyper = Hyperparams(lambda0=1.0)
    particle = Particle()
    particle.patterns[0] = build_stats(times=[0.0], alpha=1.0)
    labels, probs, _ = prior(particle, hyper, 0.0, EngineConfig())
    assert labels == [0]
    assert probs == pytest.approx([0.5, 0.5])


def test_assignment_prior_sums_to_one():
    hyper = Hyperparams(lambda0=3.0)
    particle = Particle()
    rng = np.random.default_rng(12)
    for k in range(4):
        times = np.sort(rng.uniform(0, 5, size=rng.integers(1, 9)))
        particle.patterns[k] = build_stats(times=times, alpha=rng.uniform(0.1, 2.0))
    labels, probs, lam_t = prior(particle, hyper, 6.0, EngineConfig(refit_all=False))
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    oracle_labels, oracle_probs = assignment_prior(particle, hyper, 6.0)
    assert labels == oracle_labels
    assert probs == pytest.approx(oracle_probs, rel=1e-9)
    assert hyper.lambda0 / lam_t == pytest.approx(oracle_probs[-1], rel=1e-9)


def test_compensator_edges():
    stats = build_stats(times=[0.0], alpha=1.0)
    assert pattern_rates(stats, 0.5, 0.5)[1] == 0.0
    assert pattern_rates(stats, 0.0, 2000.0)[1] == pytest.approx(1.0, rel=1e-12)
    assert pattern_rates(stats, 0.0, 1.0)[1] == pytest.approx(1.0 - math.exp(-1.0))


def test_compensator_matches_quadrature():
    rng = np.random.default_rng(21)
    times = np.cumsum(rng.exponential(0.3, size=30))
    stats = build_stats(times=times, psi_tau=(0.8,), alpha=1.3, tau=0.8)
    t0 = times[-1]
    t1 = t0 + 2.5
    expected = compensator_quadrature(times, t0, t1, 1.3, 0.8)
    assert pattern_rates(stats, t0, t1)[1] == pytest.approx(expected, rel=1e-8)


def test_compensator_additivity():
    rng = np.random.default_rng(22)
    times = np.cumsum(rng.exponential(0.2, size=25))
    stats = build_stats(times=times, psi_tau=(1.5,), alpha=0.9, tau=1.5)
    a = times[-1] + 0.1
    b = a + 1.0
    c = b + 3.0
    assert (pattern_rates(stats, a, b)[1] + pattern_rates(stats, b, c)[1]
            == pytest.approx(pattern_rates(stats, a, c)[1], rel=1e-10))


def test_alpha_map_hand_case():
    hyper = Hyperparams(alpha_time=2.0, beta_time=1.0, psi_tau=(1.0,))
    stats = build_stats(times=[0.0, 0.5])
    alpha_hat, tau, tau_idx = fit_kernel(stats, 0.5, hyper)
    expected = 2.0 / (1.0 + (1.0 - math.exp(-0.5)))
    assert alpha_hat == pytest.approx(expected, rel=1e-9)
    assert (tau, tau_idx) == (1.0, 0)


def test_alpha_map_prior_dominates():
    stats = build_stats(times=[0.0, 0.5])
    hyper = Hyperparams(alpha_time=1.0, beta_time=1e9, psi_tau=(1.0,))
    alpha_hat, _, _ = fit_kernel(stats, 0.5, hyper)
    assert alpha_hat < 1e-8 * 1.001


def test_alpha_map_needs_two_events():
    hyper = Hyperparams()
    stats = build_stats(times=[0.0])
    with pytest.raises(ValueError):
        fit_kernel(stats, 1.0, hyper)


def test_alpha_map_matches_grid_search():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        times = np.cumsum(rng.exponential(rng.uniform(0.05, 1.0), size=n))
        tau = float(rng.uniform(0.1, 5.0))
        a = float(rng.uniform(0.05, 5.0))
        b = float(rng.uniform(0.05, 5.0))
        t_now = times[-1] + rng.uniform(0.0, 2.0)
        hyper = Hyperparams(alpha_time=a, beta_time=b, psi_tau=(tau,))
        stats = build_stats(times=times, psi_tau=(tau,), tau=tau)
        alpha_fast, _, _ = fit_kernel(stats, t_now, hyper)
        obj_fast = alpha_objective_direct(times, tau, t_now, a, b, alpha_fast)
        alpha_grid, obj_grid = alpha_argmax_grid(times, tau, t_now, a, b)
        assert abs(alpha_fast - alpha_grid) / alpha_grid < 1e-6
        assert obj_fast == pytest.approx(obj_grid, rel=1e-9)


def test_fit_time_kernel_singleton_grid():
    hyper = Hyperparams(psi_tau=(1.0,))
    times = [0.0, 0.3, 0.9]
    stats = build_stats(times=times)
    alpha, tau, tau_idx = fit_kernel(stats, 1.0, hyper)
    assert (tau, tau_idx) == (1.0, 0)
    alpha_grid, _ = alpha_argmax_grid(times, 1.0, 1.0, hyper.alpha_time, hyper.beta_time)
    assert alpha == pytest.approx(alpha_grid)


def _grid_objectives(times, psi, t_now, hyper):
    """Per tau: alpha fitted on the one-element grid, and the objective there."""
    out = []
    for tau in psi:
        one = Hyperparams(alpha_time=hyper.alpha_time, beta_time=hyper.beta_time,
                          psi_tau=(tau,))
        alpha_hat, _, _ = fit_kernel(build_stats(times=times, psi_tau=(tau,)), t_now, one)
        out.append((alpha_hat, alpha_objective_direct(
            times, tau, t_now, hyper.alpha_time, hyper.beta_time, alpha_hat)))
    return out


def test_fit_time_kernel_per_tau_objective_is_max():
    rng = np.random.default_rng(17)
    psi = (0.1, 1.0, 10.0)
    hyper = Hyperparams(psi_tau=psi)
    times = np.cumsum(rng.exponential(0.2, size=20))
    t_now = times[-1]
    fits = _grid_objectives(times, psi, t_now, hyper)
    for tau, (alpha_hat, obj) in zip(psi, fits):
        for alpha_other in [alpha_hat * 0.5, alpha_hat * 2.0, alpha_hat + 0.1]:
            direct = alpha_objective_direct(
                times, tau, t_now, hyper.alpha_time, hyper.beta_time, alpha_other
            )
            assert obj >= direct - 1e-9
    # on the full grid the fit picks the tau with the largest objective
    best = max(range(len(psi)), key=lambda i: fits[i][1])
    alpha, tau, tau_idx = fit_kernel(build_stats(times=times, psi_tau=psi), t_now, hyper)
    assert (tau, tau_idx) == (psi[best], best)
    assert alpha == pytest.approx(fits[best][0], rel=1e-12)


def test_fit_time_kernel_recovers_fast_timescale():
    from sdhawkes.generate import SynthConfig, generate

    psi_gen = (1.0 / 24.0,)
    hyper = Hyperparams(
        lambda0=0.5, alpha_time=8.0, beta_time=10.0, psi_tau=psi_gen, vocab_size=5
    )
    cfg = SynthConfig(hyper=hyper, n_posts=150, n_words=3, sigma0=0.05,
                      alpha0=22.0, seed=1)
    result = generate(cfg)
    sizes = {}
    for post in result.posts:
        sizes[post.label_true] = sizes.get(post.label_true, 0) + 1
    label, size = max(sizes.items(), key=lambda kv: kv[1])
    assert size >= 20
    times = [p.t for p in result.posts if p.label_true == label]

    psi_fit = (1.0 / 24.0, 30.0)
    fit_hyper = Hyperparams(
        lambda0=0.5, alpha_time=8.0, beta_time=10.0, psi_tau=psi_fit, vocab_size=5
    )
    stats = build_stats(times=times, psi_tau=psi_fit)
    # the observation horizon is the stream clock, which runs past the burst
    t_now = result.posts[-1].t
    _, tau, _ = fit_kernel(stats, t_now, fit_hyper)
    assert tau == pytest.approx(1.0 / 24.0)
    (_, obj_fast), (_, obj_slow) = _grid_objectives(times, psi_fit, t_now, fit_hyper)
    assert obj_fast > obj_slow
