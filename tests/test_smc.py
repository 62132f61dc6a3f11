import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sdhawkes.generate import SynthConfig, generate
from sdhawkes.smc import (
    EngineConfig,
    ParticleSystem,
    ess,
    incremental_weight,
    proposal_distribution,
    systematic_resample,
)
from sdhawkes.types import GeoPost, Hyperparams, Particle, PatternStats

from sdhawkes import smc

from oracles import (
    assignment_prior,
    enumerate_posterior,
    intensity_direct,
    sequential_predictive_oracle,
    spatial_predictive_quadrature,
)


def base_hyper(**kw):
    defaults = dict(lambda0=10.0, theta0=1.0, beta_space=0.01, alpha_time=0.1,
                    beta_time=0.2, psi_tau=(1.0,), vocab_size=15, n_particles=4)
    defaults.update(kw)
    return Hyperparams(**defaults)


def make_stream(n_posts, seed=0, hyper=None, **cfg_kw):
    hyper = hyper or base_hyper()
    cfg = SynthConfig(hyper=hyper, n_posts=n_posts, seed=seed, **cfg_kw)
    return generate(cfg).posts


def archived(particle):
    """(label, stats) of each pattern retired to the archive, newest first."""
    node = particle.archive
    while node is not None:
        yield node[0], node[1]
        node = node[2]


def all_patterns(particle):
    """Live patterns plus the ones retired to the archive, keyed by label."""
    return dict(sorted({**dict(archived(particle)), **particle.patterns}.items()))


# ----------------------------------------------------------------------
# proposal


def test_proposal_first_post():
    hyper = base_hyper(lambda0=10.0, vocab_size=2, n_particles=1)
    particle = Particle()
    post = GeoPost(t=0.1, words=[0], x=0.5, y=0.5)
    labels, probs, log_q = proposal_distribution(particle, post, hyper)
    assert labels == []
    assert probs == [1.0]
    # Q_1 = prior(new)=1 * content prior marginal * spatial 1
    assert log_q == pytest.approx(math.log(0.5))


def test_proposal_hand_case_four_sevenths():
    hyper = base_hyper(lambda0=1.0, vocab_size=2, n_particles=1)
    config = EngineConfig(spatial=False, fixed_kernel=(1.0, 1.0))
    particle = Particle()
    stats = PatternStats(1, 1.0, 1.0, 0, owner=particle.token)
    stats.attach(0.0, [0], 0.5, 0.5, (1.0,))
    particle.patterns[0] = stats
    post = GeoPost(t=1e-12, words=[0], x=0.5, y=0.5)
    labels, probs, _ = proposal_distribution(particle, post, hyper, config=config)
    assert labels == [0]
    assert probs[0] == pytest.approx(4.0 / 7.0, rel=1e-9)
    assert probs[1] == pytest.approx(3.0 / 7.0, rel=1e-9)


def test_proposal_reduces_to_assignment_prior():
    # single-word vocabulary: the content marginal is exactly 1 for every
    # candidate, so with spatial off the proposal is the temporal prior
    hyper = base_hyper(lambda0=2.0, vocab_size=1, n_particles=1)
    config = EngineConfig(spatial=False, fixed_kernel=(0.8, 1.0))
    particle = Particle()
    for k, t0 in enumerate([0.0, 0.4]):
        stats = PatternStats(1, 0.8, 1.0, 0, owner=particle.token)
        stats.attach(t0, [0, 0], 0.1, 0.1, (1.0,))
        particle.patterns[k] = stats
    post = GeoPost(t=0.9, words=[0], x=0.2, y=0.2)
    _, probs, _ = proposal_distribution(particle, post, hyper, config=config)
    _, prior = assignment_prior(particle, hyper, 0.9)
    assert probs == pytest.approx(prior, rel=1e-9)


def test_proposal_identical_counts_preserve_prior_ratios():
    # identical word counts across existing patterns: their content factors
    # cancel pairwise, so proposal odds between them equal prior odds
    hyper = base_hyper(lambda0=2.0, vocab_size=3, n_particles=1)
    config = EngineConfig(spatial=False, fixed_kernel=(0.8, 1.0))
    particle = Particle()
    for k, t0 in enumerate([0.0, 0.4]):
        stats = PatternStats(1, 0.8, 1.0, 0, owner=particle.token)
        stats.attach(t0, [1, 2], 0.1, 0.1, (1.0,))
        particle.patterns[k] = stats
    post = GeoPost(t=0.9, words=[0], x=0.2, y=0.2)
    _, probs, _ = proposal_distribution(particle, post, hyper, config=config)
    _, prior = assignment_prior(particle, hyper, 0.9)
    assert probs[0] / probs[1] == pytest.approx(prior[0] / prior[1], rel=1e-9)


def test_proposal_sums_to_one():
    hyper = base_hyper(n_particles=1)
    system = ParticleSystem(hyper, EngineConfig(seed=3))
    for post in make_stream(40, seed=3):
        labels, probs, _ = proposal_distribution(
            system.particles[0], post, hyper, system=system)
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        system.step(post)


# ----------------------------------------------------------------------
# weights


def test_incremental_weight_first_post():
    hyper = base_hyper(lambda0=10.0, vocab_size=2, n_particles=1)
    particle = Particle()
    post = GeoPost(t=0.1, words=[0], x=0.5, y=0.5)
    _, _, log_q = proposal_distribution(particle, post, hyper)
    log_mult = incremental_weight(particle, post, 0.0, hyper, t_prev=0.0)
    assert log_mult == pytest.approx(math.log(10.0) - 1.0)
    full = incremental_weight(particle, post, log_q, hyper, t_prev=0.0)
    assert full == pytest.approx(math.log(10.0) - 1.0 + math.log(0.5))


def test_incremental_weight_deterministic():
    hyper = base_hyper(n_particles=1)
    config = EngineConfig(fixed_kernel=(0.5, 1.0))

    def make_particle():
        particle = Particle()
        stats = PatternStats(1, 0.5, 1.0, 0, owner=particle.token)
        stats.attach(0.0, [1], 0.3, 0.3, (1.0,))
        stats.attach(0.5, [2], 0.4, 0.4, (1.0,))
        particle.patterns[0] = stats
        return particle

    post = GeoPost(t=0.8, words=[1], x=0.35, y=0.35)
    a = incremental_weight(make_particle(), post, -1.3, hyper, 0.5, config=config)
    b = incremental_weight(make_particle(), post, -1.3, hyper, 0.5, config=config)
    assert a == b
    assert math.isfinite(a)


def test_weight_increment_value():
    hyper = base_hyper(n_particles=2, lambda0=5.0)
    config = EngineConfig(seed=4)
    posts = make_stream(25, seed=4)
    system = ParticleSystem(hyper, config)
    for post in posts:
        t_prev = system.t_last
        lw_before = system.log_weights.copy()
        increments = []
        for p in system.particles:
            _, _, log_q = proposal_distribution(p, post, hyper, system=system)
            increments.append(
                incremental_weight(p, post, log_q, hyper, t_prev, config=config))
        resamples_before = system.n_resamples
        system.step(post)
        if system.n_resamples == resamples_before:
            raw = lw_before + np.array(increments)
            raw -= raw.max() + math.log(np.sum(np.exp(raw - raw.max())))
            assert np.allclose(raw, system.log_weights, atol=1e-10)


# ----------------------------------------------------------------------
# ess and resampling


def test_ess_examples():
    assert ess([0.25, 0.25, 0.25, 0.25]) == pytest.approx(4.0)
    assert ess([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert ess([0.5, 0.5, 0.0, 0.0]) == pytest.approx(2.0)


def test_resample_uniform_identity():
    hyper = base_hyper(n_particles=4)
    system = ParticleSystem(hyper, EngineConfig(seed=0))
    for post in make_stream(5, seed=0):
        system.step(post)
    system.weights = np.full(4, 0.25)
    system.log_weights = np.log(system.weights)
    ids_before = [p.assignments() for p in system.particles]
    systematic_resample(system)
    ids_after = [p.assignments() for p in system.particles]
    assert ids_before == ids_after
    assert np.allclose(system.weights, 0.25)


def test_resample_degenerate():
    hyper = base_hyper(n_particles=4)
    system = ParticleSystem(hyper, EngineConfig(seed=1))
    for post in make_stream(5, seed=1):
        system.step(post)
    target = system.particles[2].assignments()
    system.weights = np.array([0.0, 0.0, 1.0, 0.0])
    system.log_weights = np.array([-np.inf, -np.inf, 0.0, -np.inf])
    systematic_resample(system)
    for p in system.particles:
        assert p.assignments() == target


def test_resample_unbiasedness():
    hyper = base_hyper(n_particles=5)
    weights = np.array([0.05, 0.1, 0.2, 0.25, 0.4])
    counts = np.zeros(5)
    n_rounds = 10_000
    rng = np.random.default_rng(5)
    for _ in range(n_rounds):
        u = rng.random()
        positions = (np.arange(5) + u) / 5
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, positions, side="right")
        counts += np.bincount(idx, minlength=5)
    expected = 5 * weights
    got = counts / n_rounds
    assert np.allclose(got, expected, atol=0.02)
    # offspring count is floor or ceil of n*w in every single round
    for _ in range(200):
        u = rng.random()
        positions = (np.arange(5) + u) / 5
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, positions, side="right")
        c = np.bincount(idx, minlength=5)
        assert all(math.floor(5 * w) <= ci <= math.ceil(5 * w)
                   for w, ci in zip(weights, c))


def test_resample_triggering():
    hyper = base_hyper(n_particles=4, kappa_thresh=0.9)
    system = ParticleSystem(hyper, EngineConfig(seed=2))
    for post in make_stream(60, seed=2):
        system.step(post)
    assert system.n_resamples > 0

    single = ParticleSystem(base_hyper(n_particles=1), EngineConfig(seed=2))
    for post in make_stream(60, seed=2):
        single.step(post)
    assert single.n_resamples == 0
    assert single.weights[0] == 1.0


# ----------------------------------------------------------------------
# step contract


def test_step_contract():
    hyper = base_hyper(n_particles=4)
    system = ParticleSystem(hyper, EngineConfig(seed=6))
    posts = make_stream(80, seed=6)
    for i, post in enumerate(posts):
        system.step(post)
        assert abs(system.weights.sum() - 1.0) < 1e-12
        for p in system.particles:
            assert len(p.assignments()) == i + 1
            total = sum(s.n_posts for s in all_patterns(p).values())
            assert total == i + 1
            assert all(label < p.S for label in p.assignments())


def test_step_rejects_out_of_order():
    hyper = base_hyper(n_particles=1)
    system = ParticleSystem(hyper, EngineConfig())
    system.step(GeoPost(t=1.0, words=[0], x=0.5, y=0.5))
    with pytest.raises(ValueError):
        system.step(GeoPost(t=0.5, words=[0], x=0.5, y=0.5))


@pytest.mark.parametrize("field,post,observe", [
    ("t", GeoPost(t=math.nan, words=[0], x=0.5, y=0.5), True),
    ("t", GeoPost(t=math.inf, words=[0], x=0.5, y=0.5), True),
    ("words", GeoPost(t=2.0, words=[], x=0.5, y=0.5), True),
    ("words", GeoPost(t=2.0, words=[7, 9], x=0.5, y=0.5), True),
    ("words", GeoPost(t=2.0, words=[1, -1], x=0.5, y=0.5), False),
    ("words", GeoPost(t=2.0, words=[1.5], x=0.5, y=0.5), True),
    ("x, y", GeoPost(t=2.0, words=[0], x=math.nan, y=0.5), True),
    ("x, y", GeoPost(t=2.0, words=[0], x=0.5, y=math.inf), True),
])
def test_step_rejects_invalid_post(field, post, observe):
    hyper = base_hyper(n_particles=2, vocab_size=5)
    system = ParticleSystem(hyper, EngineConfig(seed=18))
    for t in (0.5, 1.0):
        system.step(GeoPost(t=t, words=[1, 2], x=0.5, y=0.5))
    n, t_last, log_weights = system.n, system.t_last, system.log_weights.copy()
    with pytest.raises(ValueError, match=field):
        system.step(post, observe_location=observe)
    kind = "spatial" if observe else "content"
    with pytest.raises(ValueError, match=field):
        system.predictive_logdensity(post, kind)
    assert (system.n, system.t_last) == (n, t_last)
    assert np.array_equal(system.log_weights, log_weights)


def test_hidden_post_location_is_not_read():
    hyper = base_hyper(n_particles=2, vocab_size=5)
    system = ParticleSystem(hyper, EngineConfig(seed=19))
    system.step(GeoPost(t=0.5, words=[1, 2], x=0.5, y=0.5))
    hidden = GeoPost(t=1.0, words=[1], x=math.nan, y=math.inf)
    assert math.isfinite(system.predictive_logdensity(hidden, "content"))
    system.step(hidden, observe_location=False)
    system.step(GeoPost(t=1.5, words=[2], x=0.4, y=0.6))
    assert system.n == 3
    assert np.all(np.isfinite(system.log_weights))


def test_state_replay_consistency():
    # after heavy resampling, every particle's pattern statistics must equal
    # a from-scratch replay of its assignment history (copy-on-write safety)
    hyper = base_hyper(n_particles=8)
    posts = make_stream(300, seed=7)
    for prune in (0.0, 1e-12):
        system = ParticleSystem(hyper, EngineConfig(seed=7, prune_threshold=prune))
        for post in posts:
            system.step(post)
        assert system.n_resamples > 0
        for particle in system.particles:
            assign = particle.assignments()
            replayed: dict[int, PatternStats] = {}
            for post, label in zip(posts, assign):
                if label not in replayed:
                    replayed[label] = PatternStats(
                        len(system.cache_taus), 0.0, 1.0, 0)
                replayed[label].attach(post.t, post.words, post.x, post.y,
                                       system.cache_taus)
            stored = all_patterns(particle)
            assert set(stored) == set(replayed)
            for label, rep in replayed.items():
                st = stored[label]
                assert st.n_posts == rep.n_posts
                assert st.event_times == rep.event_times
                assert st.word_counts == rep.word_counts
                assert st.mean_x == pytest.approx(rep.mean_x, rel=1e-9, abs=1e-12)
                assert st.mean_y == pytest.approx(rep.mean_y, rel=1e-9, abs=1e-12)
                assert st.m2 == pytest.approx(rep.m2, rel=1e-9, abs=1e-12)


def test_hidden_location_excluded_from_stats():
    hyper = base_hyper(n_particles=2)
    posts = make_stream(40, seed=8)
    hidden = {10, 25}
    system = ParticleSystem(hyper, EngineConfig(seed=8))
    system.run(posts, hidden=hidden)
    for particle in system.particles:
        assign = particle.assignments()
        stored = all_patterns(particle)
        for label, stats in stored.items():
            n_hidden_members = sum(
                1 for i, lab in enumerate(assign) if lab == label and i in hidden)
            assert stats.n_posts - stats.n_spatial == n_hidden_members


def test_degenerate_all_new_when_lambda0_dominates():
    hyper = base_hyper(lambda0=1e9, n_particles=2)
    config = EngineConfig(fixed_kernel=(1.0, 1.0), seed=9)
    posts = make_stream(50, seed=9)
    system = ParticleSystem(hyper, config)
    for post in posts:
        system.step(post)
    for particle in system.particles:
        assert particle.assignments() == list(range(50))


# ----------------------------------------------------------------------
# map estimate


def test_map_estimate_single_particle():
    hyper = base_hyper(n_particles=1)
    system = ParticleSystem(hyper, EngineConfig(seed=10))
    posts = make_stream(30, seed=10)
    for post in posts:
        system.step(post)
    result = system.map_estimate()
    assert result.assignments == system.particles[0].assignments()
    assert len(result.assignments) == 30
    assert sum(s.size for s in result.summaries) == 30


def test_map_estimate_weight_ordering():
    hyper = base_hyper(n_particles=2)
    system = ParticleSystem(hyper, EngineConfig(seed=11))
    for post in make_stream(10, seed=11):
        system.step(post)
    system.weights = np.array([0.7, 0.3])
    assert system.map_estimate().assignments == system.particles[0].assignments()
    system.weights = np.array([0.3, 0.7])
    assert system.map_estimate().assignments == system.particles[1].assignments()


def test_map_estimate_empty_errors():
    system = ParticleSystem(base_hyper(n_particles=1), EngineConfig())
    with pytest.raises(ValueError):
        system.map_estimate()


# ----------------------------------------------------------------------
# one-step-ahead predictive


@pytest.mark.parametrize("kind", ["spatial", "content"])
def test_predictive_logdensity_matches_oracle_mixture(kind):
    # log sum_p w_p [sum_k lambda_k(t) f_k + lambda0 f_new] / lambda(t), with
    # every term recomputed from the particles' raw histories
    alpha0, tau0 = 1.2, 1.0
    hyper = base_hyper(lambda0=2.0, vocab_size=6, beta_space=0.005,
                       n_particles=3, kappa_thresh=0.01)
    posts = make_stream(10, seed=17, hyper=hyper, n_words=3, sigma0=0.03,
                        alpha0=alpha0)
    system = ParticleSystem(hyper, EngineConfig(fixed_kernel=(alpha0, tau0), seed=17))
    for post in posts:
        system.step(post)
    assert system.n_resamples == 0
    assert np.ptp(system.weights) > 1e-3
    query = GeoPost(t=posts[-1].t + 0.3, words=[1, 4, 1],
                    x=posts[-1].x + 0.05, y=posts[-1].y - 0.02)

    expected = 0.0
    for w_p, particle in zip(system.weights, system.particles):
        assign = particle.assignments()
        lam_t = hyper.lambda0
        mix = hyper.lambda0 * (1.0 if kind == "spatial" else math.exp(
            sequential_predictive_oracle(None, query.words, hyper)))
        for label, stats in particle.patterns.items():
            lam_k = intensity_direct(stats.event_times, query.t, alpha0, tau0)
            if kind == "spatial":
                members = [(p.x, p.y) for p, lab in zip(posts, assign) if lab == label]
                log_f = spatial_predictive_quadrature(
                    members, hyper.beta_space, (query.x, query.y), n_z=601, n_u=1001)
            else:
                log_f = sequential_predictive_oracle(stats, query.words, hyper)
            lam_t += lam_k
            mix += lam_k * math.exp(log_f)
        expected += w_p * mix / lam_t
    got = system.predictive_logdensity(query, kind)
    rel = 1e-4 if kind == "spatial" else 1e-9
    assert got == pytest.approx(math.log(expected), rel=rel)


# ----------------------------------------------------------------------
# posterior correctness (small-scale; the full check lives in acceptance)


def test_smc_approaches_enumerated_posterior():
    hyper = base_hyper(lambda0=1.0, vocab_size=4, n_particles=3000,
                       beta_space=0.05)
    alpha0, tau0 = 1.2, 1.0
    gen_cfg = SynthConfig(hyper=base_hyper(lambda0=1.0, vocab_size=4),
                          n_posts=6, n_words=2, sigma0=0.1, alpha0=alpha0,
                          seed=12)
    posts = generate(gen_cfg).posts
    exact = enumerate_posterior(posts, hyper, alpha0, tau0, spatial=True)

    system = ParticleSystem(hyper, EngineConfig(fixed_kernel=(alpha0, tau0),
                                                seed=12))
    for post in posts:
        system.step(post)
    approx: dict[tuple, float] = {}
    for w, p in zip(system.weights, system.particles):
        key = tuple(p.assignments())
        approx[key] = approx.get(key, 0.0) + float(w)
    tv = 0.5 * sum(abs(exact.get(k, 0.0) - approx.get(k, 0.0))
                   for k in set(exact) | set(approx))
    assert tv < 0.1


# ----------------------------------------------------------------------
# checkpointing


def archived_labels(particle):
    return [label for label, _ in archived(particle)]


FIVE_TAUS = (1 / 24, 1 / 4, 1.0, 7.0, 30.0)
FIVE_TAU_HYPER = dict(lambda0=5.0, psi_tau=FIVE_TAUS, vocab_size=30)
FIVE_TAU_STREAM = dict(n_words=3, sigma0=0.05, alpha0=0.8)


def pruned_five_tau(n_posts):
    """A pruned system and a stream on which it resamples and retires."""
    hyper = base_hyper(n_particles=4, **FIVE_TAU_HYPER)
    posts = make_stream(n_posts, seed=13, hyper=hyper, **FIVE_TAU_STREAM)
    return ParticleSystem(hyper, EngineConfig(seed=13, prune_threshold=1e-12)), posts


@pytest.mark.parametrize("n_posts, split, hyper_kw, stream_kw, config_kw", [
    (80, 40, {}, {}, {}),
    (400, 200, FIVE_TAU_HYPER, FIVE_TAU_STREAM, dict(prune_threshold=1e-12)),
    (400, 200, FIVE_TAU_HYPER, FIVE_TAU_STREAM,
     dict(prune_threshold=1e-12, refit_all=False)),
    (400, 200, FIVE_TAU_HYPER, FIVE_TAU_STREAM,
     dict(prune_threshold=1e-12, fixed_kernel=(0.8, FIVE_TAUS[0]))),
], ids=["exact", "pruned-five-tau", "pruned-no-refit", "pruned-fixed-kernel"])
def test_checkpoint_resume_bit_for_bit(tmp_path, n_posts, split, hyper_kw, stream_kw,
                                       config_kw):
    hyper = base_hyper(n_particles=4, **hyper_kw)
    posts = make_stream(n_posts, seed=13, hyper=hyper, **stream_kw)
    config = EngineConfig(seed=13, **config_kw)
    prune = config.prune_threshold
    straight = ParticleSystem(hyper, config)
    for post in posts:
        straight.step(post)

    resumed = ParticleSystem(hyper, config)
    for post in posts[:split]:
        resumed.step(post)
    if prune:
        assert all(archived_labels(p) for p in resumed.particles)
    path = tmp_path / "ckpt.json"
    resumed.save_checkpoint(path)
    resumed = ParticleSystem.load_checkpoint(path)
    for post in posts[split:]:
        resumed.step(post)

    assert np.array_equal(straight.log_weights, resumed.log_weights)
    assert straight.t_last == resumed.t_last
    assert straight.n_resamples == resumed.n_resamples
    for a, b in zip(straight.particles, resumed.particles):
        assert a.assignments() == b.assignments()
        assert a.S == b.S
        assert archived_labels(a) == archived_labels(b)
        pa = all_patterns(a)
        pb = all_patterns(b)
        assert set(pa) == set(pb)
        for label in pa:
            assert pa[label].event_times == pb[label].event_times
            assert pa[label].word_counts == pb[label].word_counts
            assert pa[label].decay == pb[label].decay
            assert pa[label].log_trigger == pb[label].log_trigger
            assert pa[label].alpha == pb[label].alpha
            assert pa[label].tau_idx == pb[label].tau_idx
    ra = straight.map_estimate()
    rb = resumed.map_estimate()
    assert ra.assignments == rb.assignments
    assert ra.kernels == rb.kernels


def pattern_refs(system):
    """(particle index, "live" or "archive", label) -> the stats object."""
    refs = {}
    for i, particle in enumerate(system.particles):
        for label, stats in particle.patterns.items():
            refs[i, "live", label] = stats
        for label, stats in archived(particle):
            refs[i, "archive", label] = stats
    return refs


def test_retirement_moves_the_pattern_without_copying(monkeypatch):
    copied = []
    copy = PatternStats.copy

    def recording_copy(self, owner=None):
        copied.append(self)
        return copy(self, owner)

    monkeypatch.setattr(PatternStats, "copy", recording_copy)
    system, posts = pruned_five_tau(400)
    retired = shared = 0
    for post in posts:
        before = [(p, p.token, dict(p.patterns), p.archive) for p in system.particles]
        t_prev = system.t_last
        copied.clear()
        system.step(post)
        for particle, token, live, old_head in before:
            node = particle.archive
            while node is not old_head:
                label, stats, node, t_retired = node
                assert stats is live[label]
                assert t_retired == t_prev
                assert not any(c is stats for c in copied)
                retired += 1
                shared += stats.owner is not token
    assert retired > 0 and shared > 0


def test_checkpoint_writes_each_pattern_once(tmp_path):
    system, posts = pruned_five_tau(300)
    system.run(posts)
    assert system.n_resamples > 0
    path = tmp_path / "ckpt.json"
    system.save_checkpoint(path)
    saved = pattern_refs(system)
    n_distinct = len({id(stats) for stats in saved.values()})
    assert n_distinct < len(saved)
    assert len(json.loads(path.read_text())["stats"]) == n_distinct
    loaded = pattern_refs(ParticleSystem.load_checkpoint(path))
    assert loaded.keys() == saved.keys()
    # shared exactly where the saved ones were: object identity maps one to one
    pairs = {(id(saved[k]), id(loaded[k])) for k in saved}
    assert len(pairs) == n_distinct == len({b for _, b in pairs})
    assert all(stats.owner is None for stats in loaded.values())


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    hyper = base_hyper(n_particles=2)
    posts = make_stream(30, seed=20)
    system = ParticleSystem(hyper, EngineConfig(seed=20))
    for post in posts[:15]:
        system.step(post)
    path = tmp_path / "ckpt.json"
    system.save_checkpoint(path)
    for post in posts[15:]:
        system.step(post)

    def torn_dump(obj, fh):
        fh.write(smc.json.dumps(obj)[:200])
        raise OSError("disk full")

    monkeypatch.setattr(smc.json, "dump", torn_dump)
    with pytest.raises(OSError, match="disk full"):
        system.save_checkpoint(path)
    monkeypatch.undo()
    assert ParticleSystem.load_checkpoint(path).n == 15
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
    system.save_checkpoint(path)
    assert ParticleSystem.load_checkpoint(path).n == 30


def test_checkpoint_keeps_numpy_word_ids(tmp_path):
    system = ParticleSystem(base_hyper(n_particles=2), EngineConfig(seed=3))
    for i, post in enumerate(make_stream(20, seed=3)):
        post.words = [np.int64(w) if i % 2 else float(w) for w in post.words]
        system.step(post)
    path = tmp_path / "ckpt.json"
    system.save_checkpoint(path)
    loaded = ParticleSystem.load_checkpoint(path)
    for a, b in zip(system.particles, loaded.particles):
        assert {k: s.word_counts for k, s in all_patterns(a).items()} == \
            {k: s.word_counts for k, s in all_patterns(b).items()}


def test_checkpoint_version_guard(tmp_path):
    system = ParticleSystem(base_hyper(n_particles=1), EngineConfig())
    system.step(GeoPost(t=0.1, words=[0], x=0.5, y=0.5))
    path = tmp_path / "ckpt.json"
    system.save_checkpoint(path)
    payload = json.loads(path.read_text())
    assert payload["version"] == smc.CHECKPOINT_VERSION
    # 2 is the layout before the decay sum was stored once, 3 the one that
    # wrote each particle's own copy of a shared pattern
    for version in (2, 3, 999):
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            ParticleSystem.load_checkpoint(path)


# ----------------------------------------------------------------------
# pruning


def test_fast_refit_mode_runs():
    hyper = base_hyper(n_particles=2)
    posts = make_stream(120, seed=16)
    fast = ParticleSystem(hyper, EngineConfig(seed=16, refit_all=False))
    for post in posts:
        fast.step(post)
    result = fast.map_estimate()
    assert len(result.assignments) == 120
    assert sum(s.size for s in result.summaries) == 120
    for label, (alpha, tau) in result.kernels.items():
        assert alpha >= 0 and tau in hyper.psi_tau


def test_pruning_preserves_labels_and_results():
    hyper = base_hyper(n_particles=2)
    posts = make_stream(250, seed=14)
    exact = ParticleSystem(hyper, EngineConfig(seed=14))
    pruned = ParticleSystem(hyper, EngineConfig(seed=14, prune_threshold=1e-12))
    for post in posts:
        exact.step(post)
        pruned.step(post)
    res = pruned.map_estimate()
    assert len(res.assignments) == 250
    assert sum(s.size for s in res.summaries) == 250
    # at this scale nothing decays below 1e-12 * lambda0 relative weight: the
    # two runs should agree on the labeling
    assert res.assignments == exact.map_estimate().assignments


# ----------------------------------------------------------------------
# seeded edge cases


def edge_run(posts, prune=0.0, **hyper_kw):
    hyper = base_hyper(psi_tau=(0.25, 1.0), n_particles=4)
    system = ParticleSystem(replace(hyper, **hyper_kw),
                            EngineConfig(seed=3, prune_threshold=prune))
    return system.run(posts)


def edge_stream(n_posts):
    return make_stream(n_posts, seed=3, hyper=base_hyper(psi_tau=(0.25, 1.0)),
                       sigma0=0.05)


def moved(posts, t=None, dx=0.0, dy=0.0):
    return [GeoPost(t=p.t if t is None else t(i, p), words=p.words,
                    x=p.x + dx, y=p.y + dy) for i, p in enumerate(posts)]


@pytest.mark.parametrize("prune", [0.0, 1e-12], ids=["exact", "pruned"])
@pytest.mark.parametrize("tie", [
    lambda i, p: 1.0,                 # every post at one instant
    lambda i, p: float(i // 2),       # pairs share a timestamp
], ids=["one-instant", "pairs"])
def test_equal_timestamps_keep_weights_finite(tie, prune):
    system = edge_run(moved(edge_stream(200), t=tie), prune=prune)
    assert np.all(np.isfinite(system.log_weights))
    for alpha, tau in system.map_estimate().kernels.values():
        assert math.isfinite(alpha) and math.isfinite(tau)


def test_huge_gaps_start_a_new_pattern_per_post():
    posts = moved(edge_stream(100), t=lambda i, p: i * 1e6)
    system = edge_run(posts)
    assert np.all(np.isfinite(system.log_weights))
    for alpha, tau in system.map_estimate().kernels.values():
        assert math.isfinite(alpha) and math.isfinite(tau)
    for particle in system.particles:
        assert particle.assignments() == list(range(100))


def test_far_from_origin_coordinates_change_nothing():
    posts = edge_stream(200)
    near = edge_run(posts)
    far = edge_run(moved(posts, dx=1e7, dy=-1e7))
    assert far.map_estimate().assignments == near.map_estimate().assignments
    assert np.max(np.abs(far.log_weights - near.log_weights)) < 1e-5


WORD_PERMUTATION = np.random.default_rng(3).permutation(15).tolist()


@pytest.mark.parametrize("prune", [0.0, 1e-12], ids=["exact", "pruned"])
@pytest.mark.parametrize("relabel", [
    lambda p: GeoPost(t=p.t, words=[WORD_PERMUTATION[w] for w in p.words], x=p.x, y=p.y),
    lambda p: GeoPost(t=p.t, words=p.words, x=p.y, y=p.x),
], ids=["word-ids", "swap-xy"])
def test_relabelling_changes_nothing(relabel, prune):
    posts = edge_stream(400)
    base = edge_run(posts, prune=prune)
    relabelled = edge_run([relabel(p) for p in posts], prune=prune)
    assert np.array_equal(relabelled.log_weights, base.log_weights)
    for a, b in zip(relabelled.particles, base.particles):
        assert a.assignments() == b.assignments()


@pytest.mark.parametrize("n_particles, kappa, resamples", [
    (1, 1.0, False),   # a single particle has nothing to resample
    (4, 1.0, True),    # ESS < N after almost every post
])
def test_resampling_edges(n_particles, kappa, resamples):
    system = edge_run(edge_stream(300), n_particles=n_particles,
                      kappa_thresh=kappa)
    assert (system.n_resamples > 0) == resamples
    assert np.all(np.isfinite(system.log_weights))
