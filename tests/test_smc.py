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
from sdhawkes.hawkes import fit_kernel
from sdhawkes.types import GeoPost, Hyperparams, Particle, PatternStats, pattern_summary

from sdhawkes import smc

from checkpoint_lines import read_lines, write_lines

from oracles import (
    assignment_prior,
    enumerate_posterior,
    intensity_direct,
    rates_over_every_pattern,
    sequential_predictive_oracle,
    spatial_predictive_closed_form,
    spatial_predictive_quadrature,
)


def base_hyper(**kw):
    defaults = dict(lambda0=10.0, theta0=1.0, beta_space=0.01, alpha_time=0.1,
                    beta_time=0.2, psi_tau=(1.0,), vocab_size=15, n_particles=4)
    defaults.update(kw)
    return Hyperparams(**defaults)


def make_stream(n_posts, seed=0, hyper=None, gaps=(), **cfg_kw):
    """A synthetic stream; with ``gaps``, every 25th post and those after it
    move later by the next gap in turn (days), so that old patterns fall
    quiet to every float of the next post."""
    hyper = hyper or base_hyper()
    cfg = SynthConfig(hyper=hyper, n_posts=n_posts, seed=seed, **cfg_kw)
    posts = generate(cfg).posts
    if not gaps:
        return posts
    shift = 0.0
    out = []
    for i, post in enumerate(posts):
        if i and i % 25 == 0:
            shift += gaps[(i // 25 - 1) % len(gaps)]
        out.append(GeoPost(t=post.t + shift, words=post.words, x=post.x, y=post.y))
    return out


def archived(particle):
    """(label, retirement time) of each pattern retired to the archive,
    newest first."""
    node = particle.archive
    while node is not None:
        yield node[0], node[1]
        node = node[2]


def fields_repr(summary):
    """A summary's fields, compared NaN-aware (a pattern without a located
    post has a NaN mean and scale)."""
    return repr([getattr(summary, name) for name in summary.__slots__])


def system_for(particle, hyper, config=None):
    """A system whose clock stands at the hand-built particle's latest
    event, the previous post time of the next post it scores."""
    system = ParticleSystem(hyper, config or EngineConfig())
    system.t_last = max((s.t_ref for s in particle.patterns.values()), default=0.0)
    return system


# ----------------------------------------------------------------------
# proposal


def test_proposal_first_post():
    hyper = base_hyper(lambda0=10.0, vocab_size=2, n_particles=1)
    particle = Particle()
    post = GeoPost(t=0.1, words=[0], x=0.5, y=0.5)
    labels, probs, log_q = proposal_distribution(
        particle, post, hyper, system=system_for(particle, hyper))
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
    labels, probs, _ = proposal_distribution(
        particle, post, hyper, system=system_for(particle, hyper, config))
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
    _, probs, _ = proposal_distribution(
        particle, post, hyper, system=system_for(particle, hyper, config))
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
    _, probs, _ = proposal_distribution(
        particle, post, hyper, system=system_for(particle, hyper, config))
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
    system = system_for(particle, hyper)
    _, _, log_q = proposal_distribution(particle, post, hyper, system=system)
    log_mult = incremental_weight(particle, post, 0.0, hyper, t_prev=0.0,
                                  system=system)
    assert log_mult == pytest.approx(math.log(10.0) - 1.0)
    full = incremental_weight(particle, post, log_q, hyper, t_prev=0.0,
                              system=system)
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
    system = ParticleSystem(hyper, config)
    a = incremental_weight(make_particle(), post, -1.3, hyper, 0.5, system=system)
    b = incremental_weight(make_particle(), post, -1.3, hyper, 0.5, system=system)
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
                incremental_weight(p, post, log_q, hyper, t_prev, system=system))
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
            retired = dict(archived(p))
            assert not retired.keys() & p.patterns.keys()
            total = (sum(s.n_posts for s in p.patterns.values())
                     + sum(label in retired for label in p.assignments()))
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
    # after heavy resampling, every particle's pattern statistics, and the
    # summaries map_estimate gives its retired patterns, must equal a
    # from-scratch replay of its assignment history (copy-on-write safety)
    hyper = base_hyper(n_particles=8)
    runs = [(ParticleSystem(hyper, EngineConfig(seed=7, prune_threshold=prune)),
             make_stream(300, seed=7)) for prune in (0.0, 1e-12)]
    runs.append(pruned_five_tau(300))  # one that retires patterns
    for system, posts in runs:
        system.run(posts)
        assert system.n_resamples > 0
        weights = system.weights
        for i, particle in enumerate(system.particles):
            system.weights = np.eye(len(system.particles))[i]  # particle i is the MAP
            summaries = system.map_estimate().summaries
            assign = particle.assignments()
            replayed: dict[int, PatternStats] = {}
            for post, label in zip(posts, assign):
                if label not in replayed:
                    replayed[label] = PatternStats(
                        len(system.cache_taus), 0.0, 1.0, 0)
                replayed[label].attach(post.t, post.words, post.x, post.y,
                                       system.cache_taus)
            stored = particle.patterns
            retired = dict(archived(particle))
            assert set(stored) | set(retired) == set(replayed)
            assert not set(stored) & set(retired)
            for label in retired:
                got = summaries[label]
                want = pattern_summary(replayed.pop(label), system.hyper.beta_space)
                assert repr((got.size, got.time_span, got.top_words, got.mean, got.scale)) == \
                    repr((want.size, want.time_span, want.top_words, want.mean, want.scale))
            for label, rep in replayed.items():
                st = stored[label]
                assert st.n_posts == rep.n_posts
                assert st.event_times == rep.event_times
                assert st.word_counts == rep.word_counts
                assert (st.mean_x, st.mean_y, st.m2) == (rep.mean_x, rep.mean_y, rep.m2)
        system.weights = weights


def test_hidden_location_excluded_from_stats():
    hyper = base_hyper(n_particles=2)
    posts = make_stream(40, seed=8)
    hidden = {10, 25}
    system = ParticleSystem(hyper, EngineConfig(seed=8))
    system.run(posts, hidden=hidden)
    for particle in system.particles:
        assign = particle.assignments()
        for label, stats in particle.patterns.items():
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


def test_map_summaries_are_in_label_order_with_archived_patterns():
    system, posts = pruned_five_tau(300)
    result = system.run(posts).map_estimate()
    map_particle = next(p for p in system.particles
                        if p.assignments() == result.assignments)
    assert archived_labels(map_particle)
    assert len(result.summaries) == map_particle.S
    assert [s.size for s in result.summaries] == \
        np.bincount(result.assignments).tolist()


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
# gaps that outlast every kernel on the grid, from the shortest to the longest
GAPPED_STREAM = dict(FIVE_TAU_STREAM, gaps=(5.0, 50.0, 500.0, 5000.0))


def pruned_five_tau(n_posts):
    """A pruned system and a stream on which it resamples and retires."""
    hyper = base_hyper(n_particles=4, **FIVE_TAU_HYPER)
    posts = make_stream(n_posts, seed=13, hyper=hyper, **FIVE_TAU_STREAM)
    return ParticleSystem(hyper, EngineConfig(seed=13, prune_threshold=1e-12)), posts


def pruned_short_tau(n_posts):
    """Like ``pruned_five_tau``, on a stream drawn with the three shortest
    time constants only, so that patterns of several posts retire too."""
    hyper = base_hyper(n_particles=4, **FIVE_TAU_HYPER)
    posts = make_stream(n_posts, seed=13, hyper=replace(hyper, psi_tau=FIVE_TAUS[:3]),
                        **FIVE_TAU_STREAM)
    return ParticleSystem(hyper, EngineConfig(seed=13, prune_threshold=1e-12)), posts


@pytest.mark.parametrize("n_posts, split, hyper_kw, stream_kw, config_kw, hidden", [
    (80, 40, {}, {}, {}, set()),
    (400, 200, FIVE_TAU_HYPER, FIVE_TAU_STREAM, dict(prune_threshold=1e-12), set()),
    (400, 200, FIVE_TAU_HYPER, FIVE_TAU_STREAM,
     dict(prune_threshold=1e-12, refit_all=False), set()),
    (400, 200, FIVE_TAU_HYPER, FIVE_TAU_STREAM,
     dict(prune_threshold=1e-12, fixed_kernel=(0.8, FIVE_TAUS[0])), set()),
    (400, 200, FIVE_TAU_HYPER, FIVE_TAU_STREAM, dict(prune_threshold=1e-12),
     set(range(3, 400, 7))),
    (400, 200, FIVE_TAU_HYPER, GAPPED_STREAM, {}, set()),
], ids=["exact", "pruned-five-tau", "pruned-no-refit", "pruned-fixed-kernel",
        "pruned-hidden", "exact-gapped"])
def test_checkpoint_resume_bit_for_bit(tmp_path, n_posts, split, hyper_kw, stream_kw,
                                       config_kw, hidden):
    hyper = base_hyper(n_particles=4, **hyper_kw)
    posts = make_stream(n_posts, seed=13, hyper=hyper, **stream_kw)
    config = EngineConfig(seed=13, **config_kw)
    prune = config.prune_threshold
    straight = ParticleSystem(hyper, config).run(posts, hidden)

    resumed = ParticleSystem(hyper, config).run(posts[:split], hidden)
    if prune:
        assert all(archived_labels(p) for p in resumed.particles)
    if "gaps" in stream_kw:
        # live patterns over a hundred of the longest time constants old are
        # quiet for the next post
        assert any(posts[split].t - stats.t_ref > 100 * FIVE_TAUS[-1]
                   for p in resumed.particles for stats in p.patterns.values())
    path = tmp_path / "ckpt.json"
    resumed.save_checkpoint(path)
    resumed = ParticleSystem.load_checkpoint(path)
    for i, post in enumerate(posts[split:], start=split):
        resumed.step(post, observe_location=i not in hidden)
    # saving to the file it loaded from appends a line
    resumed.save_checkpoint(path)
    assert len(read_lines(path)) == 3
    assert_same_system(straight, resumed)
    assert_same_system(straight, ParticleSystem.load_checkpoint(path))


def assert_same_system(straight, resumed):
    """Bit for bit: weights, clock, resamples, random states, every
    particle's assignments, archive and live statistics, and the MAP result."""
    assert np.array_equal(straight.log_weights, resumed.log_weights)
    assert straight.t_last == resumed.t_last
    assert straight.n_resamples == resumed.n_resamples
    assert [r.bit_generator.state for r in [straight.resample_rng, *straight.rngs]] == \
        [r.bit_generator.state for r in [resumed.resample_rng, *resumed.rngs]]
    for a, b in zip(straight.particles, resumed.particles):
        assert a.assignments() == b.assignments()
        assert a.S == b.S
        assert list(archived(a)) == list(archived(b))
        assert set(a.patterns) == set(b.patterns)
        for label, sa in a.patterns.items():
            sb = b.patterns[label]
            assert sa.event_times == sb.event_times
            assert sa.word_counts == sb.word_counts
            assert sa.decay == sb.decay
            assert sa.log_trigger == sb.log_trigger
            assert sa.alpha == sb.alpha
            assert sa.tau_idx == sb.tau_idx
    ra = straight.map_estimate()
    rb = resumed.map_estimate()
    assert ra.assignments == rb.assignments
    assert [fields_repr(r) for r in ra.summaries] == [fields_repr(r) for r in rb.summaries]


def test_retirement_keeps_the_label_and_time_without_copying(monkeypatch):
    copied = []
    copy = PatternStats.copy

    def recording_copy(self, owner=None):
        copied.append(self)
        return copy(self, owner)

    monkeypatch.setattr(PatternStats, "copy", recording_copy)
    system, posts = pruned_short_tau(300)
    hyper = system.hyper
    # id(node) -> (node, the summary of the retired pattern as it was last
    # scored: its statistics and the kernel refit at that time)
    frozen = {}
    shared = multi = 0
    for post in posts:
        before = [(p, p.token, dict(p.patterns), p.archive) for p in system.particles]
        t_prev = system.t_last
        copied.clear()
        system.step(post)
        for particle, token, live, old_head in before:
            node = particle.archive
            while node is not old_head:
                label, t_retired, next_node = node
                assert t_retired == t_prev
                stats = live[label]
                assert not any(c is stats for c in copied)
                want = pattern_summary(stats, hyper.beta_space)
                if stats.n_posts >= 2:
                    want.alpha, want.tau, _ = fit_kernel(stats, t_prev, hyper)
                frozen[id(node)] = (node, fields_repr(want))
                shared += stats.owner is not token
                multi += stats.n_posts >= 2
                node = next_node
    assert shared > 0 and multi > 0
    checked = 0
    for i, particle in enumerate(system.particles):
        system.weights = np.eye(len(system.particles))[i]  # particle i is the MAP
        summaries = system.map_estimate().summaries
        node = particle.archive
        while node is not None:
            assert fields_repr(summaries[node[0]]) == frozen[id(node)][1]
            node = node[2]
            checked += 1
    assert checked > 0


def archive_nodes(system):
    """(particle index, depth) -> the node of that particle's archive chain."""
    out = {}
    for i, particle in enumerate(system.particles):
        node, depth = particle.archive, 0
        while node is not None:
            out[i, depth] = node
            node, depth = node[2], depth + 1
    return out


def test_checkpoint_restores_archive_sharing_and_writes_no_statistics(tmp_path):
    system, posts = pruned_five_tau(300)
    path = tmp_path / "ckpt.json"
    for start in (0, 100, 200):
        system.run(posts[start:start + 100]).save_checkpoint(path)
    assert system.n_resamples > 0
    lines = read_lines(path)
    assert len(lines) == 4

    def keys(obj):
        if isinstance(obj, dict):
            return set(obj).union(*map(keys, obj.values()))
        if isinstance(obj, list):
            return set().union(*map(keys, obj))
        return set()

    assert not keys(lines) & {"summaries", *PatternStats.__slots__}
    loaded = ParticleSystem.load_checkpoint(path)
    saved_nodes = archive_nodes(system)
    loaded_nodes = archive_nodes(loaded)
    assert loaded_nodes.keys() == saved_nodes.keys()
    assert all(saved_nodes[k][:2] == loaded_nodes[k][:2] for k in saved_nodes)
    # loading never shares a node between chains that the saved ones keep apart
    pairs = {(id(saved_nodes[k]), id(loaded_nodes[k])) for k in saved_nodes}
    assert len(pairs) == len({b for _, b in pairs})
    assert len(pairs) < len(saved_nodes)  # and it does share

    def tail(particle, depth):
        node = particle.archive
        for _ in range(depth):
            node = node[2]
        return node

    # the last line holds each particle's nodes since its ancestor at the
    # previous save; particles with one ancestor share what lies below them,
    # saved and loaded alike
    last = lines[-1]["particles"]
    regrown = 0
    for i, a in enumerate(last):
        for k, b in enumerate(last[:i]):
            if a["from"] == b["from"]:
                da, db = len(a["archive"]), len(b["archive"])
                for side in (system, loaded):
                    assert tail(side.particles[i], da) is tail(side.particles[k], db)
                regrown += tail(loaded.particles[i], da) is not None
    assert regrown > 0


class TornFile:
    """Takes the first 200 bytes of the write, then fails."""

    def __init__(self, *args, **kwargs):
        self.fh = open(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:200])
        raise OSError("disk full")


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    hyper = base_hyper(n_particles=2)
    posts = make_stream(30, seed=20)
    system = ParticleSystem(hyper, EngineConfig(seed=20))
    for post in posts[:15]:
        system.step(post)
    path = tmp_path / "ckpt.json"
    system.save_checkpoint(path)
    first = path.read_text()
    for post in posts[15:]:
        system.step(post)

    monkeypatch.setattr(smc, "open", TornFile, raising=False)
    with pytest.raises(OSError, match="disk full"):
        system.save_checkpoint(path)
    monkeypatch.undo()
    # the save tore an append: the first save's lines, then 200 bytes
    torn = path.read_text()
    assert torn.startswith(first) and len(torn) == len(first) + 200
    assert ParticleSystem.load_checkpoint(path).n == 15
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
    system.save_checkpoint(path)
    assert ParticleSystem.load_checkpoint(path).n == 30


def test_torn_rewrite_leaves_the_previous_file(tmp_path, monkeypatch):
    system, posts = pruned_five_tau(60)
    path = tmp_path / "ckpt.json"
    system.run(posts[:30]).save_checkpoint(path)
    with open(path, "a") as fh:  # someone else's byte: the next save rewrites
        fh.write("x")
    before = path.read_bytes()
    system.run(posts[30:])
    monkeypatch.setattr(smc, "open", TornFile, raising=False)
    with pytest.raises(OSError, match="disk full"):
        system.save_checkpoint(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
    assert ParticleSystem.load_checkpoint(path).n == 30


def test_checkpoint_line_holds_only_what_changed(tmp_path):
    system, posts = pruned_five_tau(300)
    path = tmp_path / "ckpt.json"
    for n_prev in (0, 100, 200):
        system.run(posts[n_prev:n_prev + 100]).save_checkpoint(path)
    header, *saves = read_lines(path)
    assert header["version"] == smc.CHECKPOINT_VERSION
    assert len(saves) == 3
    retired = 0
    for n_prev, line in zip((0, 100, 200), saves):
        # exactly the posts stepped since the previous save
        assert [p[0] for p in line["posts"]] == [p.t for p in posts[n_prev:n_prev + 100]]
        assert all(len(p["labels"]) == 100 for p in line["particles"])
        assert all((p["from"] is None) == (n_prev == 0) for p in line["particles"])
        # its archive nodes are the patterns retired in its steps, none
        # earlier: each at the time of the post before the one it stepped
        t_first = posts[n_prev - 1].t if n_prev else 0.0
        times = [t for p in line["particles"] for _, t in p["archive"]]
        assert all(t_first <= t <= posts[n_prev + 98].t for t in times)
        retired += len(times)
    assert retired > 0
    assert_same_system(system, ParticleSystem.load_checkpoint(path))


def test_checkpoint_appends_only_to_the_file_it_left(tmp_path):
    system, posts = pruned_five_tau(300)
    other, _ = pruned_five_tau(300)
    path = tmp_path / "ckpt.json"
    system.run(posts[:100]).save_checkpoint(path)
    first = path.read_bytes()
    system.run(posts[100:150]).save_checkpoint(path)
    assert path.read_bytes().startswith(first)
    assert len(read_lines(path)) == 3
    # another system's save replaces the file; this system then rewrites it
    other.run(posts[:50]).save_checkpoint(path)
    system.run(posts[150:200]).save_checkpoint(path)
    assert len(read_lines(path)) == 2
    assert_same_system(system, ParticleSystem.load_checkpoint(path))
    # one byte appended by anyone: the next save rewrites the file whole
    with open(path, "ab") as fh:
        fh.write(b"\n")
    system.run(posts[200:]).save_checkpoint(path)
    assert len(read_lines(path)) == 2
    assert_same_system(system, ParticleSystem.load_checkpoint(path))


def test_two_saves_at_the_same_n_load_the_same_state(tmp_path):
    system, posts = pruned_five_tau(300)
    path = tmp_path / "ckpt.json"
    system.run(posts[:150]).save_checkpoint(path)
    once = ParticleSystem.load_checkpoint(path)
    system.save_checkpoint(path)
    last = read_lines(path)[-1]
    assert len(read_lines(path)) == 3 and last["posts"] == []
    assert all(p["labels"] == [] and p["archive"] == [] for p in last["particles"])
    twice = ParticleSystem.load_checkpoint(path)
    assert_same_system(once, twice)
    assert_same_system(system, twice)


def test_final_line_that_does_not_parse_is_a_torn_append(tmp_path):
    system, posts = pruned_five_tau(300)
    path = tmp_path / "ckpt.json"
    system.run(posts[:150]).save_checkpoint(path)
    system.run(posts[150:]).save_checkpoint(path)
    text = path.read_text()
    head, middle, last, _ = text.split("\n")
    for torn in (last[:len(last) // 2], last[:len(last) // 2] + "\n", "\0" * 50 + "\n"):
        path.write_text(f"{head}\n{middle}\n{torn}")
        loaded = ParticleSystem.load_checkpoint(path)
        assert loaded.n == 150
        # a save of the loaded system replaces the torn file, never appends to it
        loaded.save_checkpoint(path)
        assert len(read_lines(path)) == 2
        assert_same_system(loaded, ParticleSystem.load_checkpoint(path))


def test_checkpoint_keeps_numpy_word_ids(tmp_path):
    system = ParticleSystem(base_hyper(n_particles=2), EngineConfig(seed=3))
    for i, post in enumerate(make_stream(20, seed=3)):
        post.words = [np.int64(w) if i % 2 else float(w) for w in post.words]
        system.step(post)
    path = tmp_path / "ckpt.json"
    system.save_checkpoint(path)
    loaded = ParticleSystem.load_checkpoint(path)
    for a, b in zip(system.particles, loaded.particles):
        assert {k: s.word_counts for k, s in a.patterns.items()} == \
            {k: s.word_counts for k, s in b.patterns.items()}


def test_checkpoint_version_guard(tmp_path):
    system = ParticleSystem(base_hyper(n_particles=1), EngineConfig())
    system.step(GeoPost(t=0.1, words=[0], x=0.5, y=0.5))
    path = tmp_path / "ckpt.json"
    system.save_checkpoint(path)
    lines = read_lines(path)
    assert lines[0]["version"] == smc.CHECKPOINT_VERSION
    # 2 is the layout before the decay sum was stored once, 3 the one that
    # wrote each particle's own copy of a shared pattern, 4 the one that
    # wrote pattern statistics, 5 the one that rewrote the whole state as
    # one JSON object on every save, 6 the one that wrote each retired
    # pattern's summary
    for version in (2, 3, 4, 5, 6, 999):
        lines[0]["version"] = version
        write_lines(path, lines)
        with pytest.raises(ValueError, match=f"version {version};"):
            ParticleSystem.load_checkpoint(path)


def _set(payload, keys, value):
    *path, last = keys
    for key in path:
        payload = payload[key]
    payload[last] = value


def _swap_times(payload, i, j):
    posts = payload[1]["posts"]
    posts[i][0], posts[j][0] = posts[j][0], posts[i][0]


def corrupted(tmp_path, corrupt, n_saves):
    """A checkpoint of 300 posts saved in ``n_saves`` equal parts, then
    ``corrupt(text, lines)``: it returns the new text, or edits the parsed
    lines in place."""
    system, posts = pruned_five_tau(300)
    path = tmp_path / "ckpt.json"
    step = 300 // n_saves
    for start in range(0, 300, step):
        system.run(posts[start:start + step]).save_checkpoint(path)
    text = path.read_text()
    lines = read_lines(path)
    new = corrupt(text, lines)
    if isinstance(new, str):
        path.write_text(new)
    else:
        write_lines(path, lines)
    return path


@pytest.mark.parametrize("corrupt, problem", [
    (lambda text, p: "[1, 2]", "not a JSON object"),
    (lambda text, p: text[:text.index("\n") // 2], "Expecting|Unterminated"),
    (lambda text, p: p[1].pop("rngs"), "missing field 'rngs'"),
    (lambda text, p: _set(p, [1, "particles", 0, "archive", 0, 1], "soon"),
     "particle 0: retirement time 'soon' is not a finite number"),
    (lambda text, p: _set(p, [1, "particles", 0, "archive", 0, 1], 10**400),
     "line 2: int too large to convert to float"),
    (lambda text, p: _set(p, [1, "particles", 1, "labels", 5], 99),
     "particle 1: label 99 out of range"),
    (lambda text, p: _set(p, [1, "particles", 0, "archive", 0, 0], 10**6),
     "particle 0: archived label out of range"),
    (lambda text, p: _swap_times(p, 7, 8), r"post 8: t=\S+ precedes the previous post's"),
    (lambda text, p: _set(p, [1, "posts", -1, 0], 0),
     "post 299: t=0 precedes the previous post's"),
    (lambda text, p: _set(p, [1, "log_weights", 0], math.nan), "non-finite weights"),
    (lambda text, p: _set(p, [1, "log_weights"], [800, 799, 798, 797]),
     "non-finite weights"),
    (lambda text, p: p[1]["particles"][2]["labels"].pop(),
     "particle 2: 299 assignments for 300 posts"),
    (lambda text, p: p[1]["posts"].pop(), "assignments for 299 posts"),
    (lambda text, p: _set(p, [1, "posts", 7, 1], [0, 30]),
     "post 7: post field words holds id 30"),
    (lambda text, p: p[1]["particles"].pop(), "must each number n_particles = 4"),
], ids=["list", "truncated", "no-rngs", "retirement-time", "huge-retirement-time", "label",
        "archived-label",
        "post-order", "last-post-at-zero", "nan-weight", "overflowing-weights",
        "assignment-count", "post-count", "invalid-post", "particle-count"])
def test_malformed_checkpoint_is_named(tmp_path, corrupt, problem):
    path = corrupted(tmp_path, corrupt, n_saves=1)
    with pytest.raises(ValueError, match=problem) as caught:
        ParticleSystem.load_checkpoint(path)
    assert str(path) in str(caught.value)


@pytest.mark.parametrize("corrupt, problem", [
    (lambda text, p: "\n".join(line[:100] if i == 1 else line
                               for i, line in enumerate(text.split("\n"))),
     "line 2: (Expecting|Unterminated)"),
    (lambda text, p: _set(p, [2, "particles", 0, "from"], 4),
     "line 3: particle 0: from 4 out of range"),
    (lambda text, p: _set(p, [2, "particles", 3, "from"], None),
     "line 3: particle 3: from None out of range"),
    (lambda text, p: _set(p, [1, "particles", 0, "from"], 0),
     "line 2: particle 0: from 0 out of range"),
    (lambda text, p: p[2]["particles"][1]["labels"].pop(),
     "line 3: particle 1: 149 assignments for 150 posts"),
    (lambda text, p: text[:text.index("\n") + 1], "no complete save line"),
    (lambda text, p: _set(p, [2, "posts", 0, 0], 0),
     "line 3: post 150: t=0 precedes the previous post's"),
], ids=["middle-line", "from", "from-null", "from-on-first-line", "label-count", "header-only",
        "post-order-across-lines"])
def test_malformed_checkpoint_line_is_named(tmp_path, corrupt, problem):
    path = corrupted(tmp_path, corrupt, n_saves=2)
    with pytest.raises(ValueError, match=problem) as caught:
        ParticleSystem.load_checkpoint(path)
    assert str(path) in str(caught.value)


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
    for summary in result.summaries:
        assert summary.alpha >= 0 and summary.tau in hyper.psi_tau


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
# shared scoring


@pytest.mark.parametrize("config_kw, factors", [
    ({}, {}),
    (dict(prune_threshold=1e-12), {}),
    ({}, dict(spatial=False)),
    ({}, dict(content=False)),
    (dict(refit_all=False), {}),
], ids=["exact", "pruned", "content-only", "spatial-only", "no-refit"])
def test_shared_patterns_score_as_if_alone(config_kw, factors):
    # kappa 1 resamples after nearly every post, so particles share most
    # PatternStats objects; each must score as it would in a call of its own
    hyper = base_hyper(n_particles=4, kappa_thresh=1.0, **FIVE_TAU_HYPER)
    posts = make_stream(300, seed=13, hyper=hyper, **FIVE_TAU_STREAM)
    config = EngineConfig(seed=13, **config_kw)
    prune_abs = config.prune_threshold * hyper.lambda0
    system = ParticleSystem(hyper, config).run(posts[:150])
    shared = pruned = 0
    for post in posts[150:]:
        particles = system.particles
        together = smc.score_candidates(particles, post, hyper, config, system.t_last,
                                        prune_abs=prune_abs, **factors)
        alone = [smc.score_candidates([p], post, hyper, config, system.t_last,
                                      prune_abs=prune_abs, **factors)[0]
                 for p in particles]
        assert repr(together) == repr(alone)
        held = [id(s) for p in particles for s in p.patterns.values()]
        shared += len(held) - len(set(held))
        pruned += sum(len(entry[4]) for entry in together)
        system.step(post)
    assert system.n_resamples > 100 and shared > 0
    assert (pruned > 0) == bool(prune_abs)


def test_patterns_sharing_table_keys_score_as_if_alone():
    # equal total word counts but different counts of the post's words, and
    # equal located-post counts but different spreads
    hyper = base_hyper(n_particles=1, psi_tau=(0.25, 1.0))
    config = EngineConfig()
    posts_of = [
        [(0.0, [0, 1, 2], 0.1, 0.1), (0.2, [3, 4, 5], 0.2, 0.1)],
        [(0.1, [0, 0, 0], 0.5, 0.5), (0.3, [1, 1, 1], 0.5, 0.6)],
        [(0.1, [0, 0, 1], 0.5, 0.5), (0.3, [7, 8, 9], 0.9, 0.1)],
    ]
    patterns = []
    for event_posts in posts_of:
        stats = PatternStats(2, 0.5, 0.25, 0)
        for t, words, x, y in event_posts:
            stats.attach(t, words, x, y, hyper.psi_tau)
        patterns.append(stats)
    assert len({(s.total_words, s.n_spatial) for s in patterns}) == 1
    assert len({s.m2 for s in patterns}) == len(patterns)
    post = GeoPost(t=0.5, words=[0, 0, 1], x=0.4, y=0.4)
    together = Particle()
    together.patterns = dict(enumerate(patterns))
    [(labels, scores, _, _, _)] = smc.score_candidates([together], post, hyper, config, 0.3)
    assert labels == [0, 1, 2]
    for label, stats in enumerate(patterns):
        alone = Particle()
        alone.patterns = {label: stats}
        [(_, alone_scores, _, _, _)] = smc.score_candidates([alone], post, hyper, config, 0.3)
        assert repr(alone_scores) == repr([scores[label], scores[-1]])
    assert len(set(scores)) == len(scores)


# ----------------------------------------------------------------------
# quiet patterns


def member_posts(system, particle):
    """Each live pattern's posts, by label, from the stepped posts."""
    members = {}
    for (post, _), label in zip(system.posts(), particle.assignments()):
        if label in particle.patterns:
            members.setdefault(label, []).append(post)
    return members


@pytest.mark.parametrize("psi_tau, config_kw", [
    ((0.25,), {}),
    (FIVE_TAUS, {}),
    (FIVE_TAUS, dict(fixed_kernel=(0.8, 0.25))),
    (FIVE_TAUS, dict(refit_all=False)),
    (FIVE_TAUS, dict(spatial=False)),
], ids=["one-tau", "five-tau", "fixed-kernel", "no-refit", "spatial-off"])
def test_quiet_patterns_change_no_float(psi_tau, config_kw):
    # an exact run leaves out patterns that cannot change a double: lambda(t)
    # and Lambda equal the sums over every live pattern to the last bit, and
    # each left-out pattern's score is below 2^-64 of "new"'s
    hyper = base_hyper(n_particles=2, **{**FIVE_TAU_HYPER, "psi_tau": psi_tau})
    posts = make_stream(300, seed=13, hyper=base_hyper(**FIVE_TAU_HYPER), **GAPPED_STREAM)
    config = EngineConfig(seed=13, **config_kw)
    refit = config.fixed_kernel is None and config.refit_all
    system = ParticleSystem(hyper, config)
    quiet = 0
    for post in posts:
        t_prev = system.t_last
        scored = smc.score_candidates(system.particles, post, hyper, config, t_prev,
                                      spatial=config.spatial)
        for particle, (labels, scores, lam_t, big_lambda, _) in zip(system.particles, scored):
            kernels = {label: (stats, *(fit_kernel(stats, t_prev, hyper)
                                        if refit and stats.n_posts >= 2
                                        else (stats.alpha, stats.tau, stats.tau_idx)))
                       for label, stats in particle.patterns.items()}
            assert (lam_t, big_lambda) == rates_over_every_pattern(
                kernels.values(), hyper.lambda0, t_prev, post.t)
            members = member_posts(system, particle)
            for label in set(particle.patterns) - set(labels):
                stats, alpha, tau, _ = kernels[label]
                lam_k = intensity_direct([p.t for p in members[label]], post.t, alpha, tau)
                score = (math.log(lam_k) if lam_k > 0.0 else -math.inf) \
                    + sequential_predictive_oracle(stats, post.words, hyper)
                if config.spatial:
                    score += math.log(spatial_predictive_closed_form(
                        [(p.x, p.y) for p in members[label]], hyper.beta_space,
                        (post.x, post.y)))
                assert score < scores[-1] - 64 * math.log(2.0)
                quiet += 1
        system.step(post)
    assert quiet > 1000


def test_quiet_rule_keeps_a_matching_old_pattern():
    # long posts from a large vocabulary make "new"'s content prior tiny, so
    # an old pattern whose words match the post still outscores 2^-64 of
    # "new" although its intensity is below lambda0 * 2^-60
    hyper = base_hyper(lambda0=1.0, theta0=0.01, vocab_size=1000, psi_tau=(0.25,),
                       n_particles=1)
    words = list(range(12))
    stats = PatternStats(1, 0.5, 0.25, 0)
    stats.attach(0.0, words, 0.0, 0.0, hyper.psi_tau)
    particle = Particle()
    particle.patterns[0] = stats
    t = 0.25 * 64 * math.log(2.0)
    assert 0.5 * math.exp(-t / 0.25) < hyper.lambda0 * 2.0 ** -60
    config = EngineConfig()
    matching = GeoPost(t=t, words=words, x=0.0, y=0.0)
    [(labels, scores, *_)] = smc.score_candidates([particle], matching, hyper, config, t)
    assert labels == [0] and math.isfinite(scores[0])
    assert scores[0] > scores[-1]
    # the bound takes the content factor as 1, so only far later is the
    # pattern quiet for this post
    later = 0.25 * 200 * math.log(2.0)
    matching.t = later
    [(labels, *_)] = smc.score_candidates([particle], matching, hyper, config, later)
    assert labels == []


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
    for summary in system.map_estimate().summaries:
        assert math.isfinite(summary.alpha) and math.isfinite(summary.tau)


def test_huge_gaps_start_a_new_pattern_per_post():
    posts = moved(edge_stream(100), t=lambda i, p: i * 1e6)
    system = edge_run(posts)
    assert np.all(np.isfinite(system.log_weights))
    for summary in system.map_estimate().summaries:
        assert math.isfinite(summary.alpha) and math.isfinite(summary.tau)
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
