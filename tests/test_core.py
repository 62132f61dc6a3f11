import math

import numpy as np
import pytest

from sdhawkes.types import GeoPost, Hyperparams, PatternStats, pattern_summary

from oracles import build_stats, decay_sum_direct


def test_attach_first_post():
    stats = build_stats(times=[2.0], locations=[(0.3, 0.7)], docs=[[1, 2]])
    assert stats.n_posts == 1
    assert stats.mean_x == 0.3 and stats.mean_y == 0.7 and stats.m2 == 0.0
    assert stats.decay[0] == 1.0
    assert stats.t_ref == 2.0
    assert stats.word_counts == {1: 1, 2: 1}


def test_attach_decay_recursion():
    stats = build_stats(times=[0.0, 1.0], psi_tau=(1.0,))
    assert stats.decay[0] == pytest.approx(math.exp(-1.0) + 1.0, rel=1e-12)


def test_attach_rejects_out_of_order():
    stats = build_stats(times=[1.0])
    with pytest.raises(ValueError):
        stats.attach(0.5, [0], 0.0, 0.0, (1.0,))


def test_decay_cache_matches_direct_summation():
    rng = np.random.default_rng(7)
    psi = (0.1, 1.0, 7.0)
    times = np.cumsum(rng.exponential(0.4, size=60))
    stats = build_stats(times=times, psi_tau=psi)
    for i, tau in enumerate(psi):
        direct = decay_sum_direct(times, times[-1], tau)
        assert stats.decay[i] == pytest.approx(direct, rel=1e-9)
        assert math.exp(stats.log_decay[i]) == pytest.approx(direct, rel=1e-9)


def test_log_trigger_matches_direct_summation():
    rng = np.random.default_rng(3)
    psi = (0.5, 5.0)
    times = np.cumsum(rng.exponential(1.0, size=40))
    stats = build_stats(times=times, psi_tau=psi)
    for i, tau in enumerate(psi):
        direct = sum(
            math.log(decay_sum_direct(times[:j], times[j], tau))
            for j in range(1, len(times))
        )
        assert stats.log_trigger[i] == pytest.approx(direct, rel=1e-9)


def test_replay_matches_batch_recomputation():
    rng = np.random.default_rng(11)
    times = np.sort(rng.uniform(0, 10, size=50))
    locs = rng.normal(5.0, 2.0, size=(50, 2))
    docs = [list(rng.integers(0, 20, size=5)) for _ in range(50)]
    stats = build_stats(times=times, locations=locs, docs=docs)

    batch_counts = {}
    for doc in docs:
        for w in doc:
            batch_counts[w] = batch_counts.get(w, 0) + 1
    assert stats.word_counts == batch_counts
    assert stats.total_words == sum(batch_counts.values())
    assert stats.mean_x == pytest.approx(locs[:, 0].mean(), rel=1e-9)
    assert stats.mean_y == pytest.approx(locs[:, 1].mean(), rel=1e-9)
    centered = ((locs - locs.mean(axis=0)) ** 2).sum()
    assert stats.m2 == pytest.approx(centered, rel=1e-9)


def test_skip_location_updates():
    stats = build_stats(times=[0.0])
    stats.attach(1.0, [0], 9.0, 9.0, (1.0,), with_location=False)
    assert stats.n_posts == 2
    assert stats.n_spatial == 1
    assert stats.mean_x == 0.0 and stats.m2 == 0.0


def test_pattern_summary_basics():
    stats = build_stats(times=[1.0], locations=[(0.3, 0.7)], docs=[[4]])
    s = pattern_summary(stats, beta_space=0.5)
    assert s.mean == pytest.approx((0.3, 0.7))
    assert s.time_span == 0.0
    assert s.size == 1

    stats2 = build_stats(times=[0.0, 2.0], locations=[(0.0, 0.0), (2.0, 0.0)])
    s2 = pattern_summary(stats2, beta_space=0.5)
    assert s2.mean == pytest.approx((1.0, 0.0))
    assert s2.time_span == 2.0


def test_pattern_summary_top_words():
    stats = build_stats(times=[0.0], docs=[[0, 0, 0, 1]])
    s = pattern_summary(stats, beta_space=0.5, top_k=1)
    assert s.top_words == [(0, 3)]


def test_pattern_summary_empty_errors():
    stats = PatternStats(n_taus=1, alpha=0.5, tau=1.0, tau_idx=0)
    with pytest.raises(ValueError):
        pattern_summary(stats, beta_space=0.5)


def test_copy_is_independent():
    stats = build_stats(times=[0.0, 1.0], docs=[[1], [2]])
    dup = stats.copy(owner=object())
    dup.attach(2.0, [3], 0.0, 0.0, (1.0,))
    assert stats.n_posts == 2
    assert dup.n_posts == 3
    assert 3 not in stats.word_counts


def test_hyperparams_validation():
    Hyperparams().validate()
    with pytest.raises(ValueError):
        Hyperparams(lambda0=0.0).validate()
    with pytest.raises(ValueError):
        Hyperparams(psi_tau=(1.0, 0.5)).validate()
    with pytest.raises(ValueError):
        Hyperparams(psi_tau=()).validate()
    with pytest.raises(ValueError):
        Hyperparams(kappa_thresh=0.0).validate()


def test_geopost_validation():
    GeoPost(t=0.0, words=[1], x=0.0, y=0.0).validate(vocab_size=2)
    GeoPost(t=0.0, words=[1], x=math.nan, y=0.0).validate(2, with_location=False)
    with pytest.raises(ValueError):
        GeoPost(t=-1.0, words=[1], x=0.0, y=0.0).validate(2)
    with pytest.raises(ValueError):
        GeoPost(t=0.0, words=[], x=0.0, y=0.0).validate(2)
    with pytest.raises(ValueError):
        GeoPost(t=0.0, words=[2], x=0.0, y=0.0).validate(2)
    with pytest.raises(ValueError):
        GeoPost(t=0.0, words=[1], x=math.nan, y=0.0).validate(2)
