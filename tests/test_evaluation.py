import math

import numpy as np
import pytest

from sdhawkes.evaluation import (
    GmmStreamPredictor,
    PredictionRecord,
    SmcPredictor,
    alpha_precision,
    alpha_precision_records,
    dataset_spatial_scale,
    location_prediction_protocol,
    nmi,
    perplexity,
    rmse_selected,
    spatial_gof,
    tune_dhp_lambda0,
)
from sdhawkes.generate import SynthConfig, generate
from sdhawkes.smc import EngineConfig, ParticleSystem
from sdhawkes.types import GeoPost, Hyperparams

from oracles import UniformPredictor, nmi_contingency


def base_hyper(**kw):
    defaults = dict(lambda0=10.0, theta0=1.0, beta_space=0.01, alpha_time=0.1,
                    beta_time=0.2, psi_tau=(1.0,), vocab_size=15, n_particles=4)
    defaults.update(kw)
    return Hyperparams(**defaults)


# ----------------------------------------------------------------------
# nmi


def test_nmi_identical():
    assert nmi([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == pytest.approx(1.0)


def test_nmi_relabeling_invariance():
    true = [0, 0, 1, 1, 2, 2]
    pred = [5, 5, 9, 9, 1, 1]
    assert nmi(true, pred) == pytest.approx(1.0)


def test_nmi_independent_partitions():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_symmetry_and_range():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = rng.integers(0, 5, size=40)
        b = rng.integers(0, 4, size=40)
        v1 = nmi(a, b)
        v2 = nmi(b, a)
        assert v1 == pytest.approx(v2, abs=1e-12)
        assert 0.0 <= v1 <= 1.0
        assert v1 == pytest.approx(nmi_contingency(a, b), abs=1e-9)


def test_nmi_single_cluster_both():
    assert nmi([0, 0, 0], [7, 7, 7]) == 1.0


def test_nmi_empty_errors():
    with pytest.raises(ValueError):
        nmi([], [])
    with pytest.raises(ValueError):
        nmi([0, 1], [0])


# ----------------------------------------------------------------------
# alpha precision


def test_alpha_precision_cases():
    assert alpha_precision(1.3, 1.3) == 0.0
    assert alpha_precision(0.7, 0.0) == pytest.approx(2.0)
    assert alpha_precision(1.0, 3.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        alpha_precision(0.0, 0.0)


def test_alpha_precision_bounded():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.uniform(1e-6, 10)
        b = rng.uniform(0, 10)
        assert 0.0 <= alpha_precision(a, b) <= 2.0


# ----------------------------------------------------------------------
# rmse selection


def make_record(i, err, size, sigma, trial=0):
    return PredictionRecord(index=i, predicted=(err, 0.0), actual=(0.0, 0.0),
                            pattern_size=size, sigma=sigma, trial=trial)


def test_rmse_insufficient_sentinel():
    records = [make_record(i, 0.1, size=5, sigma=1.0) for i in range(10)]
    assert rmse_selected(records, "loose", dataset_sigma=1.0) is None
    assert rmse_selected(records, "tight", dataset_sigma=1.0) is None


def test_rmse_single_survivor():
    records = [make_record(0, 0.5, size=8, sigma=1.0)]
    got = rmse_selected(records, "loose", dataset_sigma=2.0)
    assert got == pytest.approx(0.25)
    assert rmse_selected(records, "tight", dataset_sigma=2.0) is None


def test_rmse_tight_subset_of_loose():
    rng = np.random.default_rng(2)
    records = [make_record(i, rng.uniform(0, 1), size=int(rng.integers(2, 30)),
                           sigma=rng.uniform(0.1, 2.0)) for i in range(200)]
    loose_floor = [r for r in records if r.pattern_size >= 7]
    tight_floor = [r for r in records if r.pattern_size >= 11]
    assert set(id(r) for r in tight_floor) <= set(id(r) for r in loose_floor)


def test_rmse_top_fraction_hand_computed():
    # 100 survivors sorted by sigma; top 4% = 4 records with known errors
    records = []
    for i in range(100):
        records.append(make_record(i, err=float(i + 1), size=20,
                                   sigma=float(i + 1)))
    expected = math.sqrt((1 + 4 + 9 + 16) / 4.0) / 2.0
    got = rmse_selected(records, "loose", dataset_sigma=2.0)
    assert got == pytest.approx(expected)


def test_rmse_tie_break_prefers_larger_patterns():
    big = make_record(0, err=1.0, size=50, sigma=0.5)
    small = make_record(1, err=100.0, size=8, sigma=0.5)
    got = rmse_selected([small, big], "loose", dataset_sigma=1.0)
    assert got == pytest.approx(1.0)


def test_dataset_spatial_scale():
    posts = [GeoPost(t=float(i), words=[0], x=x, y=0.0)
             for i, x in enumerate([-1.0, 1.0, -1.0, 1.0])]
    # mean squared distance from the centroid: var_x + var_y = 1
    assert dataset_spatial_scale(posts) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# prediction protocol


def test_prediction_protocol_well_separated():
    hyper = base_hyper(lambda0=2.0, alpha_time=4.0, beta_time=2.0,
                       beta_space=4e-4, n_particles=4)
    cfg = SynthConfig(hyper=hyper, n_posts=250, n_words=5, sigma0=0.02, seed=3)
    posts = generate(cfg).posts
    records = location_prediction_protocol(posts, hyper, n_trials=6, seed=3)
    assert records
    errors = sorted(r.error for r in records)
    assert errors[len(errors) // 2] < 0.1  # well under the unit-square scale
    for r in records:
        assert r.pattern_size >= 1
        assert r.index >= int(0.2 * 250)


def test_prediction_protocol_exact_when_members_coincide():
    # every pattern member sits at exactly the same point: prediction exact
    hyper = base_hyper(lambda0=0.5, alpha_time=30.0, beta_time=2.0,
                       beta_space=1e-6, n_particles=2)
    cfg = SynthConfig(hyper=hyper, n_posts=60, n_words=6, sigma0=1e-9, seed=4)
    posts = generate(cfg).posts
    records = location_prediction_protocol(posts, hyper, n_trials=4, seed=4)
    assert records
    exact = [r for r in records if r.pattern_size >= 3]
    assert exact
    for r in exact:
        assert r.error < 1e-6


def test_prediction_protocol_keeps_tightest_trial():
    hyper = base_hyper()
    posts = generate(SynthConfig(hyper=hyper, n_posts=100, seed=5,
                                 sigma0=0.05)).posts
    records = location_prediction_protocol(posts, hyper, n_trials=8, seed=5)
    by_index: dict[int, list[PredictionRecord]] = {}
    for r in records:
        by_index.setdefault(r.index, []).append(r)
    for recs in by_index.values():
        assert len(recs) == 1


def test_prediction_protocol_too_small_errors():
    hyper = base_hyper()
    posts = generate(SynthConfig(hyper=hyper, n_posts=10, seed=6)).posts
    with pytest.raises(ValueError):
        location_prediction_protocol([], hyper, n_trials=1)
    # one post is enough: it is hidden, and its pattern has no located post
    assert location_prediction_protocol(posts[:1], hyper, n_trials=1) == []


@pytest.mark.parametrize("n_trials", [0, -3])
def test_prediction_protocol_refuses_no_trials(n_trials):
    hyper = base_hyper()
    posts = generate(SynthConfig(hyper=hyper, n_posts=50, seed=6)).posts
    with pytest.raises(ValueError, match="n_trials"):
        location_prediction_protocol(posts, hyper, n_trials=n_trials)


# ----------------------------------------------------------------------
# gof and perplexity


def small_stream(n, seed=7, **hyper_kw):
    hyper = base_hyper(**hyper_kw)
    return generate(SynthConfig(hyper=hyper, n_posts=n, seed=seed,
                                sigma0=0.05)).posts, hyper


def test_uniform_controls_exact():
    posts, hyper = small_stream(60)
    control = UniformPredictor(hyper.vocab_size)
    gof = spatial_gof(posts, control, burn_in=10, window=50)
    assert gof == 0.0
    perp = perplexity(posts, UniformPredictor(hyper.vocab_size),
                      burn_in=10, window=50)
    assert perp == pytest.approx(hyper.vocab_size, rel=1e-12)


def test_gof_requires_enough_posts():
    posts, hyper = small_stream(40)
    with pytest.raises(ValueError):
        spatial_gof(posts, UniformPredictor(15), burn_in=30, window=20)
    with pytest.raises(ValueError):
        perplexity(posts, UniformPredictor(15), burn_in=30, window=20)


def test_gof_burn_in_respected():
    posts, hyper = small_stream(80)

    class Spy(UniformPredictor):
        def __init__(self, v):
            super().__init__(v)
            self.scored = []
            self.seen = 0

        def spatial_logdensity(self, post):
            self.scored.append(self.seen)
            return 0.0

        def update(self, post):
            self.seen += 1

    spy = Spy(15)
    spatial_gof(posts, spy, burn_in=30, window=50)
    assert min(spy.scored) == 30
    assert len(spy.scored) == 50


def test_smc_predictor_runs_and_beats_uniform_on_content():
    hyper = base_hyper(lambda0=1.0, alpha_time=5.0, beta_time=2.0,
                       n_particles=2, vocab_size=10)
    posts = generate(SynthConfig(hyper=hyper, n_posts=160, n_words=5,
                                 sigma0=0.05, seed=8)).posts
    model = SmcPredictor(hyper, EngineConfig(seed=8))
    perp_model = perplexity(posts, model, burn_in=40, window=100)
    perp_uniform = perplexity(posts, UniformPredictor(10), burn_in=40, window=100)
    assert perp_uniform == pytest.approx(10.0, rel=1e-12)
    assert perp_model < perp_uniform


def test_gmm_gof_matches_entropy_on_iid_gaussian():
    rng = np.random.default_rng(9)
    sigma = 0.7
    posts = [GeoPost(t=float(i) * 0.01, words=[0],
                     x=float(rng.normal(0, sigma)), y=float(rng.normal(0, sigma)))
             for i in range(1200)]
    predictor = GmmStreamPredictor(k_schedule=[1] * 1200, sigma2_min=1e-4)
    gof = spatial_gof(posts, predictor, burn_in=200, window=1000)
    # mean log density approaches -(differential entropy) = -log(2*pi*e*s^2)
    expected = -math.log(2 * math.pi * math.e * sigma * sigma)
    assert gof == pytest.approx(expected, abs=0.05)


def test_tune_dhp_lambda0_matches_pattern_count():
    hyper = base_hyper(lambda0=10.0, n_particles=2)
    posts = generate(SynthConfig(hyper=hyper, n_posts=150, seed=10,
                                 sigma0=0.05)).posts
    target = 30
    lam = tune_dhp_lambda0(posts, hyper, target, EngineConfig(seed=10), iters=8)
    from dataclasses import replace

    system = ParticleSystem(replace(hyper, lambda0=lam),
                            EngineConfig(seed=10, spatial=False))
    got = len(system.run(posts).map_estimate().summaries)
    assert abs(got - target) <= max(3, int(0.2 * target))


# ----------------------------------------------------------------------
# alpha precision records


def test_alpha_precision_records_shape():
    hyper = base_hyper(alpha_time=2.0, beta_time=2.0, n_particles=4)
    synth = generate(SynthConfig(hyper=hyper, n_posts=200, seed=11, sigma0=0.03))
    system = ParticleSystem(hyper, EngineConfig(seed=11))
    system.run(synth.posts)
    result = system.map_estimate()
    records = alpha_precision_records(result, synth.posts, synth.params)
    assert records
    for size, delta in records:
        assert size >= 2
        assert 0.0 <= delta <= 2.0


def test_tune_dhp_lambda0_refuses_negative_iters():
    hyper = base_hyper(n_particles=1)
    posts = generate(SynthConfig(hyper=hyper, n_posts=20, seed=10)).posts
    with pytest.raises(ValueError, match="iters must be >= 0, got -3"):
        tune_dhp_lambda0(posts, hyper, 5, iters=-3)
    assert tune_dhp_lambda0(posts, hyper, 5, iters=0) == hyper.lambda0
