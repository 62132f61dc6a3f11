"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with pytest -s to see them inline).

Statistical checks run on pinned seeds that were verified to pass with
margin; thresholds and budgets are stated next to each criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from sdhawkes.evaluation import (
    SmcPredictor,
    UniformPredictor,
    alpha_precision_records,
    dataset_spatial_scale,
    location_prediction_protocol,
    nmi,
    perplexity,
    rmse_selected,
    spatial_gof,
)
from sdhawkes.generate import SynthConfig, generate
from sdhawkes.hawkes import fit_kernel
from sdhawkes.smc import EngineConfig, ParticleSystem
from sdhawkes.types import Hyperparams

from oracles import (
    alpha_argmax_grid,
    build_stats,
    enumerate_posterior,
    sequential_predictive_oracle,
    spatial_predictive_quadrature,
)
from probes import content_term, spatial_term


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def common_hyper(**kw):
    defaults = dict(lambda0=10.0, theta0=1.0, beta_space=0.01, alpha_time=0.1,
                    beta_time=0.2, psi_tau=(1.0,), vocab_size=15, n_particles=4)
    defaults.update(kw)
    return Hyperparams(**defaults)


# ----------------------------------------------------------------------

def test_criterion_1_content_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        v = int(rng.integers(1, 51))
        theta0 = float(rng.uniform(0.01, 10.0))
        hyper = Hyperparams(vocab_size=v, theta0=theta0)
        n_docs = int(rng.integers(0, 6))
        docs = [list(rng.integers(0, v, size=rng.integers(1, 9)))
                for _ in range(n_docs)]
        stats = build_stats(times=np.arange(float(n_docs)), docs=docs) \
            if n_docs else None
        doc = list(rng.integers(0, v, size=rng.integers(1, 12)))
        gap = abs(content_term(stats, doc, hyper)
                  - sequential_predictive_oracle(stats, doc, hyper))
        worst = max(worst, gap)
    oracle_ok = worst < 1e-9

    norm_worst = 0.0
    for v, length in ((2, 4), (3, 3), (4, 2), (4, 4)):
        hyper = Hyperparams(vocab_size=v, theta0=0.7)
        stats = build_stats(times=[0.0], docs=[[0] * 2]) if v > 1 else None
        total = math.fsum(
            math.exp(content_term(stats, list(doc), hyper))
            for doc in itertools.product(range(v), repeat=length))
        norm_worst = max(norm_worst, abs(total - 1.0))
    norm_ok = norm_worst < 1e-8
    elapsed = time.monotonic() - t0
    report(1, oracle_ok and norm_ok and elapsed < 10.0,
           f"oracle gap {worst:.2e} (<1e-9), enumeration gap {norm_worst:.2e} "
           f"(<1e-8), {elapsed:.1f}s (<10s)")


def test_criterion_2_spatial_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        pts = rng.normal(rng.uniform(-2, 2), rng.uniform(0.05, 2.0), size=(n, 2))
        beta = float(rng.uniform(0.05, 2.0))
        q = pts.mean(axis=0) + rng.normal(0, 1.5, size=2)
        stats = build_stats(times=np.arange(float(n)), locations=pts)
        fast = spatial_term(stats, beta, q[0], q[1])
        slow = spatial_predictive_quadrature(pts, beta, q, n_z=601, n_u=1001)
        worst = max(worst, abs(fast - slow) / abs(slow))
    elapsed = time.monotonic() - t0
    report(2, worst < 1e-4 and elapsed < 60.0,
           f"worst relative error {worst:.2e} (<1e-4) on 200 configs, "
           f"{elapsed:.1f}s (<60s)")


def test_criterion_3_alpha_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        times = np.cumsum(rng.exponential(rng.uniform(0.05, 1.0), size=n))
        tau = float(rng.uniform(0.05, 10.0))
        a = float(rng.uniform(0.05, 5.0))
        b = float(rng.uniform(0.05, 5.0))
        t_now = float(times[-1] + rng.uniform(0.0, 3.0))
        hyper = Hyperparams(alpha_time=a, beta_time=b, psi_tau=(tau,))
        stats = build_stats(times=times, psi_tau=(tau,), tau=tau)
        alpha_fast, _, _ = fit_kernel(stats, t_now, hyper)
        alpha_slow, _ = alpha_argmax_grid(times, tau, t_now, a, b)
        worst = max(worst, abs(alpha_fast - alpha_slow) / alpha_slow)
    elapsed = time.monotonic() - t0
    report(3, worst < 1e-6 and elapsed < 10.0,
           f"worst relative error {worst:.2e} (<1e-6) on 1000 instances, "
           f"{elapsed:.1f}s (<10s)")


def test_criterion_4_exact_posterior():
    t0 = time.monotonic()
    alpha0, tau0 = 1.5, 1.0

    def strong_posts(seed):
        gen_h = Hyperparams(lambda0=1.0, theta0=1.0, beta_space=0.005,
                            psi_tau=(tau0,), vocab_size=8)
        return generate(SynthConfig(hyper=gen_h, n_posts=8, n_words=6,
                                    sigma0=0.02, alpha0=alpha0, seed=seed)).posts

    # total variation against the enumerated posterior at |P| = 10^4
    hyper_tv = Hyperparams(lambda0=1.0, theta0=1.0, beta_space=0.005,
                           psi_tau=(tau0,), vocab_size=8, n_particles=10_000)
    posts = strong_posts(0)
    exact = enumerate_posterior(posts, hyper_tv, alpha0, tau0)
    system = ParticleSystem(hyper_tv, EngineConfig(fixed_kernel=(alpha0, tau0),
                                                   seed=0))
    for post in posts:
        system.step(post)
    approx: dict[tuple, float] = {}
    for w, p in zip(system.weights, system.particles):
        key = tuple(p.assignments())
        approx[key] = approx.get(key, 0.0) + float(w)
    tv = 0.5 * sum(abs(exact.get(k, 0.0) - approx.get(k, 0.0))
                   for k in set(exact) | set(approx))

    # MAP agreement over 100 seeded trials
    hyper_map = Hyperparams(lambda0=1.0, theta0=1.0, beta_space=0.005,
                            psi_tau=(tau0,), vocab_size=8, n_particles=2000)
    matches = 0
    for seed in range(100):
        posts = strong_posts(seed)
        exact = enumerate_posterior(posts, hyper_map, alpha0, tau0)
        best_seq = max(exact.items(), key=lambda kv: kv[1])[0]
        system = ParticleSystem(hyper_map,
                                EngineConfig(fixed_kernel=(alpha0, tau0),
                                             seed=seed))
        for post in posts:
            system.step(post)
        matches += tuple(system.map_estimate().assignments) == best_seq
    elapsed = time.monotonic() - t0
    report(4, tv < 0.05 and matches >= 95 and elapsed < 300.0,
           f"TV {tv:.4f} (<0.05) at 1e4 particles; MAP matches {matches}/100 "
           f"(>=95); {elapsed:.0f}s (<300s)")


def test_criterion_5_generator_correctness():
    t0 = time.monotonic()
    hyper = common_hyper()
    synth = generate(SynthConfig(hyper=hyper, n_posts=100_000, n_words=3,
                                 sigma0=0.1, alpha0=0.0, seed=55))
    times = np.array([p.t for p in synth.posts])
    gaps = np.diff(np.concatenate([[0.0], times]))
    _, p_value = sps.kstest(gaps, "expon", args=(0.0, 1.0 / hyper.lambda0))
    ks_ok = p_value > 0.01
    all_new = all(p.label_true == i for i, p in enumerate(synth.posts))

    # word frequency CI: 1e5 single-word docs from one fixed theta
    from sdhawkes.generate import PatternParams, emit_post
    from sdhawkes.hawkes import TimeKernel

    rng = np.random.default_rng(56)
    theta = rng.dirichlet(np.ones(5))
    params = PatternParams(theta=theta, center=(0.5, 0.5), sigma=0.05,
                           kernel=TimeKernel(0.0, 1.0))
    cfg = SynthConfig(hyper=common_hyper(vocab_size=5), n_posts=1, n_words=1,
                      seed=57, unit_square=False)
    counts = np.zeros(5)
    locs = np.zeros((10_000, 2))
    for i in range(10_000):
        post = emit_post(params, 1.0, cfg, rng)
        counts[post.words[0]] += 1
        locs[i] = (post.x, post.y)
    freq = counts / counts.sum()
    word_ok = all(
        abs(freq[v] - theta[v]) < 5 * math.sqrt(theta[v] * (1 - theta[v]) / 10_000)
        + 1e-12
        for v in range(5))
    loc_se = 0.05 / math.sqrt(10_000)
    loc_ok = (abs(locs[:, 0].mean() - 0.5) < 5 * loc_se
              and abs(locs[:, 1].mean() - 0.5) < 5 * loc_se)
    elapsed = time.monotonic() - t0
    report(5, ks_ok and all_new and word_ok and loc_ok and elapsed < 120.0,
           f"KS p={p_value:.3f} (>0.01) on 1e5 gaps; all-new labels {all_new}; "
           f"word/location CIs ok; {elapsed:.0f}s (<120s)")


def _nmi_trial(n_posts, seed, hyper, sigma0, n_words, spatial=True):
    synth = generate(SynthConfig(hyper=hyper, n_posts=n_posts, n_words=n_words,
                                 sigma0=sigma0, seed=seed))
    system = ParticleSystem(hyper, EngineConfig(seed=seed, spatial=spatial,
                                                prune_threshold=1e-12))
    system.run(synth.posts)
    return nmi([p.label_true for p in synth.posts],
               system.map_estimate().assignments)


def test_criterion_6_nmi_stable_with_stream_size():
    t0 = time.monotonic()
    hyper = common_hyper()
    small = [_nmi_trial(500, seed, hyper, 0.03, 7) for seed in range(20)]
    large = [_nmi_trial(4000, 100 + seed, hyper, 0.03, 7) for seed in range(20)]
    gap = abs(float(np.mean(large)) - float(np.mean(small)))
    elapsed = time.monotonic() - t0
    report(6, gap < 0.1 and elapsed < 1800.0,
           f"mean NMI {np.mean(small):.3f} at N=500 vs {np.mean(large):.3f} "
           f"at N=4000, gap {gap:.3f} (<0.1), 20 trials each, "
           f"{elapsed:.0f}s (<1800s)")


def test_criterion_7_spatremoves_beat_content_only():
    t0 = time.monotonic()
    sigma0 = 0.01  # smallest point of the scale grid
    diffs = []
    for seed in range(30):
        hyper = common_hyper(beta_space=sigma0 ** 2, n_particles=8)
        synth = generate(SynthConfig(hyper=hyper, n_posts=500, n_words=7,
                                     sigma0=sigma0, seed=seed))
        truth = [p.label_true for p in synth.posts]
        scores = {}
        for name, spatial in (("sdhp", True), ("dhp", False)):
            system = ParticleSystem(hyper, EngineConfig(
                seed=seed, spatial=spatial, prune_threshold=1e-12))
            system.run(synth.posts)
            scores[name] = nmi(truth, system.map_estimate().assignments)
        diffs.append(scores["sdhp"] - scores["dhp"])
    diffs = np.array(diffs)
    se = float(diffs.std(ddof=1) / math.sqrt(len(diffs)))
    mean = float(diffs.mean())
    elapsed = time.monotonic() - t0
    report(7, mean > 2 * se and elapsed < 1800.0,
           f"paired NMI gain {mean:.3f} vs 2*SE {2 * se:.3f} over 30 trials, "
           f"{elapsed:.0f}s (<1800s)")


def test_criterion_8_spatial_value_grows_with_sparse_content():
    t0 = time.monotonic()

    def gap(n_words, seed):
        hyper = common_hyper(n_particles=1)
        synth = generate(SynthConfig(hyper=hyper, n_posts=2000,
                                     n_words=n_words, sigma0=0.03, seed=seed))
        truth = [p.label_true for p in synth.posts]
        vals = {}
        for name, spatial in (("sdhp", True), ("dhp", False)):
            system = ParticleSystem(hyper, EngineConfig(
                seed=seed, spatial=spatial, prune_threshold=1e-12))
            system.run(synth.posts)
            vals[name] = nmi(truth, system.map_estimate().assignments)
        return vals["sdhp"] - vals["dhp"]

    wins = sum(gap(2, seed) > gap(15, 10_000 + seed) for seed in range(30))
    p_value = sps.binomtest(wins, 30, 0.5, alternative="greater").pvalue
    elapsed = time.monotonic() - t0
    report(8, p_value < 0.05 and elapsed < 2700.0,
           f"gap(2 words) > gap(15 words) in {wins}/30 paired trials, "
           f"sign test p={p_value:.2e} (<0.05), {elapsed:.0f}s (<2700s)")


def test_criterion_9_alpha_precision_improves_with_size():
    t0 = time.monotonic()
    records = []
    for seed in range(12):
        hyper = common_hyper()
        synth = generate(SynthConfig(hyper=hyper, n_posts=5500, n_words=15,
                                     sigma0=0.02, seed=seed))
        system = ParticleSystem(hyper, EngineConfig(seed=seed,
                                                    prune_threshold=1e-12))
        system.run(synth.posts)
        records.extend(alpha_precision_records(system.map_estimate(),
                                               synth.posts, synth.params))
    buckets = [(2, 5), (6, 20), (21, 100), (101, 10 ** 9)]
    medians = []
    counts = []
    for lo, hi in buckets:
        deltas = [d for size, d in records if lo <= size <= hi]
        counts.append(len(deltas))
        medians.append(float(np.median(deltas)) if deltas else math.nan)
    populated = all(c > 0 for c in counts)
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a + 1e-12)
    elapsed = time.monotonic() - t0
    report(9, populated and inversions <= 1 and elapsed < 1800.0,
           f"bucket medians {['%.3f' % m for m in medians]} "
           f"(counts {counts}), {inversions} inversion(s) (<=1 allowed), "
           f"{elapsed:.0f}s (<1800s)")


def test_criterion_10_complexity_scaling():
    t0 = time.monotonic()
    gen_hyper = common_hyper(lambda0=5.0, psi_tau=(0.25,), vocab_size=30)
    synth = generate(SynthConfig(hyper=gen_hyper, n_posts=100_000, n_words=3,
                                 sigma0=0.05, alpha0=0.8, seed=0))
    posts = synth.posts

    def timed_run(stream, n_particles):
        hyper = common_hyper(lambda0=5.0, psi_tau=(0.25,), vocab_size=30,
                             n_particles=n_particles)
        system = ParticleSystem(hyper, EngineConfig(seed=0,
                                                    prune_threshold=1e-12))
        start = time.monotonic()
        system.run(stream)
        return time.monotonic() - start

    t_p2 = timed_run(posts, 2)
    t_p4 = timed_run(posts, 4)
    t_half = timed_run(posts[:50_000], 2)
    particle_ratio = t_p4 / t_p2
    stream_ratio = t_p2 / t_half
    elapsed = time.monotonic() - t0
    report(10, 1.6 <= particle_ratio <= 2.6 and 1.8 <= stream_ratio <= 2.4,
           f"1e5-event stream: particle-doubling ratio {particle_ratio:.2f} "
           f"(in [1.6, 2.6]), stream-doubling ratio {stream_ratio:.2f} "
           f"(in [1.8, 2.4]); per-event {t_p2 / len(posts) * 1e6:.0f}us at "
           f"|P|=2; {elapsed:.0f}s")


def test_criterion_11_location_prediction_end_to_end():
    t0 = time.monotonic()
    hyper = Hyperparams(lambda0=1.0, theta0=0.05, beta_space=4e-4,
                        alpha_time=9.25, beta_time=2.5, psi_tau=(0.25,),
                        vocab_size=50, n_particles=4)
    synth = generate(SynthConfig(hyper=hyper, n_posts=1200, n_words=8,
                                 sigma0=0.02, alpha0=3.7, seed=42))
    records = location_prediction_protocol(
        synth.posts, hyper, EngineConfig(prune_threshold=1e-12),
        n_trials=100, seed=42)
    scale = dataset_spatial_scale(synth.posts)
    loose = rmse_selected(records, "loose", scale, seed=42)
    tight = rmse_selected(records, "tight", scale, seed=42)

    # degenerate stream: every pattern stays tiny, both criteria starve
    hyper_d = Hyperparams(lambda0=10.0, theta0=1.0, beta_space=4e-4,
                          alpha_time=9.25, beta_time=2.5, psi_tau=(0.25,),
                          vocab_size=50, n_particles=4)
    synth_d = generate(SynthConfig(hyper=hyper_d, n_posts=400, n_words=8,
                                   sigma0=0.02, alpha0=0.8, seed=42))
    records_d = location_prediction_protocol(
        synth_d.posts, hyper_d, EngineConfig(prune_threshold=1e-12),
        n_trials=10, seed=7)
    sentinel = (rmse_selected(records_d, "loose", 1.0, seed=7) is None
                and rmse_selected(records_d, "tight", 1.0, seed=7) is None)
    elapsed = time.monotonic() - t0
    report(11, loose is not None and loose < 0.1 and sentinel
           and elapsed < 1200.0,
           f"loose RMSE {loose:.4f} (<0.1, tight {tight:.4f}) from "
           f"{len(records)} records; degenerate stream returns the "
           f"insufficient sentinel; {elapsed:.0f}s (<1200s)")


def test_criterion_12_gof_plumbing():
    t0 = time.monotonic()
    # vocab 15 and 5-word docs chosen so exp(log V) round-trips exactly
    hyper = Hyperparams(lambda0=2.0, theta0=0.5, beta_space=1e-3,
                        alpha_time=4.0, beta_time=2.0, psi_tau=(0.5,),
                        vocab_size=15, n_particles=4)
    synth = generate(SynthConfig(hyper=hyper, n_posts=2500, n_words=5,
                                 sigma0=0.03, seed=5))
    assert len(synth.posts) == 2500

    model = SmcPredictor(hyper, EngineConfig(seed=5, prune_threshold=1e-12))
    gof = spatial_gof(synth.posts, model)
    model2 = SmcPredictor(hyper, EngineConfig(seed=5, prune_threshold=1e-12))
    perp = perplexity(synth.posts, model2)
    finite = math.isfinite(gof) and math.isfinite(perp) and perp > 0

    uniform_gof = spatial_gof(synth.posts, UniformPredictor(15))
    uniform_perp = perplexity(synth.posts, UniformPredictor(15))
    controls = uniform_gof == 0.0 and uniform_perp == 15.0
    elapsed = time.monotonic() - t0
    report(12, finite and controls,
           f"sdhp spatial gof {gof:.3f}, perplexity {perp:.2f} on 2500 posts "
           f"(burn-in 500); uniform controls exactly 0.0 and exactly 15.0; "
           f"{elapsed:.0f}s")
