"""Per-layer figures of the traced run.

Layer costs inside one ``step`` are timed by replaying the package's public
per-particle functions on system snapshots recorded during the traced job,
so the hot loop itself carries no timers. A layer a workload does not run
in its job (a checkpoint, a prediction trial, lambda0 tuning) is timed by a
small replay on the same workload's stream and engine settings, so every
workload reports every layer; ``layer_metrics`` also returns where each
figure came from.
"""

from __future__ import annotations

import copy
import statistics
import time
from dataclasses import replace

import numpy as np

from sdhawkes import dataio, evaluation
from sdhawkes.smc import (
    ParticleSystem,
    incremental_weight,
    proposal_distribution,
    systematic_resample,
)

from tracing import Snapshot, Tracer
from workloads import REPLAY_PREFIX, Data, Job

now = time.perf_counter_ns
REPS = 5


def _median_ns(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = now()
        fn()
        times.append(now() - t0)
    return statistics.median(times)


def _once_s(fn) -> float:
    t0 = now()
    fn()
    return (now() - t0) / 1e9


def scoring(snapshots: list[Snapshot]) -> dict[str, float]:
    """Per-particle cost of scoring one post, and its refit and spatial
    shares: full proposal, proposal without refit (refit_all=False), and
    proposal with the location unobserved; then the weight update."""
    full, no_refit, no_spatial, weight = [], [], [], []
    for snap in snapshots:
        system = snap.system
        post = snap.post
        hyper = system.hyper
        plain = copy.copy(system)
        plain.config = replace(system.config, refit_all=False)
        for particle in system.particles:
            full.append(_median_ns(lambda: proposal_distribution(
                particle, post, hyper, system=system, observe_location=True)))
            no_refit.append(_median_ns(lambda: proposal_distribution(
                particle, post, hyper, system=plain, observe_location=True)))
            no_spatial.append(_median_ns(lambda: proposal_distribution(
                particle, post, hyper, system=system, observe_location=False)))
            _, _, log_q = proposal_distribution(particle, post, hyper, system=system)
            weight.append(_median_ns(lambda: incremental_weight(
                particle, post, log_q, hyper, system.t_last, system=system)))
    score = statistics.fmean(full)
    return {
        "smc.score_us_per_particle": score / 1e3,
        "smc.refit_us_per_particle": (score - statistics.fmean(no_refit)) / 1e3,
        "smc.spatial_us_per_particle": (score - statistics.fmean(no_spatial)) / 1e3,
        "smc.weight_us_per_particle": statistics.fmean(weight) / 1e3,
    }


def resample_us(snapshots: list[Snapshot]) -> float:
    """``systematic_resample`` on copies of each snapshot's particle set."""
    times = []
    for i, snap in enumerate(snapshots):
        for rep in range(REPS):
            target = copy.copy(snap.system)
            target.particles = [p.clone() for p in snap.system.particles]
            target.resample_rng = np.random.default_rng([i, rep])
            t0 = now()
            systematic_resample(target)
            times.append(now() - t0)
    return statistics.median(times) / 1e3


def attach_us(snapshots: list[Snapshot], per_snapshot: int = 40) -> float:
    """``PatternStats.attach`` of the snapshot's post onto copies of the
    live patterns it was scored against."""
    times = []
    for snap in snapshots:
        system = snap.system
        post = snap.post
        taus = system.cache_taus
        for particle in system.particles:
            for stats in list(particle.patterns.values())[:per_snapshot]:
                target = stats.copy()
                t0 = now()
                target.attach(post.t, post.words, post.x, post.y, taus,
                              with_location=snap.observe)
                times.append(now() - t0)
    return statistics.fmean(times) / 1e3


def predictive_us(snapshots: list[Snapshot]) -> float:
    times = []
    for snap in snapshots:
        for kind in ("spatial", "content"):
            times.append(_median_ns(
                lambda: snap.system.predictive_logdensity(snap.post, kind)))
    return statistics.fmean(times) / 1e3


def pattern_shape(snapshots: list[Snapshot]) -> float:
    """Share of live patterns holding at least two posts."""
    live = multi = 0
    for snap in snapshots:
        for particle in snap.system.particles:
            for stats in particle.patterns.values():
                live += 1
                multi += stats.n_posts >= 2
    return multi / live if live else 0.0


def _step_ns(snap: Snapshot, halve: bool) -> tuple[float, int]:
    """Median time of ``step`` on fresh copies of a snapshot, optionally with
    every other pattern of each live set dropped (old and new, singletons
    and refit patterns alike); and the pairs scored."""
    times = []
    for _ in range(REPS):
        system = Snapshot(snap.system, snap.post, snap.observe).system
        if halve:
            for particle in system.particles:
                particle.patterns = {k: particle.patterns[k]
                                     for k in list(particle.patterns)[::2]}
        pairs = sum(len(p.patterns) for p in system.particles)
        t0 = now()
        system.step(snap.post, snap.observe)
        times.append(now() - t0)
    return statistics.median(times), pairs


def pair_cost(snapshots: list[Snapshot]) -> dict[str, float]:
    """Split one ``step`` into a cost per (particle, live pattern) pair and a
    per-post rest, by stepping each snapshot with its full and its halved
    live sets back to back (a controlled comparison, so host-speed drift
    along the stream does not bias it)."""
    slopes, rests, shares = [], [], []
    for snap in snapshots:
        full_ns, full_pairs = _step_ns(snap, halve=False)
        half_ns, half_pairs = _step_ns(snap, halve=True)
        if full_pairs == half_pairs:
            continue
        slope = (full_ns - half_ns) / (full_pairs - half_pairs)
        slopes.append(slope)
        rests.append(full_ns - slope * full_pairs)
        shares.append(slope * full_pairs / full_ns)
    if not slopes:
        return {"smc.step_ns_per_pair": 0.0, "smc.step_fixed_us": 0.0,
                "pair_share_of_step": 0.0}
    return {"smc.step_ns_per_pair": statistics.fmean(slopes),
            "smc.step_fixed_us": statistics.fmean(rests) / 1e3,
            "pair_share_of_step": statistics.fmean(shares)}


def archive_length(particle) -> int:
    n = 0
    node = particle.archive
    while node is not None:
        n += 1
        node = node[2]
    return n


def checkpoint_replay(system: ParticleSystem, data: Data) -> dict[str, float]:
    path = data.work / "replay_checkpoint.json"
    save, load = [], []
    for _ in range(3):
        save.append(_once_s(lambda: system.save_checkpoint(path)))
        load.append(_once_s(lambda: ParticleSystem.load_checkpoint(path)))
    return {
        "smc.checkpoint_save_ms": statistics.median(save) * 1e3,
        "smc.checkpoint_load_ms": statistics.median(load) * 1e3,
        "smc.checkpoint_mb": path.stat().st_size / 1e6,
    }


def layer_metrics(data: Data, job: Job, tracer: Tracer,
                  untraced_pps: float, traced_pps: float) -> tuple[dict, dict, float]:
    """All per-layer metrics of the traced run, where each came from, and
    the share of a step that scales with the live set."""
    spec = data.spec
    rec = job.recorder
    snaps = rec.snapshots
    summary = tracer.summary()
    counts = tracer.count_totals()
    steps = rec.steps
    pairs = counts.get("pairs", 0.0)
    copies = counts.get("cow_copies", 0.0)
    # self time: a step span that wrote a checkpoint also covers the write
    step_ms = summary["smc.step"]["self_ms"]
    split = pair_cost(snaps)
    out = {
        "smc.step_us": step_ms * 1e3 / steps,
        "smc.pairs_per_post": pairs / steps,
        "smc.step_ns_per_pair": split["smc.step_ns_per_pair"],
        "smc.step_fixed_us": split["smc.step_fixed_us"],
        "smc.resamples_per_1k_posts": 1e3 * counts.get("resamples", 0.0) / steps,
        "smc.resample_us": resample_us(snaps),
        "types.cow_copies_per_post": copies / steps,
        "types.cow_items_per_copy": counts.get("cow_items", 0.0) / copies if copies else 0.0,
        "types.multi_post_share": pattern_shape(snaps),
        "types.attach_us": attach_us(snaps),
        "generate.sample_s": summary["generate.generate"]["total_ms"] / 1e3
        / summary["generate.generate"]["calls"],
        "dataio.ingest_s": summary["dataio.ingest"]["total_ms"] / 1e3
        / summary["dataio.ingest"]["calls"],
        "trace.posts_per_s_untraced": untraced_pps,
        "trace.posts_per_s_traced": traced_pps,
        "trace.overhead_pct": 100.0 * (untraced_pps / traced_pps - 1.0),
    }
    out.update(scoring(snaps))
    sources = {name: "job" for name in out}
    for name in ("smc.step_ns_per_pair", "smc.step_fixed_us",
                 "smc.score_us_per_particle", "smc.refit_us_per_particle",
                 "smc.spatial_us_per_particle", "smc.weight_us_per_particle",
                 "smc.resample_us", "types.attach_us", "types.multi_post_share"):
        sources[name] = "snapshots"

    final = job.final_system if job.final_system is not None else rec.last_system
    out["types.live_patterns"] = statistics.fmean(len(p.patterns) for p in final.particles)
    out["types.archived_patterns"] = statistics.fmean(archive_length(p) for p in final.particles)

    if "smc.checkpoint_save" in summary:
        sizes = [v for _s, name, v in tracer.counts if name == "checkpoint_bytes"]
        out["smc.checkpoint_save_ms"] = summary["smc.checkpoint_save"]["mean_us"] / 1e3
        out["smc.checkpoint_load_ms"] = summary["smc.checkpoint_load"]["mean_us"] / 1e3
        out["smc.checkpoint_mb"] = statistics.fmean(sizes) / 1e6
    else:
        out.update(checkpoint_replay(final, data))
        for name in ("smc.checkpoint_save_ms", "smc.checkpoint_load_ms", "smc.checkpoint_mb"):
            sources[name] = "replay on the final state"

    if "smc.map_estimate" in summary:
        out["smc.map_estimate_ms"] = summary["smc.map_estimate"]["mean_us"] / 1e3
    else:
        out["smc.map_estimate_ms"] = statistics.median(
            _once_s(final.map_estimate) for _ in range(3)) * 1e3
        sources["smc.map_estimate_ms"] = "replay on the final state"

    if "smc.predictive" in summary:
        out["smc.predictive_us"] = summary["smc.predictive"]["mean_us"]
    else:
        out["smc.predictive_us"] = predictive_us(snaps)
        sources["smc.predictive_us"] = "snapshots"

    if "dataio.export" in summary:
        out["dataio.export_s"] = summary["dataio.export"]["total_ms"] / 1e3
    else:
        result = job.result
        out["dataio.export_s"] = _once_s(lambda: dataio.export_results(
            result, data.work / "replay_export", vocab=data.prep.vocab))
        sources["dataio.export_s"] = "replay on the final MAP"

    prefix = data.posts[:REPLAY_PREFIX]
    if "evaluation.protocol" in summary:
        out["evaluation.trial_s"] = (summary["evaluation.protocol"]["total_ms"] / 1e3
                                     / spec.trials)
    else:
        out["evaluation.trial_s"] = _once_s(lambda: evaluation.location_prediction_protocol(
            prefix, data.hyper, data.config, n_trials=1, seed=data.seed))
        sources["evaluation.trial_s"] = f"replay: 1 trial on {REPLAY_PREFIX} posts"

    if "evaluation.tune" in summary:
        out["evaluation.tune_s"] = summary["evaluation.tune"]["total_ms"] / 1e3
        out["evaluation.dhp_perplexity_s"] = (
            summary["evaluation.dhp_perplexity"]["total_ms"] / 1e3)
    else:
        out["evaluation.tune_s"] = _once_s(lambda: evaluation.tune_dhp_lambda0(
            prefix, data.hyper, 10, data.config, iters=2))
        dhp = evaluation.SmcPredictor(data.hyper, replace(data.config, spatial=False))
        out["evaluation.dhp_perplexity_s"] = _once_s(lambda: evaluation.perplexity(
            prefix, dhp, burn_in=100, window=REPLAY_PREFIX - 100))
        sources["evaluation.tune_s"] = f"replay: 2 iterations on {REPLAY_PREFIX} posts"
        sources["evaluation.dhp_perplexity_s"] = f"replay: {REPLAY_PREFIX} posts"
    return out, sources, split["pair_share_of_step"]
