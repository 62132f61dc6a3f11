"""Online particle-filter inference over pattern assignments.

Each incoming post is scored against every live pattern (and "new") with the
product of the temporal prior, the collapsed content marginal and the
collapsed spatial marginal; the particle samples an assignment from that
proposal and multiplies its weight by p(t_n | history) * Q_n, where Q_n is
the proposal's pre-normalization sum. Systematic resampling fires whenever
the effective sample size drops below kappa_thresh * n_particles.

``score_candidates`` is the one place these model terms are evaluated: the
step, the proposal, the weight update and the one-step-ahead predictive all
call it.

Particles use copy-on-write state: pattern statistics are shared between
resampled offspring until one of them mutates, assignment histories are
shared cons chains, and (optionally) patterns whose possible intensity
contribution has decayed to nothing move, uncopied, to a shared archive.
This keeps the per-post cost proportional to the number of *live* patterns.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass
from itertools import chain
from math import exp, lgamma, log, log1p

import numpy as np

from .hawkes import fit_kernel
from .types import (
    ClusteringResult,
    GeoPost,
    Hyperparams,
    Particle,
    PatternStats,
    pattern_summary,
)

__all__ = [
    "EngineConfig",
    "ParticleSystem",
    "ess",
    "systematic_resample",
    "score_candidates",
    "proposal_distribution",
    "incremental_weight",
]

CHECKPOINT_VERSION = 4


@dataclass(slots=True)
class EngineConfig:
    """Inference options.

    spatial=False disables the location factor entirely (the content+time
    baseline). fixed_kernel pins every pattern's (alpha, tau) and disables
    refitting. prune_threshold > 0 retires patterns whose maximal intensity
    contribution falls below prune_threshold * lambda0 (an approximation;
    leave at 0 for exact runs). refit_all=False refits only the pattern that
    received the post, leaving other kernels at their last attach-time fit.
    """

    spatial: bool = True
    fixed_kernel: tuple[float, float] | None = None
    refit_all: bool = True
    prune_threshold: float = 0.0
    seed: int = 0


def ess(weights) -> float:
    """Effective sample size 1 / sum(w_i^2) of normalized weights."""
    w = np.asarray(weights, dtype=float)
    return float(1.0 / np.sum(w * w))


class ParticleSystem:
    """A set of weighted assignment hypotheses advanced one post at a time."""

    def __init__(self, hyper: Hyperparams, config: EngineConfig | None = None):
        hyper.validate()
        self.hyper = hyper
        self.config = config or EngineConfig()
        if self.config.fixed_kernel is not None:
            alpha0, tau0 = self.config.fixed_kernel
            if alpha0 < 0 or tau0 <= 0:
                raise ValueError("fixed kernel needs alpha >= 0 and tau > 0")
            self.cache_taus: tuple[float, ...] = (tau0,)
        else:
            self.cache_taus = hyper.psi_tau
        self.n = 0
        self.t_last = 0.0
        self.particles = [Particle() for _ in range(hyper.n_particles)]
        self.log_weights = np.zeros(hyper.n_particles)
        self.weights = np.full(hyper.n_particles, 1.0 / hyper.n_particles)
        seq = np.random.SeedSequence(self.config.seed)
        children = seq.spawn(hyper.n_particles + 1)
        self.rngs = [np.random.default_rng(s) for s in children[:-1]]
        self.resample_rng = np.random.default_rng(children[-1])
        self.n_resamples = 0

    # ------------------------------------------------------------------
    # stepping

    def step(self, post: GeoPost, observe_location: bool = True) -> "ParticleSystem":
        """Assimilate one post: propose, weight, refit, maybe resample."""
        hyper = self.hyper
        post.validate(hyper.vocab_size, with_location=observe_location)
        t = post.t
        if t < self.t_last:
            raise ValueError(f"out-of-order post: t={t} < {self.t_last}")
        cfg = self.config
        psi = self.cache_taus
        t_prev = self.t_last
        spatial_obs = cfg.spatial and observe_location
        prune_abs = cfg.prune_threshold * hyper.lambda0
        alpha_new, tau_new = cfg.fixed_kernel or (hyper.alpha_time / hyper.beta_time, psi[0])

        scored = score_candidates(self.particles, post, hyper, cfg, t_prev,
                                  spatial=spatial_obs, prune_abs=prune_abs)
        for p_idx, (particle, (labels, scores, _, big_lambda, prune)) in enumerate(
                zip(self.particles, scored)):
            rng = self.rngs[p_idx]
            patterns = particle.patterns
            # a retired pattern is never written again, so the archive may
            # hold the (possibly shared) object itself
            for label in prune:
                particle.archive = (label, patterns.pop(label), particle.archive, t_prev)

            m = max(scores)
            exps = [exp(s - m) for s in scores]
            total = sum(exps)
            # weight update: log p(t|.) + log Q = -Lambda + logsumexp(scores)
            self.log_weights[p_idx] += m + log(total) - big_lambda

            u = rng.random() * total
            acc = 0.0
            choice = len(scores) - 1
            for i, e in enumerate(exps):
                acc += e
                if u <= acc:
                    choice = i
                    break

            if choice == len(scores) - 1:
                label = particle.S
                particle.S += 1
                stats = PatternStats(len(psi), alpha_new, tau_new, 0, owner=particle.token)
                patterns[label] = stats
            else:
                label = labels[choice]
                stats = particle.writable(label)
            stats.attach(t, post.words, post.x, post.y, psi,
                         with_location=observe_location)
            if stats.n_posts >= 2 and cfg.fixed_kernel is None:
                stats.alpha, stats.tau, stats.tau_idx = fit_kernel(stats, t, hyper)
            particle.record_assignment(label)

        self.n += 1
        self.t_last = t
        self._normalize()
        n_p = len(self.particles)
        if n_p > 1 and ess(self.weights) < hyper.kappa_thresh * n_p:
            systematic_resample(self)
        return self

    def _normalize(self) -> None:
        m = float(np.max(self.log_weights))
        self.log_weights -= m + math.log(np.sum(np.exp(self.log_weights - m)))
        w = np.exp(self.log_weights)
        self.weights = w / w.sum()

    def run(self, posts, hidden: set[int] | None = None,
            checkpoint_every: int | None = None,
            checkpoint_path=None) -> "ParticleSystem":
        """Process a chronological stream; indices in ``hidden`` contribute
        no location information."""
        for post in posts:
            observe = hidden is None or self.n not in hidden
            self.step(post, observe_location=observe)
            if (checkpoint_every and checkpoint_path
                    and self.n % checkpoint_every == 0):
                self.save_checkpoint(checkpoint_path)
        return self

    def predictive_logdensity(self, post: GeoPost, kind: str) -> float:
        """One-step-ahead predictive of the post's location or content.

        Marginalizes the next assignment over the temporal prior within each
        particle and mixes particles by weight:
        log sum_p w_p sum_s p(s | history_p, t) * factor(s), where factor is
        the spatial marginal (kind="spatial", new pattern contributing the
        constant 1) or the content marginal (kind="content"). Per particle
        the inner sum is the proposal's log Q / lambda(t) with only that
        factor switched on.
        """
        if kind not in ("spatial", "content"):
            raise ValueError(f"unknown predictive kind {kind!r}")
        spatial = kind == "spatial"
        hyper = self.hyper
        post.validate(hyper.vocab_size, with_location=spatial)
        if post.t < self.t_last:
            raise ValueError("predictive queried before current time")
        live = [(w_p, p) for w_p, p in zip(self.weights, self.particles) if w_p > 0.0]
        scored = score_candidates([p for _, p in live], post, hyper, self.config,
                                  self.t_last, content=not spatial, spatial=spatial)
        return _logsumexp([log(w_p) + _logsumexp(scores) - log(lam_t)
                           for (w_p, _), (_, scores, lam_t, _, _) in zip(live, scored)])

    # ------------------------------------------------------------------
    # results

    def map_estimate(self) -> ClusteringResult:
        """Labeling and pattern summaries of the maximum-mass history.

        Particles sharing an assignment history are duplicates of one
        hypothesis, so their weights are pooled and the history with the
        largest pooled weight wins (ties break toward the lowest particle
        index). Pooling matters: an individual particle's weight is a
        path-wise evidence product, which does not rank hypotheses by
        posterior mass once particle counts grow.
        With refitting on, each kernel is refit at the time the pattern was
        last scored: the latest post if live, its retirement time if pruned.
        """
        if self.n < 1:
            raise ValueError("no posts processed")
        mass: dict[tuple, float] = {}
        first_idx: dict[tuple, int] = {}
        for i, (w, p) in enumerate(zip(self.weights, self.particles)):
            key = tuple(p.assignments())
            mass[key] = mass.get(key, 0.0) + float(w)
            if key not in first_idx:
                first_idx[key] = i
        best_key = max(mass, key=lambda k: (mass[k], -first_idx[k]))
        best = first_idx[best_key]
        particle = self.particles[best]
        patterns = dict(particle.patterns)
        t_fit = dict.fromkeys(patterns, self.t_last)
        node = particle.archive
        while node is not None:
            label, stats, node, t_retired = node
            patterns[label] = stats
            t_fit[label] = t_retired
        patterns = dict(sorted(patterns.items()))
        refit = self.config.fixed_kernel is None and self.config.refit_all
        kernels: dict[int, tuple[float, float]] = {}
        summaries = []
        for label, stats in patterns.items():
            if refit and stats.n_posts >= 2:
                alpha, tau, _ = fit_kernel(stats, t_fit[label], self.hyper)
            else:
                alpha, tau = stats.alpha, stats.tau
            kernels[label] = (alpha, tau)
            summary = pattern_summary(stats, self.hyper.beta_space, label=label)
            summary.alpha = alpha
            summary.tau = tau
            summaries.append(summary)
        return ClusteringResult(
            assignments=particle.assignments(),
            summaries=summaries,
            weights=[float(w) for w in self.weights],
            patterns=patterns,
            kernels=kernels,
        )

    # ------------------------------------------------------------------
    # checkpointing

    def save_checkpoint(self, path) -> None:
        # each distinct pattern object is one "stats" row that particles
        # refer to by index, so loading restores copy-on-write sharing
        rows: dict[int, int] = {}  # id(stats) -> row index
        stats_rows: list[dict] = []

        def row(stats: PatternStats) -> int:
            if id(stats) not in rows:
                rows[id(stats)] = len(stats_rows)
                stats_rows.append({name: getattr(stats, name) for name in _STATS_STATE})
            return rows[id(stats)]

        particles = []
        for particle in self.particles:
            archive = []
            node = particle.archive
            while node is not None:
                label, stats, node, t_retired = node
                archive.append([label, row(stats), t_retired])
            particles.append({
                "S": particle.S,
                "assignments": particle.assignments(),
                "patterns": [[label, row(stats)]
                             for label, stats in particle.patterns.items()],
                "archive": archive,
            })
        payload = {
            "version": CHECKPOINT_VERSION,
            "n": self.n,
            "t_last": self.t_last,
            "n_resamples": self.n_resamples,
            "hyper": asdict(self.hyper),
            "config": asdict(self.config),
            "log_weights": [float(v) for v in self.log_weights],
            "resample_rng": self.resample_rng.bit_generator.state,
            "rngs": [r.bit_generator.state for r in self.rngs],
            "stats": stats_rows,
            "particles": particles,
        }
        # write a sibling file, then rename over the target, so a crash
        # mid-write leaves the previous checkpoint intact
        tmp = f"{os.fspath(path)}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    @classmethod
    def load_checkpoint(cls, path) -> "ParticleSystem":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
        hyper_d = dict(payload["hyper"])
        hyper_d["psi_tau"] = tuple(hyper_d["psi_tau"])
        hyper = Hyperparams(**hyper_d)
        config_d = dict(payload["config"])
        if config_d.get("fixed_kernel") is not None:
            config_d["fixed_kernel"] = tuple(config_d["fixed_kernel"])
        system = cls(hyper, EngineConfig(**config_d))
        system.n = payload["n"]
        system.t_last = payload["t_last"]
        system.n_resamples = payload["n_resamples"]
        system.log_weights = np.array(payload["log_weights"], dtype=float)
        w = np.exp(system.log_weights)
        system.weights = w / w.sum()
        system.resample_rng.bit_generator.state = payload["resample_rng"]
        for rng, state in zip(system.rngs, payload["rngs"]):
            rng.bit_generator.state = state
        # unowned, so a particle's first write copies, as after resampling
        stats = [_stats_from_payload(row) for row in payload["stats"]]
        system.particles = [_particle_from_payload(p, stats) for p in payload["particles"]]
        return system


def systematic_resample(system: ParticleSystem) -> ParticleSystem:
    """Replace the particle set by systematic-resampled offspring.

    Offspring reuse parent state copy-on-write; weights reset to uniform.
    """
    n_p = len(system.particles)
    u = system.resample_rng.random()
    positions = (np.arange(n_p) + u) / n_p
    cum = np.cumsum(system.weights)
    cum[-1] = 1.0
    # side="right" so a zero-weight particle (cum[i] == cum[i-1]) can never
    # be selected, even when a position lands exactly on the boundary
    idx = np.minimum(np.searchsorted(cum, positions, side="right"), n_p - 1)
    counts = np.bincount(idx, minlength=n_p)
    new_particles: list[Particle | None] = [None] * n_p
    for parent_i, count in enumerate(counts):
        if count == 0:
            continue
        parent = system.particles[parent_i]
        slots = np.flatnonzero(idx == parent_i)
        if count > 1:
            parent.token = object()  # orphan its stats: any mutation copies
        new_particles[slots[0]] = parent
        for s in slots[1:]:
            new_particles[s] = parent.clone()
    system.particles = new_particles  # type: ignore[assignment]
    system.log_weights = np.zeros(n_p)
    system.weights = np.full(n_p, 1.0 / n_p)
    system.n_resamples += 1
    return system


# the "new" candidate: scored as an empty pattern
_NEW_CANDIDATE = ((None, PatternStats(0, 0.0, 1.0, 0)),)


def score_candidates(particles: list[Particle], post: GeoPost, hyper: Hyperparams,
                     config: EngineConfig, t_prev: float, *, content: bool = True,
                     spatial: bool = True, prune_abs: float = 0.0) -> list[tuple]:
    """Score ``post`` against every live pattern and "new", per particle.

    Pattern k scores log lambda_k(t) plus, when switched on, the log
    Dirichlet-multinomial content marginal of the post's words and the log
    Student-t spatial predictive of its location; "new" scores log lambda0
    plus the same factors of an empty pattern (content prior, spatial 1).
    Kernels are refit to data through ``t_prev`` unless ``config`` fixes
    them or turns refitting off. A pattern whose largest possible intensity
    alpha * n * exp(-(t - t_ref)/tau) falls below ``prune_abs`` is not
    scored and adds nothing to lambda(t) or Lambda.

    Returns, for each particle, (labels, scores, lam_t, big_lambda, prune):
    the scored labels, their log scores with "new" last, lambda(t), the
    compensator of lambda over [t_prev, t], and the labels of the patterns
    to prune. "New" is the same for every particle, so it is scored once,
    with the first particle.
    """
    t = post.t
    dt = t - t_prev
    lam0 = hyper.lambda0
    theta0 = hyper.theta0
    vt = hyper.vocab_size * theta0
    beta = hyper.beta_space
    rx = post.x
    ry = post.y
    refit = config.fixed_kernel is None and config.refit_all
    if content:
        counts: dict[int, int] = {}
        for w in post.words:
            counts[w] = counts.get(w, 0) + 1
        doc_items = list(counts.items())
        c_d = len(post.words)
    two_pi = 2.0 * math.pi
    new_candidate = _NEW_CANDIDATE
    e_dt_tau = None  # the tau of e_dt = exp(-dt/tau), shared by most patterns
    out = []
    for particle in particles:
        labels = []
        scores = []
        lam_t = lam0
        big_lambda = lam0 * dt
        prune = []
        for label, stats in chain(particle.patterns.items(), new_candidate):
            if label is None:
                ls = 0.0
            else:
                if refit and stats.n_posts >= 2:
                    alpha, tau, tau_idx = fit_kernel(stats, t_prev, hyper)
                else:
                    alpha = stats.alpha
                    tau = stats.tau
                    tau_idx = stats.tau_idx
                if (prune_abs > 0.0
                        and alpha * stats.n_posts * exp(-(t - stats.t_ref) / tau) < prune_abs):
                    prune.append(label)
                    continue
                s_prev = stats.decay[tau_idx] * exp(-(t_prev - stats.t_ref) / tau)
                if tau != e_dt_tau:
                    e_dt_tau = tau
                    e_dt = exp(-dt / tau)
                lam_k = alpha * s_prev * e_dt
                lam_t += lam_k
                big_lambda += alpha * tau * s_prev * (1.0 - e_dt)
                labels.append(label)
                if lam_k <= 0.0:
                    scores.append(-math.inf)
                    continue
                ls = log(lam_k)
            if content:
                get = stats.word_counts.get
                ct = stats.total_words
                ls += lgamma(ct + vt) - lgamma(ct + c_d + vt)
                for v, c in doc_items:
                    base = get(v, 0) + theta0
                    ls += lgamma(base + c) - lgamma(base)
            ns = stats.n_spatial
            if spatial and ns > 0:
                xi = beta + 0.5 * stats.m2
                dx = rx - stats.mean_x
                dy = ry - stats.mean_y
                delta = ns / (2.0 * (ns + 1.0)) * (dx * dx + dy * dy)
                ls += (log(ns * ns / (two_pi * (1.0 + ns)))
                       - log(xi) - (1.0 + ns) * log1p(delta / xi))
            scores.append(ls)
        if new_candidate:
            # "new" adds its prior after its factors; another order rounds
            # the score differently and can change the sampled assignments
            new_score = scores[-1] + log(lam0)
            scores[-1] = new_score
            new_candidate = ()
        else:
            scores.append(new_score)
        out.append((labels, scores, lam_t, big_lambda, prune))
    return out


def _logsumexp(values: list[float]) -> float:
    m = max(values)
    return m + log(sum([exp(v - m) for v in values]))


def proposal_distribution(particle: Particle, post: GeoPost, hyper: Hyperparams,
                          config: EngineConfig | None = None,
                          system: ParticleSystem | None = None,
                          observe_location: bool = True):
    """Assignment proposal for one post under one particle.

    Returns (labels, probs, log_q): probs has one entry per label plus a
    final entry for "new"; log_q is the log of the pre-normalization sum
    over candidates of prior * content * spatial. Kernel options and the
    previous post time come from ``system`` when given; otherwise from
    ``config`` and the particle's latest event.
    """
    if system is not None:
        config = system.config
        t_prev = system.t_last
    else:
        config = config or EngineConfig()
        t_prev = max((s.t_ref for s in particle.patterns.values()), default=0.0)
    [(labels, scores, lam_t, _, _)] = score_candidates(
        [particle], post, hyper, config, t_prev,
        spatial=config.spatial and observe_location)
    m = max(scores)
    exps = [exp(s - m) for s in scores]
    total = sum(exps)
    return labels, [e / total for e in exps], m + log(total) - log(lam_t)


def incremental_weight(particle: Particle, post: GeoPost, log_q: float,
                       hyper: Hyperparams, t_prev: float,
                       config: EngineConfig | None = None,
                       system: ParticleSystem | None = None) -> float:
    """Log of the weight multiplier p(t_n | history) * Q_n.

    p(t_n | history) = lambda(t_n) * exp(-integral of lambda over
    [t_prev, t_n]), with the integral lambda0*(t_n - t_prev) plus each
    pattern's compensator increment.
    """
    config = system.config if system is not None else (config or EngineConfig())
    [(_, _, lam_t, big_lambda, _)] = score_candidates(
        [particle], post, hyper, config, t_prev, content=False, spatial=False)
    return log(lam_t) - big_lambda + log_q


# ----------------------------------------------------------------------
# checkpoint serialization helpers

# a pattern's checkpointed state: every PatternStats field but the
# copy-on-write token
_STATS_STATE = tuple(name for name in PatternStats.__slots__ if name != "owner")


def _stats_from_payload(payload: dict) -> PatternStats:
    stats = PatternStats.__new__(PatternStats)
    stats.owner = None
    for name in _STATS_STATE:
        setattr(stats, name, payload[name])
    # JSON object keys are strings; word ids are ints
    stats.word_counts = {int(k): v for k, v in stats.word_counts.items()}
    return stats


def _particle_from_payload(payload: dict, stats: list[PatternStats]) -> Particle:
    particle = Particle()
    particle.S = payload["S"]
    for label in payload["assignments"]:
        particle.record_assignment(label)
    for label, row in payload["patterns"]:
        particle.patterns[label] = stats[row]
    for label, row, t_retired in reversed(payload["archive"]):
        particle.archive = (label, stats[row], particle.archive, t_retired)
    return particle
