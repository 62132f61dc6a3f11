"""Online particle-filter inference over pattern assignments.

Each incoming post is scored against every live pattern (and "new") with the
product of the temporal prior, the collapsed content marginal and the
collapsed spatial marginal; the particle samples an assignment from that
proposal and multiplies its weight by p(t_n | history) * Q_n, where Q_n is
the proposal's pre-normalization sum. Systematic resampling fires whenever
the effective sample size drops below kappa_thresh * n_particles.

``score_candidates`` is the one place these model terms are evaluated: the
step, the proposal, the weight update and the one-step-ahead predictive all
call it. Within one call it scores each distinct pattern object once, however
many resampled particles hold it, and tabulates the terms that depend on a
single count (the content normaliser, each word's factor, the spatial lead
and log xi), so most ``lgamma`` and ``log`` calls become dict reads; the
floats are exactly those of scoring every (particle, pattern) pair alone.
In exact runs it also passes over *quiet* patterns, which for the post at
hand cannot change a bit of lambda(t) or Lambda, nor the proposal by 2^-64
of "new"'s weight: they stay live but are not refit, scored or made
candidates (the rule and its bound are in ``score_candidates``).

Particles use copy-on-write state: pattern statistics are shared between
resampled offspring until one of them mutates, assignment histories are
shared cons chains, and (optionally) patterns whose possible intensity
contribution has decayed to nothing retire to a shared archive that keeps
only their label and retirement time. This keeps the per-post cost, and the
statistics held, proportional to the number of *live* patterns. Statistics
are derived, never stored: ``map_estimate`` replays the retired patterns it
reports from the posts, and loading a checkpoint replays the live ones. A
checkpoint is a log to which each save appends only what changed since the
previous save, so a save costs the same late in a stream as early on.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass
from math import exp, lgamma, log, log1p

import numpy as np

from .hawkes import ALPHA_FLOOR, fit_kernel
from .types import (
    ClusteringResult,
    GeoPost,
    Hyperparams,
    Particle,
    PatternStats,
    PatternSummary,
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

CHECKPOINT_VERSION = 7


def _identity(path: str) -> tuple | None:
    """The file's device, inode, size and modification time, or None."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


@dataclass(slots=True)
class EngineConfig:
    """Inference options.

    spatial=False disables the location factor entirely (the content+time
    baseline). fixed_kernel pins every pattern's (alpha, tau) and disables
    refitting. prune_threshold > 0 retires patterns whose maximal intensity
    contribution falls below prune_threshold * lambda0 (an approximation;
    leave at 0 for exact runs, which keep every pattern and pass over, post
    by post, only those whose terms are below 2^-64 of the rest; see
    ``score_candidates``). refit_all=False refits only the pattern that
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
        self.kernel0 = self.config.fixed_kernel  # each new pattern's (alpha, tau)
        if self.kernel0 is not None:
            alpha0, tau0 = self.kernel0
            if alpha0 < 0 or tau0 <= 0:
                raise ValueError("fixed kernel needs alpha >= 0 and tau > 0")
            self.cache_taus: tuple[float, ...] = (tau0,)
        else:
            self.cache_taus = hyper.psi_tau
            self.kernel0 = (hyper.alpha_time / hyper.beta_time, hyper.psi_tau[0])
        self.n = 0
        self.t_last = 0.0
        # the stepped posts, newest first: a cons chain (post, observed, next)
        self.post_tail: tuple | None = None
        self.particles = [Particle() for _ in range(hyper.n_particles)]
        self.log_weights = np.zeros(hyper.n_particles)
        self.weights = np.full(hyper.n_particles, 1.0 / hyper.n_particles)
        seq = np.random.SeedSequence(self.config.seed)
        children = seq.spawn(hyper.n_particles + 1)
        self.rngs = [np.random.default_rng(s) for s in children[:-1]]
        self.resample_rng = np.random.default_rng(children[-1])
        self.n_resamples = 0
        # (path, file identity, n, each particle's chains) as of the last
        # save or load: the state a checkpoint append extends
        self._saved: tuple | None = None

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
        t_prev = self.t_last
        spatial_obs = cfg.spatial and observe_location
        prune_abs = cfg.prune_threshold * hyper.lambda0

        scored = score_candidates(self.particles, post, hyper, cfg, t_prev,
                                  spatial=spatial_obs, prune_abs=prune_abs)
        for p_idx, (particle, (labels, scores, _, big_lambda, prune)) in enumerate(
                zip(self.particles, scored)):
            rng = self.rngs[p_idx]
            for label in prune:
                del particle.patterns[label]
                particle.archive = (label, t_prev, particle.archive)

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
            label = particle.S if choice == len(scores) - 1 else labels[choice]
            self._fit(self._attach(particle, label, post, observe_location))
            particle.record_assignment(label)

        self.post_tail = (post, observe_location, self.post_tail)
        self.n += 1
        self.t_last = t
        self._normalize()
        n_p = len(self.particles)
        if n_p > 1 and ess(self.weights) < hyper.kappa_thresh * n_p:
            systematic_resample(self)
        return self

    def _attach(self, particle: Particle, label: int, post: GeoPost,
                observed: bool) -> PatternStats:
        """Add ``post`` to pattern ``label`` (new if it is ``particle.S``)
        and return the pattern's statistics."""
        if label == particle.S:
            stats = particle.patterns[label] = PatternStats(
                len(self.cache_taus), *self.kernel0, 0, owner=particle.token)
            particle.S += 1
        else:
            stats = particle.writable(label)
        stats.attach(post.t, post.words, post.x, post.y, self.cache_taus,
                     with_location=observed)
        return stats

    def _replay(self, labels, keep, owner: object | None = None) -> dict[int, PatternStats]:
        """The statistics of each pattern whose label is in ``keep``, rebuilt
        from the stepped posts and ``labels`` (one per post, oldest first),
        each kernel fit once, at the pattern's last post: the state ``step``
        left them in, bit for bit."""
        psi = self.cache_taus
        out: dict[int, PatternStats] = {}
        for (post, observed), label in zip(self.posts(), labels):
            if label in keep:
                stats = out.get(label)
                if stats is None:
                    stats = out[label] = PatternStats(len(psi), *self.kernel0, 0, owner=owner)
                stats.attach(post.t, post.words, post.x, post.y, psi, with_location=observed)
        for stats in out.values():
            self._fit(stats)
        return out

    def _fit(self, stats: PatternStats) -> None:
        """Refit the stored kernel at the pattern's latest post, unless fixed."""
        if stats.n_posts >= 2 and self.config.fixed_kernel is None:
            stats.alpha, stats.tau, stats.tau_idx = fit_kernel(stats, stats.t_ref, self.hyper)

    def _summary(self, stats: PatternStats, t_fit: float) -> PatternSummary:
        """``pattern_summary`` of a pattern last scored at ``t_fit``; with
        refitting on, its kernel is refit at that time."""
        summary = pattern_summary(stats, self.hyper.beta_space)
        if self.config.fixed_kernel is None and self.config.refit_all and stats.n_posts >= 2:
            summary.alpha, summary.tau, _ = fit_kernel(stats, t_fit, self.hyper)
        return summary

    def posts(self) -> list[tuple[GeoPost, bool]]:
        """The stepped posts, oldest first, each with whether its location was observed."""
        out = []
        node = self.post_tail
        while node is not None:
            out.append(node[:2])
            node = node[2]
        return out[::-1]

    def _normalize(self) -> None:
        m = float(np.max(self.log_weights))
        self.log_weights -= m + math.log(np.sum(np.exp(self.log_weights - m)))
        w = np.exp(self.log_weights)
        self.weights = w / w.sum()

    def run(self, posts, hidden: set[int] | None = None) -> "ParticleSystem":
        """Process a chronological stream; indices in ``hidden`` contribute
        no location information. Mid-stream checkpoints are the caller's."""
        for post in posts:
            observe = hidden is None or self.n not in hidden
            self.step(post, observe_location=observe)
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
        Live patterns are summarized at the latest post (with refitting on,
        each kernel is refit there). Retired patterns are replayed from the
        posts and summarized at their retirement time, the time they were
        last scored, so this costs O(posts) like the history walk above.
        """
        if self.n < 1:
            raise ValueError("no posts processed")
        mass: dict[tuple, float] = {}
        first: dict[tuple, Particle] = {}
        for w, p in zip(self.weights, self.particles):
            key = tuple(p.assignments())
            mass[key] = mass.get(key, 0.0) + float(w)
            first.setdefault(key, p)
        # keys are in first-particle order and max keeps the first of equals
        best_key = max(mass, key=mass.get)
        particle = first[best_key]
        summaries = [None] * particle.S  # labels are 0..S-1, each used
        for label, stats in particle.patterns.items():
            summaries[label] = self._summary(stats, self.t_last)
        retired = {}  # label -> retirement time
        node = particle.archive
        while node is not None:
            label, retired[label], node = node
        for label, stats in self._replay(best_key, retired).items():
            summaries[label] = self._summary(stats, retired[label])
        return ClusteringResult(
            assignments=list(best_key),
            summaries=summaries,
            weights=[float(w) for w in self.weights],
        )

    # ------------------------------------------------------------------
    # checkpointing

    def save_checkpoint(self, path) -> None:
        """Save the system to ``path``, a JSON-lines log: a header (version,
        hyper, config), then one line per save. A line holds the posts
        stepped since the previous line and, for each particle, its ancestor
        at the previous line (``from``), its labels of the new posts and the
        archive nodes (label, retirement time) it gained; the weights, random
        states and resample count follow.

        If ``path`` is exactly as this system's last save or load left it,
        the line is appended by one write, and its final newline commits it.
        Otherwise the header and a full line (``from`` null) go to a sibling
        file that is renamed over ``path``."""
        path = os.fspath(path)
        if self._saved is not None and self._saved[:2] == (path, _identity(path)):
            _, _, n_prev, heads = self._saved
        else:
            n_prev, heads = 0, []
        steps = self.n - n_prev
        posts = []
        node = self.post_tail
        for _ in range(steps):
            post, observed, node = node
            posts.append([post.t, [int(w) for w in post.words], post.x, post.y, observed])
        # a particle's ancestor at the previous save holds the assignment node
        # ``steps`` back in its chain; its archive head ends the new nodes
        ancestor = {id(assign): j for j, (assign, _) in enumerate(heads)}
        particles = []
        for particle in self.particles:
            labels = []
            node = particle.assign_tail
            for _ in range(steps):
                label, node = node
                labels.append(label)
            j = ancestor[id(node)] if heads else None
            archive = []
            node = particle.archive
            stop = heads[j][1] if heads else None
            while node is not stop:
                label, t_retired, node = node
                archive.append([label, t_retired])
            particles.append({"from": j, "labels": labels[::-1], "archive": archive})
        line = json.dumps({
            "posts": posts[::-1],
            "particles": particles,
            "n_resamples": self.n_resamples,
            "log_weights": [float(v) for v in self.log_weights],
            "resample_rng": self.resample_rng.bit_generator.state,
            "rngs": [r.bit_generator.state for r in self.rngs],
        }) + "\n"
        if heads:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(line)
        else:
            header = json.dumps({"version": CHECKPOINT_VERSION, "hyper": asdict(self.hyper),
                                 "config": asdict(self.config)}) + "\n"
            # write a sibling file, then rename over the target, so a crash
            # mid-write leaves the previous checkpoint intact
            tmp = f"{path}.tmp"
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(header + line)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)
                raise
        self._saved = (path, _identity(path), self.n,
                       [(p.assign_tail, p.archive) for p in self.particles])

    @classmethod
    def load_checkpoint(cls, path) -> "ParticleSystem":
        """Rebuild a system written by ``save_checkpoint``: fold the lines in
        order into shared assignment and archive chains, then replay each
        particle's live patterns from its assignments of the saved posts. A
        final line without a newline, or that does not parse, is a torn
        append and is ignored, so the previous save loads.
        Raises ValueError naming ``path`` if it is not a valid checkpoint."""
        try:
            with open(path, "rb") as fh:
                lines = fh.read().split(b"\n")
                stat = os.fstat(fh.fileno())
            header = json.loads(lines[0])
            if not isinstance(header, dict):
                raise ValueError("not a JSON object")
            if header.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"version {header.get('version')!r}; "
                                 f"this program reads version {CHECKPOINT_VERSION}")
            hyper = Hyperparams(**{**header["hyper"],
                                   "psi_tau": tuple(header["hyper"]["psi_tau"])})
            config_d = dict(header["config"])
            if config_d.get("fixed_kernel") is not None:
                config_d["fixed_kernel"] = tuple(config_d["fixed_kernel"])
            system = cls(hyper, EngineConfig(**config_d))
            posts: list[tuple[GeoPost, bool]] = []
            heads: list[tuple] = []  # each particle's (assignments, archive) chains
            size = len(lines[0]) + 1  # the bytes of the lines loaded
            # the complete lines after the header; the text after the final
            # newline, if any, is a torn append
            for number, text in enumerate(lines[1:-1], start=2):
                try:
                    saved = json.loads(text)
                except ValueError as exc:
                    if number == len(lines) - 1 and not lines[-1]:
                        break  # a torn final line
                    raise ValueError(f"line {number}: {exc}") from None
                try:
                    heads = system._fold(saved, posts, heads)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"line {number}: {exc}") from None
                size += len(text) + 1
                last = saved
            if not heads:
                raise ValueError("no complete save line")
            for i, (particle, (assign, archive)) in enumerate(zip(system.particles, heads)):
                # the folded chains keep the sharing
                particle.assign_tail, particle.archive = assign, archive
                labels = particle.assignments()
                # a label is new where it first appears, so it is at most S
                for label in labels:
                    if not (isinstance(label, int) and 0 <= label <= particle.S):
                        raise ValueError(f"particle {i}: label {label!r} out of range")
                    particle.S = max(particle.S, label + 1)
                live = set(range(particle.S))
                node = archive
                while node is not None:
                    label, _, node = node
                    if label not in live:
                        raise ValueError(f"particle {i}: archived label out of range "
                                         f"or repeated: {label!r}")
                    live.remove(label)
                particle.patterns = system._replay(labels, live, particle.token)
            system.n = len(posts)
            system.n_resamples = last["n_resamples"]
            system.log_weights = np.array(last["log_weights"], dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                w = np.exp(system.log_weights)
                system.weights = w / w.sum()
            if not np.all(np.isfinite(system.weights)):
                raise ValueError(f"log_weights {last['log_weights']} give non-finite weights")
            system.resample_rng.bit_generator.state = last["resample_rng"]
            for rng, state in zip(system.rngs, last["rngs"]):
                rng.bit_generator.state = state
        except KeyError as exc:
            raise ValueError(f"checkpoint {path}: missing field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from None
        system._saved = (os.fspath(path), (stat.st_dev, stat.st_ino, size, stat.st_mtime_ns),
                         system.n, heads)
        return system

    def _fold(self, saved: dict, posts: list, heads: list) -> list:
        """Add one save line's posts to ``posts`` and return each particle's
        chains after it, built on its ancestor's in ``heads`` (the chains
        after the previous line)."""
        hyper = self.hyper
        new_posts = [(GeoPost(t, words, x, y), observed)
                     for t, words, x, y, observed in saved["posts"]]
        for i, (post, observed) in enumerate(new_posts, start=len(posts)):
            try:
                post.validate(hyper.vocab_size, with_location=observed)
            except ValueError as exc:
                raise ValueError(f"post {i}: {exc}") from None
            if post.t < self.t_last:
                raise ValueError(f"post {i}: t={post.t} precedes the previous post's "
                                 f"t={self.t_last}")
            self.post_tail = (post, observed, self.post_tail)
            self.t_last = post.t
        posts += new_posts
        counts = {len(saved[k]) for k in ("particles", "rngs", "log_weights")}
        if counts != {hyper.n_particles}:
            raise ValueError(f"particles, rngs and log_weights must each number "
                             f"n_particles = {hyper.n_particles}")
        out = []
        for i, particle in enumerate(saved["particles"]):
            j = particle["from"]
            # the first line has no ancestors; each later one names one per particle
            valid = j is None if not heads else isinstance(j, int) and 0 <= j < len(heads)
            if not valid:
                raise ValueError(f"particle {i}: from {j!r} out of range")
            assign, archive = heads[j] if heads else (None, None)
            labels = particle["labels"]
            if len(labels) != len(new_posts):
                raise ValueError(f"particle {i}: {len(labels)} assignments "
                                 f"for {len(new_posts)} posts")
            for label in labels:
                assign = (label, assign)
            for label, t_retired in reversed(particle["archive"]):
                if not (isinstance(t_retired, (int, float)) and math.isfinite(t_retired)):
                    raise ValueError(f"particle {i}: retirement time {t_retired!r} "
                                     f"is not a finite number")
                archive = (label, t_retired, archive)
            out.append((assign, archive))
        return out


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
_EMPTY = PatternStats(0, 0.0, 1.0, 0)
_UNSCORED = object()


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

    In exact runs (``prune_abs`` and ``config.prune_threshold`` both 0) a
    pattern is *quiet* for this post when, before any refit, its bound on
    the intensity any kernel the refit can pick gives at t_prev,

        reach = alpha_max * n * exp(-(t_prev - t_ref) / tau_max),

    is below lambda0 * 2^-60 and reach * peak is below 2^-64 of "new"'s
    term exp(new score). When the kernel is refit (n >= 2), alpha_max =
    (n - 2 + alpha_time) / beta_time (ALPHA_FLOOR if that is not positive)
    and tau_max = psi_tau[-1]; otherwise they are the stored alpha and tau.
    peak = max(1, ns^2 / (2 pi (1 + ns) xi)) bounds the spatial factor when
    it is on and the pattern has ns > 0 located posts, and is 1 otherwise;
    the content factor needs no bound, as it is at most 1. A quiet pattern
    is not refit or scored, is no candidate (it is left out of ``labels``
    and ``scores``) and adds nothing to lambda(t) or Lambda; it stays live.
    Why that is safe:

    - lambda(t) and Lambda are unchanged to the last bit. lambda(t) starts
      at lambda0 and Lambda at lambda0 * dt, and every term is
      non-negative, so neither running sum falls below its start. A
      pattern's intensity term alpha * s_prev * exp(-dt/tau) is at most
      reach: each of the n terms of its decay sum is at most 1, the refit's
      alpha is at most alpha_max, and the decay is slowest at tau_max. Its
      compensator term alpha * tau * s_prev * (1 - exp(-dt/tau)) is at most
      alpha * s_prev * dt, and rounding of 1 - exp(-dt/tau) at most doubles
      it. So the two terms are below lambda0 * 2^-60 and lambda0 * dt *
      2^-59, while half an ulp of a running sum x is at least x * 2^-54:
      adding either rounds back to the sum, and leaving it out changes no
      bit.
    - The proposal changes by less than 2^-64 of "new"'s weight per dropped
      candidate, as its score log lambda_k + content + spatial is at most
      log(reach * peak). Such a change is almost always below the
      resolution of the sums it enters, but not provably so; the tests
      check each dropped candidate's score against independent oracles.
    - Pruned runs keep their own test in the same place. At any
      prune_threshold of 2^-60 or more it drops every quiet pattern, since
      its value never exceeds reach, so the rule is off in a pruned
      system, its predictive reads included.

    Returns, for each particle, (labels, scores, lam_t, big_lambda, prune):
    the scored labels, their log scores with "new" last, lambda(t), the
    compensator of lambda over [t_prev, t], and the labels of the patterns
    to prune.

    A pattern's quiet test, refit, prune test, lambda_k(t), compensator
    increment and score read only its statistics, the post and the clock, so
    each distinct
    ``PatternStats`` object (resampled particles share them) is scored once
    per call and "new" once in all; each particle then sums lambda(t) and
    Lambda in its own label order. Terms that depend on one count only (the
    content normaliser by total word count, each distinct word's factor by
    the pattern's count of that word, the spatial lead by located-post count,
    log xi by xi) are tabulated per call. Every float is the one the
    unshared, untabulated formula gives.
    """
    t = post.t
    dt = t - t_prev
    lam0 = hyper.lambda0
    beta = hyper.beta_space
    rx = post.x
    ry = post.y
    refit = config.fixed_kernel is None and config.refit_all
    if content:
        theta0 = hyper.theta0
        vt = hyper.vocab_size * theta0
        c_d = len(post.words)
        counts: dict[int, int] = {}
        for w in post.words:
            counts[w] = counts.get(w, 0) + 1
        normaliser: dict[int, float] = {}  # by the pattern's total word count
        # each distinct word of the post, its count in the post, and its
        # factor by the pattern's count of it
        word_factors = [(v, c, {}) for v, c in counts.items()]
    two_pi = 2.0 * math.pi
    lead: dict[int, float] = {}  # by the pattern's located-post count
    log_xi: dict[float, float] = {}

    def add_factors(ls: float, stats: PatternStats) -> float:
        """``ls`` plus the post's switched-on log content and spatial factors."""
        if content:
            get = stats.word_counts.get
            ct = stats.total_words
            f = normaliser.get(ct)
            if f is None:
                f = normaliser[ct] = lgamma(ct + vt) - lgamma(ct + c_d + vt)
            ls += f
            for v, c, table in word_factors:
                k = get(v, 0)
                f = table.get(k)
                if f is None:
                    base = k + theta0
                    f = table[k] = lgamma(base + c) - lgamma(base)
                ls += f
        ns = stats.n_spatial
        if spatial and ns > 0:
            xi = beta + 0.5 * stats.m2
            dx = rx - stats.mean_x
            dy = ry - stats.mean_y
            delta = ns / (2.0 * (ns + 1.0)) * (dx * dx + dy * dy)
            f = lead.get(ns)
            if f is None:
                f = lead[ns] = log(ns * ns / (two_pi * (1.0 + ns)))
            g = log_xi.get(xi)
            if g is None:
                g = log_xi[xi] = log(xi)
            ls += f - g - (1.0 + ns) * log1p(delta / xi)
        return ls

    # "new" adds its prior after its factors; another order rounds the score
    # differently and can change the sampled assignments
    new_score = add_factors(0.0, _EMPTY) + log(lam0)
    pruning = prune_abs > 0.0
    # the quiet rule is for exact runs only (see the docstring)
    exact = not (pruning or config.prune_threshold > 0.0)
    quiet_lam = lam0 * 2.0 ** -60
    quiet_new = exp(new_score) * 2.0 ** -64
    tau_max = hyper.psi_tau[-1]
    # the tau of the quiet test's decayed = exp(-(t_prev - t_ref)/tau), and
    # of e_dt = exp(-dt/tau), which most patterns share; 0 is no tau
    decayed_tau = 0.0
    e_dt_tau = 0.0
    # PatternStats -> (lam_k, compensator increment, score), or None if
    # pruned or quiet
    memo: dict[PatternStats, tuple | None] = {}
    memo_get = memo.get
    out = []
    for particle in particles:
        labels = []
        scores = []
        lam_t = lam0
        big_lambda = lam0 * dt
        prune = []
        for label, stats in particle.patterns.items():
            entry = memo_get(stats, _UNSCORED)
            if entry is _UNSCORED:
                if exact:
                    n = stats.n_posts
                    if refit and n >= 2:
                        numer = n - 2.0 + hyper.alpha_time
                        alpha_max = numer / hyper.beta_time if numer > 0.0 else ALPHA_FLOOR
                        decayed_tau = tau_max
                    else:
                        alpha_max = stats.alpha
                        decayed_tau = stats.tau
                    decayed = exp(-(t_prev - stats.t_ref) / decayed_tau)
                    reach = alpha_max * n * decayed
                    if reach < quiet_lam:
                        ns = stats.n_spatial
                        if spatial and ns > 0:
                            peak = ns * ns / (two_pi * (1.0 + ns) * (beta + 0.5 * stats.m2))
                            if peak > 1.0:
                                reach *= peak
                        if reach < quiet_new:
                            memo[stats] = None
                            continue
                if refit and stats.n_posts >= 2:
                    alpha, tau, tau_idx = fit_kernel(stats, t_prev, hyper)
                else:
                    alpha = stats.alpha
                    tau = stats.tau
                    tau_idx = stats.tau_idx
                if pruning and alpha * stats.n_posts * exp(-(t - stats.t_ref) / tau) < prune_abs:
                    entry = None
                else:
                    s_prev = stats.decay[tau_idx] * (
                        decayed if tau == decayed_tau else exp(-(t_prev - stats.t_ref) / tau))
                    if tau != e_dt_tau:
                        e_dt_tau = tau
                        e_dt = exp(-dt / tau)
                    lam_k = alpha * s_prev * e_dt
                    entry = (lam_k, alpha * tau * s_prev * (1.0 - e_dt),
                             -math.inf if lam_k <= 0.0 else add_factors(log(lam_k), stats))
                memo[stats] = entry
            if entry is None:
                if pruning:
                    prune.append(label)
                continue
            lam_k, comp_k, ls = entry
            lam_t += lam_k
            big_lambda += comp_k
            labels.append(label)
            scores.append(ls)
        scores.append(new_score)
        out.append((labels, scores, lam_t, big_lambda, prune))
    return out


def _logsumexp(values: list[float]) -> float:
    m = max(values)
    return m + log(sum([exp(v - m) for v in values]))


def proposal_distribution(particle: Particle, post: GeoPost, hyper: Hyperparams,
                          *, system: ParticleSystem,
                          observe_location: bool = True):
    """Assignment proposal for one post under one particle of ``system``.

    Returns (labels, probs, log_q): probs has one entry per label plus a
    final entry for "new"; log_q is the log of the pre-normalization sum
    over candidates of prior * content * spatial. The kernel options and
    the previous post time are the system's.
    """
    config = system.config
    [(labels, scores, lam_t, _, _)] = score_candidates(
        [particle], post, hyper, config, system.t_last,
        spatial=config.spatial and observe_location)
    m = max(scores)
    exps = [exp(s - m) for s in scores]
    total = sum(exps)
    return labels, [e / total for e in exps], m + log(total) - log(lam_t)


def incremental_weight(particle: Particle, post: GeoPost, log_q: float,
                       hyper: Hyperparams, t_prev: float, *,
                       system: ParticleSystem) -> float:
    """Log of the weight multiplier p(t_n | history) * Q_n.

    p(t_n | history) = lambda(t_n) * exp(-integral of lambda over
    [t_prev, t_n]), with the integral lambda0*(t_n - t_prev) plus each
    pattern's compensator increment, under the system's kernel options.
    """
    [(_, _, lam_t, big_lambda, _)] = score_candidates(
        [particle], post, hyper, system.config, t_prev, content=False, spatial=False)
    return log(lam_t) - big_lambda + log_q
