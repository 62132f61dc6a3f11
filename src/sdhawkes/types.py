"""Domain types and per-pattern sufficient statistics.

Everything downstream (likelihoods, intensities, the particle filter) reads
pattern state exclusively through :class:`PatternStats`, which maintains all
sufficient statistics incrementally so that no operation on the hot path has
to touch raw event history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "GeoPost",
    "Hyperparams",
    "PatternStats",
    "Particle",
    "PatternSummary",
    "ClusteringResult",
    "pattern_summary",
]


@dataclass(slots=True)
class GeoPost:
    """One observed post: time (days), token ids, planar location."""

    t: float
    words: list[int]
    x: float
    y: float
    label_true: int | None = None

    def validate(self, vocab_size: int, with_location: bool = True) -> None:
        """Raise ValueError naming the first field out of range.

        The location is checked only when it is observed (``with_location``);
        a hidden post may carry any x/y.
        """
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"post field t must be finite and >= 0, got {self.t}")
        if not self.words:
            raise ValueError("post field words must hold at least one word id")
        for w in self.words:
            if not (0 <= w < vocab_size and w == int(w)):
                raise ValueError(
                    f"post field words holds id {w}, not an integer in [0, {vocab_size})")
        if with_location and not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(
                f"post fields x, y must be finite, got ({self.x}, {self.y})")


@dataclass(slots=True)
class Hyperparams:
    """Model hyperparameters shared by the generator and the inference engine.

    ``psi_tau`` is the finite grid of allowed time constants (days); kernel
    fitting only ever selects from this grid.
    """

    lambda0: float = 10.0
    theta0: float = 1.0
    beta_space: float = 0.01
    alpha_time: float = 0.1
    beta_time: float = 0.2
    psi_tau: tuple[float, ...] = (1.0,)
    n_particles: int = 4
    kappa_thresh: float = 0.9
    vocab_size: int = 15

    def validate(self) -> None:
        if self.lambda0 <= 0:
            raise ValueError("lambda0 must be > 0")
        if self.theta0 <= 0:
            raise ValueError("theta0 must be > 0")
        if self.beta_space <= 0:
            raise ValueError("beta_space must be > 0")
        if self.alpha_time <= 0 or self.beta_time <= 0:
            raise ValueError("alpha_time and beta_time must be > 0")
        if not self.psi_tau:
            raise ValueError("psi_tau must be non-empty")
        if any(tau <= 0 for tau in self.psi_tau):
            raise ValueError("all entries of psi_tau must be > 0")
        if any(b <= a for a, b in zip(self.psi_tau, self.psi_tau[1:])):
            raise ValueError("psi_tau must be strictly increasing")
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if not (0.0 < self.kappa_thresh <= 1.0):
            raise ValueError("kappa_thresh must be in (0, 1]")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")


class PatternStats:
    """Sufficient statistics of one latent pattern.

    Temporal state is kept per allowed time constant tau: ``decay[i]`` is
    sum_j exp(-(t_ref - t_j)/tau_i) over the pattern's events, and
    ``log_trigger[i]`` accumulates sum_{j>=2} log sum_{k<j}
    exp(-(t_j - t_k)/tau_i), the tau-dependent part of the pattern's
    event-time log likelihood. ``t_ref`` is the latest event's time, whose
    term in ``decay`` is exp(0) = 1, so once the pattern holds a post
    ``decay[i] >= 1``: it cannot underflow and its log is always finite.

    Spatial state is the mean (``mean_x``, ``mean_y``) and the centered
    second moment ``m2`` = sum ||r_i - rbar||^2, updated Welford-style so the
    posterior scale never suffers catastrophic cancellation. Only posts with
    an observed location enter the spatial statistics (``n_spatial``).

    ``event_times`` lists the pattern's post times. Only exports and
    summaries read it, but ``copy`` copies it, so a copy-on-write copy costs
    O(pattern size).

    ``alpha``/``tau`` hold the kernel as of the last attach (``map_estimate``
    refits at the last scored time); ``owner`` is a copy-on-write token
    managed by the particle system, and an unowned object is never written.
    """

    __slots__ = (
        "owner",
        "n_posts",
        "n_spatial",
        "word_counts",
        "total_words",
        "mean_x",
        "mean_y",
        "m2",
        "event_times",
        "t_ref",
        "decay",
        "log_trigger",
        "alpha",
        "tau",
        "tau_idx",
    )

    def __init__(self, n_taus: int, alpha: float, tau: float, tau_idx: int,
                 owner: object | None = None):
        self.owner = owner
        self.n_posts = 0
        self.n_spatial = 0
        self.word_counts: dict[int, int] = {}
        self.total_words = 0
        self.mean_x = 0.0
        self.mean_y = 0.0
        self.m2 = 0.0
        self.event_times: list[float] = []
        self.t_ref = 0.0
        self.decay = [0.0] * n_taus
        self.log_trigger = [0.0] * n_taus
        self.alpha = alpha
        self.tau = tau
        self.tau_idx = tau_idx

    def copy(self, owner: object | None = None) -> PatternStats:
        new = PatternStats.__new__(PatternStats)
        new.owner = owner
        new.n_posts = self.n_posts
        new.n_spatial = self.n_spatial
        new.word_counts = dict(self.word_counts)
        new.total_words = self.total_words
        new.mean_x = self.mean_x
        new.mean_y = self.mean_y
        new.m2 = self.m2
        new.event_times = list(self.event_times)
        new.t_ref = self.t_ref
        new.decay = list(self.decay)
        new.log_trigger = list(self.log_trigger)
        new.alpha = self.alpha
        new.tau = self.tau
        new.tau_idx = self.tau_idx
        return new

    def attach(self, t: float, words: list[int], x: float, y: float,
               psi_tau: tuple[float, ...], with_location: bool = True) -> None:
        """Fold one post into the statistics. Times must be non-decreasing."""
        if self.n_posts > 0:
            if t < self.t_ref:
                raise ValueError(
                    f"out-of-order post: t={t} precedes pattern time {self.t_ref}"
                )
            dt = t - self.t_ref
            decay = self.decay
            log_trigger = self.log_trigger
            for i, tau in enumerate(psi_tau):
                step = -dt / tau
                log_trigger[i] += math.log(decay[i]) + step
                decay[i] = decay[i] * math.exp(step) + 1.0
        else:
            self.decay = [1.0] * len(psi_tau)
        self.t_ref = t
        self.event_times.append(t)
        self.n_posts += 1

        wc = self.word_counts
        for w in map(int, words):  # plain int keys survive a JSON round trip
            wc[w] = wc.get(w, 0) + 1
        self.total_words += len(words)

        if with_location:
            n1 = self.n_spatial + 1
            dx = x - self.mean_x
            dy = y - self.mean_y
            self.mean_x += dx / n1
            self.mean_y += dy / n1
            self.m2 += dx * (x - self.mean_x) + dy * (y - self.mean_y)
            self.n_spatial = n1

    def xi(self, beta_space: float) -> float:
        """Posterior spatial scale: beta_space + half the centered 2-D SS.

        The location model is N(R, sigma^2 I) with a flat prior on the mean R
        and sigma^2 ~ Inv-Gamma(1, beta_space) (shape/scale convention).
        """
        return beta_space + 0.5 * self.m2


class Particle:
    """One filtering hypothesis: an assignment history plus its patterns.

    The assignment history is a shared cons chain (label, parent) so cloning
    a particle is O(1) in the history length; ``patterns`` maps label ->
    PatternStats with copy-on-write semantics via the ``token`` object, and
    ``archive`` is a shared cons chain (label, stats, next, t_retired) of
    patterns retired by pruning, each last scored at ``t_retired``.
    """

    __slots__ = ("token", "assign_tail", "patterns", "archive", "S")

    def __init__(self):
        self.token: object = object()
        self.assign_tail: tuple | None = None
        self.patterns: dict[int, PatternStats] = {}
        self.archive: tuple | None = None
        self.S = 0

    def clone(self) -> Particle:
        new = Particle.__new__(Particle)
        new.token = object()
        new.assign_tail = self.assign_tail
        new.patterns = dict(self.patterns)
        new.archive = self.archive
        new.S = self.S
        return new

    def writable(self, label: int) -> PatternStats:
        """Return the stats for ``label``, copying first if shared."""
        stats = self.patterns[label]
        if stats.owner is not self.token:
            stats = stats.copy(owner=self.token)
            self.patterns[label] = stats
        return stats

    def record_assignment(self, label: int) -> None:
        self.assign_tail = (label, self.assign_tail)

    def assignments(self) -> list[int]:
        out = []
        node = self.assign_tail
        while node is not None:
            out.append(node[0])
            node = node[1]
        out.reverse()
        return out


@dataclass(slots=True)
class PatternSummary:
    label: int
    size: int
    mean: tuple[float, float]
    scale: float
    alpha: float
    tau: float
    time_span: float
    top_words: list[tuple[int, int]]


@dataclass(slots=True)
class ClusteringResult:
    """Output of a full inference run: the MAP particle's labeling plus
    per-pattern summaries and the final particle weights."""

    assignments: list[int]
    summaries: list[PatternSummary]
    weights: list[float]
    patterns: dict[int, PatternStats] = field(repr=False, default_factory=dict)
    kernels: dict[int, tuple[float, float]] = field(default_factory=dict)


def pattern_summary(stats: PatternStats, beta_space: float, label: int = 0,
                    top_k: int = 10) -> PatternSummary:
    """Condense one pattern: size, spatial mean/scale, kernel, top words.

    The spatial mean of the located posts is the point prediction for a
    hidden location; the per-axis scale sqrt(xi / n) ranks patterns by
    tightness. Both are NaN when no post of the pattern has a location.
    """
    if stats.n_posts < 1:
        raise ValueError("cannot summarize an empty pattern")
    if stats.n_spatial >= 1:
        mean = (stats.mean_x, stats.mean_y)
        scale = math.sqrt(stats.xi(beta_space) / stats.n_spatial)
    else:
        mean = (math.nan, math.nan)
        scale = math.nan
    top = sorted(stats.word_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return PatternSummary(
        label=label,
        size=stats.n_posts,
        mean=mean,
        scale=scale,
        alpha=stats.alpha,
        tau=stats.tau,
        time_span=stats.event_times[-1] - stats.event_times[0],
        top_words=top,
    )
