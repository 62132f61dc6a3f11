"""Exact sampler for the generative process.

Event times come from the self-exciting process by thinning: between events
every exponential kernel decays monotonically, so the intensity just after
the last event dominates until the next one and is a valid bound. The
intensity lambda(t) at which a candidate is accepted is computed once: it is
recorded in ``SynthResult.intensities`` and reused to pick the event's
pattern, new with probability lambda0/lambda(t) or an existing one
proportionally to its intensity. The event finally emits words and a
location from the pattern's own parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hawkes import TimeKernel
from .types import GeoPost, Hyperparams

__all__ = ["PatternParams", "SynthConfig", "SynthResult", "GenerativeState",
           "sample_event_time", "sample_assignment", "emit_post", "generate"]

_MAX_REJECTIONS = 10 ** 6
# contribution bound below which a pattern stops being tracked by the sampler
_PRUNE_REL = 1e-15


@dataclass(slots=True)
class PatternParams:
    """Explicit parameters of one generated pattern."""

    theta: np.ndarray
    center: tuple[float, float]
    sigma: float
    kernel: TimeKernel


@dataclass(slots=True)
class SynthConfig:
    hyper: Hyperparams
    n_posts: int
    n_words: int = 7
    sigma0: float | None = 0.1
    alpha0: float | None = None
    unit_square: bool = True
    seed: int = 0

    def validate(self) -> None:
        self.hyper.validate()
        if self.n_posts < 1:
            raise ValueError("n_posts must be >= 1")
        if self.n_words < 1:
            raise ValueError("n_words must be >= 1")
        if self.sigma0 is not None and self.sigma0 <= 0:
            raise ValueError("sigma0 must be > 0")
        if self.alpha0 is not None and self.alpha0 < 0:
            raise ValueError("alpha0 must be >= 0")


@dataclass(slots=True)
class SynthResult:
    posts: list[GeoPost]
    params: dict[int, PatternParams]
    intensities: list[float] = field(repr=False, default_factory=list)


class _LivePattern:
    __slots__ = ("params", "decay", "t_ref", "n")

    def __init__(self, params: PatternParams):
        self.params = params
        self.decay = 0.0
        self.t_ref = 0.0
        self.n = 0

    def intensity(self, t: float) -> float:
        if self.n == 0:
            return 0.0
        k = self.params.kernel
        return k.alpha * self.decay * math.exp(-(t - self.t_ref) / k.tau)

    def add_event(self, t: float) -> None:
        if self.n > 0:
            self.decay = self.decay * math.exp(-(t - self.t_ref) / self.params.kernel.tau) + 1.0
        else:
            self.decay = 1.0
        self.t_ref = t
        self.n += 1


class GenerativeState:
    """Mutable sampler state: live patterns, the params of every pattern
    created so far (labels 0..len(params)-1), the clock."""

    def __init__(self, hyper: Hyperparams):
        self.hyper = hyper
        self.t = 0.0
        self.live: dict[int, _LivePattern] = {}
        self.params: dict[int, PatternParams] = {}

    def total_intensity(self, t: float) -> float:
        return self.hyper.lambda0 + sum(p.intensity(t) for p in self.live.values())

    def prune(self) -> None:
        threshold = _PRUNE_REL * self.hyper.lambda0
        dead = [
            k for k, p in self.live.items()
            if p.params.kernel.alpha * p.n * math.exp(-(self.t - p.t_ref) / p.params.kernel.tau)
            < threshold
        ]
        for k in dead:
            del self.live[k]


def sample_event_time(state: GenerativeState,
                      rng: np.random.Generator) -> tuple[float, float]:
    """Next event time by thinning with the left-endpoint intensity bound.

    Returns (t, lambda(t)), the intensity the candidate was accepted at."""
    t = state.t
    bound = state.total_intensity(t)
    while True:
        t += rng.exponential(1.0 / bound)
        lam = state.total_intensity(t)
        if rng.uniform(0.0, bound) <= lam:
            return t, lam
        bound = lam  # decaying intensity: re-tighten between events


def _draw_pattern_params(config: SynthConfig, rng: np.random.Generator) -> PatternParams:
    hyper = config.hyper
    theta = rng.dirichlet(np.full(hyper.vocab_size, hyper.theta0))
    center = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
    if config.sigma0 is not None:
        sigma = config.sigma0
    else:
        # sigma^2 ~ Inv-Gamma(shape 1, scale beta_space)
        sigma = math.sqrt(hyper.beta_space / rng.standard_gamma(1.0))
    if config.alpha0 is not None:
        alpha = config.alpha0
    else:
        alpha = float(rng.gamma(hyper.alpha_time, 1.0 / hyper.beta_time))
    tau = float(hyper.psi_tau[rng.integers(0, len(hyper.psi_tau))])
    return PatternParams(theta=theta, center=center, sigma=sigma,
                         kernel=TimeKernel(alpha, tau))


def sample_assignment(state: GenerativeState, t: float, lam: float,
                      config: SynthConfig, rng: np.random.Generator) -> int:
    """Pick the pattern for the event at ``t``, given the total intensity
    ``lam`` = lambda(t); may create a new one."""
    u = rng.uniform(0.0, lam)
    acc = state.hyper.lambda0
    if u > acc:
        for label, live in state.live.items():
            acc += live.intensity(t)
            if u <= acc:
                return label
    label = len(state.params)
    params = _draw_pattern_params(config, rng)
    state.params[label] = params
    state.live[label] = _LivePattern(params)
    return label


def emit_post(params: PatternParams, t: float, config: SynthConfig,
              rng: np.random.Generator, label: int | None = None) -> GeoPost:
    """Draw words and a location from the pattern's own distributions."""
    words = rng.choice(config.hyper.vocab_size, size=config.n_words,
                       p=params.theta)
    cx, cy = params.center
    for _ in range(_MAX_REJECTIONS):
        x = cx + params.sigma * rng.standard_normal()
        y = cy + params.sigma * rng.standard_normal()
        if not config.unit_square or (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            return GeoPost(t=t, words=[int(w) for w in words], x=x, y=y,
                           label_true=label)
    raise RuntimeError(
        f"location rejection cap hit: sigma={params.sigma} leaves almost no "
        "mass inside the unit square"
    )


def generate(config: SynthConfig) -> SynthResult:
    """Sample a labeled stream of ``config.n_posts`` posts."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    state = GenerativeState(config.hyper)
    posts: list[GeoPost] = []
    intensities: list[float] = []
    for _ in range(config.n_posts):
        t, lam = sample_event_time(state, rng)
        intensities.append(lam)
        label = sample_assignment(state, t, lam, config, rng)
        posts.append(emit_post(state.params[label], t, config, rng, label=label))
        state.live[label].add_event(t)
        state.t = t
        state.prune()
    return SynthResult(posts=posts, params=dict(state.params),
                       intensities=intensities)
