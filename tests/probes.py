"""Single model terms read out of the engine's one scoring function.

Each helper puts one pattern into a fresh particle, pins its kernel, and
scores that one particle with ``smc.score_candidates``. A likelihood factor
is the candidate's score with that factor switched on minus its score with
every factor off; the intensity and compensator are the function's own
lambda(t) and Lambda.
The oracle tests compare these against the references in ``oracles``.

The engine passes over patterns that cannot change a double (the quiet rule
of ``score_candidates``), so ``pattern_rates``, whose only other candidate
is "new" at PROBE_LAMBDA0, reads as 0 a pattern whose intensity bound at
``t_prev`` is below PROBE_LAMBDA0 * 2^-64: that bound is below the
rule's PROBE_LAMBDA0 * 2^-60 and, with every factor off, below 2^-64 of
"new"'s term.
"""

from __future__ import annotations

import math

from sdhawkes.smc import EngineConfig, score_candidates
from sdhawkes.types import GeoPost, Hyperparams, Particle

# a base rate that is a power of two, so that lambda0 * dt is exact and
# subtracting it leaves the pattern's own part to within one rounding
PROBE_LAMBDA0 = 2.0 ** -20


def _scores(stats, post, hyper, t_prev, **factors):
    """Scores of ``post`` against ``stats`` (index 0) or, for an empty or
    missing pattern, against "new" (index -1)."""
    particle = Particle()
    index = -1
    if stats is not None and stats.n_posts > 0:
        particle.patterns[0] = stats
        index = 0
        config = EngineConfig(fixed_kernel=(stats.alpha, stats.tau))
    else:
        config = EngineConfig(fixed_kernel=(1.0, 1.0))
    [out] = score_candidates([particle], post, hyper, config, t_prev, **factors)
    return out, index


def _factor(stats, post, hyper, **factor) -> float:
    t_prev = post.t
    (_, on, *_), index = _scores(stats, post, hyper, t_prev, **factor)
    (_, off, *_), _ = _scores(stats, post, hyper, t_prev, content=False, spatial=False)
    return on[index] - off[index]


def _query_time(stats) -> float:
    return stats.t_ref if stats is not None and stats.n_posts > 0 else 0.0


def content_term(stats, words, hyper: Hyperparams) -> float:
    """Engine's log content marginal of ``words`` (``stats=None``: new)."""
    post = GeoPost(t=_query_time(stats), words=list(words), x=0.0, y=0.0)
    return _factor(stats, post, hyper, content=True, spatial=False)


def spatial_term(stats, beta_space: float, x: float, y: float) -> float:
    """Engine's log spatial predictive of (x, y) given ``stats``."""
    hyper = Hyperparams(beta_space=beta_space)
    post = GeoPost(t=_query_time(stats), words=[0], x=x, y=y)
    return _factor(stats, post, hyper, content=False, spatial=True)


def pattern_rates(stats, t_prev: float, t: float) -> tuple[float, float]:
    """The pattern's intensity at ``t`` and its compensator over
    [t_prev, t]: the engine's lambda(t) and Lambda less the base rate's part."""
    hyper = Hyperparams(lambda0=PROBE_LAMBDA0)
    post = GeoPost(t=t, words=[0], x=0.0, y=0.0)
    (_, _, lam_t, big_lambda, _), _ = _scores(
        stats, post, hyper, t_prev, content=False, spatial=False)
    return lam_t - PROBE_LAMBDA0, big_lambda - PROBE_LAMBDA0 * (t - t_prev)


def prior(particle: Particle, hyper: Hyperparams, t: float,
          config: EngineConfig) -> tuple[list[int], list[float], float]:
    """Engine's temporal prior over the next post's pattern (its scores with
    every likelihood factor off, normalized as the proposal normalizes
    them) and lambda(t)."""
    t_prev = max((s.t_ref for s in particle.patterns.values()), default=0.0)
    post = GeoPost(t=t, words=[0], x=0.0, y=0.0)
    [(labels, scores, lam_t, _, _)] = score_candidates(
        [particle], post, hyper, config, t_prev, content=False, spatial=False)
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    total = sum(exps)
    return labels, [e / total for e in exps], lam_t
