"""Point estimates of a pattern's location model.

Each pattern's location model is N(R, sigma^2 I) with a flat prior on the
mean R and sigma^2 ~ Inv-Gamma(1, beta_space) (shape/scale convention). The
collapsed predictive of a new location, a bivariate Student-t, is evaluated
inside ``smc.score_candidates``; this module holds the summaries the
evaluation protocols read off a fitted pattern.
"""

from __future__ import annotations

import math

from .types import PatternStats

__all__ = ["spatial_point_estimate", "spatial_scale_estimate"]


def spatial_point_estimate(stats: PatternStats) -> tuple[float, float]:
    """Mean of the located posts; the point prediction for a hidden location."""
    if stats.n_spatial < 1:
        raise ValueError("pattern has no located posts")
    return (stats.mean_x, stats.mean_y)


def spatial_scale_estimate(stats: PatternStats, beta_space: float) -> float:
    """Per-axis spatial scale sqrt(xi / n); used to rank patterns by tightness."""
    if stats.n_spatial < 1:
        raise ValueError("pattern has no located posts")
    return math.sqrt(stats.xi(beta_space) / stats.n_spatial)
