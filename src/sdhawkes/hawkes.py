"""The exponential triggering kernel and its restricted fit.

Patterns excite themselves through an exponential triggering kernel
alpha * exp(-dt/tau); the stream intensity is the base rate lambda0 plus the
sum of pattern intensities. The intensity and compensator terms the particle
filter needs are evaluated inside ``smc.score_candidates``; this module holds
the kernel type and the per-pattern kernel fit, which is O(1) in the
pattern's event count thanks to the decay caches maintained by PatternStats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, log

from .types import Hyperparams, PatternStats

__all__ = ["ALPHA_FLOOR", "TimeKernel", "fit_kernel"]

ALPHA_FLOOR = 1e-8


@dataclass(frozen=True, slots=True)
class TimeKernel:
    """Exponential triggering kernel parameters."""

    alpha: float
    tau: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")


def fit_kernel(stats: PatternStats, t_now: float,
               hyper: Hyperparams) -> tuple[float, float, int]:
    """Restricted MAP of (alpha, tau) given the pattern's events through t_now.

    For each tau on the grid ``hyper.psi_tau`` the objective
    log Ga(alpha | alpha_time, beta_time) + event-time log likelihood is
    maximized in closed form by

        alpha_hat = (n - 2 + alpha_time) / (beta_time + B)
        B         = tau * sum_i (1 - exp(-(t_now - t_i)/tau))

    (floored at ALPHA_FLOOR when the numerator is not positive), and the tau
    with the largest objective wins; ties go to the smaller tau. Terms that
    depend on neither alpha nor tau are left out of the comparison.
    Returns (alpha, tau, index of tau in psi_tau).
    """
    n = stats.n_posts
    if n < 2:
        raise ValueError("kernel fitting needs at least two posts")
    a = hyper.alpha_time
    b = hyper.beta_time
    numer = n - 2.0 + a
    k_log = a - 2.0 + n
    dt_ref = t_now - stats.t_ref
    best_obj = -math.inf
    best = (ALPHA_FLOOR, hyper.psi_tau[0], 0)
    for i, tau in enumerate(hyper.psi_tau):
        big_b = tau * (n - stats.decay[i] * exp(-dt_ref / tau))
        denom = b + big_b
        alpha_hat = numer / denom if numer > 0 else ALPHA_FLOOR
        obj = k_log * log(alpha_hat) - denom * alpha_hat + stats.log_trigger[i]
        if obj > best_obj:
            best_obj = obj
            best = (alpha_hat, tau, i)
    return best
