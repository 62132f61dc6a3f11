"""Metrics and experiment protocols.

Covers partition agreement (NMI), self-excitation recovery error, the
hide-and-predict location experiment with its loose/tight selection
criteria, one-step-ahead spatial goodness of fit, and per-word perplexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import gmm_predictive_logdensity, fit_isotropic_gmm
from .smc import EngineConfig, ParticleSystem
from .types import ClusteringResult, GeoPost, Hyperparams

__all__ = [
    "nmi",
    "alpha_precision",
    "PredictionRecord",
    "location_prediction_protocol",
    "rmse_selected",
    "dataset_spatial_scale",
    "spatial_gof",
    "perplexity",
    "SmcPredictor",
    "GmmStreamPredictor",
    "tune_dhp_lambda0",
    "alpha_precision_records",
]

GOF_BURN_IN = 500
GOF_WINDOW = 2000
# the location-prediction protocol (location_prediction_protocol, rmse_selected)
HIDE_FRAC = 0.02
BURN_FRAC = 0.2
TOP_FRAC = 0.04
SIZE_FLOORS = {"loose": 7, "tight": 11}


# ----------------------------------------------------------------------
# partition and parameter metrics

def nmi(labels_true, labels_pred) -> float:
    """Normalized mutual information between two labelings of the same posts.

    Normalizer is the arithmetic mean of the two entropies. Equal partitions
    give 1 up to relabeling; independent ones give 0.
    """
    a = np.asarray(labels_true)
    b = np.asarray(labels_pred)
    if a.size == 0 or a.shape != b.shape:
        raise ValueError("label sequences must be non-empty and equal length")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    n = a.size
    table = np.zeros((int(ai.max()) + 1, int(bi.max()) + 1))
    np.add.at(table, (ai, bi), 1.0)
    pij = table / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    nz = pij > 0
    outer = np.outer(pi, pj)
    mi = float(np.sum(pij[nz] * np.log(pij[nz] / outer[nz])))
    h_t = float(-np.sum(pi[pi > 0] * np.log(pi[pi > 0])))
    h_p = float(-np.sum(pj[pj > 0] * np.log(pj[pj > 0])))
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    norm = 0.5 * (h_t + h_p)
    return min(1.0, max(0.0, mi / norm))


def alpha_precision(alpha_true: float, alpha_hat: float) -> float:
    """Symmetric relative error |a - b| / (|a + b| / 2), in [0, 2]."""
    if alpha_true <= 0 and alpha_hat <= 0:
        raise ValueError("precision undefined when both values are zero")
    return abs(alpha_true - alpha_hat) / (abs(alpha_true + alpha_hat) / 2.0)


def alpha_precision_records(result: ClusteringResult, posts,
                            true_params) -> list[tuple[int, float]]:
    """(inferred pattern size, delta_alpha vs the majority true pattern) for
    every inferred pattern with a fitted kernel (>= 2 posts)."""
    votes: dict[int, dict[int, int]] = {}  # label -> true label -> count
    for i, label in enumerate(result.assignments):
        tally = votes.setdefault(label, {})
        tally[posts[i].label_true] = tally.get(posts[i].label_true, 0) + 1
    out = []
    for label, tally in votes.items():
        summary = result.summaries[label]
        if summary.size < 2:
            continue
        majority = max(tally.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        alpha_true = true_params[majority].kernel.alpha
        if alpha_true <= 0 and summary.alpha <= 0:
            continue
        out.append((summary.size, alpha_precision(alpha_true, summary.alpha)))
    return out


# ----------------------------------------------------------------------
# location prediction

@dataclass(slots=True)
class PredictionRecord:
    index: int
    predicted: tuple[float, float]
    actual: tuple[float, float]
    pattern_size: int
    sigma: float
    trial: int

    @property
    def error(self) -> float:
        dx = self.predicted[0] - self.actual[0]
        dy = self.predicted[1] - self.actual[1]
        return math.sqrt(dx * dx + dy * dy)


def location_prediction_protocol(posts, hyper: Hyperparams,
                                 config: EngineConfig | None = None,
                                 n_trials: int = 100,
                                 seed: int = 0) -> list[PredictionRecord]:
    """Hide-and-predict experiment.

    Per trial: hide 2% of the posts (at least one, never from the leading
    20% of the stream), run inference with those locations contributing no
    spatial information, then predict each hidden location as the mean of
    the located posts in its assigned pattern. A post hidden in several
    trials keeps the record from the trial whose pattern was tightest
    (smallest scale estimate). A post whose pattern has no located post
    gives no record.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if not posts:
        raise ValueError("no posts to hide locations from")
    n = len(posts)
    # every n >= 1 leaves at least n_hide posts past the burn-in
    eligible = np.arange(int(BURN_FRAC * n), n)
    n_hide = max(1, round(HIDE_FRAC * n))
    base_cfg = config or EngineConfig()
    seeds = np.random.SeedSequence(seed).spawn(n_trials)
    best: dict[int, PredictionRecord] = {}
    for trial in range(n_trials):
        rng = np.random.default_rng(seeds[trial])
        hidden = set(int(i) for i in rng.choice(eligible, size=n_hide,
                                                replace=False))
        cfg = replace(base_cfg, seed=int(rng.integers(2 ** 31)))
        system = ParticleSystem(hyper, cfg)
        system.run(posts, hidden=hidden)
        result = system.map_estimate()
        for i in sorted(hidden):
            summary = result.summaries[result.assignments[i]]
            if math.isnan(summary.scale):
                continue
            record = PredictionRecord(
                index=i,
                predicted=summary.mean,
                actual=(posts[i].x, posts[i].y),
                pattern_size=summary.size,
                sigma=summary.scale,
                trial=trial,
            )
            kept = best.get(i)
            if kept is None or record.sigma < kept.sigma:
                best[i] = record
    return [best[i] for i in sorted(best)]


def rmse_selected(records, criterion: str, dataset_sigma: float,
                  seed: int = 0) -> float | None:
    """Normalized RMSE over the most-confident predictions.

    Records are ordered by pattern tightness (ties broken toward larger
    patterns, then randomly with a seeded generator), records in patterns
    below the criterion's size floor are discarded, and the RMSE of the top
    4% of the survivors (at least one) is divided by ``dataset_sigma``. Returns
    None when nothing survives the floor.
    """
    if not records:
        raise ValueError("no prediction records")
    floor = SIZE_FLOORS[criterion]
    rng = np.random.default_rng(seed)
    keyed = [(r.sigma, -r.pattern_size, rng.random(), r) for r in records]
    keyed.sort(key=lambda kv: kv[:3])
    survivors = [r for _, _, _, r in keyed if r.pattern_size >= floor]
    if not survivors:
        return None
    k = max(1, math.ceil(TOP_FRAC * len(survivors)))
    top = survivors[:k]
    mse = sum(r.error ** 2 for r in top) / len(top)
    return math.sqrt(mse) / dataset_sigma


def dataset_spatial_scale(posts) -> float:
    """sqrt of the dataset's spatial variance, taken as the mean squared
    distance from the centroid (var_x + var_y)."""
    xy = np.array([(p.x, p.y) for p in posts])
    return float(math.sqrt(xy.var(axis=0).sum()))


# ----------------------------------------------------------------------
# one-step-ahead predictors

class SmcPredictor:
    """Streaming model whose predictive mixes patterns over the temporal
    prior and particles over their weights."""

    def __init__(self, hyper: Hyperparams, config: EngineConfig | None = None):
        self.system = ParticleSystem(hyper, config or EngineConfig())

    def spatial_logdensity(self, post: GeoPost) -> float:
        return self.system.predictive_logdensity(post, "spatial")

    def content_logdensity(self, post: GeoPost) -> float:
        return self.system.predictive_logdensity(post, "content")

    def update(self, post: GeoPost) -> None:
        self.system.step(post)


class GmmStreamPredictor:
    """Location-only streaming isotropic mixture, refit on the location
    prefix at each evaluation, warm-started from the previous fit, with the
    component count read from ``k_schedule`` at the current prefix length
    (clamped to the prefix size by ``fit_isotropic_gmm``)."""

    def __init__(self, k_schedule, sigma2_min: float, seed: int = 0):
        self.k_schedule = list(k_schedule)
        self.sigma2_min = sigma2_min
        self.seed = seed
        self.locations: list[tuple[float, float]] = []
        self._model = None

    def spatial_logdensity(self, post: GeoPost) -> float:
        n = len(self.locations)
        if n == 0:
            raise ValueError("no locations observed yet")
        k = int(self.k_schedule[min(n - 1, len(self.k_schedule) - 1)])
        self._model, _ = fit_isotropic_gmm(np.asarray(self.locations), k,
                                           self.sigma2_min, init=self._model,
                                           seed=self.seed)
        return gmm_predictive_logdensity(self._model, (post.x, post.y))

    def update(self, post: GeoPost) -> None:
        self.locations.append((post.x, post.y))


# ----------------------------------------------------------------------
# goodness of fit

def _gof_scan(posts, predictor, burn_in, window, kind):
    if burn_in < 0 or window < 1:
        raise ValueError(f"goodness-of-fit needs burn_in >= 0 and window >= 1, "
                         f"got {burn_in} and {window}")
    if len(posts) < burn_in + window:
        raise ValueError(
            f"goodness-of-fit needs at least {burn_in + window} posts, "
            f"got {len(posts)}")
    terms = []
    n_words = 0
    for i, post in enumerate(posts[:burn_in + window]):
        if i >= burn_in:
            if kind == "spatial":
                terms.append(predictor.spatial_logdensity(post))
            else:
                terms.append(predictor.content_logdensity(post))
                n_words += len(post.words)
        predictor.update(post)
    return math.fsum(terms), n_words


def spatial_gof(posts, predictor, burn_in: int = GOF_BURN_IN,
                window: int = GOF_WINDOW) -> float:
    """Mean one-step-ahead spatial log predictive over the evaluation
    window, after the burn-in prefix (which is trained on, never scored)."""
    total, _ = _gof_scan(posts, predictor, burn_in, window, "spatial")
    return total / window


def perplexity(posts, predictor, burn_in: int = GOF_BURN_IN,
               window: int = GOF_WINDOW) -> float:
    """exp of the negative mean per-word one-step-ahead content log
    predictive over the evaluation window."""
    total, n_words = _gof_scan(posts, predictor, burn_in, window, "content")
    return math.exp(-total / n_words)


def tune_dhp_lambda0(posts_prefix, hyper: Hyperparams, target_patterns: int,
                     config: EngineConfig | None = None, iters: int = 12) -> float:
    """Bisection over lambda0 so the content+time model infers about
    ``target_patterns`` patterns on the prefix (pattern count grows with
    lambda0), in ``iters`` steps within a factor of 100 of hyper.lambda0."""
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    cfg = replace(config or EngineConfig(), spatial=False)

    def count(lam0: float) -> int:
        system = ParticleSystem(replace(hyper, lambda0=lam0), cfg)
        system.run(posts_prefix)
        best = int(np.argmax(system.weights))
        return system.particles[best].S

    lo = hyper.lambda0 / 100.0
    hi = hyper.lambda0 * 100.0
    best_lam, best_err = hyper.lambda0, abs(count(hyper.lambda0) - target_patterns)
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        c = count(mid)
        err = abs(c - target_patterns)
        if err < best_err:
            best_lam, best_err = mid, err
        if c < target_patterns:
            lo = mid
        elif c > target_patterns:
            hi = mid
        else:
            return mid
    return best_lam
