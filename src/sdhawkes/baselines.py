"""Streaming isotropic Gaussian mixture, the spatial comparison model.

``fit_isotropic_gmm`` is the EM fit that ``evaluation.GmmStreamPredictor``
repeats on each location prefix, with a component count schedule supplied
by the caller and a variance floor of 2 * beta_space. The content+time
comparison model is not here: it is the engine itself with the spatial
factor off, ``EngineConfig(spatial=False)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GmmModel",
    "fit_isotropic_gmm",
    "gmm_predictive_logdensity",
]


@dataclass(slots=True)
class GmmModel:
    """Isotropic 2-D Gaussian mixture."""

    weights: np.ndarray
    means: np.ndarray       # (k, 2)
    variances: np.ndarray   # (k,), each at least the fit's variance floor


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [x[rng.integers(len(x))]]
    for _ in range(1, k):
        d2 = np.min([((x - c) ** 2).sum(axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(x[rng.integers(len(x))])
            continue
        centers.append(x[rng.choice(len(x), p=d2 / total)])
    return np.array(centers)


def _loglik_matrix(x: np.ndarray, model: GmmModel) -> np.ndarray:
    d2 = ((x[:, None, :] - model.means[None, :, :]) ** 2).sum(axis=2)
    return (np.log(model.weights)[None, :]
            - np.log(2.0 * np.pi * model.variances)[None, :]
            - d2 / (2.0 * model.variances)[None, :])


def gmm_predictive_logdensity(model: GmmModel, r) -> float:
    """log sum_j w_j N(r | mu_j, v_j I)."""
    logs = _loglik_matrix(np.asarray(r, dtype=float)[None, :], model)[0]
    m = float(np.max(logs))
    return m + math.log(float(np.sum(np.exp(logs - m))))


def fit_isotropic_gmm(x, k: int, var_floor: float,
                      init: GmmModel | None = None, seed: int = 0,
                      max_iter: int = 200):
    """EM fit of a k-component isotropic mixture on the rows of ``x``.

    Returns (model, per-iteration log likelihoods). ``k`` is clamped to the
    number of rows. ``init`` warm-starts from a previous fit when its
    component count matches; otherwise k-means++ seeding with the given seed.
    EM stops when the log likelihood changes by less than 1e-6 of itself.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n == 0:
        raise ValueError("cannot fit a mixture on no data")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(k, n)
    if init is not None and len(init.weights) == k:
        model = GmmModel(init.weights.copy(), init.means.copy(),
                         init.variances.copy())
    else:
        rng = np.random.default_rng(seed)
        means = _kmeans_pp_init(x, k, rng)
        var0 = max(float(x.var(axis=0).mean()), var_floor)
        model = GmmModel(np.full(k, 1.0 / k), means, np.full(k, var0))

    history = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        logs = _loglik_matrix(x, model)
        row_max = logs.max(axis=1, keepdims=True)
        probs = np.exp(logs - row_max)
        row_sum = probs.sum(axis=1, keepdims=True)
        ll = float((row_max.ravel() + np.log(row_sum.ravel())).sum())
        history.append(ll)
        resp = probs / row_sum
        nk = resp.sum(axis=0)
        nk_safe = np.maximum(nk, 1e-300)
        means = (resp.T @ x) / nk_safe[:, None]
        d2 = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        variances = np.maximum((resp * d2).sum(axis=0) / (2.0 * nk_safe), var_floor)
        model = GmmModel(nk / n, means, variances)
        if prev_ll > -np.inf and abs(ll - prev_ll) < 1e-6 * abs(prev_ll):
            break
        prev_ll = ll
    return model, history

