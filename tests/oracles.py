"""Independent reference implementations used to check the fast paths.

Everything here recomputes from raw data with no caching, no conjugacy
shortcuts beyond grid placement, and no code shared with the package
internals.
"""

from __future__ import annotations

import math
from math import exp, lgamma, log

import numpy as np
from scipy.integrate import quad, simpson

from sdhawkes.types import PatternStats


def build_stats(times=(), locations=None, docs=None, psi_tau=(1.0,),
                alpha=0.5, tau=None, tau_idx=0, with_location=True) -> PatternStats:
    """Assemble a PatternStats by replaying posts one at a time."""
    times = list(times)
    if locations is None:
        locations = [(0.0, 0.0)] * len(times)
    if docs is None:
        docs = [[0]] * len(times)
    stats = PatternStats(
        n_taus=len(psi_tau),
        alpha=alpha,
        tau=psi_tau[tau_idx] if tau is None else tau,
        tau_idx=tau_idx,
    )
    for t, (x, y), words in zip(times, locations, docs):
        stats.attach(t, list(words), x, y, tuple(psi_tau), with_location=with_location)
    return stats


def decay_sum_direct(times, t, tau) -> float:
    """sum_i exp(-(t - t_i)/tau) by direct summation."""
    return sum(exp(-(t - ti) / tau) for ti in times)


def intensity_direct(times, t, alpha, tau) -> float:
    return alpha * decay_sum_direct(times, t, tau)


def assignment_prior(particle, hyper, t) -> tuple[list[int], list[float]]:
    """Temporal prior over the next post's pattern, from raw event times.

    Returns (labels, probs): one entry per pattern of ``particle``, with
    lambda_k(t)/lambda(t) under the pattern's stored kernel, then the
    "new" entry lambda0/lambda(t).
    """
    labels = list(particle.patterns)
    lams = [intensity_direct(s.event_times, t, s.alpha, s.tau)
            for s in particle.patterns.values()]
    total = hyper.lambda0 + sum(lams)
    return labels, [lam / total for lam in lams] + [hyper.lambda0 / total]


def rates_over_every_pattern(kernels, lambda0, t_prev, t) -> tuple[float, float]:
    """lambda(t) and its compensator over [t_prev, t], summed in the given
    order over every (stats, alpha, tau, tau_idx) in ``kernels``, however
    small its terms, by the engine's per-pattern formulas: the sums that
    skipping negligible patterns must leave unchanged to the last bit."""
    dt = t - t_prev
    lam_t = lambda0
    big_lambda = lambda0 * dt
    for stats, alpha, tau, tau_idx in kernels:
        s_prev = stats.decay[tau_idx] * exp(-(t_prev - stats.t_ref) / tau)
        e_dt = exp(-dt / tau)
        lam_t += alpha * s_prev * e_dt
        big_lambda += alpha * tau * s_prev * (1.0 - e_dt)
    return lam_t, big_lambda


def compensator_quadrature(times, t0, t1, alpha, tau) -> float:
    """Integrate the pattern intensity numerically over [t0, t1]."""
    val, _err = quad(lambda u: intensity_direct(times, u, alpha, tau), t0, t1,
                     limit=200)
    return val


def alpha_objective_direct(times, tau, t_now, alpha_time, beta_time, alpha) -> float:
    """Self-excitation objective by direct summation over event pairs."""
    lt = 0.0
    for j in range(1, len(times)):
        a_j = sum(exp(-(times[j] - times[i]) / tau) for i in range(j))
        lt += log(a_j)
    big_b = tau * sum(1.0 - exp(-(t_now - ti) / tau) for ti in times)
    n = len(times)
    return (
        alpha_time * log(beta_time) - lgamma(alpha_time)
        + (alpha_time - 1.0 + n - 1.0) * log(alpha)
        - (beta_time + big_b) * alpha
        + lt
    )


def alpha_argmax_grid(times, tau, t_now, alpha_time, beta_time) -> tuple[float, float]:
    """Brute-force 1-D maximization of the self-excitation objective.

    Expanding bracket followed by iterative grid refinement; returns
    (argmax, objective). Resolution is far below 1e-6 relative.
    """
    n = len(times)
    lt = 0.0
    for j in range(1, n):
        lt += log(sum(exp(-(times[j] - times[i]) / tau) for i in range(j)))
    big_b = tau * sum(1.0 - exp(-(t_now - ti) / tau) for ti in times)
    k = alpha_time - 1.0 + n - 1.0
    c = beta_time + big_b

    def f(a):
        return k * math.log(a) - c * a

    hi = 1.0
    while f(2.0 * hi) > f(hi):
        hi *= 2.0
    lo = 1e-12
    grid = np.exp(np.linspace(math.log(lo), math.log(hi * 2.0), 600))
    best = grid[int(np.argmax([f(a) for a in grid]))]
    span = best
    for _ in range(4):
        lo_i = max(best - span, 1e-15)
        hi_i = best + span
        grid = np.linspace(lo_i, hi_i, 600)
        best = grid[int(np.argmax([f(a) for a in grid]))]
        span = (hi_i - lo_i) / 300.0
    full = (
        alpha_time * log(beta_time) - lgamma(alpha_time) + f(best) + lt
    )
    return float(best), full


def sequential_predictive_oracle(stats, words, hyper) -> float:
    """Log Dirichlet-multinomial marginal of ``words`` given a pattern.

    Feeds the document through token by token, multiplying posterior
    predictive word probabilities (Cv + th0)/(C + V*th0) with running
    counts (the chain rule; no log-gamma). ``stats=None`` is a new pattern.
    """
    vt = hyper.vocab_size * hyper.theta0
    counts = dict(stats.word_counts) if stats is not None else {}
    total = stats.total_words if stats is not None else 0
    out = 0.0
    for v in words:
        out += log((counts.get(v, 0) + hyper.theta0) / (total + vt))
        counts[v] = counts.get(v, 0) + 1
        total += 1
    return out


def content_marginal_enumeration(vocab_size, theta0, pattern_counts, doc_len):
    """Yield (doc, probability) over all ordered docs of length doc_len."""
    import itertools

    for doc in itertools.product(range(vocab_size), repeat=doc_len):
        counts = dict(pattern_counts)
        total = sum(pattern_counts.values())
        p = 1.0
        for w in doc:
            p *= (counts.get(w, 0) + theta0) / (total + vocab_size * theta0)
            counts[w] = counts.get(w, 0) + 1
            total += 1
        yield doc, p


def spatial_predictive_quadrature(points, beta_space, query,
                                  n_z=801, n_u=1401) -> float:
    """Log predictive density of ``query`` by nested numerical quadrature.

    Integrates N(query | R, s2 I) against the (R, s2) posterior given
    ``points``, with a flat prior on R and an inverse-gamma (shape 1,
    scale beta_space) prior on s2. The R integral factorizes per axis and is
    done by Simpson on a standardized grid; the s2 integral by Simpson in
    log s2. Grid placement uses the integrand's bump location, which affects
    efficiency only.
    """
    pts = np.asarray(points, dtype=float)
    q = np.asarray(query, dtype=float)
    n = len(pts)
    if n == 0:
        return 0.0
    xbar = pts.mean(axis=0)
    ss = float(((pts - xbar) ** 2).sum())
    s0 = (beta_space + 0.5 * ss) / (n + 1)
    u0 = math.log(s0)
    u = np.linspace(u0 - 10.0 - 12.0 / math.sqrt(n), u0 + 10.0 + 30.0 / n, n_u)
    s2 = np.exp(u)
    sig = np.sqrt(s2)
    z = np.linspace(-14.0, 14.0, n_z)

    def axis_log_integral(xs, extra=None):
        vals = list(xs)
        n_eff = len(vals) + (0 if extra is None else 1)
        c = (sum(vals) + (0.0 if extra is None else float(extra))) / n_eff
        w = sig / math.sqrt(n_eff)
        m = c + np.outer(w, z)
        sq = np.zeros_like(m)
        for xi in vals:
            sq += (xi - m) ** 2
        if extra is not None:
            sq += (float(extra) - m) ** 2
        ll = -0.5 * n_eff * np.log(2.0 * np.pi * s2)[:, None] - sq / (2.0 * s2[:, None])
        ll_max = ll.max(axis=1)
        integral = simpson(np.exp(ll - ll_max[:, None]), x=z, axis=1) * w
        return ll_max + np.log(integral)

    log_prior = math.log(beta_space) - 2.0 * u - beta_space / s2
    log_g = axis_log_integral(pts[:, 0]) + axis_log_integral(pts[:, 1])
    log_h = (axis_log_integral(pts[:, 0], extra=q[0])
             + axis_log_integral(pts[:, 1], extra=q[1]))

    def log_simpson(logf):
        mx = float(np.max(logf))
        return mx + math.log(simpson(np.exp(logf - mx), x=u))

    log_z = log_simpson(log_prior + log_g + u)
    log_m = log_simpson(log_prior + log_h + u)
    return log_m - log_z


def spatial_predictive_closed_form(points, beta_space, query) -> float:
    """Predictive density of ``query`` given ``points`` (1 for none), in
    closed form from raw coordinate sums: the Student-t that the quadrature
    above integrates to."""
    m = len(points)
    if m == 0:
        return 1.0
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)
    sq = sum(p[0] ** 2 + p[1] ** 2 for p in points)
    xi = beta_space + 0.5 * sq - (sx * sx + sy * sy) / (2.0 * m)
    dx = query[0] - sx / m
    dy = query[1] - sy / m
    delta = m / (2.0 * (m + 1.0)) * (dx * dx + dy * dy)
    return (m * m / (2.0 * math.pi * (1.0 + m))
            * (1.0 / xi) * (1.0 + delta / xi) ** (-(1.0 + m)))


def enumerate_posterior(posts, hyper, alpha, tau, spatial=True):
    """Exact assignment posterior for a short stream under shared fixed kernels.

    Enumerates every restricted-growth label sequence and scores it with the
    product over posts of temporal prior * content marginal * spatial
    marginal, all recomputed from raw history (no caches, no package
    internals). With a kernel shared by all patterns the event-time density
    is the same for every sequence and drops out in normalization.

    Returns {assignment tuple: posterior probability}.
    """
    n = len(posts)
    theta0 = hyper.theta0
    v = hyper.vocab_size
    beta = hyper.beta_space
    lam0 = hyper.lambda0

    def content_factor(cluster_words, doc):
        counts = {}
        for w in cluster_words:
            counts[w] = counts.get(w, 0) + 1
        total = len(cluster_words)
        out = 1.0
        for w in doc:
            out *= (counts.get(w, 0) + theta0) / (total + v * theta0)
            counts[w] = counts.get(w, 0) + 1
            total += 1
        return out

    results = {}

    def recurse(i, seq, log_score):
        if i == n:
            results[tuple(seq)] = log_score
            return
        post = posts[i]
        k_used = max(seq) + 1 if seq else 0
        lams = []
        for k in range(k_used):
            lam_k = sum(
                alpha * exp(-(post.t - posts[j].t) / tau)
                for j in range(i) if seq[j] == k
            )
            lams.append(lam_k)
        lam_total = lam0 + sum(lams)
        for k in range(k_used + 1):
            if k < k_used:
                prior = lams[k] / lam_total
                members = [j for j in range(i) if seq[j] == k]
            else:
                prior = lam0 / lam_total
                members = []
            if prior <= 0.0:
                continue
            cw = [w for j in members for w in posts[j].words]
            cf = content_factor(cw, post.words)
            sf = (spatial_predictive_closed_form(
                [(posts[j].x, posts[j].y) for j in members], beta, (post.x, post.y))
                if spatial else 1.0)
            recurse(i + 1, seq + [k], log_score + math.log(prior * cf * sf))

    recurse(0, [], 0.0)
    mx = max(results.values())
    total = sum(math.exp(s - mx) for s in results.values())
    return {seq: math.exp(s - mx) / total for seq, s in results.items()}


def nmi_contingency(labels_a, labels_b) -> float:
    """NMI (arithmetic-mean normalizer) from the raw contingency table;
    reference for the fast version."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    n = len(a)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    for i, j in zip(ai, bi):
        table[i, j] += 1
    pij = table / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            if pij[i, j] > 0:
                mi += pij[i, j] * math.log(pij[i, j] / (pi[i] * pj[j]))
    h_a = -sum(p * math.log(p) for p in pi if p > 0)
    h_b = -sum(p * math.log(p) for p in pj if p > 0)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    norm = 0.5 * (h_a + h_b)
    return mi / norm


class UniformPredictor:
    """Control model for the goodness-of-fit scans: unit spatial density,
    uniform 1/V per word."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def spatial_logdensity(self, post) -> float:
        return 0.0

    def content_logdensity(self, post) -> float:
        return -len(post.words) * math.log(self.vocab_size)

    def update(self, post) -> None:
        pass
