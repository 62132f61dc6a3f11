import itertools
import math

import numpy as np
import pytest

from sdhawkes.types import Hyperparams

from oracles import build_stats, sequential_predictive_oracle
from probes import content_term


def hyp(vocab_size, theta0=1.0):
    return Hyperparams(vocab_size=vocab_size, theta0=theta0)


def test_empty_pattern_single_word():
    assert content_term(None, [0], hyp(2)) == pytest.approx(math.log(0.5))


def test_loaded_pattern_single_word():
    stats = build_stats(times=[0.0, 1.0], docs=[[0], [0]])
    assert content_term(stats, [0], hyp(2)) == pytest.approx(math.log(0.75))


def test_empty_pattern_repeated_word():
    assert content_term(None, [0, 0], hyp(2)) == pytest.approx(math.log(1.0 / 3.0))


def test_oracle_matches_on_examples():
    stats = build_stats(times=[0.0, 1.0], docs=[[0], [0]])
    for pattern, doc, v in [
        (None, [0], 2),
        (stats, [0], 2),
        (None, [0, 0], 2),
    ]:
        h = hyp(v)
        assert content_term(pattern, doc, h) == pytest.approx(
            sequential_predictive_oracle(pattern, doc, h), abs=1e-12
        )


def test_oracle_single_token_reduction():
    stats = build_stats(times=[0.0], docs=[[3, 3, 1]])
    h = hyp(6, theta0=0.4)
    expected = math.log((2 + 0.4) / (3 + 6 * 0.4))
    assert sequential_predictive_oracle(stats, [3], h) == pytest.approx(expected)
    assert content_term(stats, [3], h) == pytest.approx(expected)


def test_token_order_irrelevant():
    stats = build_stats(times=[0.0], docs=[[1, 2, 2]])
    h = hyp(5, theta0=0.7)
    a = sequential_predictive_oracle(stats, [1, 2, 1, 4], h)
    b = sequential_predictive_oracle(stats, [4, 1, 2, 1], h)
    assert a == pytest.approx(b, abs=1e-12)
    assert content_term(stats, [1, 2, 1, 4], h) == pytest.approx(
        content_term(stats, [4, 1, 2, 1], h), abs=1e-12)


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        v = int(rng.integers(1, 51))
        theta0 = float(rng.uniform(0.01, 10.0))
        h = hyp(v, theta0)
        n_pattern = int(rng.integers(0, 6))
        docs = [list(rng.integers(0, v, size=rng.integers(1, 8)))
                for _ in range(n_pattern)]
        stats = build_stats(times=np.arange(float(n_pattern)), docs=docs) if n_pattern else None
        doc = list(rng.integers(0, v, size=rng.integers(1, 12)))
        a = content_term(stats, doc, h)
        b = sequential_predictive_oracle(stats, doc, h)
        assert abs(a - b) < 1e-9


@pytest.mark.parametrize("v,length", [(2, 3), (3, 3), (4, 4), (2, 4)])
def test_normalization_by_enumeration(v, length):
    h = hyp(v, theta0=0.8)
    stats = build_stats(times=[0.0], docs=[[0, 1]]) if v >= 2 else None
    total = 0.0
    for doc in itertools.product(range(v), repeat=length):
        total += math.exp(content_term(stats, list(doc), h))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_monotonicity_in_pattern_counts():
    h = hyp(4)
    doc = [2, 2]
    prev = content_term(None, doc, h)
    for k in range(1, 6):
        stats = build_stats(times=np.arange(float(k)), docs=[[2]] * k)
        cur = content_term(stats, doc, h)
        assert cur > prev
        prev = cur
