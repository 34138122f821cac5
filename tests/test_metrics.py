import math

import numpy as np
import pytest

from ldlkit import (
    canberra,
    chebyshev,
    clark,
    cosine,
    evaluate,
    intersection,
    kl_divergence,
)
from ldlkit.errors import ShapeMismatch
from ldlkit.metrics import KL_EPS

ALL = (chebyshev, clark, canberra, kl_divergence, cosine, intersection)


# Straight-line reimplementations used as oracles; kept loop-based on purpose.
def naive_chebyshev(d, p):
    return max(abs(a - b) for a, b in zip(d, p))


def naive_clark(d, p):
    total = 0.0
    for a, b in zip(d, p):
        if a + b > 0:
            total += ((a - b) / (a + b)) ** 2
    return math.sqrt(total)


def naive_canberra(d, p):
    total = 0.0
    for a, b in zip(d, p):
        if a + b > 0:
            total += abs(a - b) / (a + b)
    return total


def naive_kl(d, p):
    q = [max(b, KL_EPS) for b in p]
    z = sum(q)
    q = [b / z for b in q]
    return sum(a * math.log(a / b) for a, b in zip(d, q) if a > 0)


def naive_cosine(d, p):
    num = sum(a * b for a, b in zip(d, p))
    return num / (math.sqrt(sum(a * a for a in d)) * math.sqrt(sum(b * b for b in p)))


def naive_intersection(d, p):
    return sum(min(a, b) for a, b in zip(d, p))


NAIVE = (naive_chebyshev, naive_clark, naive_canberra, naive_kl,
         naive_cosine, naive_intersection)


def random_simplex(rng, m):
    return rng.dirichlet(np.ones(m) * rng.uniform(0.3, 3.0))


def test_identity_pairs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = random_simplex(rng, int(rng.integers(2, 10)))
        assert chebyshev(d, d) == 0.0
        assert clark(d, d) == 0.0
        assert canberra(d, d) == 0.0
        assert kl_divergence(d, d) == pytest.approx(0.0, abs=1e-10)
        assert cosine(d, d) == pytest.approx(1.0, abs=1e-12)
        assert intersection(d, d) == pytest.approx(1.0, abs=1e-12)


def test_reference_values():
    assert chebyshev([1, 0], [0, 1]) == 1.0
    assert chebyshev([0.25, 0.4, 0.25, 0.1], [0.25, 0.25, 0.25, 0.25]) == pytest.approx(0.15)
    assert intersection([1, 0], [0.5, 0.5]) == pytest.approx(0.5)


def test_matches_naive_oracles():
    rng = np.random.default_rng(1)
    for _ in range(500):
        m = int(rng.integers(2, 12))
        d, p = random_simplex(rng, m), random_simplex(rng, m)
        for fast, slow in zip(ALL, NAIVE):
            assert fast(d, p) == pytest.approx(slow(list(d), list(p)), abs=1e-12)


def test_symmetry_and_kl_asymmetry():
    rng = np.random.default_rng(2)
    d, p = random_simplex(rng, 6), random_simplex(rng, 6)
    for f in (chebyshev, clark, canberra, cosine, intersection):
        assert f(d, p) == pytest.approx(f(p, d), abs=1e-12)
    assert kl_divergence(d, p) != pytest.approx(kl_divergence(p, d), abs=1e-6)


def test_ranges_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = int(rng.integers(2, 12))
        d, p = random_simplex(rng, m), random_simplex(rng, m)
        assert 0.0 <= chebyshev(d, p) <= 1.0
        assert 0.0 <= clark(d, p) <= math.sqrt(m) + 1e-12
        assert 0.0 <= canberra(d, p) <= m + 1e-12
        assert kl_divergence(d, p) >= 0.0
        assert 0.0 < cosine(d, p) <= 1.0 + 1e-12
        assert 0.0 <= intersection(d, p) <= 1.0 + 1e-12


def test_kl_zero_iff_equal():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = random_simplex(rng, 5)
        p = random_simplex(rng, 5)
        assert kl_divergence(d, d) <= 1e-10
        if np.abs(d - p).max() > 1e-3:
            assert kl_divergence(d, p) > 1e-7


def test_zero_over_zero_terms_are_dropped():
    d = np.array([0.5, 0.5, 0.0, 0.0])
    p = np.array([0.3, 0.7, 0.0, 0.0])
    assert np.isfinite(clark(d, p))
    assert np.isfinite(canberra(d, p))
    # only the first two coordinates contribute
    assert canberra(d, p) == pytest.approx(0.2 / 0.8 + 0.2 / 1.2)


def test_kl_with_zero_predictions_is_finite():
    d = np.array([0.5, 0.5])
    p = np.array([1.0, 0.0])
    v = kl_divergence(d, p)
    assert np.isfinite(v) and v > 0


def test_dimension_mismatch():
    for f in ALL:
        with pytest.raises(ShapeMismatch):
            f([0.5, 0.5], [0.2, 0.3, 0.5])
    with pytest.raises(ShapeMismatch):
        evaluate(np.eye(2), np.eye(3))


def test_evaluate_identity():
    rng = np.random.default_rng(5)
    D = rng.dirichlet(np.ones(4), size=30).T
    rep = evaluate(D, D)
    assert rep.chebyshev == 0.0
    assert rep.clark == 0.0
    assert rep.canberra == 0.0
    assert rep.kl == pytest.approx(0.0, abs=1e-10)
    assert rep.cosine == pytest.approx(1.0, abs=1e-12)
    assert rep.intersection == pytest.approx(1.0, abs=1e-12)
    assert rep.n_evaluated == 30


def test_evaluate_single_instance_equals_pairwise_scores():
    rng = np.random.default_rng(6)
    d, p = random_simplex(rng, 5), random_simplex(rng, 5)
    rep = evaluate(d[:, None], p[:, None])
    assert rep.chebyshev == pytest.approx(chebyshev(d, p))
    assert rep.clark == pytest.approx(clark(d, p))
    assert rep.canberra == pytest.approx(canberra(d, p))
    assert rep.kl == pytest.approx(kl_divergence(d, p))
    assert rep.cosine == pytest.approx(cosine(d, p))
    assert rep.intersection == pytest.approx(intersection(d, p))
    assert rep.chebyshev_std == 0.0


def test_evaluate_two_instances_is_midpoint():
    rng = np.random.default_rng(7)
    d1, p1 = random_simplex(rng, 5), random_simplex(rng, 5)
    d2, p2 = random_simplex(rng, 5), random_simplex(rng, 5)
    rep = evaluate(np.column_stack([d1, d2]), np.column_stack([p1, p2]))
    assert rep.kl == pytest.approx((kl_divergence(d1, p1) + kl_divergence(d2, p2)) / 2)
    assert rep.chebyshev == pytest.approx((chebyshev(d1, p1) + chebyshev(d2, p2)) / 2)
