import re

import numpy as np
import pytest

from dfinito.sampling import (
    SamplingPlan,
    epoch_order,
    optimal_cyclic_order,
    update_importance,
)


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan("bogus", 3)
    with pytest.raises(ValueError):
        SamplingPlan("cyclic", 3)  # needs an order
    with pytest.raises(ValueError):
        SamplingPlan("cyclic", 3, order=[0, 0, 1])
    with pytest.raises(ValueError):
        SamplingPlan("reshuffle", 3)  # needs a seed
    with pytest.raises(ValueError):
        SamplingPlan("adaptive", 3, gamma=1.5)
    with pytest.raises(ValueError, match="n must be >= 1"):
        SamplingPlan("reshuffle", 0, seed=0)
    for regime in ("reshuffle", "shuffle_once", "uniform", "adaptive"):
        with pytest.raises(ValueError, match="an order is for cyclic sampling only"):
            SamplingPlan(regime, 3, order=[2, 1, 0], seed=0, gamma=0.5)
    for regime, n, order, seed, message in (
        ("reshuffle", 8.5, None, 0, "n must be an integer >= 1, got 8.5"),
        ("cyclic", True, [0], None, "n must be an integer >= 1, got True"),
        ("reshuffle", 8, None, 1.5, "seed must be an integer >= 0, got 1.5"),
        ("uniform", 8, None, -1, "seed must be an integer >= 0, got -1"),
        ("shuffle_once", 8, None, True, "seed must be an integer >= 0, got True"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            SamplingPlan(regime, n, order=order, seed=seed)


def test_cyclic_is_fixed():
    plan = SamplingPlan("cyclic", 3, order=[2, 1, 0])
    for epoch in (0, 1, 7):
        assert np.array_equal(epoch_order(plan, epoch), [2, 1, 0])


def test_shuffle_once_reuses_one_permutation():
    plan = SamplingPlan("shuffle_once", 20, seed=4)
    first = epoch_order(plan, 0)
    assert sorted(first) == list(range(20))
    for epoch in (1, 5, 100):
        assert np.array_equal(epoch_order(plan, epoch), first)


def test_reshuffle_fresh_and_deterministic():
    plan = SamplingPlan("reshuffle", 20, seed=4)
    e0, e1 = epoch_order(plan, 0), epoch_order(plan, 1)
    assert sorted(e0) == list(range(20)) and sorted(e1) == list(range(20))
    assert not np.array_equal(e0, e1)
    # deterministic given (seed, epoch), and independent across plan objects
    again = SamplingPlan("reshuffle", 20, seed=4)
    assert np.array_equal(epoch_order(again, 1), e1)
    other_seed = SamplingPlan("reshuffle", 20, seed=5)
    assert not np.array_equal(epoch_order(other_seed, 0), e0)


def test_uniform_draws_with_replacement():
    plan = SamplingPlan("uniform", 10, seed=0)
    draws = epoch_order(plan, 0)
    assert draws.shape == (10,)
    assert draws.min() >= 0 and draws.max() < 10
    # with-replacement: over a few epochs at least one epoch has a repeat
    assert any(len(set(epoch_order(plan, e).tolist())) < 10 for e in range(5))
    assert np.array_equal(epoch_order(plan, 3), epoch_order(plan, 3))


def test_adaptive_orders_by_descending_importance():
    plan = SamplingPlan("adaptive", 4, gamma=0.5)
    w = np.array([0.1, 3.0, 3.0, 0.2])
    assert np.array_equal(epoch_order(plan, 0, importance=w), [1, 2, 3, 0])
    with pytest.raises(ValueError):
        epoch_order(plan, 0)  # importance required
    with pytest.raises(ValueError):
        epoch_order(plan, 0, importance=np.array([-1.0, 0, 0, 0]))


def test_optimal_cyclic_order_descending_with_index_ties():
    assert np.array_equal(optimal_cyclic_order([1.0, 5.0, 5.0, 2.0]), [1, 2, 3, 0])
    # decreasing geometric scores -> identity (1, 2, ..., n in 1-based terms)
    n = 12
    scores = n * 0.3 ** np.arange(n)
    assert np.array_equal(optimal_cyclic_order(scores), np.arange(n))
    # all equal -> identity
    assert np.array_equal(optimal_cyclic_order(np.ones(5)), np.arange(5))
    with pytest.raises(ValueError, match="scores must be a non-empty vector"):
        optimal_cyclic_order([])


def test_optimal_cyclic_order_minimizes_weighted_sum():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        scores = rng.random(n)
        weights = np.arange(1, n + 1) / n
        best = float(weights @ scores[optimal_cyclic_order(scores)])
        for _ in range(30):
            perm = rng.permutation(n)
            assert best <= float(weights @ scores[perm]) + 1e-12


def test_update_importance_formula():
    w = np.array([1.0, 2.0])
    z0 = np.zeros((2, 2))
    z = np.array([[1.0, 0.0], [0.0, 2.0]])
    got = update_importance(w, z0, z, 0.25)
    assert np.allclose(got, 0.75 * w + 0.25 * np.array([1.0, 4.0]))
    with pytest.raises(ValueError):
        update_importance(w, z0, z, 1.0)
    with pytest.raises(ValueError):
        update_importance(np.ones(3), z0, z, 0.5)


def test_epoch_rejects_negative_epoch():
    plan = SamplingPlan("reshuffle", 3, seed=0)
    with pytest.raises(ValueError):
        epoch_order(plan, -1)
