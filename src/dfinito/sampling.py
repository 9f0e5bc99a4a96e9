"""Index-order generation for every sampling regime.

The PRNG contract is NumPy's default 64-bit PCG64 generator seeded through
``SeedSequence([seed, epoch])``, which is stable across platforms; per-epoch
streams are therefore reproducible from (seed, epoch) alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import check_int, validate_permutation

REGIMES = ("cyclic", "reshuffle", "shuffle_once", "uniform", "adaptive")
# the regimes whose orders read the plan's seed; cyclic and adaptive orders do not
SEEDED = ("reshuffle", "shuffle_once", "uniform")


@dataclass(frozen=True)
class SamplingPlan:
    regime: str
    n: int
    order: np.ndarray | None = None  # cyclic only, a permutation of 0..n-1
    seed: int | None = None
    gamma: float | None = None  # adaptive only, in (0, 1)

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown sampling regime {self.regime!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        check_int("n", self.n)
        if self.order is not None and self.regime != "cyclic":
            raise ValueError(f"an order is for cyclic sampling only, got regime {self.regime!r}")
        if self.regime == "cyclic":
            if self.order is None:
                raise ValueError("cyclic sampling needs a fixed order")
            object.__setattr__(self, "order", validate_permutation(self.order, self.n))
        elif self.regime == "adaptive":
            if self.gamma is None or not (0.0 < self.gamma < 1.0):
                raise ValueError("adaptive sampling needs gamma in (0, 1)")
            if self.seed is None:
                object.__setattr__(self, "seed", 0)
        else:
            if self.seed is None:
                raise ValueError(f"{self.regime} sampling needs a seed")
            check_int("seed", self.seed, 0)


def _rng(seed, epoch=None):
    entropy = [int(seed)] if epoch is None else [int(seed), int(epoch)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def epoch_order(plan: SamplingPlan, epoch: int, importance=None) -> np.ndarray:
    """Index sequence for one epoch.

    Every regime returns exactly n indices so one "epoch" always costs n
    gradient evaluations. All regimes except ``uniform`` return a
    permutation; uniform returns n i.i.d. draws with replacement.
    """
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if plan.regime == "cyclic":
        return plan.order.copy()
    if plan.regime == "shuffle_once":
        return _rng(plan.seed).permutation(plan.n)
    if plan.regime == "reshuffle":
        return _rng(plan.seed, epoch).permutation(plan.n)
    if plan.regime == "uniform":
        return _rng(plan.seed, epoch).integers(0, plan.n, size=plan.n)
    # adaptive: most important samples first
    if importance is None:
        raise ValueError("adaptive sampling needs an importance vector")
    w = np.asarray(importance, dtype=np.float64)
    if w.shape != (plan.n,) or not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("importance vector must be n finite nonnegative reals")
    return optimal_cyclic_order(w)


def optimal_cyclic_order(scores) -> np.ndarray:
    """Indices sorted by descending score, ties broken by ascending index.

    This permutation minimizes sum_i (i/n) * scores[pi(i)] over all
    permutations (sorting inequality), i.e. it is the optimal fixed cyclic
    order when ``scores`` are the per-sample importance indicators.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty vector")
    return np.lexsort((np.arange(scores.size), -scores)).astype(np.int64)


def update_importance(w, z0, z_now, gamma) -> np.ndarray:
    """Exponential average w <- (1-gamma) w + gamma ||z_i^0 - z_i||^2."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    w = np.asarray(w, dtype=np.float64)
    z0 = np.asarray(z0, dtype=np.float64)
    z_now = np.asarray(z_now, dtype=np.float64)
    if z0.shape != z_now.shape or w.shape != (z0.shape[0],):
        raise ValueError("shape mismatch between importance vector and tables")
    diff = z0 - z_now
    return (1.0 - gamma) * w + gamma * np.einsum("ij,ij->i", diff, diff)
