"""Index-order generation for every sampling regime, and the one seed contract.

:func:`stream` is the only place in the package that turns a seed into a
random stream: NumPy's 64-bit PCG64 generator seeded through a
``SeedSequence`` whose words ``STREAMS`` gives for each role, which is
stable across platforms. A caller names its role, never the words, so each
stream is reproducible from (seed, role, key) alone, and changing which
streams a run draws from is a change to ``STREAMS`` alone.

Today's words make several roles share one stream for equal seeds.
``SeedSequence([s])`` and ``[s, 0]`` pool the same, so the ``shuffle_once``
order and a ``verify`` draw at offset 0 are the least-squares generator's
stream, and ``verify``'s offset j for seed s is the least-squares stream of
seed s + j. An ``order`` at epoch 0, 1, 2 or 3 is the least-squares,
planted, logistic or planted-z0 stream of the same seed. Separating them
changes every seeded trace and digest once, and is left to a change that
re-records them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import check_int, validate_permutation

REGIMES = ("cyclic", "reshuffle", "shuffle_once", "uniform", "adaptive")
# the regimes whose orders read the plan's seed; cyclic and adaptive orders do not
SEEDED = ("reshuffle", "shuffle_once", "uniform")


# role -> the SeedSequence words of its stream, from the seed and the role's key
STREAMS = {
    "order": lambda seed, epoch: [seed, epoch],  # reshuffle and uniform, one stream per epoch
    "shuffle_once": lambda seed: [seed],
    "least_squares": lambda seed: [seed, 0],
    "planted": lambda seed: [seed, 1],
    "logistic": lambda seed: [seed, 2],
    "planted_z0": lambda seed: [seed, 3],
    "verify": lambda seed, offset: [seed + offset],  # the verify suites' draws
}


def stream(seed, role, *key) -> np.random.Generator:
    """The generator of ``role``'s stream for ``seed``, keyed as ``STREAMS`` gives
    (an epoch for ``order``, an offset for ``verify``, nothing for the rest)."""
    words = STREAMS[role](int(seed), *(int(k) for k in key))
    return np.random.default_rng(np.random.SeedSequence(words))


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
        check_int("n", self.n)
        if self.order is not None and self.regime != "cyclic":
            raise ValueError(f"an order is for cyclic sampling only, got regime {self.regime!r}")
        if self.seed is not None:
            check_int("seed", self.seed, 0)
        if self.regime == "cyclic":
            if self.order is None:
                raise ValueError("cyclic sampling needs a fixed order")
            object.__setattr__(self, "order", validate_permutation(self.order, self.n))
        elif self.regime == "adaptive":
            if self.gamma is None or not (0.0 < self.gamma < 1.0):
                raise ValueError("adaptive sampling needs gamma in (0, 1)")
            if self.seed is None:
                object.__setattr__(self, "seed", 0)
        elif self.seed is None:
            raise ValueError(f"{self.regime} sampling needs a seed")


def epoch_order(plan: SamplingPlan, epoch: int, importance=None) -> np.ndarray:
    """Index sequence for one epoch.

    Every regime returns exactly n indices so one "epoch" always costs n
    gradient evaluations. All regimes except ``uniform`` return a
    permutation; uniform returns n i.i.d. draws with replacement.
    """
    check_int("epoch", epoch, 0)
    if plan.regime == "cyclic":
        return plan.order.copy()
    if plan.regime == "shuffle_once":
        return stream(plan.seed, "shuffle_once").permutation(plan.n)
    if plan.regime == "reshuffle":
        return stream(plan.seed, "order", epoch).permutation(plan.n)
    if plan.regime == "uniform":
        return stream(plan.seed, "order", epoch).integers(0, plan.n, size=plan.n)
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
