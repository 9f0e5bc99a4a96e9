"""Independent ground truth used to freeze expected values into tests.

Everything here is deliberately written against the problem definition, not
against the optimizer implementation: closed-form solves where available,
plain proximal gradient descent on the model's full gradient otherwise, and
brute-force enumeration over permutations for the ordering and expectation
oracles. The ordering oracle scores all orders as one array and re-scores the
near-best as the per-order loop does. The expectation oracle walks the order
tree one level, a stack of tables, at a time and checks inputs once.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .engine import _finite_table, _literal_step
from .model import ProblemInstance, as_vector, check_step, prox, subgradient_residual, validate_permutation

ITERATION_CAP = 10**7
EPS, TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny


class OracleError(RuntimeError):
    pass


def solve_reference(p: ProblemInstance, tol=1e-10):
    """High-accuracy minimizer of F(x) + r(x).

    Least squares with regularizer none/l2sq uses the regularized normal
    equations; every other case runs proximal gradient descent with step 1/L
    until the exact subdifferential residual drops below tol^2.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if p.kind == "least_squares" and p.regularizer.kind in ("none", "l2sq"):
        H, g = p.gram
        if p.regularizer.kind == "l2sq":
            H = H + p.regularizer.lam * np.eye(p.d)
        return np.linalg.solve(H, g)
    alpha = 1.0 / p.L
    x = np.zeros(p.d)
    gx = p.full_grad(x)
    res = math.inf
    for _ in range(ITERATION_CAP):
        x = prox(p.regularizer, alpha, x - alpha * gx)
        gx = p.full_grad(x)
        res = subgradient_residual(p.regularizer, x, gx)
        if res <= tol * tol:
            return x
    raise OracleError(f"no convergence within {ITERATION_CAP} iterations; residual {res:.3e}")


def zstar_table(p: ProblemInstance, xstar, alpha):
    """Fixed-point table z_i* = x* - alpha * grad f_i(x*)."""
    xstar = as_vector(xstar, p.d)
    check_step(alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        table = xstar - alpha * p.grad_rows(np.arange(p.n), np.broadcast_to(xstar, (p.n, p.d)))
    if not np.isfinite(table).all():
        raise ValueError(f"z* table overflows at alpha={alpha!r}")
    return table


@functools.lru_cache(maxsize=8)
def _permutations(n):
    """Read-only (n!, n) table of the orders of range(n), in ``itertools.permutations`` order."""
    table = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    table.flags.writeable = False
    return table


def brute_force_best_order(scores):
    """Exhaustive argmin of sum_i (i/n) scores[pi(i)] over all permutations.

    Returns (permutation, value); ties resolved by lexicographically smallest
    permutation (itertools enumerates in that order). Guarded at n <= 8. All
    orders are scored at once; those within 4 n eps sum|s| of the least (twice
    the rounding bound of either sum) are re-scored in order as the loop does.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be a 1-d array, got shape {scores.shape}")
    n = scores.size
    if n > 8:
        raise ValueError("brute force is guarded at n <= 8")
    if n == 0:
        raise ValueError("scores must be non-empty")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain NaN or infinite entries")
    weights = np.arange(1, n + 1) / n
    perms = _permutations(n)
    vals = scores[perms] @ weights
    slack = 4 * n * (EPS * float(np.sum(np.abs(scores))) + TINY)  # TINY: products' underflow
    best_perm, best_val = None, math.inf
    for perm in perms[vals <= vals.min() + slack]:
        val = float(weights @ scores[perm])
        if val < best_val:
            best_perm, best_val = perm, val
    if best_perm is None:
        raise ValueError("no order has a finite value; the scores overflow")
    return best_perm.astype(np.int64), best_val


def expected_contraction(p: ProblemInstance, u, v, alpha):
    """Exact E_tau ||T_tau u - T_tau v||^2 over all n! permutations (n <= 6).

    A level-synchronous walk of the permutation tree: the n!/(n-j)! nodes of
    depth j are one stack of tables for u and one for v, so a prefix shared
    by several orders is applied once and each level is one stacked block
    step (:func:`engine._literal_step`), whose prox is taken once per parent
    node. Children are taken in ascending index order, so the leaves come in
    the lexicographic order of ``itertools.permutations`` and are summed in
    that order, as the permutation-by-permutation loop sums them. The last
    level holds 2 n! n d floats, about 69 KB per unit of d at n = 6. Like
    ``apply_Tpi``, every leaf table must be finite.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if p.n > 6:
        raise ValueError("exact expectation is guarded at n <= 6")
    for z in (u, v):  # one row per block, with the error apply_Tpi raises
        validate_permutation(range(p.n), z.shape[0])
    tu, tv = u[None], v[None]
    step = _literal_step(p, alpha, (tu, tv))  # the literal operators' checks, once
    left = np.ones((1, p.n), dtype=bool)  # the blocks each node has yet to apply
    for _ in range(p.n):
        parents, blocks = np.nonzero(left)  # row-major: children in ascending order
        left = left[parents]
        left[np.arange(blocks.size), blocks] = False
        tu, tv = step(tu, blocks, parents), step(tv, blocks, parents)
    du = _finite_table(tu) - _finite_table(tv)
    leaf_sq = np.add.reduce((du * du).reshape(len(du), -1), axis=1)
    return float(np.add.accumulate(leaf_sq)[-1]) / len(leaf_sq)  # a running sum, in order
