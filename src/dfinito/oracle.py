"""Independent ground truth used to freeze expected values into tests.

Everything here is deliberately written against the problem definition, not
against the optimizer implementation: closed-form solves where available,
plain proximal gradient descent on the model's full gradient otherwise, and
brute-force enumeration over permutations for the ordering and expectation
oracles. The ordering oracle scores all orders as one array and re-scores the
near-best as the per-order loop does. The expectation oracle walks the order
tree (a shared prefix and a node's prox once each) and checks inputs once.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .engine import _finite_table, _literal_step
from .model import ProblemInstance, as_vector, ordered_mean, validate_permutation
from .prox import prox, prox_args, prox_core, subgradient_residual

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
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    grad, data = p.unchecked_grad()
    return np.stack([xstar - alpha * grad(data, i, xstar) for i in range(p.n)])


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

    A depth-first walk of the permutation tree carries the (u, v) tables
    down, so a prefix shared by several orders is applied once: sum_j
    n!/(n-j)! block applications per table instead of n * n!. Children are
    taken in ascending index order, so the leaves come in the lexicographic
    order of ``itertools.permutations`` and the sum is the one the
    permutation-by-permutation loop forms. Children share their parent's
    mean, so a node takes its prox x once; child j sets row j to x - alpha
    grad f_j(x). Like ``apply_Tpi``, every leaf table must be finite.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if p.n > 6:
        raise ValueError("exact expectation is guarded at n <= 6")
    for z in (u, v):  # one row per block, with the error apply_Tpi raises
        validate_permutation(range(p.n), z.shape[0])
    _literal_step(p, alpha, (u, v))  # the literal operators' checks, once
    grad, data = p.unchecked_grad()
    reg_code, reg_t = prox_args(p.regularizer, alpha)
    total = 0.0
    count = 0

    def walk(tu, tv, left):
        nonlocal total, count
        if not left:
            du = _finite_table(tu) - _finite_table(tv)
            total += float(np.sum(du * du))
            count += 1
            return
        xu = prox_core(ordered_mean(tu), reg_code, reg_t)
        xv = prox_core(ordered_mean(tv), reg_code, reg_t)
        for j in left:
            cu, cv = tu.copy(), tv.copy()
            cu[j] = xu - alpha * grad(data, j, xu)
            cv[j] = xv - alpha * grad(data, j, xv)
            walk(cu, cv, [k for k in left if k != j])

    walk(u, v, list(range(p.n)))
    return total / count
