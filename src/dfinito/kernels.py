"""The epoch loops of the damped Finito update.

A step takes the prox at the running table mean, refreshes block i with step
alpha, adds theta times that change to z_i and moves the mean by the undamped
change over n, with no second n-by-d table; the epoch ends with the exact
fixed-order mean. :func:`epoch_inplace` checks alpha, theta, the shapes and the
order before any write, then dispatches by :func:`epoch_path`. The lean loop
serves every kind, a step at a time over row views, with the two callables a
run resolves once: ``grad = problem.unchecked_grad()`` and
``px = prox_map(regularizer, alpha)``.

The blocked loop serves logistic problems under a linear prox gamma v
(gamma = 1/(1 + alpha lam) for l2sq, 1 for none). Step k on row w_k, label
y_k and epoch-start row z0_k has c_k = alpha y_k sigmoid(-y_k gamma w_k.zbar_k),
z_k = z0_k + theta (a zbar_k + c_k w_k - z0_k) and zbar_{k+1} = beta zbar_k +
(c_k w_k - z0_k)/n, with a = gamma (1 - alpha ridge) and beta = 1 + a/n. Over a
block of ``BLOCK`` steps from mean m, zbar_k = beta^k m + sum_{j<k} beta^(k-1-j)
(c_j w_j - z0_j)/n is thus linear in the scalars c_j: the margins need only
W_B m, W_B Z0_B^T and W_B W_B^T, a scalar recursion yields the c_k, and one
lower-triangular product the block's means, rows and next mean. The order-only
data (the W_B, T * W_B W_B^T and labels of each block) is kept on the problem
for the last (alpha, regularizer, ridge, order), so a run whose order repeats
(cyclic, shuffle-once) builds it once. A permutation epoch reads each row once,
before writing it, so this is the lean epoch in exact arithmetic; the last bits
differ. Block products reduce over d or over at most ``BLOCK`` components,
never over n, so no result depends on the BLAS thread count. ``BACKEND``, ``HAVE_NUMBA`` and ``backend`` remain, inert.
"""
from __future__ import annotations

import math

import numpy as np

from .model import check_epoch, ordered_mean, prox_map, validate_permutation

HAVE_NUMBA = False
BACKEND = "numpy"
BLOCK = 32


def epoch_path(problem):
    """``"blocked"`` for a logistic problem with regularizer none or l2sq, else ``"lean"``."""
    linear = problem.kind == "logistic" and problem.regularizer.kind in ("none", "l2sq")
    return "blocked" if linear else "lean"


def epoch_inplace(problem, z, zbar, alpha, theta, order, backend=None):
    """One epoch in place on (z, zbar), after :func:`model.check_epoch` and a permutation check."""
    check_epoch(problem, z, zbar, alpha, theta)
    order = validate_permutation(order, problem.n)
    if epoch_path(problem) == "blocked":
        _blocked_epoch(problem, z, zbar, alpha, theta, order)
    else:
        _lean_epoch(problem, z, zbar, alpha, theta, order)


def _lean_epoch(problem, z, zbar, alpha, theta, order):
    """One memory-lean epoch, a step at a time, for any problem kind."""
    n = z.shape[0]
    grad = problem.unchecked_grad()
    px = prox_map(problem.regularizer, alpha)
    rows = list(z)
    for i in np.asarray(order, dtype=np.int64).tolist():
        # x's last use comes before zbar changes, so the identity prox need not copy
        x = px(zbar)
        zi = rows[i]
        dvec = x - alpha * grad(i, x)
        dvec -= zi
        zi += theta * dvec
        dvec /= n
        zbar += dvec
    zbar[:] = ordered_mean(z)


def _blocks(problem, alpha, order):
    """(gamma, a, powers, [(idx, W_B, T, rows of T * W_B W_B^T, labels), ...]) of an
    epoch along ``order``, memoised; W and y must not change in place."""
    key = (alpha, problem.regularizer, problem.ridge)
    memo = problem._blocks_memo
    if memo is not None and memo[0] == key and np.array_equal(memo[1], order):
        return memo[2]
    n, W, y, order, r = problem.n, problem.W, problem.y, order.copy(), problem.regularizer
    gamma = 1.0 / (1.0 + alpha * r.lam) if r.kind == "l2sq" else 1.0
    a = gamma * (1.0 - alpha * problem.ridge)
    beta = 1.0 + a / n
    ks = np.arange(min(BLOCK, n))
    tri = np.tril(beta ** np.maximum(ks[:, None] - 1 - ks, 0), -1) / n  # beta^(k-1-j)/n, j < k
    blocks = []
    for s in range(0, n, BLOCK):
        idx = order[s:s + BLOCK]
        Wb, T = W[idx], tri[:len(idx), :len(idx)]
        blocks.append((idx, Wb, T, list(T * Wb.dot(Wb.T)), y[idx].tolist()))
    problem._blocks_memo = (key, order, (gamma, a, beta ** ks, blocks))
    return problem._blocks_memo[2]


def _blocked_epoch(problem, z, zbar, alpha, theta, order):
    """One logistic epoch under a linear prox, ``BLOCK`` steps at a time."""
    n = z.shape[0]
    gamma, a, powers, blocks = _blocks(problem, alpha, order)
    for idx, Wb, T, rows, labels in blocks:
        b = len(idx)
        Z0 = z[idx]
        V = powers[:b, None] * zbar - T.dot(Z0)  # the means without the c_j terms
        base = np.einsum("ij,ij->i", Wb, V).tolist()
        c = np.zeros(b)
        for k, yk in enumerate(labels):
            m = yk * gamma * (base[k] + float(rows[k].dot(c)))
            e = math.exp(-abs(m))  # sigmoid(-m) as the lean loop takes it, without overflow
            c[k] = alpha * yk * ((1.0 if m <= 0.0 else e) / (1.0 + e))
        E = c[:, None] * Wb
        means = V + T.dot(E)
        D = a * means + E - Z0
        z[idx] = Z0 + theta * D
        zbar[:] = means[b - 1] + D[b - 1] / n
    zbar[:] = ordered_mean(z)
