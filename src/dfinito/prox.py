"""Closed-form proximal operators and the subdifferential residual metric.

:func:`prox` checks its inputs and returns a new array; every hot loop instead
resolves :func:`prox_map` once per run or epoch and calls the map it returns.
"""
from __future__ import annotations

import numpy as np

from .model import Regularizer, as_vector, check_step


def prox_map(r: Regularizer, alpha: float):
    """The map v -> ``prox(r, alpha, v)``, resolved once and unchecked, so hot loops
    step with one call and no branch. For ``none`` it returns v itself, not a copy;
    the l1 soft-threshold and the l2sq scale return new arrays."""
    t = alpha * r.lam
    if r.kind == "l1":
        return lambda v: np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    if r.kind == "l2sq":
        return lambda v: v / (1.0 + t)
    return lambda v: v


def prox(r: Regularizer, alpha: float, v) -> np.ndarray:
    """argmin_y { alpha * r(y) + 0.5 ||y - v||^2 }, a new array.

    Single-valued for the supported convex regularizers; the identity when
    r is zero.
    """
    check_step(alpha)
    v = as_vector(v)
    x = prox_map(r, alpha)(v)
    return v.copy() if x is v else x


def subgradient_residual(r: Regularizer, x, g_smooth) -> float:
    """min over g in the subdifferential of r at x of ||g_smooth + g||^2.

    Computed coordinatewise; exact for the separable regularizers supported
    here.
    """
    x = as_vector(x)
    g = as_vector(g_smooth, x.shape[0])
    if r.kind == "none":
        return float(g @ g)
    if r.kind == "l2sq":
        res = g + r.lam * x
        return float(res @ res)
    if r.kind == "l1":
        lam = r.lam
        # Where x_i = 0 the best subgradient projects -g_i onto [-lam, lam];
        # elsewhere it is pinned to lam * sign(x_i).
        at_zero = x == 0.0
        res = np.where(
            at_zero,
            np.maximum(np.abs(g) - lam, 0.0),
            np.abs(g + lam * np.sign(x)),
        )
        return float(res @ res)
    raise ValueError(f"unsupported regularizer kind {r.kind!r}")
