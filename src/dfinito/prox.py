"""Closed-form proximal operators and the subdifferential residual metric."""
from __future__ import annotations

import numpy as np

from .model import Regularizer, as_vector, check_step


REG_CODE = {"none": 0, "l1": 1, "l2sq": 2}


def prox_core(v, reg_code, t):
    """The closed-form prox with weight ``t`` for ``REG_CODE`` regularizer
    ``reg_code``; no input checks, so hot loops can call it. Never returns ``v``."""
    if reg_code == 1:
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    if reg_code == 2:
        return v / (1.0 + t)
    return v.copy()


def prox_args(r: Regularizer, alpha: float):
    """(reg_code, t) with ``prox_core(v, reg_code, t)`` equal to ``prox(r, alpha, v)``,
    for loops that resolve the prox once and step without checks."""
    if r.kind not in REG_CODE:
        raise ValueError(f"unsupported regularizer kind {r.kind!r}")
    return REG_CODE[r.kind], alpha * r.lam


def prox(r: Regularizer, alpha: float, v) -> np.ndarray:
    """argmin_y { alpha * r(y) + 0.5 ||y - v||^2 }.

    Single-valued for the supported convex regularizers; the identity when
    r is zero.
    """
    check_step(alpha)
    v = as_vector(v)
    return prox_core(v, *prox_args(r, alpha))


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
