"""The memory-lean epoch loop of the damped Finito update, for every problem kind.

Each inner step takes the prox at the running table mean, refreshes block i
with step alpha, adds theta times that correction to z_i and moves the mean
by the undamped correction over n: O(d) per step and no second n-by-d table.
The epoch ends with the exact fixed-order table mean, which bounds
floating-point drift. The gradient comes from
:meth:`ProblemInstance.unchecked_grad` and the prox from
:func:`prox.prox_core`, so the loop knows nothing of the problem kind.

Where numba imports, the same loop, prox, mean and built-in gradients are
compiled and used for least-squares and logistic problems (``BACKEND`` is
then "numba"); custom problems, whose gradients are Python callables, always
run the plain loop. ``backend="numpy"`` forces the plain loop.
"""
from __future__ import annotations

import numpy as np

from .model import _grad_least_squares, _grad_logistic, ordered_mean, ordered_sum
from .prox import prox_args, prox_core

try:
    from numba import njit
    from numba.extending import register_jitable

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"


def _epoch(z, zbar, order, alpha, theta, reg_code, reg_t, grad, data):
    n = z.shape[0]
    for i in order:
        x = prox_core(zbar, reg_code, reg_t)
        dvec = x - alpha * grad(data, i, x) - z[i]
        zbar += dvec / n
        z[i] += theta * dvec
    zbar[:] = ordered_mean(z)


if HAVE_NUMBA:
    # the plain functions stay callable from Python; compiled code calls
    # their compiled twins (ordered_mean calls ordered_sum, so both)
    register_jitable(prox_core)
    register_jitable(ordered_sum)
    register_jitable(ordered_mean)
    _epoch_jit = njit(cache=True)(_epoch)
    # keyed by the gradient that ProblemInstance.unchecked_grad returns
    _JIT_GRADS = {g: njit(cache=True)(g) for g in (_grad_least_squares, _grad_logistic)}
else:
    _JIT_GRADS = {}


def epoch_inplace(problem, z, zbar, alpha, theta, order, backend=None):
    """Run one memory-lean epoch in place on (z, zbar) along ``order``."""
    order = np.ascontiguousarray(order, dtype=np.int64)
    grad, data = problem.unchecked_grad()
    loop = _epoch
    jit_grad = None if backend == "numpy" else _JIT_GRADS.get(grad)
    if jit_grad is not None:
        loop, grad = _epoch_jit, jit_grad
    loop(z, zbar, order, alpha, theta, *prox_args(problem.regularizer, alpha), grad, data)
