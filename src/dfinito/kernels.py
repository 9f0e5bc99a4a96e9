"""The memory-lean epoch loop of the damped Finito update, for every problem kind.

Each inner step takes the prox at the running table mean, refreshes block i
with step alpha, adds theta times that correction to z_i and moves the mean
by the undamped correction over n: O(d) per step and no second n-by-d table.
The epoch ends with the exact fixed-order table mean, which bounds
floating-point drift. The gradient comes from
:meth:`ProblemInstance.unchecked_grad` and the prox from
:func:`prox.prox_core`, so the loop knows nothing of the problem kind.

A step costs numpy dispatch, not flops, so the loop indexes lists of row
views and updates in place. ``BACKEND``, ``HAVE_NUMBA`` and the ignored
``backend`` keyword remain for callers that read them; there is one backend.
"""
from __future__ import annotations

import numpy as np

from .model import ordered_mean
from .prox import prox_args, prox_core

HAVE_NUMBA = False
BACKEND = "numpy"


def epoch_inplace(problem, z, zbar, alpha, theta, order, backend=None):
    """Run one memory-lean epoch in place on (z, zbar) along ``order``."""
    n = z.shape[0]
    grad, data = problem.unchecked_grad()
    reg_code, reg_t = prox_args(problem.regularizer, alpha)
    rows = list(z)
    for i in np.asarray(order, dtype=np.int64).tolist():
        # x's last use comes before zbar changes, so the identity prox need not copy
        x = zbar if reg_code == 0 else prox_core(zbar, reg_code, reg_t)
        zi = rows[i]
        dvec = x - alpha * grad(data, i, x)
        dvec -= zi
        zi += theta * dvec
        dvec /= n
        zbar += dvec
    zbar[:] = ordered_mean(z)
