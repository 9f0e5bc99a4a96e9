"""Comparison optimizers and the theoretical step-size table.

All baselines share the epoch/grad-eval accounting of the main engine: the
x-axis unit is individual gradient evaluations, so variance-reduction
snapshot and table-initialization costs are charged explicitly, as the
textbook methods count them (an SVRG inner step is charged two gradients,
though it reads the snapshot's from an n-by-d table). The proximal baselines
check their inputs once per run, then step with the unchecked
:func:`model.prox_map` and :meth:`ProblemInstance.unchecked_grad`; a
diverging run is caught where its iterate is next checked (a full gradient
or a trace record).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import certified_step
from .model import ProblemInstance, as_vector, check_int, check_step, ordered_mean, prox_map
from .sampling import SamplingPlan, epoch_order

ALGORITHMS = ("dfinito", "svrg", "saga")
REGIMES = ("rr", "cyclic")
SCHEDULES = ("constant", "inv_sqrt")  # SGD step schedules


def theoretical_step_size(algorithm: str, regime: str, L: float, mu: float, n: int) -> float:
    """Best-known-analysis step sizes for the strongly convex regime."""
    if algorithm not in ALGORITHMS or regime not in REGIMES:
        raise ValueError(f"no step-size entry for ({algorithm!r}, {regime!r})")
    if not (L > mu > 0):
        raise ValueError(f"alpha 'theory' needs the problem's L > mu > 0, got L={L:g} and mu={mu:g}")
    check_int("n", n)
    if algorithm == "dfinito":
        return certified_step(L, mu)
    if algorithm == "svrg":
        if regime == "rr":
            threshold = (2.0 * L / mu) / (1.0 - mu / (math.sqrt(2.0) * L))
            if n >= threshold:
                return 1.0 / (math.sqrt(2.0) * L * n)
            return (1.0 / (2.0 * math.sqrt(2.0) * L * n)) * math.sqrt(mu / L)
        return (1.0 / (4.0 * L * n)) * math.sqrt(mu / L)
    # saga
    if regime == "rr":
        return mu / (11.0 * L**2 * n)
    return mu / (65.0 * L**2 * math.sqrt(n * (n + 1.0)))


@dataclass
class BaselineRecord:
    """One epoch-boundary snapshot of a baseline run."""

    epoch: int
    grad_evals: int
    x: np.ndarray


def _record(trace, epoch, grad_evals, x):
    trace.append(BaselineRecord(epoch=epoch, grad_evals=grad_evals, x=x.copy()))


def prox_gd_run(p: ProblemInstance, alpha: float, epochs: int, x0):
    """Full proximal gradient descent; one epoch costs n gradient evaluations."""
    check_step(alpha)
    check_int("epochs", epochs, 0)
    x = as_vector(x0, p.d).copy()
    px = prox_map(p.regularizer, alpha)
    trace = []
    _record(trace, 0, 0, x)
    for k in range(1, epochs + 1):
        x = px(x - alpha * p.full_grad(x))
        _record(trace, k, k * p.n, x)
    return trace


def sgd_run(p: ProblemInstance, plan: SamplingPlan, alpha: float, epochs: int, x0, schedule="constant"):
    """Plain incremental gradient descent along the plan's orders.

    Smooth problems only (no proximal step is taken, so a nonzero
    regularizer is rejected rather than silently dropped).
    schedule: "constant" or "inv_sqrt" (alpha / sqrt(t+1) per inner step t).
    """
    if p.regularizer.kind != "none":
        raise ValueError("sgd supports smooth problems only (regularizer must be none)")
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    check_step(alpha)
    check_int("epochs", epochs, 0)
    x = as_vector(x0, p.d).copy()
    grad = p.unchecked_grad()
    trace = []
    _record(trace, 0, 0, x)
    t = 0
    for k in range(1, epochs + 1):
        for i in epoch_order(plan, k - 1).tolist():
            step = alpha if schedule == "constant" else alpha / math.sqrt(t + 1.0)
            x = x - step * grad(i, x)
            t += 1
        _record(trace, k, t, x)
    return trace


def svrg_run(
    p: ProblemInstance,
    plan: SamplingPlan,
    alpha: float,
    epochs: int,
    x0,
    snapshot_every: int = 2,
):
    """Variance reduction with a periodic full-gradient snapshot.

    The snapshot (anchor point y, the n-by-d table of its component gradients,
    one :meth:`ProblemInstance.grad_rows` call, and its full gradient) refreshes
    every ``snapshot_every`` epochs and is charged n gradient evaluations.
    Each inner step is charged two, grad f_i at x and at y, but evaluates only
    the first and reads grad f_i(y) from the table.
    """
    check_step(alpha)
    check_int("epochs", epochs, 0)
    check_int("snapshot_every", snapshot_every)
    x = as_vector(x0, p.d).copy()
    grad = p.unchecked_grad()
    px = prox_map(p.regularizer, alpha)
    trace = []
    _record(trace, 0, 0, x)
    evals = 0
    for k in range(1, epochs + 1):
        if (k - 1) % snapshot_every == 0:
            snapshot = list(p.grad_rows(np.arange(p.n), np.broadcast_to(x, (p.n, p.d))))
            gy = p.full_grad(x)
            evals += p.n
        for i in epoch_order(plan, k - 1).tolist():
            g = grad(i, x) - snapshot[i] + gy
            evals += 2
            x = px(x - alpha * g)
        _record(trace, k, evals, x)
    return trace


def saga_run(
    p: ProblemInstance,
    plan: SamplingPlan,
    alpha: float,
    epochs: int,
    x0,
):
    """Per-component gradient-table variance reduction.

    The table starts at grad f_i(x0), one :meth:`ProblemInstance.grad_rows`
    call charged n evaluations; the table mean is maintained incrementally.
    """
    check_step(alpha)
    check_int("epochs", epochs, 0)
    x = as_vector(x0, p.d).copy()
    grad = p.unchecked_grad()
    px = prox_map(p.regularizer, alpha)
    trace = []
    evals = p.n
    table = p.grad_rows(np.arange(p.n), np.broadcast_to(x, (p.n, p.d)))
    gmean = ordered_mean(table)
    rows = list(table)
    _record(trace, 0, evals, x)
    for k in range(1, epochs + 1):
        for i in epoch_order(plan, k - 1).tolist():
            g = grad(i, x)
            evals += 1
            change = g - rows[i]
            rows[i][...] = g
            g = change + gmean
            gmean = gmean + change / p.n
            x = px(x - alpha * g)
        _record(trace, k, evals, x)
    return trace
