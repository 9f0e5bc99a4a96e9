"""The damped Finito optimizer and its block-operator building blocks.

``apply_Ti``/``apply_Tpi``/``apply_Spi`` are the literal fixed-point operators
of the theory checks (O(n d) per block, for the exact table mean), on one
(n, d) table or an (m, n, d) stack. Each call checks its blocks or order, alpha
and tables once, then steps a block of every table at once with no further
checks (:func:`oracle._literal_step`, the problem-level operator T_i, over
:meth:`ProblemInstance.grad_rows`); ``apply_Tpi`` checks on exit that every
table is finite, so an overflow partway still raises.
The optimizer state is the table z and its mean z-bar, two plain arrays.
``epoch_step`` executes the textbook epoch on them in place, with an
end-of-epoch damping pass; :func:`kernels.epoch_inplace`, with the same
signature, folds damping into each block update, and for permutation orders
the two produce identical x-iterate sequences. Both check alpha, theta and the
shapes (:func:`model.check_epoch`) and the order before they touch z. ``run``
drives whole experiments and records diagnostics; given x*, it builds the
fixed-point table z* at its own step (:func:`oracle.zstar_table`). An epoch
takes one of three paths: literal for the uniform regime, whose orders repeat
indices; blocked or lean (:func:`kernels.epoch_path`) for permutation regimes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, oracle
from .diagnostics import (BOUNDED, TraceRecord, certify, convex_envelope, grad_map_residual,
                          pi_norm_sq, strongly_convex_envelope)
from .model import (ProblemInstance, as_vector, check_epoch, check_int, check_step, integer_order,
                    ordered_mean, prox, prox_map, validate_permutation)
from .sampling import SamplingPlan, epoch_order, update_importance


@dataclass
class DampedRunConfig:
    alpha: float
    theta: float
    epochs: int
    plan: SamplingPlan
    trace_every: int = 1

    def __post_init__(self):
        check_step(self.alpha, self.theta)
        check_int("epochs", self.epochs, 0)
        check_int("trace_every", self.trace_every)


def apply_Ti(p: ProblemInstance, i, z, alpha: float):
    """Block operator: replace block i by (I - alpha grad f_i) o prox(mean z), in a
    table or in each table of an (m, n, d) stack (``i`` one block or one per table)."""
    for block in np.ravel(i):
        p._check_index(block)
    z = np.asarray(z, dtype=np.float64)
    out = z.reshape((-1,) + z.shape[-2:]).copy()  # an (m, n, d) stack
    step = oracle._literal_step(p, alpha, (out,))
    return step(out, i).reshape(z.shape)


def apply_Tpi(p: ProblemInstance, order, z, alpha: float):
    """Sequential composition T_{pi(n)} o ... o T_{pi(1)} on a table or an
    (m, n, d) stack; raises if any table overflows."""
    z = np.asarray(z, dtype=np.float64)
    out = z.reshape((-1,) + z.shape[-2:]).copy()
    step = oracle._literal_step(p, alpha, (out,))
    for i in validate_permutation(order, p.n):
        step(out, i)
    return oracle._finite_table(out.reshape(z.shape))


def apply_Spi(p: ProblemInstance, order, z, alpha: float, theta: float):
    """Damped epoch operator (1 - theta) I + theta T_pi, on a table or a stack."""
    z = np.asarray(z, dtype=np.float64)
    check_step(alpha, theta)
    return (1.0 - theta) * z + theta * apply_Tpi(p, order, z, alpha)


def epoch_step(p: ProblemInstance, z, zbar, alpha: float, theta: float, order):
    """One literal epoch in place on (z, zbar): n inner updates, then damp the
    table by theta against the epoch-start snapshot and recompute the mean exactly.

    ``order`` may contain repeats (uniform regime); permutation orders make
    this equal to (1-theta) z + theta T_pi z. Like the memory-lean loop it
    checks alpha, theta, the table, its mean and ``order`` once, then steps
    with the unchecked gradient and prox.
    """
    n = p.n
    check_epoch(p, z, zbar, alpha, theta)
    order = integer_order(order)
    if order.shape != (n,) or order.min() < 0 or order.max() >= n:
        raise ValueError("order must contain n valid indices")
    grad = p.unchecked_grad()
    px = prox_map(p.regularizer, alpha)
    z0 = z.copy()
    rows = list(z)
    mean = zbar
    for i in order.tolist():
        # mean is rebound, never written, so the identity prox need not copy it
        x = px(mean)
        znew = x - alpha * grad(i, x)
        mean = mean + (znew - rows[i]) / n
        rows[i][...] = znew
    z[...] = (1.0 - theta) * z0 + theta * z
    zbar[...] = ordered_mean(z)


def epoch_step_efficient_inplace(p, z, zbar, alpha, theta, order):
    """Memory-lean epoch mutating (z, zbar); no second n-by-d table.

    No library code calls it: it is :func:`kernels.epoch_inplace` under its old
    name. It stays because the benchmark names it (``perfbench/tracing.py``'s
    ``SPANS`` wraps it and ``worker.microbench`` times it), so deleting it fails
    every benchmark run until the benchmark reads the run manifest instead."""
    kernels.epoch_inplace(p, z, zbar, alpha, theta, order)


def run(p: ProblemInstance, config: DampedRunConfig, z0, xstar=None):
    """Execute a full damped-Finito run from the table z0.

    xstar: optional minimizer x*, a vector of dimension d. It enables the
    distance-to-optimum column and, for a regime in ``BOUNDED`` where certify
    admits them, the bound-envelope columns, whose fixed-point table z* is built
    at config.alpha (:func:`oracle.zstar_table`). Returns (final z table, list
    of TraceRecord); the final mean is ``ordered_mean`` of that table.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape != (p.n, p.d):
        raise ValueError(f"z0 must have shape ({p.n}, {p.d})")
    plan = config.plan
    if plan.n != p.n:
        raise ValueError("sampling plan size mismatch")
    z, zbar = z0.copy(), ordered_mean(z0)  # z0 itself is never written
    flags, convex_holds, rate = certify(p.L, p.component_L, p.mu, config.alpha, config.theta)
    zstar = None
    if xstar is not None:
        xstar = as_vector(xstar, p.d)
        zstar = oracle.zstar_table(p, xstar, config.alpha)

    w = None
    if plan.regime == "adaptive":
        diff = z0 - zbar
        w = np.einsum("ij,ij->i", diff, diff)
    convex = strongly_convex = None
    if zstar is not None and plan.regime in BOUNDED:
        # each envelope certify admits, its constant computed once per run
        args = (p.n, z0, zstar, plan.regime, plan.order)
        if convex_holds:
            convex = convex_envelope(config.alpha, config.theta, p.L, *args)
        if rate is not None:
            strongly_convex = strongly_convex_envelope(config.alpha, config.theta, p.L, p.mu, *args)

    def make_record(k, grad_evals, pre_z, order):
        true_min, certified = grad_map_residual(p, zbar, config.alpha)
        rec = TraceRecord(
            epoch=k,
            grad_evals=grad_evals,
            grad_map_residual_sq=true_min,
            prox_residual_sq=certified,
            flags=flags,
        )
        if pre_z is not None:
            rec.pi_norm_residual_sq = pi_norm_sq(z - pre_z, order)
        if xstar is not None:
            x = prox(p.regularizer, config.alpha, zbar)
            rec.dist_sq_to_opt = float(np.sum((x - xstar) ** 2))
        if convex is not None:
            rec.bound_convex = convex(k)
        if strongly_convex is not None:
            rec.bound_sc = strongly_convex(k)
        return rec

    # the uniform regime's orders repeat indices: no lean epoch and no pi-norm
    permutation = plan.regime != "uniform"
    step = kernels.epoch_inplace if permutation else epoch_step
    records = [make_record(0, 0, None, None)]
    grad_evals = 0
    for k in range(1, config.epochs + 1):
        order = epoch_order(plan, k - 1, w)
        tracing = (k % config.trace_every == 0) or (k == config.epochs)
        pre_z = z.copy() if tracing and permutation else None
        step(p, z, zbar, config.alpha, config.theta, order)
        grad_evals += p.n
        if plan.regime == "adaptive":
            w = update_importance(w, z0, z, plan.gamma)
        if tracing:
            records.append(make_record(k, grad_evals, pre_z, order))
    return z, records
