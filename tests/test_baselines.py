import dataclasses
import math
import re

import numpy as np
import pytest

from dfinito.baselines import (
    prox_gd_run,
    saga_run,
    sgd_run,
    svrg_run,
    theoretical_step_size,
)
from dfinito.model import ProblemInstance, Regularizer, ordered_mean, prox_map
from dfinito.oracle import solve_reference
from dfinito.problems import gen_least_squares, gen_logistic
from dfinito.sampling import SamplingPlan, epoch_order


def test_step_size_table_hand_values():
    # L=1, mu=0.1, n=10
    assert theoretical_step_size("dfinito", "rr", 1.0, 0.1, 10) == pytest.approx(2 / 1.1)
    assert theoretical_step_size("dfinito", "cyclic", 1.0, 0.1, 10) == pytest.approx(2 / 1.1)
    assert theoretical_step_size("saga", "rr", 1.0, 0.1, 10) == pytest.approx(0.1 / 110)
    assert theoretical_step_size("saga", "cyclic", 1.0, 0.1, 10) == pytest.approx(
        0.1 / (65 * math.sqrt(110)))
    # n below the RR threshold -> small-n branch
    assert theoretical_step_size("svrg", "rr", 1.0, 0.1, 10) == pytest.approx(
        math.sqrt(0.1) / (2 * math.sqrt(2) * 10))
    assert theoretical_step_size("svrg", "cyclic", 1.0, 0.25, 4) == pytest.approx(0.03125)
    # n above the RR threshold -> large-n branch
    thresh = (2 / 0.1) / (1 - 0.1 / math.sqrt(2))
    n_big = int(thresh) + 1
    assert theoretical_step_size("svrg", "rr", 1.0, 0.1, n_big) == pytest.approx(
        1 / (math.sqrt(2) * n_big))


def test_step_size_table_errors():
    for L, mu in ((1.0, 0.0), (0.5, 0.5), (0.25, 2.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"alpha 'theory' needs the problem's L > mu > 0, got L={L:g} and mu={mu:g}")):
            theoretical_step_size("svrg", "rr", L, mu, 10)
    with pytest.raises(ValueError):
        theoretical_step_size("adam", "rr", 1.0, 0.1, 10)
    with pytest.raises(ValueError):
        theoretical_step_size("svrg", "uniform", 1.0, 0.1, 10)
    for n in (0, -3):  # once a ZeroDivisionError, and a negative step for n = -3
        with pytest.raises(ValueError, match=f"n must be an integer >= 1, got {n}"):
            theoretical_step_size("svrg", "rr", 1.0, 0.1, n)


def _quad_1d():
    # f(x) = 0.5 x^2
    return ProblemInstance(kind="least_squares", n=1, d=1,
                           regularizer=Regularizer.none(), L=1.0, mu=1.0,
                           A=np.ones((1, 1, 1)), b=np.zeros((1, 1)))


def test_prox_gd_one_exact_step():
    trace = prox_gd_run(_quad_1d(), 1.0, 1, np.array([2.0]))
    assert trace[-1].x[0] == pytest.approx(0.0)
    assert trace[-1].grad_evals == 1


def test_prox_gd_l1_absorbs():
    p = ProblemInstance(kind="least_squares", n=1, d=1,
                        regularizer=Regularizer.l1(100.0), L=1.0, mu=1.0,
                        A=np.ones((1, 1, 1)), b=np.zeros((1, 1)))
    trace = prox_gd_run(p, 0.5, 5, np.array([3.0]))
    assert trace[2].x[0] == 0.0 and trace[-1].x[0] == 0.0


def test_sgd_rejects_composite():
    p = gen_least_squares(0, n=3, d=2, k=2, L=1.0, mu=0.0,
                          regularizer=Regularizer.l1(0.1))
    with pytest.raises(ValueError):
        sgd_run(p, SamplingPlan("reshuffle", 3, seed=0), 0.1, 1, np.zeros(2))


@pytest.mark.parametrize("run, kwargs, message", [
    (sgd_run, {"schedule": "linear"}, "unknown schedule 'linear'"),
    (svrg_run, {"snapshot_every": 0}, "snapshot_every must be an integer >= 1, got 0"),
], ids=["sgd_unknown_schedule", "svrg_snapshot_every_0"])
def test_baseline_run_rejects_bad_argument(run, kwargs, message):
    p = gen_least_squares(0, n=3, d=2, k=2, L=1.0, mu=0.0)
    with pytest.raises(ValueError, match=message):
        run(p, SamplingPlan("reshuffle", 3, seed=0), 0.1, 1, np.zeros(2), **kwargs)


@pytest.mark.parametrize("run", [prox_gd_run, sgd_run, svrg_run, saga_run])
@pytest.mark.parametrize("epochs", [-1, 2.5, True])
def test_baseline_run_refuses_an_epoch_count_that_is_not_a_valid_integer(run, epochs):
    p = gen_least_squares(0, n=3, d=2, k=2, L=1.0, mu=0.0)
    args = (0.1, epochs, np.zeros(2))
    if run is not prox_gd_run:
        args = (SamplingPlan("reshuffle", 3, seed=0),) + args
    with pytest.raises(ValueError, match=re.escape(f"epochs must be an integer >= 0, got {epochs!r}")):
        run(p, *args)


def test_sgd_monotone_on_single_quadratic():
    p = _quad_1d()
    trace = sgd_run(p, SamplingPlan("cyclic", 1, order=[0]), 0.5, 10, np.array([4.0]))
    vals = [p.full_value(r.x) for r in trace]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_sgd_zero_gradient_start_constant():
    p = _quad_1d()
    trace = sgd_run(p, SamplingPlan("reshuffle", 1, seed=0), 0.3, 5, np.zeros(1))
    assert all(r.x[0] == 0.0 for r in trace)


def test_sgd_rr_epoch_moves_toward_optimum():
    # symmetric two-point instance: f_1 = 0.5(x-1)^2, f_2 = 0.5(x+1)^2, x* = 0
    p = ProblemInstance(kind="least_squares", n=2, d=1,
                        regularizer=Regularizer.none(), L=1.0, mu=1.0,
                        A=np.ones((2, 1, 1)), b=np.array([[1.0], [-1.0]]))
    trace = sgd_run(p, SamplingPlan("reshuffle", 2, seed=1), 1.0 / p.L, 6,
                    np.array([3.0]))
    dists = [abs(r.x[0]) for r in trace]
    assert all(b <= a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < dists[0]


def test_svrg_stationary_at_optimum():
    p = gen_least_squares(1, n=4, d=3, k=3, L=2.0, mu=0.5)
    xstar = solve_reference(p, tol=1e-13)
    trace = svrg_run(p, SamplingPlan("reshuffle", 4, seed=0), 0.1, 6, xstar)
    for rec in trace:
        assert np.linalg.norm(rec.x - xstar) <= 1e-10


def test_svrg_n1_is_gradient_descent():
    p = _quad_1d()
    trace = svrg_run(p, SamplingPlan("cyclic", 1, order=[0]), 0.4, 8, np.array([2.0]),
                     snapshot_every=1)
    x = 2.0
    for rec in trace[1:]:
        x = x - 0.4 * x
        assert rec.x[0] == pytest.approx(x, rel=1e-15)


def test_svrg_grad_eval_accounting():
    p = gen_least_squares(2, n=6, d=2, k=2, L=1.0, mu=0.0)
    trace = svrg_run(p, SamplingPlan("reshuffle", 6, seed=0), 0.01, 4, np.zeros(2),
                     snapshot_every=2)
    # epochs 1 and 3 refresh the snapshot: 2 * 6; inner steps: 4 * 6 * 2
    assert trace[-1].grad_evals == 2 * 6 + 4 * 6 * 2


def test_saga_stationary_with_oracle_table():
    # started at x*, the table starts at the oracle table grad f_i(x*)
    p = gen_least_squares(3, n=5, d=3, k=3, L=2.0, mu=0.5)
    xstar = solve_reference(p, tol=1e-13)
    trace = saga_run(p, SamplingPlan("reshuffle", 5, seed=0), 0.1, 6, xstar)
    for rec in trace:
        assert np.linalg.norm(rec.x - xstar) <= 1e-10


def test_saga_n1_is_gradient_descent():
    p = _quad_1d()
    trace = saga_run(p, SamplingPlan("cyclic", 1, order=[0]), 0.4, 8, np.array([2.0]))
    x = 2.0
    for rec in trace[1:]:
        x = x - 0.4 * x
        assert rec.x[0] == pytest.approx(x, rel=1e-14)


def test_saga_incremental_mean_matches_batch():
    # oracle: replay the same index sequence keeping the table mean by batch
    # recomputation, and compare the final iterates over 100 epochs
    p = gen_least_squares(4, n=6, d=3, k=3, L=2.0, mu=0.3)
    plan = SamplingPlan("reshuffle", 6, seed=7)
    alpha = 0.05
    x0 = np.ones(3)
    trace = saga_run(p, plan, alpha, 100, x0)

    from dfinito.sampling import epoch_order
    x = x0.copy()
    table = np.stack([p.component_grad(i, x) for i in range(p.n)])
    for k in range(1, 101):
        for i in epoch_order(plan, k - 1):
            i = int(i)
            g = p.component_grad(i, x)
            gmean = table.mean(axis=0)  # batch recomputation each step
            x = x - alpha * (g - table[i] + gmean)
            table[i] = g
    assert np.max(np.abs(trace[-1].x - x)) <= 1e-12


def test_baselines_deterministic():
    p = gen_least_squares(6, n=5, d=2, k=2, L=1.0, mu=0.1)
    plan = SamplingPlan("reshuffle", 5, seed=9)
    t1 = saga_run(p, plan, 0.01, 5, np.zeros(2))
    t2 = saga_run(p, plan, 0.01, 5, np.zeros(2))
    assert all(np.array_equal(a.x, b.x) for a, b in zip(t1, t2))


def test_grad_evals_strictly_increasing():
    p = gen_least_squares(7, n=4, d=2, k=2, L=1.0, mu=0.1)
    plan = SamplingPlan("reshuffle", 4, seed=0)
    for trace in (prox_gd_run(p, 0.1, 5, np.zeros(2)),
                  svrg_run(p, plan, 0.01, 5, np.zeros(2)),
                  saga_run(p, plan, 0.01, 5, np.zeros(2))):
        evals = [r.grad_evals for r in trace]
        assert all(b > a for a, b in zip(evals, evals[1:]))


REGULARIZERS = {"none": Regularizer.none(), "l1": Regularizer.l1(0.05),
                "l2sq": Regularizer.l2sq(0.3)}


def _problem(kind, reg, n=7, d=3):
    """A small least squares or logistic problem under ``reg``."""
    rng = np.random.default_rng(11)
    r = REGULARIZERS[reg]
    if kind == "least_squares":
        return gen_least_squares(1, n=n, d=d, k=3, L=4.0, mu=0.0, regularizer=r)
    W, y = rng.standard_normal((n, d)), np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return dataclasses.replace(gen_logistic(W, y, 0.1), regularizer=r)


def _plans(n):
    order = np.random.default_rng(n).permutation(n)
    return (SamplingPlan("cyclic", n, order=order), SamplingPlan("reshuffle", n, seed=3),
            SamplingPlan("uniform", n, seed=4))


def _reference_svrg(p, plan, alpha, epochs, x0, snapshot_every):
    """svrg_run before the snapshot table: grad f_i(y) evaluated on every inner step."""
    x = np.asarray(x0, dtype=np.float64).copy()
    grad = p.unchecked_grad()
    px = prox_map(p.regularizer, alpha)
    trace, evals, y, gy = [(0, x.copy())], 0, None, None
    for k in range(1, epochs + 1):
        if (k - 1) % snapshot_every == 0:
            y = x.copy()
            gy = p.full_grad(y)
            evals += p.n
        for i in epoch_order(plan, k - 1):
            i = int(i)
            g = grad(i, x) - grad(i, y) + gy
            evals += 2
            x = px(x - alpha * g)
        trace.append((evals, x.copy()))
    return trace


def _reference_saga(p, plan, alpha, epochs, x0):
    """saga_run before the stacked initial table and the in-place row write."""
    x = np.asarray(x0, dtype=np.float64).copy()
    grad = p.unchecked_grad()
    px = prox_map(p.regularizer, alpha)
    evals = p.n
    table = np.stack([grad(i, x) for i in range(p.n)])
    gmean = ordered_mean(table)
    trace = [(evals, x.copy())]
    for k in range(1, epochs + 1):
        for i in epoch_order(plan, k - 1):
            i = int(i)
            g = grad(i, x)
            evals += 1
            step_dir = g - table[i] + gmean
            gmean = gmean + (g - table[i]) / p.n
            table[i] = g
            x = px(x - alpha * step_dir)
        trace.append((evals, x.copy()))
    return trace


def _assert_trace_bytes(got, want):
    assert len(got) == len(want)
    for rec, (evals, x) in zip(got, want):
        assert rec.grad_evals == evals
        assert rec.x.tobytes() == x.tobytes()


@pytest.mark.parametrize("reg", sorted(REGULARIZERS))
@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_svrg_equals_reference_loop_bytes(kind, reg):
    p = _problem(kind, reg)
    x0 = np.random.default_rng(2).standard_normal(p.d)
    for plan in _plans(p.n):
        for snapshot_every in (1, 2, 3):
            args = (p, plan, 0.3 / p.L, 5, x0, snapshot_every)
            _assert_trace_bytes(svrg_run(*args), _reference_svrg(*args))


@pytest.mark.parametrize("reg", sorted(REGULARIZERS))
@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_saga_equals_reference_loop_bytes(kind, reg):
    p = _problem(kind, reg)
    x0 = np.random.default_rng(3).standard_normal(p.d)
    for plan in _plans(p.n):
        args = (p, plan, 0.3 / p.L, 5, x0)
        _assert_trace_bytes(saga_run(*args), _reference_saga(*args))


def _reference_sgd_inv_sqrt(p, plan, alpha, epochs, x0):
    """SGD with step alpha / sqrt(t + 1), the inner step t counted across epochs."""
    x = np.asarray(x0, dtype=np.float64).copy()
    grad = p.unchecked_grad()
    trace, t = [(0, x.copy())], 0
    for k in range(1, epochs + 1):
        for i in epoch_order(plan, k - 1):
            x = x - alpha / math.sqrt(t + 1) * grad(int(i), x)
            t += 1
        trace.append((t, x.copy()))
    return trace


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_sgd_inv_sqrt_equals_reference_loop_bytes(kind):
    p = _problem(kind, "none")
    x0 = np.random.default_rng(5).standard_normal(p.d)
    for plan in _plans(p.n):
        args = (p, plan, 0.3 / p.L, 5, x0)
        _assert_trace_bytes(sgd_run(*args, schedule="inv_sqrt"), _reference_sgd_inv_sqrt(*args))


def test_svrg_evaluates_one_gradient_per_inner_step_and_one_stack_per_snapshot(monkeypatch):
    p = gen_least_squares(2, n=6, d=2, k=2, L=1.0, mu=0.0)
    calls = {"grad": 0, "grad_rows": 0}
    grad = p.unchecked_grad()
    grad_rows = ProblemInstance.grad_rows

    def counted_grad(i, x):
        calls["grad"] += 1
        return grad(i, x)

    def counted_grad_rows(self, idx, X):
        calls["grad_rows"] += 1
        return grad_rows(self, idx, X)

    monkeypatch.setattr(ProblemInstance, "unchecked_grad", lambda self: counted_grad)
    monkeypatch.setattr(ProblemInstance, "grad_rows", counted_grad_rows)
    trace = svrg_run(p, SamplingPlan("reshuffle", 6, seed=0), 0.01, 5, np.zeros(2),
                     snapshot_every=2)
    # snapshots at epochs 1, 3 and 5; the charge stays two gradients per inner step
    assert calls == {"grad": 5 * 6, "grad_rows": 3}
    assert trace[-1].grad_evals == 3 * 6 + 5 * 6 * 2

