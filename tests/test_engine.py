import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfinito import baselines, diagnostics, engine, kernels, verify
from dfinito.engine import (
    DampedRunConfig,
    apply_Spi,
    apply_Ti,
    apply_Tpi,
    epoch_step,
    epoch_step_efficient_inplace,
    run,
)
from dfinito.model import ProblemInstance, Regularizer, ordered_mean, prox
from dfinito.oracle import expected_contraction, solve_reference, zstar_table
from dfinito.problems import gen_least_squares, gen_logistic, make_synthetic_logistic
from dfinito.baselines import prox_gd_run
from dfinito.sampling import REGIMES, SEEDED, SamplingPlan, epoch_order


@pytest.fixture(scope="module")
def composite_problem():
    return gen_least_squares(0, n=8, d=5, k=6, L=4.0, mu=0.0,
                             regularizer=Regularizer.l1(0.05))


def test_apply_ti_changes_only_block_i(composite_problem):
    p = composite_problem
    rng = np.random.default_rng(1)
    z = rng.standard_normal((p.n, p.d))
    out = apply_Ti(p, 3, z, 1.0 / p.L)
    for j in range(p.n):
        if j == 3:
            assert not np.array_equal(out[j], z[j])
        else:
            assert np.array_equal(out[j], z[j])  # bit-identical


def test_apply_ti_single_block_is_gradient_step():
    p = gen_least_squares(1, n=1, d=3, k=3, L=2.0, mu=0.5)
    z = np.random.default_rng(2).standard_normal((1, 3))
    alpha = 0.4
    out = apply_Ti(p, 0, z, alpha)
    want = z[0] - alpha * p.component_grad(0, z[0])
    assert np.allclose(out[0], want, atol=1e-15)
    assert np.array_equal(apply_Tpi(p, [0], z, alpha), out)


def test_apply_ti_index_and_alpha_errors(composite_problem):
    z = np.zeros((composite_problem.n, composite_problem.d))
    with pytest.raises(IndexError):
        apply_Ti(composite_problem, 99, z, 0.1)
    with pytest.raises(ValueError):
        apply_Ti(composite_problem, 0, z, -0.1)


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_literal_operators_equal_checked_block_steps(kind):
    rng = np.random.default_rng(16)
    if kind == "least_squares":
        p = gen_least_squares(2, n=6, d=3, k=4, L=3.0, mu=0.0, regularizer=Regularizer.l1(0.1))
    else:
        W = rng.standard_normal((6, 3))
        p = gen_logistic(W, np.where(rng.random(6) < 0.5, -1.0, 1.0), 0.2)
    alpha = 1.5 / p.L
    z = rng.standard_normal((p.n, p.d))

    def block(z, i):
        # the block operator through the validated prox and gradient
        out = z.copy()
        x = prox(p.regularizer, alpha, ordered_mean(z))
        out[i] = x - alpha * p.component_grad(i, x)
        return out

    for i in range(p.n):
        assert np.array_equal(apply_Ti(p, i, z, alpha), block(z, i))
    order = rng.permutation(p.n)
    want = z
    for i in order:
        want = block(want, int(i))
    assert np.array_equal(apply_Tpi(p, order, z, alpha), want)
    assert np.array_equal(apply_Spi(p, order, z, alpha, 0.3), 0.7 * z + 0.3 * want)


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_literal_operators_on_a_stack_equal_one_call_per_table(kind, m):
    rng = np.random.default_rng(17 + m)
    if kind == "least_squares":
        p = gen_least_squares(2, n=6, d=3, k=4, L=3.0, mu=0.0, regularizer=Regularizer.l1(0.1))
    else:
        W = rng.standard_normal((6, 3))
        p = gen_logistic(W, np.where(rng.random(6) < 0.5, -1.0, 1.0), 0.2)
    alpha = 1.5 / p.L
    stack = rng.standard_normal((m, p.n, p.d)) * 10.0 ** rng.integers(-2, 3, (m, 1, 1))
    order = rng.permutation(p.n)
    blocks = rng.integers(0, p.n, m)
    for got, want in (
        (apply_Tpi(p, order, stack, alpha), [apply_Tpi(p, order, z, alpha) for z in stack]),
        (apply_Spi(p, order, stack, alpha, 0.3),
         [apply_Spi(p, order, z, alpha, 0.3) for z in stack]),
        (apply_Ti(p, blocks, stack, alpha),
         [apply_Ti(p, int(i), z, alpha) for i, z in zip(blocks, stack)]),
    ):
        assert got.shape == stack.shape
        assert got.tobytes() == np.array(want).tobytes()


def test_one_overflowing_table_of_a_stack_raises():
    # f_i(x) = 0.5 (a_i x)^2; only the first table's gradient step of block 2 overflows
    a = np.array([1.0, 1.0, 1e10])
    p = ProblemInstance(kind="least_squares", n=3, d=1, regularizer=Regularizer.none(),
                        L=1e20, mu=0.0, A=a.reshape(3, 1, 1), b=np.zeros((3, 1)))
    stack = np.stack([np.full((3, 1), 1e300), np.zeros((3, 1)), np.ones((3, 1))])
    with np.errstate(all="ignore"):
        assert np.isfinite(apply_Tpi(p, [0, 1, 2], stack[1:], 1.0)).all()
        with pytest.raises(ValueError, match="vector contains NaN or infinite entries"):
            apply_Tpi(p, [0, 1, 2], stack, 1.0)


def _table(p, rows=None, cols=None, bad=None):
    z = np.zeros((p.n if rows is None else rows, p.d if cols is None else cols))
    if bad is not None:
        z[2, 1] = bad
    return z


LS5 = gen_least_squares(2, n=5, d=3, k=3, L=2.0, mu=0.0)
LS7 = gen_least_squares(3, n=7, d=3, k=3, L=2.0, mu=0.0)
NAN, INF = _table(LS5, bad=np.nan), _table(LS5, bad=np.inf)
ZERO = _table(LS5)
# one fault per call, each with the message the per-block checks raised
CHECK_CASES = {
    "Ti_index_high": (lambda: apply_Ti(LS5, 5, ZERO, 0.5),
                      IndexError, "component index 5 out of range [0, 5)"),
    "Ti_index_negative": (lambda: apply_Ti(LS5, -1, ZERO, 0.5),
                          IndexError, "component index -1 out of range [0, 5)"),
    "Ti_alpha_zero": (lambda: apply_Ti(LS5, 0, ZERO, 0.0), ValueError, "alpha must be positive"),
    "Ti_alpha_negative": (lambda: apply_Ti(LS5, 0, ZERO, -0.5),
                          ValueError, "alpha must be positive"),
    "Ti_nan": (lambda: apply_Ti(LS5, 0, NAN, 0.5),
               ValueError, "vector contains NaN or infinite entries"),
    "Ti_inf": (lambda: apply_Ti(LS5, 0, INF, 0.5),
               ValueError, "vector contains NaN or infinite entries"),
    "Ti_width": (lambda: apply_Ti(LS5, 0, _table(LS5, cols=4), 0.5),
                 ValueError, "dimension mismatch: expected 3, got 4"),
    "Tpi_not_permutation": (lambda: apply_Tpi(LS5, [0, 1, 1, 3, 4], ZERO, 0.5),
                            ValueError, "not a permutation of range(5): [0 1 1 3 4]"),
    "Tpi_alpha_zero": (lambda: apply_Tpi(LS5, range(5), ZERO, 0.0),
                       ValueError, "alpha must be positive"),
    "Tpi_nan": (lambda: apply_Tpi(LS5, range(5), NAN, 0.5),
                ValueError, "vector contains NaN or infinite entries"),
    "Tpi_block_index": (lambda: apply_Tpi(LS5, [5, 0, 1, 2, 3, 4], _table(LS5, rows=6), 0.5),
                        IndexError, "component index 5 out of range [0, 5)"),
    "Tpi_width": (lambda: apply_Tpi(LS5, range(5), _table(LS5, cols=4), 0.5),
                  ValueError, "dimension mismatch: expected 3, got 4"),
    "contraction_n7": (lambda: expected_contraction(LS7, _table(LS7), _table(LS7), 0.5),
                       ValueError, "exact expectation is guarded at n <= 6"),
    "contraction_alpha_zero": (lambda: expected_contraction(LS5, ZERO, ZERO, 0.0),
                               ValueError, "alpha must be positive"),
    "contraction_nan_u": (lambda: expected_contraction(LS5, NAN, ZERO, 0.5),
                          ValueError, "vector contains NaN or infinite entries"),
    "contraction_nan_v": (lambda: expected_contraction(LS5, ZERO, NAN, 0.5),
                          ValueError, "vector contains NaN or infinite entries"),
    "contraction_rows": (lambda: expected_contraction(LS5, _table(LS5, rows=6), ZERO, 0.5),
                         ValueError, "not a permutation of range(6): [0 1 2 3 4]"),
    "Tpi_rows_short": (lambda: apply_Tpi(LS5, range(3), np.ones((3, 3)), 0.5),
                       ValueError, "table must have shape (5, 3), got (3, 3)"),
    "Ti_rows_short": (lambda: apply_Ti(LS5, 0, np.ones((2, 3)), 0.5),
                      ValueError, "table must have shape (5, 3), got (2, 3)"),
    "Ti_rows_extra": (lambda: apply_Ti(LS5, 0, _table(LS5, rows=6), 0.5),
                      ValueError, "table must have shape (5, 3), got (6, 3)"),
    "Spi_rows_short": (lambda: apply_Spi(LS5, range(4), _table(LS5, rows=4), 0.5, 0.5),
                       ValueError, "table must have shape (5, 3), got (4, 3)"),
    "Tpi_stack_nan": (lambda: apply_Tpi(LS5, range(5), np.stack([ZERO, NAN]), 0.5),
                      ValueError, "vector contains NaN or infinite entries"),
    "Ti_stack_rows": (lambda: apply_Ti(LS5, 0, np.ones((2, 4, 3)), 0.5),
                      ValueError, "table must have shape (5, 3), got (4, 3)"),
    "Ti_stack_index": (lambda: apply_Ti(LS5, [0, 5], np.stack([ZERO, ZERO]), 0.5),
                       IndexError, "component index 5 out of range [0, 5)"),
}


@pytest.mark.parametrize("case", sorted(CHECK_CASES))
def test_literal_operators_reject_bad_input(case):
    call, error, message = CHECK_CASES[case]
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_overflow_inside_a_composition_raises():
    # f_i(x) = 0.5 (a_i x)^2; the gradient step of block 2 overflows from a finite table
    a = np.array([1.0, 1.0, 1e10])
    p = ProblemInstance(kind="least_squares", n=3, d=1, regularizer=Regularizer.none(),
                        L=1e20, mu=0.0, A=a.reshape(3, 1, 1), b=np.zeros((3, 1)))
    z = np.full((3, 1), 1e300)
    # in [0, 1, 2] only the last block overflows, which only the exit check sees
    with np.errstate(all="ignore"):
        for order in ([2, 0, 1], [0, 2, 1], [0, 1, 2]):
            with pytest.raises(ValueError, match="vector contains NaN or infinite entries"):
                apply_Tpi(p, order, z, 1.0)
        with pytest.raises(ValueError, match="vector contains NaN or infinite entries"):
            expected_contraction(p, z, np.zeros((3, 1)), 1.0)


def test_fixed_point_of_block_operators(composite_problem):
    p = composite_problem
    alpha = 1.0 / p.L
    xstar = solve_reference(p, tol=1e-12)
    zstar = zstar_table(p, xstar, alpha)
    for i in range(p.n):
        assert np.linalg.norm(apply_Ti(p, i, zstar, alpha) - zstar) <= 1e-10
    assert np.linalg.norm(apply_Tpi(p, np.arange(p.n), zstar, alpha) - zstar) <= 1e-9


def _stepped(p, z, alpha, theta, order):
    """(table, mean) after one literal epoch from table z, which is left unchanged."""
    table, mean = z.copy(), ordered_mean(z)
    epoch_step(p, table, mean, alpha, theta, order)
    return table, mean


def test_epoch_step_theta_one_equals_operator(composite_problem):
    p = composite_problem
    rng = np.random.default_rng(3)
    z = rng.standard_normal((p.n, p.d))
    order = rng.permutation(p.n)
    stepped, _ = _stepped(p, z, 1.0 / p.L, 1.0, order)
    assert np.max(np.abs(stepped - apply_Tpi(p, order, z, 1.0 / p.L))) <= 1e-12


def test_epoch_step_equals_damped_operator(composite_problem):
    p = composite_problem
    rng = np.random.default_rng(4)
    alpha = 1.0 / p.L
    for theta in (0.3, 0.9):
        z = rng.standard_normal((p.n, p.d))
        for order in (np.arange(p.n), rng.permutation(p.n)):
            stepped, _ = _stepped(p, z, alpha, theta, order)
            want = apply_Spi(p, order, z, alpha, theta)
            assert np.max(np.abs(stepped - want)) <= 1e-12


def test_epoch_step_small_theta_scales_linearly(composite_problem):
    p = composite_problem
    rng = np.random.default_rng(5)
    z = rng.standard_normal((p.n, p.d))
    order = np.arange(p.n)
    stepped, _ = _stepped(p, z, 1.0 / p.L, 1e-8, order)
    move = apply_Tpi(p, order, z, 1.0 / p.L) - z
    assert np.max(np.abs(stepped - z - 1e-8 * move)) <= 1e-12


def test_epoch_step_fixed_point_any_theta(composite_problem):
    p = composite_problem
    alpha = 1.0 / p.L
    zstar = zstar_table(p, solve_reference(p, tol=1e-12), alpha)
    for theta in (0.2, 1.0):
        stepped, _ = _stepped(p, zstar, alpha, theta, np.arange(p.n))
        assert np.max(np.abs(stepped - zstar)) <= 1e-10


def test_literal_and_efficient_agree_over_epochs(composite_problem):
    p = composite_problem
    rng = np.random.default_rng(6)
    alpha, theta = 1.0 / p.L, 0.6
    z0 = rng.standard_normal((p.n, p.d))
    orders = [rng.permutation(p.n) for _ in range(50)]
    assert verify.literal_lean_deviation(p, z0, alpha, theta, orders) <= 1e-12


def test_efficient_epoch_rejects_repeats(composite_problem):
    p = composite_problem
    with pytest.raises(ValueError):
        kernels.epoch_inplace(p, np.zeros((p.n, p.d)), np.zeros(p.d), 0.1, 0.5, [0] * p.n)


@pytest.mark.parametrize("epoch, order_error", [
    (epoch_step, "order must contain n valid indices"),
    (kernels.epoch_inplace, r"not a permutation of range\(8\)"),
], ids=["epoch_step", "epoch_inplace"])
def test_epoch_step_validation(composite_problem, epoch, order_error):
    # both epochs check step, damping, table, mean and order before any step
    p = composite_problem
    z = np.random.default_rng(4).standard_normal((p.n, p.d))
    zbar = ordered_mean(z)
    order = np.arange(p.n)
    cases = [
        (0.0, 0.9, z, zbar, "alpha must be positive"),
        (-0.5, 0.9, z, zbar, "alpha must be positive"),
        (np.nan, 0.9, z, zbar, "alpha must be positive"),
        (np.inf, 0.9, z, zbar, "alpha must be positive and finite, got inf"),
        (-1.0, 3.0, z, zbar, "alpha must be positive"),
        (0.5, 0.0, z, zbar, r"theta must lie in \(0, 1\]"),
        (0.5, 1.5, z, zbar, r"theta must lie in \(0, 1\]"),
        (0.5, 0.9, z, np.ones(p.d + 1), "table and mean must be"),
        (0.5, 0.9, np.ones((p.n, p.d + 1)), zbar, "table and mean must be"),
    ]
    bad_orders = ([0] * (p.n - 1), [-1] + [0] * (p.n - 1), [p.n] * p.n)
    cases += [(0.5, 0.9, z, zbar, order_error, bad) for bad in bad_orders]
    for alpha, theta, table, mean, match, *bad in cases:
        before = table.tobytes(), mean.tobytes()
        with pytest.raises(ValueError, match=match):
            epoch(p, table, mean, alpha, theta, bad[0] if bad else order)
        assert (table.tobytes(), mean.tobytes()) == before


def test_efficient_inplace_allocates_no_second_table():
    p = gen_least_squares(7, n=64, d=256, k=4, L=3.0, mu=0.0)
    z = np.random.default_rng(8).standard_normal((p.n, p.d))
    zbar = ordered_mean(z)
    order = np.arange(p.n)
    table_bytes = z.nbytes
    epoch_step_efficient_inplace(p, z, zbar, 1.0 / p.L, 0.5, order)  # warm up
    tracemalloc.start()
    epoch_step_efficient_inplace(p, z, zbar, 1.0 / p.L, 0.5, order)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < table_bytes / 4


def test_blocked_epoch_allocates_no_second_table():
    rng = np.random.default_rng(8)
    W = rng.standard_normal((2048, 64))
    p = gen_logistic(W, np.where(rng.random(2048) < 0.5, -1.0, 1.0), 0.1)
    assert kernels.epoch_path(p) == "blocked"
    z = rng.standard_normal((p.n, p.d))
    zbar = ordered_mean(z)
    order = rng.permutation(p.n)
    kernels.epoch_inplace(p, z, zbar, 1.0 / p.L, 0.5, order)  # warm up
    tracemalloc.start()
    kernels.epoch_inplace(p, z, zbar, 1.0 / p.L, 0.5, order)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < z.nbytes / 4


def test_run_constant_at_fixed_point(composite_problem):
    p = composite_problem
    alpha = 1.0 / p.L
    xstar = solve_reference(p, tol=1e-12)
    zstar = zstar_table(p, xstar, alpha)
    plan = SamplingPlan("cyclic", p.n, order=np.arange(p.n))
    cfg = DampedRunConfig(alpha=alpha, theta=0.7, epochs=10, plan=plan)
    _, trace = run(p, cfg, zstar, reference=(xstar, zstar))
    for rec in trace:
        assert rec.dist_sq_to_opt <= 1e-20
        assert rec.prox_residual_sq <= 1e-18


@pytest.mark.parametrize("theta, mu", [(0.7, 0.5), (1.0, 0.5), (0.7, 0.0)])
@pytest.mark.parametrize("regime", ["cyclic", "reshuffle", "shuffle_once"])
def test_run_bound_columns_match_the_per_record_formulas_bit_for_bit(regime, theta, mu):
    # the envelopes as each record evaluated them before their constants were computed
    # once per run; theta = 1 has no convex bound and mu = 0 no strongly convex one
    p = gen_least_squares(4, n=7, d=3, k=3, L=4.0, mu=mu)
    alpha = 2.0 / (p.mu + p.L)
    xstar = solve_reference(p, tol=1e-12)
    zstar = zstar_table(p, xstar, alpha)
    z0 = np.random.default_rng(5).standard_normal((p.n, p.d))
    order = np.random.default_rng(6).permutation(p.n)
    plan = (SamplingPlan("cyclic", p.n, order=order) if regime == "cyclic"
            else SamplingPlan(regime, p.n, seed=3))
    _, trace = run(p, DampedRunConfig(alpha=alpha, theta=theta, epochs=6, plan=plan), z0,
                   reference=(xstar, zstar))
    n, L, diff = p.n, p.L, z0 - zstar
    logn, total = math.log(n) + 1.0, float(np.sum(diff * diff))
    base = (2.0 / (alpha * L)) ** 2
    convex_c = {"cyclic": base * (logn / n) * diagnostics.pi_norm_sq(diff, order),
                "reshuffle": (5.0 / (3.0 * alpha * L)) ** 2 * total / n,
                "shuffle_once": base * ((n + 1) * logn / (2.0 * n**2)) * total}[regime]
    sc_c = {"cyclic": (logn / n) * diagnostics.pi_norm_sq(diff, order),
            "reshuffle": total / n,
            "shuffle_once": ((n + 1) * logn / (2.0 * n**2)) * total}[regime]
    rate = 1.0 - 2.0 * theta * alpha * mu * L / (mu + L)
    assert [rec.epoch for rec in trace] == list(range(7))
    for rec in trace:
        k = rec.epoch
        want_convex = convex_c * L**2 / ((k + 1) * theta * (1.0 - theta)) if theta < 1 else None
        want_sc = rate**k * sc_c if mu > 0 else None
        assert rec.bound_convex == want_convex and rec.bound_sc == want_sc, k
        assert rec.to_row()[6:8] == ["" if v is None else repr(v) for v in (want_convex, want_sc)]


def test_run_n1_theta1_matches_prox_gd():
    p = gen_least_squares(9, n=1, d=4, k=4, L=2.0, mu=0.5)
    alpha, epochs = 0.5, 12
    x0 = np.random.default_rng(10).standard_normal(4)
    z0 = x0[None, :]
    plan = SamplingPlan("cyclic", 1, order=[0])
    cfg = DampedRunConfig(alpha=alpha, theta=1.0, epochs=epochs, plan=plan)
    gd = prox_gd_run(p, alpha, epochs, x0)
    z, _ = run(p, cfg, z0)
    x_engine = prox(p.regularizer, alpha, ordered_mean(z))
    assert np.max(np.abs(x_engine - gd[-1].x)) <= 1e-12


def test_run_flags_uncertified_step_size(composite_problem):
    p = composite_problem
    plan = SamplingPlan("cyclic", p.n, order=np.arange(p.n))
    cfg = DampedRunConfig(alpha=3.0 / p.L, theta=0.5, epochs=1, plan=plan)
    _, trace = run(p, cfg, np.zeros((p.n, p.d)))
    assert "alpha_uncertified" in trace[-1].flags


def test_logistic_step_flag_reads_the_largest_component_smoothness():
    p = gen_logistic(*make_synthetic_logistic(0, 200, 10, kappa=400))
    L_max = float(np.max(p.metadata["per_component_L"]))
    theory = 2.0 / (p.L + p.mu)  # from the mean loss's smoothness
    assert theory > 10.0 * 2.0 / (p.mu + L_max)
    assert engine._stepsize_flags(p, theory, 0.5) == "alpha_uncertified"
    assert engine._stepsize_flags(p, 2.0 / (p.mu + L_max), 0.5) == ""
    assert engine._stepsize_flags(p, np.nextafter(2.0 / (p.mu + L_max), 1.0), 0.5) \
        == "alpha_uncertified"
    # least squares is still judged by p.L, strongly convex or not
    for mu, flags in ((0.5, ("", "alpha_uncertified", "")),
                      (0.0, ("", "alpha_uncertified", "theta_uncertified"))):
        q = gen_least_squares(0, n=6, d=3, k=3, L=4.0, mu=mu)
        edge = 2.0 / (q.mu + q.L)
        assert (engine._stepsize_flags(q, edge, 0.5),
                engine._stepsize_flags(q, np.nextafter(edge, 1.0), 0.5),
                engine._stepsize_flags(q, edge, 1.0)) == flags


def test_run_uniform_regime_accepts_repeats(composite_problem):
    p = composite_problem
    plan = SamplingPlan("uniform", p.n, seed=0)
    cfg = DampedRunConfig(alpha=1.0 / p.L, theta=0.5, epochs=5, plan=plan)
    _, trace = run(p, cfg, np.zeros((p.n, p.d)))
    assert trace[-1].epoch == 5
    assert trace[-1].grad_evals == 5 * p.n
    assert trace[-1].pi_norm_residual_sq is None  # no permutation semantics


def test_run_adaptive_importance(composite_problem):
    p = composite_problem
    plan = SamplingPlan("adaptive", p.n, gamma=0.5)
    cfg = DampedRunConfig(alpha=1.0 / p.L, theta=0.5, epochs=20, plan=plan)
    z0 = np.random.default_rng(11).standard_normal((p.n, p.d))
    _, trace = run(p, cfg, z0)
    assert trace[-1].grad_map_residual_sq < trace[0].grad_map_residual_sq


def test_run_shape_and_plan_mismatch_errors(composite_problem):
    p = composite_problem
    plan = SamplingPlan("reshuffle", p.n + 1, seed=0)
    cfg = DampedRunConfig(alpha=0.1, theta=0.5, epochs=1, plan=plan)
    with pytest.raises(ValueError):
        run(p, cfg, np.zeros((p.n, p.d)))
    plan = SamplingPlan("reshuffle", p.n, seed=0)
    cfg = DampedRunConfig(alpha=0.1, theta=0.5, epochs=1, plan=plan)
    with pytest.raises(ValueError):
        run(p, cfg, np.zeros((p.n + 1, p.d)))


def test_config_validation():
    plan = SamplingPlan("reshuffle", 2, seed=0)
    with pytest.raises(ValueError):
        DampedRunConfig(alpha=-1.0, theta=0.5, epochs=1, plan=plan)
    with pytest.raises(ValueError):
        DampedRunConfig(alpha=1.0, theta=1.5, epochs=1, plan=plan)
    with pytest.raises(ValueError):
        DampedRunConfig(alpha=1.0, theta=0.5, epochs=-1, plan=plan)
    with pytest.raises(ValueError):
        DampedRunConfig(alpha=1.0, theta=0.5, epochs=1, plan=plan, trace_every=0)
    for field, value in (("epochs", True), ("epochs", 2.5), ("trace_every", 1.5), ("trace_every", 2.0)):
        kwargs = {"alpha": 1.0, "theta": 0.5, "epochs": 6, "plan": plan, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer >= ., got {value!r}"):
            DampedRunConfig(**kwargs)


# ----------------------------------------------------------- epoch kernels


def _loop_gap(p, z, alpha, theta, order, backend=None):
    """Largest entry gap between the memory-lean loop and the literal epoch."""
    want_z, want_zbar = _stepped(p, z, alpha, theta, order)
    got_z, got_zbar = z.copy(), ordered_mean(z)
    kernels.epoch_inplace(p, got_z, got_zbar, alpha, theta, order, backend=backend)
    return max(np.max(np.abs(got_z - want_z)), np.max(np.abs(got_zbar - want_zbar)))


def _kernel_agreement(p):
    rng = np.random.default_rng(12)
    alpha, theta = 1.0 / p.L, 0.6
    order = rng.permutation(p.n)
    z = rng.standard_normal((p.n, p.d))
    assert _loop_gap(p, z, alpha, theta, order, backend="numpy") <= 1e-12
    assert _loop_gap(p, z, alpha, theta, order) <= 1e-10


def test_kernels_agree_least_squares(composite_problem):
    _kernel_agreement(composite_problem)


def test_kernels_agree_logistic():
    rng = np.random.default_rng(13)
    W = rng.standard_normal((10, 4))
    y = np.where(rng.random(10) < 0.5, -1.0, 1.0)
    _kernel_agreement(gen_logistic(W, y, 0.2))


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
def test_literal_epoch_steps_unchecked(kind, monkeypatch):
    rng = np.random.default_rng(15)
    if kind == "least_squares":
        p = gen_least_squares(0, n=12, d=4, k=4, L=5.0, mu=0.5, regularizer=Regularizer.l1(0.05))
    else:
        W = rng.standard_normal((12, 4))
        p = gen_logistic(W, np.where(rng.random(12) < 0.5, -1.0, 1.0), 0.2)
    z0 = rng.standard_normal((p.n, p.d))
    order = rng.integers(0, p.n, size=p.n)
    # reference: the validated prox and gradient on every inner step
    z, zbar = z0.copy(), ordered_mean(z0)
    for i in order:
        x = prox(p.regularizer, 0.2, zbar)
        znew = x - 0.2 * p.component_grad(int(i), x)
        zbar = zbar + (znew - z[i]) / p.n
        z[i] = znew
    monkeypatch.setattr(ProblemInstance, "component_grad",
                        lambda *args: pytest.fail("validated gradient in the epoch"))
    got, _ = _stepped(p, z0, 0.2, 0.5, order)
    assert np.array_equal(got, 0.5 * z0 + 0.5 * z)
    with pytest.raises(ValueError):
        epoch_step(p, np.zeros((p.n, p.d + 1)), np.zeros(p.d + 1), 0.2, 0.5, order)


REGULARIZERS = {"none": Regularizer.none(), "l1": Regularizer.l1(0.05),
                "l2sq": Regularizer.l2sq(0.3)}
KINDS = ("least_squares", "logistic")


def _problem(kind, reg, n, d, rng, ls_seed):
    """A small problem of ``kind`` under regularizer ``reg``; least squares
    draws from ``ls_seed``, logistic from ``rng``."""
    r = REGULARIZERS[reg]
    if kind == "least_squares":
        return gen_least_squares(ls_seed, n=n, d=d, k=3, L=4.0, mu=0.0, regularizer=r)
    W = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return dataclasses.replace(gen_logistic(W, y, 0.1), regularizer=r)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS),
       reg=st.sampled_from(sorted(REGULARIZERS)),
       n=st.integers(1, 7), d=st.integers(1, 4),
       theta=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_loop_matches_literal_epoch_property(kind, reg, n, d, theta, seed):
    rng = np.random.default_rng(seed)
    p = _problem(kind, reg, n, d, rng, seed)
    z = rng.standard_normal((n, d))
    assert _loop_gap(p, z, 1.0 / p.L, theta, rng.permutation(n)) <= 1e-12


def _reference_grad(p, i, x):
    """The gradients the loop used before the row lists, on the instance arrays."""
    if p.kind == "least_squares":
        return p.A[i].T @ (p.A[i] @ x - p.b[i])
    m = p.y[i] * (p.W[i] @ x)
    if m <= 0.0:
        s = 1.0 / (1.0 + np.exp(m))
    else:
        e = np.exp(-m)
        s = e / (1.0 + e)
    return -p.y[i] * s * p.W[i] + p.ridge * x


def _reference_epoch(p, z, zbar, alpha, theta, order):
    """The memory-lean loop before the numpy calls per step were cut, with the
    row-loop table mean; in place on (z, zbar)."""
    n = z.shape[0]
    for i in order:
        x = prox(p.regularizer, alpha, zbar)
        dvec = x - alpha * _reference_grad(p, i, x) - z[i]
        zbar += dvec / n
        z[i] += theta * dvec
    acc = np.zeros(z.shape[1])
    for r in z:
        acc = acc + r
    zbar[:] = acc / n


def _assert_loop_equals_reference_bytes(kind, reg, epoch):
    for n, d in ((9, 1), (12, 5)):
        rng = np.random.default_rng(17 + d)
        p = _problem(kind, reg, n, d, rng, d)
        z = rng.standard_normal((n, d))
        want_z, want_zbar = z.copy(), ordered_mean(z)
        got_z, got_zbar = z.copy(), ordered_mean(z)
        for _ in range(3):
            order = rng.permutation(n)
            _reference_epoch(p, want_z, want_zbar, 0.9 / p.L, 0.6, order)
            epoch(p, got_z, got_zbar, 0.9 / p.L, 0.6, order)
            assert got_z.tobytes() == want_z.tobytes()
            assert got_zbar.tobytes() == want_zbar.tobytes()


@pytest.mark.parametrize("reg", sorted(REGULARIZERS))
@pytest.mark.parametrize("kind", KINDS)
def test_loop_equals_reference_loop_bytes(kind, reg):
    _assert_loop_equals_reference_bytes(kind, reg, kernels._lean_epoch)


def _reference_epoch_step(p, z, zbar, alpha, theta, order):
    """epoch_step before the row views, the uncopied identity prox and the in-place
    update; returns the new (z, zbar)."""
    grad = p.unchecked_grad()
    z0, z, zbar = z.copy(), z.copy(), zbar.copy()
    for i in np.asarray(order, dtype=np.int64):
        x = prox(p.regularizer, alpha, zbar)  # checked, and always a copy
        znew = x - alpha * grad(i, x)
        zbar = zbar + (znew - z[i]) / p.n
        z[i] = znew
    z = (1.0 - theta) * z0 + theta * z
    return z, ordered_mean(z)


@pytest.mark.parametrize("reg", sorted(REGULARIZERS))
@pytest.mark.parametrize("kind", KINDS)
def test_epoch_step_equals_reference_loop_bytes(kind, reg):
    rng = np.random.default_rng(23)
    p = _problem(kind, reg, 9, 3, rng, 4)
    for regime in ("cyclic", "reshuffle", "uniform"):  # uniform orders repeat indices
        order = rng.permutation(p.n) if regime == "cyclic" else None
        plan = SamplingPlan(regime, p.n, order=order, seed=5)
        z = rng.standard_normal((p.n, p.d))
        zbar = ordered_mean(z)
        for epoch in range(3):
            order = epoch_order(plan, epoch)
            want_z, want_zbar = _reference_epoch_step(p, z, zbar, 0.9 / p.L, 0.6, order)
            epoch_step(p, z, zbar, 0.9 / p.L, 0.6, order)
            assert z.tobytes() == want_z.tobytes()
            assert zbar.tobytes() == want_zbar.tobytes()


LEAN_PAIRS = [(k, r) for k in KINDS for r in sorted(REGULARIZERS)
              if k != "logistic" or r == "l1"]


@pytest.mark.parametrize("kind, reg", LEAN_PAIRS)
def test_kernel_keeps_lean_loop_bytes_off_the_blocked_path(kind, reg):
    _assert_loop_equals_reference_bytes(kind, reg, kernels.epoch_inplace)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("reg", sorted(REGULARIZERS))
def test_epoch_path_is_blocked_for_logistic_under_a_linear_prox(kind, reg):
    p = _problem(kind, reg, 3, 2, np.random.default_rng(0), 0)
    blocked = kind == "logistic" and reg in ("none", "l2sq")
    assert kernels.epoch_path(p) == ("blocked" if blocked else "lean")


@pytest.mark.parametrize("kind, reg", [(k, "none") for k in KINDS] + [("logistic", "l1")])
def test_kernel_rejects_orders_that_are_not_an_epoch(kind, reg):
    rng = np.random.default_rng(19)
    p = _problem(kind, reg, 4, 2, rng, 0)
    z = rng.standard_normal((4, 2))
    zbar = ordered_mean(z)
    want_z, want_zbar = z.copy(), zbar.copy()
    for order in ([-1, 0, 1, 2], [0, 0]):
        with pytest.raises(ValueError, match=r"not a permutation of range\(4\)"):
            kernels.epoch_inplace(p, z, zbar, 0.5, 0.5, order)
    for bad_z, bad_zbar in ((np.zeros((3, 2)), zbar), (z, np.zeros(1))):
        with pytest.raises(ValueError, match=r"table and mean must be \(4, 2\) and \(2,\)"):
            kernels.epoch_inplace(p, bad_z, bad_zbar, 0.5, 0.5, [0, 1, 2, 3])
    assert z.tobytes() == want_z.tobytes() and zbar.tobytes() == want_zbar.tobytes()


def _relative_gap(p, z, alpha, theta, orders):
    """max |z_blocked - z_lean| / max |z_lean| after an epoch along each order."""
    lean_z, lean_zbar = z.copy(), ordered_mean(z)
    got_z, got_zbar = z.copy(), ordered_mean(z)
    for order in orders:
        kernels._lean_epoch(p, lean_z, lean_zbar, alpha, theta, order)
        kernels.epoch_inplace(p, got_z, got_zbar, alpha, theta, order)
    scale = np.max(np.abs(lean_z))
    return max(np.max(np.abs(got_z - lean_z)), np.max(np.abs(got_zbar - lean_zbar))) / scale


@settings(max_examples=80, deadline=None)
@given(n=st.one_of(st.sampled_from([31, 32, 33, 64, 65]), st.integers(1, 70)),
       d=st.integers(1, 6), reg=st.sampled_from(["none", "l2sq"]),
       ridge=st.sampled_from([0.0, 0.1]), alpha_L=st.floats(0.5, 10.0),
       theta=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 2**32 - 1))
def test_blocked_epoch_matches_lean_loop_property(n, d, reg, ridge, alpha_L, theta, seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    p = dataclasses.replace(gen_logistic(W, y, ridge), regularizer=REGULARIZERS[reg])
    assert kernels.epoch_path(p) == "blocked"
    orders = [rng.permutation(n) for _ in range(5)]
    z = rng.standard_normal((n, d))
    assert _relative_gap(p, z, alpha_L / p.L, theta, orders) <= 1e-12


def test_blocked_epoch_matches_lean_loop_on_the_sweep_instance():
    p = gen_logistic(*make_synthetic_logistic(0, 1000, 50, kappa=400))
    rng = np.random.default_rng(20)
    orders = [rng.permutation(p.n) for _ in range(20)]
    z = rng.standard_normal((p.n, p.d))
    for alpha in (2.0 / (p.L + p.mu), 0.5, 1.0):
        for theta in (0.3, 0.7):
            assert _relative_gap(p, z, alpha, theta, orders) <= 1e-11


def _blocked_epoch_split(problem, z, zbar, alpha, theta, order):
    """The blocked epoch as it stood with ``np.split`` blocks, per-block labels and a
    full ``H[k] @ c`` row product per step."""
    n, W, y, r = z.shape[0], problem.W, problem.y, problem.regularizer
    gamma = 1.0 / (1.0 + alpha * r.lam) if r.kind == "l2sq" else 1.0
    a = gamma * (1.0 - alpha * problem.ridge)
    beta = 1.0 + a / n
    ks = np.arange(min(kernels.BLOCK, n))
    tri = np.tril(beta ** np.maximum(ks[:, None] - 1 - ks, 0), -1) / n
    powers = beta ** ks
    for idx in np.split(order, range(kernels.BLOCK, n, kernels.BLOCK)):
        b = len(idx)
        Wb, Z0, T = W[idx], z[idx], tri[:b, :b]
        V = powers[:b, None] * zbar - T @ Z0
        base = np.einsum("ij,ij->i", Wb, V).tolist()
        H = T * (Wb @ Wb.T)
        c = np.zeros(b)
        for k, yk in enumerate(y[idx].tolist()):
            m = yk * gamma * (base[k] + float(H[k] @ c))
            e = math.exp(-abs(m))
            c[k] = alpha * yk * ((1.0 if m <= 0.0 else e) / (1.0 + e))
        E = c[:, None] * Wb
        means = V + T @ E
        D = a * means + E - Z0
        z[idx] = Z0 + theta * D
        zbar[:] = means[b - 1] + D[b - 1] / n
    zbar[:] = ordered_mean(z)


@pytest.mark.parametrize("ridge", [0.0, 0.1])
@pytest.mark.parametrize("reg", ["none", "l2sq"])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
def test_blocked_epoch_equals_split_block_loop_bytes(n, reg, ridge):
    rng = np.random.default_rng(21 + n)
    W = rng.standard_normal((n, 4))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    p = dataclasses.replace(gen_logistic(W, y, ridge), regularizer=REGULARIZERS[reg])
    z = rng.standard_normal((n, 4))
    want_z, want_zbar = z.copy(), ordered_mean(z)
    got_z, got_zbar = z.copy(), ordered_mean(z)
    for _ in range(3):
        order = rng.permutation(n)
        _blocked_epoch_split(p, want_z, want_zbar, 2.0 / p.L, 0.6, order)
        kernels.epoch_inplace(p, got_z, got_zbar, 2.0 / p.L, 0.6, order)
        assert got_z.tobytes() == want_z.tobytes()
        assert got_zbar.tobytes() == want_zbar.tobytes()


def _memo_problem(n, reg, seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, 4))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    p = dataclasses.replace(gen_logistic(W, y, 0.1), regularizer=REGULARIZERS[reg])
    return p, rng


def _epochs_match_split_loop(p, z, steps):
    """Each (alpha, order) of ``steps`` runs as one kernel epoch and as one epoch of
    the split reference loop; the tables and means must agree byte for byte."""
    want_z, want_zbar = z.copy(), ordered_mean(z)
    got_z, got_zbar = z.copy(), ordered_mean(z)
    for alpha, order in steps:
        _blocked_epoch_split(p, want_z, want_zbar, alpha, 0.6, np.array(order))
        kernels.epoch_inplace(p, got_z, got_zbar, alpha, 0.6, order)
        assert got_z.tobytes() == want_z.tobytes()
        assert got_zbar.tobytes() == want_zbar.tobytes()


@pytest.mark.parametrize("reg", ["none", "l2sq"])
@pytest.mark.parametrize("n", [1, 31, 33, 65])
def test_blocked_epoch_memo_keeps_split_block_loop_bytes(n, reg):
    p, rng = _memo_problem(n, reg, 40 + n)
    z = rng.standard_normal((n, 4))
    fixed, other = rng.permutation(n), rng.permutation(n)
    small, large = 1.0 / p.L, 2.0 / p.L
    _epochs_match_split_loop(p, z, [(small, fixed)] * 5)  # memo hits
    _epochs_match_split_loop(p, z, [(small, fixed), (large, fixed), (small, fixed),
                                    (small, other), (large, other), (small, fixed)])
    # another regularizer or ridge, on a replaced instance and on this one, whose
    # memo holds (small, fixed) under the old values
    for change in ({"regularizer": REGULARIZERS["l2sq" if reg == "none" else "none"]},
                   {"ridge": 0.3}):
        q = dataclasses.replace(p, **change)
        assert q._blocks_memo is None
        _epochs_match_split_loop(q, z, [(small, fixed)] * 2)
        for key, value in change.items():
            setattr(p, key, value)
        _epochs_match_split_loop(p, z, [(small, fixed)] * 2)


@pytest.mark.parametrize("reg", ["none", "l2sq"])
@pytest.mark.parametrize("n", [1, 31, 33, 65])
def test_blocked_epoch_memo_ignores_later_changes_to_the_callers_order(n, reg):
    p, rng = _memo_problem(n, reg, 50 + n)
    z = rng.standard_normal((n, 4))
    alpha, first = 1.0 / p.L, rng.permutation(n)
    kept, second = first.copy(), rng.permutation(n)
    want_z, want_zbar = z.copy(), ordered_mean(z)
    got_z, got_zbar = z.copy(), ordered_mean(z)
    kernels.epoch_inplace(p, got_z, got_zbar, alpha, 0.6, first)
    _blocked_epoch_split(p, want_z, want_zbar, alpha, 0.6, kept)
    first[:] = second  # the caller reuses its array for the next order
    for order in (second.copy(), kept.copy(), first, kept.copy()):
        _blocked_epoch_split(p, want_z, want_zbar, alpha, 0.6, order.copy())
        kernels.epoch_inplace(p, got_z, got_zbar, alpha, 0.6, order)
        assert got_z.tobytes() == want_z.tobytes()
        assert got_zbar.tobytes() == want_zbar.tobytes()


@pytest.mark.parametrize("regime, builds", [("cyclic", 1), ("shuffle_once", 1),
                                            ("reshuffle", 6)])
def test_blocked_epoch_builds_order_data_once_per_order(regime, builds, monkeypatch):
    p, rng = _memo_problem(40, "l2sq", 60)
    memos = []  # a build replaces the memo, so each distinct one is a build
    real = kernels._blocks

    def blocks(problem, alpha, order):
        out = real(problem, alpha, order)
        if all(m is not p._blocks_memo for m in memos):
            memos.append(p._blocks_memo)
        return out

    monkeypatch.setattr(kernels, "_blocks", blocks)
    plan = SamplingPlan(regime, p.n, order=np.arange(p.n) if regime == "cyclic" else None,
                        seed=5)
    run(p, DampedRunConfig(1.0 / p.L, 0.5, 6, plan, 1), np.zeros((p.n, p.d)))
    assert len(memos) == builds


def _records_equal(a, b):
    """Equal trace records; baseline records compare their iterates by bytes."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        if isinstance(ra, baselines.BaselineRecord):
            assert (ra.epoch, ra.grad_evals, ra.x.tobytes()) == \
                (rb.epoch, rb.grad_evals, rb.x.tobytes())
        else:
            assert ra == rb


def test_unseeded_regimes_ignore_the_seed():
    """Only the regimes in SEEDED may read the plan's seed; the CLI runs a cell
    of any other regime once for all its seeds."""
    p = gen_least_squares(4, n=7, d=3, k=3, L=4.0, mu=0.2, regularizer=Regularizer.l1(0.05))
    z0 = np.random.default_rng(19).standard_normal((p.n, p.d))
    unseeded = [r for r in REGIMES if r not in SEEDED]
    assert unseeded == ["cyclic", "adaptive"]
    order = np.random.default_rng(20).permutation(p.n)

    def plan(regime, seed):
        return SamplingPlan(regime, p.n, order=order if regime == "cyclic" else None,
                            seed=seed, gamma=0.4)

    for regime in unseeded:
        traces = [run(p, DampedRunConfig(0.2, 0.5, 6, plan(regime, seed)), z0)[1]
                  for seed in (0, 1)]
        _records_equal(*traces)
    x0 = z0[0]
    for runner in (lambda pl: baselines.svrg_run(p, pl, 0.05, 4, x0),
                   lambda pl: baselines.saga_run(p, pl, 0.05, 4, x0)):
        _records_equal(runner(plan("cyclic", 0)), runner(plan("cyclic", 1)))
    q = dataclasses.replace(p, regularizer=Regularizer.none())
    _records_equal(baselines.sgd_run(q, plan("cyclic", 0), 0.05, 4, x0),
                   baselines.sgd_run(q, plan("cyclic", 1), 0.05, 4, x0))
