import ast
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfinito import baselines, model
from dfinito.diagnostics import grad_map_residual
from dfinito.engine import DampedRunConfig, apply_Spi, apply_Ti, apply_Tpi
from dfinito.model import (
    ProblemInstance,
    Regularizer,
    as_vector,
    check_step,
    ordered_mean,
    ordered_sum,
    prox,
    stable_sigmoid,
    validate_permutation,
)
from dfinito.oracle import expected_contraction, zstar_table
from dfinito.problems import gen_heterogeneous, gen_least_squares, gen_logistic
from dfinito.sampling import SamplingPlan


def test_as_vector_validation():
    v = as_vector([1.0, 2.0], 2)
    assert v.dtype == np.float64
    with pytest.raises(ValueError):
        as_vector([[1.0]])
    with pytest.raises(ValueError):
        as_vector([np.nan])
    with pytest.raises(ValueError):
        as_vector([1.0], 2)


def test_ordered_sum_matches_compensated_summation():
    # oracle: per-column math.fsum on a 200-row random table
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((200, 7)) * np.logspace(-3, 3, 7)
    got = ordered_sum(rows)
    want = np.array([math.fsum(rows[:, j]) for j in range(7)])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    assert np.allclose(ordered_mean(rows), want / 200, rtol=1e-12)


@pytest.mark.parametrize("reduce", [ordered_sum, ordered_mean])
def test_ordered_sum_refuses_a_vector(reduce):
    with pytest.raises(ValueError, match=re.escape("expected a table of rows, got shape (3,)")):
        reduce(np.ones(3))


def test_ordered_sum_is_left_to_right():
    # a value that cancels only under strict left-to-right order
    rows = np.array([[1e16], [1.0], [-1e16]])
    assert ordered_sum(rows)[0] == 0.0  # (1e16 + 1) rounds to 1e16


def _left_to_right(rows):
    """The row loop ordered_sum replaced: acc = 0, then acc + row for each row."""
    acc = np.zeros(rows.shape[1])
    for r in rows:
        acc = acc + r
    return acc


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 300), d=st.integers(1, 64), fortran=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=300, d=1, fortran=False, seed=0)  # numpy sums one column pairwise
@example(n=300, d=2, fortran=True, seed=0)  # and a Fortran table down each column
def test_ordered_sum_equals_row_loop_bytes(n, d, fortran, seed):
    rng = np.random.default_rng(seed)
    # magnitudes from 1e-8 to 1e16 so that rounding depends on the order
    rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 17, size=(n, d))
    rows[rng.random((n, d)) < 0.2] = -0.0
    if d > 1:
        rows[:, 0] = -0.0  # a column of -0.0 sums to +0.0 from the +0.0 start
    table = np.asfortranarray(rows) if fortran else rows
    want = _left_to_right(rows)
    assert ordered_sum(table).tobytes() == want.tobytes()
    assert ordered_mean(table).tobytes() == (want / n).tobytes()


def test_stable_sigmoid_extremes():
    u = np.array([-800.0, 0.0, 800.0])
    s = stable_sigmoid(u)
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 and s[1] == 0.5 and s[2] == 1.0


def test_regularizer_validation_and_value():
    with pytest.raises(ValueError):
        Regularizer("huber", 1.0)
    with pytest.raises(ValueError):
        Regularizer("l1", -1.0)
    x = np.array([1.0, -2.0])
    assert Regularizer.l1(3.0).value(x) == pytest.approx(9.0)
    assert Regularizer.l2sq(4.0).value(x) == pytest.approx(10.0)
    assert Regularizer.none().value(x) == 0.0


def test_problem_validation():
    with pytest.raises(ValueError):
        ProblemInstance(kind="bogus", n=1, d=1, regularizer=Regularizer.none(), L=1.0, mu=0.0)
    with pytest.raises(ValueError, match="need 0 <= mu <= L"):
        ProblemInstance(kind="least_squares", n=2, d=1, regularizer=Regularizer.none(),
                        L=1.0, mu=2.0, A=np.ones((2, 1, 1)), b=np.ones((2, 1)))
    # the two kinds are least squares and logistic; gradient callables are not a kind
    with pytest.raises(ValueError, match="unknown problem kind 'custom'"):
        ProblemInstance(kind="custom", n=2, d=1, regularizer=Regularizer.none(), L=1.0, mu=0.0)
    with pytest.raises(TypeError, match="grads"):
        ProblemInstance(kind="custom", n=2, d=1, regularizer=Regularizer.none(),
                        L=1.0, mu=0.0, grads=[lambda x: x, lambda x: x])
    with pytest.raises(ValueError, match="need n >= 1 and d >= 1"):
        ProblemInstance(kind="least_squares", n=0, d=1, regularizer=Regularizer.none(),
                        L=1.0, mu=0.0, A=np.ones((0, 1, 1)), b=np.ones((0, 1)))
    with pytest.raises(ValueError, match=re.escape("b must have shape (n, k), got (2, 2)")):
        ProblemInstance(kind="least_squares", n=2, d=1, regularizer=Regularizer.none(),
                        L=1.0, mu=0.0, A=np.ones((2, 1, 1)), b=np.ones((2, 2)))
    with pytest.raises(ValueError, match=re.escape("W must have shape (n, d), got (2, 3)")):
        ProblemInstance(kind="logistic", n=2, d=1, regularizer=Regularizer.none(),
                        L=1.0, mu=0.0, W=np.ones((2, 3)), y=np.ones(2))
    with pytest.raises(ValueError, match=re.escape("y must have shape (n,)")):
        ProblemInstance(kind="logistic", n=2, d=1, regularizer=Regularizer.none(),
                        L=1.0, mu=0.0, W=np.ones((2, 1)), y=np.ones(3))


def _finite_difference_check(p, points=100, tol=1e-5):
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(points):
        x = rng.standard_normal(p.d)
        i = int(rng.integers(p.n))
        g = p.component_grad(i, x)
        fd = np.empty(p.d)
        for j in range(p.d):
            e = np.zeros(p.d)
            e[j] = h
            fd[j] = (p.component_value(i, x + e) - p.component_value(i, x - e)) / (2 * h)
        scale = max(1.0, float(np.linalg.norm(g)))
        assert np.linalg.norm(fd - g) / scale <= tol


def test_least_squares_gradient_finite_differences():
    p = gen_least_squares(0, n=6, d=4, k=5, L=3.0, mu=0.0)
    _finite_difference_check(p)


def test_logistic_gradient_finite_differences():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((8, 3))
    y = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    p = gen_logistic(W, y, 0.3)
    _finite_difference_check(p)


def _component_sum(p, x):
    acc = np.zeros(p.d)
    for i in range(p.n):
        acc = acc + p.component_grad(i, x)
    return acc / p.n


def test_full_grad_matches_component_sum():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4)
    ls = gen_least_squares(2, n=7, d=4, k=3, L=2.0, mu=0.0)
    W = rng.standard_normal((9, 4))
    y = np.where(rng.random(9) < 0.5, -1.0, 1.0)
    logistic = gen_logistic(3.0 * W, y, 0.2)  # margins of both signs, some large
    for p in (ls, logistic):
        want = _component_sum(p, x)
        np.testing.assert_allclose(p.full_grad(x), want, rtol=1e-12, atol=0.0)


def _row_by_row(p, idx, X):
    """grad_rows' reference: the per-component unchecked gradient, one row at a time."""
    grad = p.unchecked_grad()
    return [grad(i, x) for i, x in zip(idx.tolist(), X)]


def _assert_grad_rows_bytes(p, idx, X):
    got = p.grad_rows(idx, X)
    assert got.shape == X.shape
    for i, x, row, want in zip(idx.tolist(), X, got, _row_by_row(p, idx, X)):
        assert row.tobytes() == want.tobytes()
        assert p.component_grad(i, x).tobytes() == want.tobytes()  # the checked gradient


@pytest.mark.parametrize("kd", [1, 4, 5, 20, 50])
def test_grad_rows_least_squares_bytes_equal_unchecked_grad(kd):
    p = gen_least_squares(kd, n=12, d=kd, k=kd, L=3.0, mu=0.0)
    rng = np.random.default_rng(kd)
    for idx in (rng.integers(0, p.n, 40), np.arange(p.n), np.arange(p.n)[::-1]):
        X = rng.standard_normal((idx.size, kd)) * 10.0 ** rng.integers(-3, 4, (idx.size, 1))
        X[rng.random(X.shape) < 0.1] = 0.0
        _assert_grad_rows_bytes(p, idx, X)
    # every row at one point, as zstar_table asks, and as the SVRG/SAGA snapshot
    # table asks, the point repeated into a contiguous stack
    _assert_grad_rows_bytes(p, np.arange(p.n), np.broadcast_to(X[0], (p.n, kd)))
    _assert_grad_rows_bytes(p, np.arange(p.n), np.repeat(X[:1], p.n, axis=0))


@pytest.mark.parametrize("ridge", [0.0, 0.1])
@pytest.mark.parametrize("d", [1, 3, 8, 50, 200])
def test_grad_rows_logistic_bytes_equal_unchecked_grad(d, ridge):
    rng = np.random.default_rng(d)
    p = gen_logistic(rng.standard_normal((30, d)), np.where(rng.random(30) < 0.5, -1.0, 1.0),
                     ridge)
    for scale in (0.01, 1.0, 40.0):  # sigmoid near 1/2, moderate, saturated
        for idx in (rng.integers(0, p.n, 60), np.arange(p.n)):
            X = rng.standard_normal((idx.size, d)) * scale
            margins = p.y[idx] * np.einsum("ij,ij->i", p.W[idx], X)
            assert (margins > 0).any() and (margins < 0).any()
            _assert_grad_rows_bytes(p, idx, X)
        _assert_grad_rows_bytes(p, np.arange(p.n), np.repeat(X[:1], p.n, axis=0))


def test_grad_rows_of_every_row_gathers_no_data():
    p = gen_least_squares(0, n=200, d=20, k=20, L=2.0, mu=0.0)  # A holds 640 KB
    X = np.broadcast_to(np.ones(p.d), (p.n, p.d))
    p.grad_rows(np.arange(p.n), X)  # warm-up
    tracemalloc.start()
    try:
        p.grad_rows(np.arange(p.n), X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.A.nbytes / 4


@pytest.mark.parametrize("d", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 5, 300])
def test_ordered_sum_of_a_stack_equals_each_table(n, d):
    rng = np.random.default_rng(n * d)
    stack = rng.standard_normal((6, n, d)) * 10.0 ** rng.integers(-8, 17, size=(6, n, d))
    stack[rng.random(stack.shape) < 0.2] = -0.0
    for tables in (stack, np.asfortranarray(stack)):
        sums, means = ordered_sum(tables), ordered_mean(tables)
        assert sums.shape == means.shape == (6, d)
        for table, s, m in zip(stack, sums, means):
            assert s.tobytes() == ordered_sum(table).tobytes() == _left_to_right(table).tobytes()
            assert m.tobytes() == ordered_mean(table).tobytes()


def test_gram_pair_is_computed_once():
    p = gen_least_squares(2, n=5, d=3, k=4, L=2.0, mu=0.0)
    H, g = p.gram
    assert p.gram[0] is H and p.gram[1] is g
    assert not (H.flags.writeable or g.flags.writeable)
    np.testing.assert_allclose(H, sum(a.T @ a for a in p.A) / p.n, rtol=1e-12)
    np.testing.assert_allclose(g, sum(a.T @ b for a, b in zip(p.A, p.b)) / p.n, rtol=1e-12)


def test_validate_permutation():
    assert np.array_equal(validate_permutation([2, 0, 1], 3), np.array([2, 0, 1]))
    with pytest.raises(ValueError):
        validate_permutation([0, 0, 1], 3)
    with pytest.raises(ValueError):
        validate_permutation([0, 1], 3)
    # a float, bool or string order is refused, not cast to a permutation
    for bad in ([0.9, 1.9, 2.9], np.array([1, 0, 1], dtype=bool), ["1", "0", "2"]):
        with pytest.raises(ValueError, match="an order must hold integers"):
            validate_permutation(bad, 3)


ALPHA_RULE, INF_RULE, THETA_RULE = ("alpha must be positive", "alpha must be positive and finite, got inf",
                                    "theta must lie in (0, 1]")
RULE_P = gen_least_squares(5, n=4, d=2, k=2, L=2.0, mu=0.5)
RULE_Z, RULE_X = np.zeros((4, 2)), np.zeros(2)
RULE_PLAN = SamplingPlan("cyclic", 4, order=np.arange(4))
# every entry point but the two epochs (tests/test_engine.py), as f(alpha, theta)
STEP_ENTRY_POINTS = {
    "DampedRunConfig": lambda a, t: DampedRunConfig(a, t, 1, RULE_PLAN),
    "apply_Ti": lambda a, t: apply_Ti(RULE_P, 0, RULE_Z, a),
    "apply_Tpi": lambda a, t: apply_Tpi(RULE_P, range(4), RULE_Z, a),
    "apply_Spi": lambda a, t: apply_Spi(RULE_P, range(4), RULE_Z, a, t),
    "prox": lambda a, t: prox(Regularizer.l1(0.1), a, RULE_X),
    "grad_map_residual": lambda a, t: grad_map_residual(RULE_P, RULE_X, a),
    "zstar_table": lambda a, t: zstar_table(RULE_P, RULE_X, a),
    "gen_heterogeneous": lambda a, t: gen_heterogeneous(0, 4, 2, 2, 0.5, 2.0, a, 0.5, RULE_Z),
    "expected_contraction": lambda a, t: expected_contraction(RULE_P, RULE_Z, RULE_Z, a),
    "prox_gd_run": lambda a, t: baselines.prox_gd_run(RULE_P, a, 1, RULE_X),
    "sgd_run": lambda a, t: baselines.sgd_run(RULE_P, RULE_PLAN, a, 1, RULE_X),
    "svrg_run": lambda a, t: baselines.svrg_run(RULE_P, RULE_PLAN, a, 1, RULE_X),
    "saga_run": lambda a, t: baselines.saga_run(RULE_P, RULE_PLAN, a, 1, RULE_X),
}
TAKES_THETA = ("DampedRunConfig", "apply_Spi")
RULE_CASES = [(name, alpha, 0.5, INF_RULE if alpha == math.inf else ALPHA_RULE)
              for name in STEP_ENTRY_POINTS for alpha in (0.0, -1.0, math.nan, math.inf)]
RULE_CASES += [(name, 0.5, theta, THETA_RULE) for name in TAKES_THETA for theta in (0.0, 1.5, math.nan)]


@pytest.mark.parametrize("name, alpha, theta, message", RULE_CASES,
                         ids=[f"{c[0]}-alpha={c[1]}-theta={c[2]}" for c in RULE_CASES])
def test_entry_points_reject_bad_step_and_damping(name, alpha, theta, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        STEP_ENTRY_POINTS[name](alpha, theta)


def test_entry_points_accept_the_rule_edges():
    check_step(1e308, 1.0)
    check_step(5e-324, 1e-300)
    for name, call in STEP_ENTRY_POINTS.items():
        call(0.25, 1.0 if name in TAKES_THETA else 0.5)


def test_step_rule_messages_are_raised_only_in_model_check_step():
    # a second copy of the rule, anywhere in the package, fails this test
    raisers = set()
    for path in sorted(pathlib.Path(model.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Raise) and node.exc is not None:
                        text = ast.unparse(node.exc)
                        raisers |= {(path.name, func.name, rule) for rule in (ALPHA_RULE, THETA_RULE)
                                    if rule in text}
    assert raisers == {("model.py", "check_step", ALPHA_RULE), ("model.py", "check_step", THETA_RULE)}
