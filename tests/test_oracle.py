import dataclasses
import itertools
import math

import numpy as np
import pytest

from dfinito import engine, verify
from dfinito.engine import apply_Tpi
from dfinito.model import ProblemInstance, Regularizer, ordered_mean, prox, prox_map, subgradient_residual
from dfinito.oracle import (
    brute_force_best_order,
    expected_contraction,
    solve_reference,
    zstar_table,
)
from dfinito.problems import gen_heterogeneous, gen_least_squares, gen_logistic
from dfinito.sampling import optimal_cyclic_order


def _scalar_ls(a_vals, b_vals):
    """1-d least squares components f_i(x) = 0.5 (a_i x - b_i)^2."""
    a = np.asarray(a_vals, dtype=np.float64)
    b = np.asarray(b_vals, dtype=np.float64)
    n = a.size
    return ProblemInstance(
        kind="least_squares", n=n, d=1, regularizer=Regularizer.none(),
        L=float(np.max(a**2)), mu=float(np.min(a**2)),
        A=a.reshape(n, 1, 1), b=b.reshape(n, 1),
    )


def test_solve_reference_1d_shifted_quadratic():
    p = _scalar_ls([1.0], [3.0])  # f(x) = 0.5 (x - 3)^2
    assert solve_reference(p, tol=1e-12)[0] == pytest.approx(3.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_reference(p, tol=0.0)


def test_solve_reference_ridge_pulls_to_zero():
    p = ProblemInstance(
        kind="least_squares", n=1, d=1, regularizer=Regularizer.l2sq(1.0),
        L=1.0, mu=1.0, A=np.ones((1, 1, 1)), b=np.zeros((1, 1)),
    )
    assert abs(solve_reference(p, tol=1e-12)[0]) <= 1e-12


def test_solve_reference_iterative_matches_closed_form():
    p = gen_least_squares(0, n=5, d=3, k=4, L=2.0, mu=0.4)
    closed = solve_reference(p, tol=1e-12)
    # force the iterative path with an l1 regularizer of weight zero
    p_l1 = ProblemInstance(kind="least_squares", n=p.n, d=p.d,
                           regularizer=Regularizer.l1(0.0), L=p.L, mu=p.mu,
                           A=p.A, b=p.b)
    iterative = solve_reference(p_l1, tol=1e-11)
    assert np.linalg.norm(closed - iterative) <= 1e-8


def test_solve_reference_heterogeneous_returns_planted(tmp_path):
    n, d = 30, 4
    z0 = np.random.default_rng(0).standard_normal((n, d))
    p, cert = gen_heterogeneous(1, n, d, k=d, mu=0.2, L=4.0, alpha=0.3,
                                beta=0.2, z0=z0)
    assert np.linalg.norm(solve_reference(p, tol=1e-12) - cert.v) <= 1e-8


def test_zstar_table_hand_example():
    # components 0.5 x^2 and 0.5 (x - 2)^2: x* = 1, z* = (0.5, 1.5)
    p = _scalar_ls([1.0, 1.0], [0.0, 2.0])
    xstar = solve_reference(p, tol=1e-13)
    assert xstar[0] == pytest.approx(1.0)
    z = zstar_table(p, xstar, 0.5)
    assert np.allclose(z.ravel(), [0.5, 1.5])
    assert ordered_mean(z)[0] == pytest.approx(1.0)  # mean(z*) = x* when r = 0


def test_zstar_table_zero_gradient_components():
    p = _scalar_ls([1.0, 1.0], [1.0, 1.0])  # both minimized at x = 1
    z = zstar_table(p, np.array([1.0]), 0.7)
    assert np.allclose(z, 1.0)


def test_zstar_prox_recovery_for_l1():
    p = gen_least_squares(1, n=6, d=4, k=5, L=3.0, mu=0.2,
                          regularizer=Regularizer.l1(0.1))
    alpha = 1.0 / p.L
    xstar = solve_reference(p, tol=1e-12)
    z = zstar_table(p, xstar, alpha)
    assert np.linalg.norm(prox(p.regularizer, alpha, ordered_mean(z)) - xstar) <= 1e-10


def test_brute_force_hand_example():
    perm, val = brute_force_best_order([9.0, 1.0, 4.0])
    assert np.array_equal(perm, [0, 2, 1])
    assert val == pytest.approx(20.0 / 3.0)


def test_brute_force_equal_scores_tie():
    perm, val = brute_force_best_order(np.ones(3))
    assert np.array_equal(perm, [0, 1, 2])  # lexicographically smallest
    assert val == pytest.approx(2.0)


def test_brute_force_guard():
    with pytest.raises(ValueError, match="guarded at n <= 8"):
        brute_force_best_order(np.ones(9))
    with pytest.raises(ValueError, match="scores must be non-empty"):
        brute_force_best_order([])


def _brute_force_loop(scores):
    """The ordering oracle as one Python iteration per permutation."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    weights = np.arange(1, n + 1) / n
    best_perm, best_val = None, math.inf
    for perm in itertools.permutations(range(n)):
        val = float(weights @ scores[list(perm)])
        if val < best_val:
            best_perm, best_val = perm, val
    return np.asarray(best_perm, dtype=np.int64), best_val


SCORE_FAMILIES = {
    "random": lambda rng, n: rng.random(n) * 5,
    "all_equal": lambda rng, n: np.full(n, 0.1),
    "repeated": lambda rng, n: rng.choice([0.1, 0.2, 1 / 3], n),
    "negative": lambda rng, n: -rng.random(n) - rng.choice([0.0, 0.3], n),
    "spread_1e-8_1e8": lambda rng, n: rng.random(n) * 10.0 ** rng.uniform(-8, 8, n),
    "signed_zero": lambda rng, n: rng.choice([0.0, -0.0, 1e-300, 2.0], n),
    "ulps_apart": lambda rng, n: _ulps_apart(rng.choice([0.1, 0.3, 1 / 3, 0.7], n), rng),
}


def _ulps_apart(base, rng):
    """Near-ties: a batched and a one-by-one dot may round their order apart."""
    return base + rng.integers(0, 4, base.size) * np.spacing(base)


@pytest.mark.parametrize("family", sorted(SCORE_FAMILIES))
@pytest.mark.parametrize("n", range(1, 9))
def test_brute_force_equals_permutation_loop(n, family):
    rng = np.random.default_rng(30 + n)
    for _ in range(4 if n < 8 else 1):
        scores = SCORE_FAMILIES[family](rng, n)
        perm, val = brute_force_best_order(scores)
        want_perm, want_val = _brute_force_loop(scores)
        assert np.array_equal(perm, want_perm) and perm.dtype == want_perm.dtype
        assert val == want_val and math.copysign(1.0, val) == math.copysign(1.0, want_val)


@pytest.mark.parametrize("scores, message", [
    ([math.nan, 1.0], "NaN or infinite"),
    ([math.inf, 1.0], "NaN or infinite"),
    ([1.0, -math.inf], "NaN or infinite"),
    (np.ones((2, 2)), r"1-d array, got shape \(2, 2\)"),
    (1.0, r"1-d array, got shape \(\)"),
    (np.full(3, 1.7e308), "no order has a finite value"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_brute_force_rejects_bad_scores(scores, message):
    with pytest.raises(ValueError, match=message):
        brute_force_best_order(scores)


def test_brute_force_agrees_with_fast_order():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        scores = rng.random(n) * 5
        slow, slow_val = brute_force_best_order(scores)
        fast = optimal_cyclic_order(scores)
        assert np.array_equal(slow, fast)
        weights = np.arange(1, n + 1) / n
        assert float(weights @ scores[fast]) == pytest.approx(slow_val)


def test_expected_contraction_zero_on_equal_inputs():
    p = gen_least_squares(3, n=4, d=3, k=3, L=2.0, mu=0.0)
    u = np.random.default_rng(4).standard_normal((4, 3))
    assert expected_contraction(p, u, u, 0.5) == pytest.approx(0.0, abs=1e-24)


def test_expected_contraction_nonexpansive_small():
    p = gen_least_squares(4, n=4, d=3, k=3, L=2.0, mu=0.0,
                          regularizer=Regularizer.l1(0.05))
    rng = np.random.default_rng(5)
    assert verify.expected_contraction_ratio(p, 2.0 / p.L, 1.0, 20, rng) <= 1 + 1e-10


def test_expected_contraction_strongly_convex_rate():
    p = gen_least_squares(5, n=4, d=3, k=3, L=2.0, mu=0.5)
    alpha = 2.0 / (p.mu + p.L)
    rate = 1 - 2 * alpha * p.mu * p.L / (p.mu + p.L)
    rng = np.random.default_rng(6)
    assert verify.expected_contraction_ratio(p, alpha, rate, 20, rng) <= 1 + 1e-10


def test_expected_contraction_guard():
    p = gen_least_squares(6, n=7, d=2, k=2, L=1.0, mu=0.0)
    with pytest.raises(ValueError):
        expected_contraction(p, np.zeros((7, 2)), np.zeros((7, 2)), 0.5)


def _permutation_loop(p, u, v, alpha):
    """The exact expectation as one apply_Tpi pair per permutation."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if p.n > 6:
        raise ValueError("exact expectation is guarded at n <= 6")
    total = 0.0
    count = 0
    for perm in itertools.permutations(range(p.n)):
        du = apply_Tpi(p, perm, u, alpha) - apply_Tpi(p, perm, v, alpha)
        total += float(np.sum(du * du))
        count += 1
    return total / count


def _quadratics(n, d, rng, reg):
    """f_i(x) = (c_i / 2) ||x - a_i||^2, built as least squares with A_i = sqrt(c_i) I
    and b_i = sqrt(c_i) a_i."""
    c = rng.uniform(0.5, 2.0, size=n)
    a = rng.standard_normal((n, d))
    root = np.sqrt(c)
    return ProblemInstance(kind="least_squares", n=n, d=d, regularizer=reg,
                           L=float(c.max()), mu=float(c.min()),
                           A=root[:, None, None] * np.eye(d), b=root[:, None] * a)


def _oracle_case(case, rng):
    if case == "least_squares_l1_n5":
        return gen_least_squares(1, n=5, d=3, k=5, L=2.0, mu=0.0,
                                 regularizer=Regularizer.l1(0.05))
    if case == "logistic_n4":
        W = rng.standard_normal((4, 3))
        return gen_logistic(W, np.where(rng.random(4) < 0.5, -1.0, 1.0), 0.2)
    n = 3 if case == "least_squares_l2sq_n3" else 1
    return _quadratics(n, 2, rng, Regularizer.l2sq(0.3) if n == 3 else Regularizer.l1(0.1))


@pytest.mark.parametrize("case", ["least_squares_l1_n5", "logistic_n4", "least_squares_l2sq_n3",
                                  "least_squares_l1_n1"])
def test_expected_contraction_equals_permutation_loop_bitwise(case):
    rng = np.random.default_rng(11)
    p = _oracle_case(case, rng)
    for scale in (0.1, 1.0, 10.0):
        for alpha in (1.0 / p.L, 2.0 / p.L):
            u = rng.standard_normal((p.n, p.d)) * scale
            v = rng.standard_normal((p.n, p.d)) * scale
            assert expected_contraction(p, u, v, alpha) == _permutation_loop(p, u, v, alpha)


def test_expected_contraction_applies_each_prefix_once(monkeypatch):
    p = gen_least_squares(1, n=5, d=3, k=5, L=2.0, mu=0.0, regularizer=Regularizer.l1(0.05))
    rng = np.random.default_rng(12)
    u, v = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    rows = []
    grad_rows = ProblemInstance.grad_rows

    def counted(self, idx, X):
        rows.extend(np.asarray(idx).tolist())
        return grad_rows(self, idx, X)

    monkeypatch.setattr(ProblemInstance, "grad_rows", counted)
    expected_contraction(p, u, v, 1.0)
    per_table = sum(math.perm(5, j) for j in range(1, 6))
    assert per_table == 325  # one application per node of the permutation tree
    assert len(rows) == 2 * per_table
    rows.clear()
    _permutation_loop(p, u, v, 1.0)
    assert len(rows) == 2 * 5 * math.factorial(5)


def test_expected_contraction_takes_one_prox_per_tree_node(monkeypatch):
    p = gen_least_squares(1, n=5, d=3, k=5, L=2.0, mu=0.0, regularizer=Regularizer.l1(0.05))
    rng = np.random.default_rng(12)
    u, v = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    rows = []
    prox_map = engine.prox_map

    def counted_map(r, alpha):
        px = prox_map(r, alpha)

        def counted(means):
            rows.append(len(means))  # one prox per table of the stack
            return px(means)
        return counted

    monkeypatch.setattr(engine, "prox_map", counted_map)
    expected_contraction(p, u, v, 1.0)
    inner_nodes = sum(math.perm(5, j) for j in range(5))
    assert inner_nodes == 206  # the root and every node with a child
    assert sum(rows) == 2 * inner_nodes
    assert len(rows) == 2 * 5  # one stacked step per tree depth and table


def _recursive_walk(p, u, v, alpha):
    """The exact expectation as the depth-first walk of the permutation tree,
    one node (a prefix, and one prox per node) at a time."""
    grad = p.unchecked_grad()
    px = prox_map(p.regularizer, alpha)
    total = 0.0
    count = 0

    def walk(tu, tv, left):
        nonlocal total, count
        if not left:
            du = engine._finite_table(tu) - engine._finite_table(tv)
            total += float(np.sum(du * du))
            count += 1
            return
        xu = px(ordered_mean(tu))
        xv = px(ordered_mean(tv))
        for j in left:
            cu, cv = tu.copy(), tv.copy()
            cu[j] = xu - alpha * grad(j, xu)
            cv[j] = xv - alpha * grad(j, xv)
            walk(cu, cv, [k for k in left if k != j])

    walk(np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64), list(range(p.n)))
    return total / count


@pytest.mark.parametrize("kind", ["least_squares", "logistic"])
@pytest.mark.parametrize("reg", ["none", "l1", "l2sq"])
@pytest.mark.parametrize("n", range(1, 7))
def test_expected_contraction_equals_recursive_walk_bitwise(n, reg, kind):
    rng = np.random.default_rng(100 * n + len(reg))
    regularizer = Regularizer(reg, 0.0 if reg == "none" else 0.1)
    d = 1 + n % 4  # d = 1 takes the row-loop mean
    if kind == "least_squares":
        p = gen_least_squares(n, n=n, d=d, k=d + 1, L=2.0, mu=0.0, regularizer=regularizer)
    else:
        W = rng.standard_normal((n, d))
        p = dataclasses.replace(
            gen_logistic(W, np.where(rng.random(n) < 0.5, -1.0, 1.0), 0.1),
            regularizer=regularizer)
    for scale in (0.1, 10.0):
        u = rng.standard_normal((n, d)) * scale
        v = rng.standard_normal((n, d)) * scale
        alpha = 1.5 / p.L
        assert expected_contraction(p, u, v, alpha) == _recursive_walk(p, u, v, alpha)


def test_logistic_reference_residual():
    rng = np.random.default_rng(7)
    W = rng.standard_normal((20, 4))
    y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
    p = gen_logistic(W, y, 0.3)
    xstar = solve_reference(p, tol=1e-10)
    assert float(np.linalg.norm(p.full_grad(xstar))) <= 1e-9


def _two_gradient_solve(p, tol):
    """Prox-GD evaluating the full gradient twice per iteration at the same x."""
    alpha = 1.0 / p.L
    x = np.zeros(p.d)
    for _ in range(100_000):
        x = prox(p.regularizer, alpha, x - alpha * p.full_grad(x))
        if subgradient_residual(p.regularizer, x, p.full_grad(x)) <= tol * tol:
            return x
    raise AssertionError("no convergence")


def test_solve_reference_one_gradient_per_iteration(monkeypatch):
    rng = np.random.default_rng(4)
    W = rng.standard_normal((30, 5))
    y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
    ls_l1 = gen_least_squares(1, n=12, d=5, k=5, L=4.0, mu=0.2,
                              regularizer=Regularizer.l1(0.05))
    calls = []
    full_grad = ProblemInstance.full_grad

    def counted(self, x):
        calls.append(1)
        return full_grad(self, x)

    monkeypatch.setattr(ProblemInstance, "full_grad", counted)
    for p in (ls_l1, gen_logistic(W, y, 0.1)):
        calls.clear()
        want = _two_gradient_solve(p, 1e-10)
        two_per_iteration = len(calls)
        calls.clear()
        assert np.array_equal(solve_reference(p, tol=1e-10), want)
        assert len(calls) == two_per_iteration // 2 + 1
