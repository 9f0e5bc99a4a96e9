import ast
import itertools
import math
import pathlib

import numpy as np
import pytest

from dfinito import diagnostics
from dfinito.diagnostics import (
    CSV_COLUMNS,
    TraceRecord,
    bound_convex,
    bound_strongly_convex,
    grad_map_residual,
    pi_norm_sq,
    rho_ratio,
    table_norm_sq,
)
from dfinito.model import Regularizer, ordered_mean
from dfinito.oracle import solve_reference, zstar_table
from dfinito.problems import gen_least_squares


def test_pi_norm_unit_blocks():
    # n=3, all blocks unit norm: (1 + 2 + 3)/3 = 2 for any permutation
    z = np.eye(3)
    for perm in itertools.permutations(range(3)):
        assert pi_norm_sq(z, list(perm)) == pytest.approx(2.0)


def test_pi_norm_hand_value_against_brute_force():
    # blocks with squared norms (9, 1, 4); the order placing block 0 first,
    # block 2 second, block 1 third gives (1*9 + 2*4 + 3*1)/3 = 20/3
    z = np.array([[3.0], [1.0], [2.0]])
    order = [0, 2, 1]
    got = pi_norm_sq(z, order)
    weights = np.array([1, 2, 3]) / 3
    brute = float(weights @ np.array([9.0, 4.0, 1.0]))
    assert got == pytest.approx(20.0 / 3.0)
    assert got == pytest.approx(brute)


def test_pi_norm_sandwich():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        z = rng.standard_normal((n, 3))
        order = rng.permutation(n)
        val = pi_norm_sq(z, order)
        full = table_norm_sq(z)
        assert full / n - 1e-12 <= val <= full + 1e-12


def test_pi_norm_validation():
    with pytest.raises(ValueError):
        pi_norm_sq(np.zeros(3), [0, 1, 2])
    with pytest.raises(ValueError):
        pi_norm_sq(np.zeros((3, 2)), [0, 0, 1])
    with pytest.raises(ValueError):
        pi_norm_sq(np.zeros((4, 3, 2)), [0, 0, 1])
    with pytest.raises(ValueError):
        pi_norm_sq(np.zeros((1, 4, 3, 2)), [0, 1, 2])


@pytest.mark.parametrize("n, d", [(1, 1), (5, 3), (7, 4)])
def test_pi_norm_of_a_stack_equals_each_table_and_checks_the_order_once(n, d, monkeypatch):
    rng = np.random.default_rng(n * d)
    stack = rng.standard_normal((6, n, d)) * 10.0 ** rng.integers(-8, 9, size=(6, n, 1))
    order = rng.permutation(n)
    want = [pi_norm_sq(table.copy(), order) for table in stack]
    checked = []
    validate = diagnostics.validate_permutation
    monkeypatch.setattr(diagnostics, "validate_permutation",
                        lambda o, m: checked.append(m) or validate(o, m))
    got = pi_norm_sq(stack, order)
    assert checked == [n] and got.shape == (6,)
    assert got.tobytes() == np.array(want).tobytes()


def test_rho_ratio_equal_norms_and_degenerate():
    n = 7
    z0 = np.ones((n, 2))
    zstar = np.zeros((n, 2))
    rho = rho_ratio(z0, zstar, np.arange(n))
    assert rho == pytest.approx((n + 1) / (2 * n))
    assert rho_ratio(np.ones((1, 2)), np.zeros((1, 2)), [0]) == pytest.approx(1.0)
    with pytest.raises(ZeroDivisionError):
        rho_ratio(z0, z0, np.arange(n))


def test_grad_map_residual_zero_at_reference():
    p = gen_least_squares(0, n=6, d=4, k=5, L=3.0, mu=0.3,
                          regularizer=Regularizer.l1(0.05))
    alpha = 1.0 / p.L
    xstar = solve_reference(p, tol=1e-13)
    zstar = zstar_table(p, xstar, alpha)
    true_min, certified = grad_map_residual(p, ordered_mean(zstar), alpha)
    assert true_min <= 1e-12
    assert certified <= 1e-12


def test_grad_map_residual_ordering():
    p = gen_least_squares(1, n=5, d=3, k=4, L=2.0, mu=0.0,
                          regularizer=Regularizer.l1(0.2))
    rng = np.random.default_rng(2)
    for _ in range(50):
        zbar = rng.standard_normal(3) * 2
        true_min, certified = grad_map_residual(p, zbar, 0.5)
        assert 0.0 <= true_min <= certified * (1 + 1e-12) + 1e-15


def test_bound_convex_n1_constant():
    z0 = np.array([[2.0, 0.0]])
    zstar = np.zeros((1, 2))
    alpha, theta, L = 0.5, 0.5, 2.0
    got = bound_convex(0, alpha, theta, L, 1, z0, zstar, "cyclic", order=[0])
    # C = (2/(alpha L))^2 * (ln 1 + 1)/1 * ||z0 - z*||^2; envelope C L^2 / (theta(1-theta))
    C = (2.0 / (alpha * L)) ** 2 * 1.0 * 4.0
    assert got == pytest.approx(C * L**2 / (0.25))


def test_bound_constants_by_regime():
    n, d = 4, 2
    rng = np.random.default_rng(3)
    z0 = rng.standard_normal((n, d))
    zstar = rng.standard_normal((n, d))
    alpha, theta, L = 0.4, 0.5, 5.0
    diff = z0 - zstar
    logn = math.log(n) + 1
    base = (2.0 / (alpha * L)) ** 2
    order = [2, 0, 3, 1]
    want_cyc = base * logn / n * pi_norm_sq(diff, order)
    want_rr = (5.0 / (3 * alpha * L)) ** 2 / n * table_norm_sq(diff)
    want_so = base * (n + 1) * logn / (2 * n**2) * table_norm_sq(diff)
    k = 3
    scale = L**2 / ((k + 1) * theta * (1 - theta))
    assert bound_convex(k, alpha, theta, L, n, z0, zstar, "cyclic", order) == pytest.approx(want_cyc * scale)
    assert bound_convex(k, alpha, theta, L, n, z0, zstar, "reshuffle") == pytest.approx(want_rr * scale)
    assert bound_convex(k, alpha, theta, L, n, z0, zstar, "shuffle_once") == pytest.approx(want_so * scale)


def test_bound_validation():
    z = np.zeros((2, 1))
    z2 = np.ones((2, 1))
    with pytest.raises(ValueError):
        bound_convex(0, 0.1, 1.0, 1.0, 2, z2, z, "reshuffle")  # theta = 1
    with pytest.raises(ValueError):
        bound_convex(0, 3.0, 0.5, 1.0, 2, z2, z, "reshuffle")  # alpha > 2/L
    with pytest.raises(ValueError):
        bound_convex(0, 0.1, 0.5, 1.0, 2, z2, z, "uniform")
    with pytest.raises(ValueError):
        bound_convex(0, 0.1, 0.5, 1.0, 2, z2, z, "cyclic")  # order missing
    with pytest.raises(ValueError):
        bound_strongly_convex(0, 0.1, 0.5, 1.0, 0.0, 2, z2, z, "reshuffle")  # mu = 0
    with pytest.raises(ValueError):
        bound_strongly_convex(0, 3.0, 0.5, 1.0, 0.5, 2, z2, z, "reshuffle")
    with pytest.raises(ValueError, match="theta <= 1"):
        bound_strongly_convex(0, 0.1, 1.5, 1.0, 0.5, 2, z2, z, "reshuffle")


def test_bound_strongly_convex_rate():
    n = 3
    z0 = np.ones((n, 1))
    zstar = np.zeros((n, 1))
    L, mu, alpha, theta = 2.0, 0.5, 2.0 / 2.5, 1.0
    rate = 1 - 2 * theta * alpha * mu * L / (mu + L)
    b0 = bound_strongly_convex(0, alpha, theta, L, mu, n, z0, zstar, "reshuffle")
    b5 = bound_strongly_convex(5, alpha, theta, L, mu, n, z0, zstar, "reshuffle")
    assert b5 == pytest.approx(b0 * rate**5)
    assert b0 == pytest.approx(table_norm_sq(z0) / n)


def _hypothesis_sites(text):
    """(function, form) for each ``mu + L`` sum (the step edge and the rate), each
    ``2 / L`` quotient and each strict chained comparison of ``L`` and ``mu`` (the
    ``L > mu > 0`` form, written either way) in ``text``; an operand counts by its name
    or attribute."""
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    sites = set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Add) and {name(node.left), name(node.right)} == {"mu", "L"}:
                sites.add((func, "mu + L"))
            if isinstance(node.op, ast.Div) and getattr(node.left, "value", None) == 2 \
                    and name(node.right) == "L":
                sites.add((func, "2 / L"))
        if isinstance(node, ast.Compare) and len(node.ops) > 1 \
                and all(isinstance(op, (ast.Gt, ast.Lt)) for op in node.ops) \
                and {"mu", "L"} <= {name(side) for side in (node.left, *node.comparators)}:
            sites.add((func, "L > mu > 0"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(text), None)
    return sites


def test_the_hypothesis_check_sees_each_form():
    text = ("def f(p, L):\n    return 2.0 / (p.mu + L), 2 / L, 2.0 / p.L\n"
            "def g(args):\n    return args.L + args.mu, 2.0 / args.L + 1.0\n"
            "def h(L, mu):\n    return L + L, mu * L, 2.0 / (alpha * L), 1.0 / L\n"
            "def k(p, L, mu):\n    return p.L > p.mu > 0, 0 < mu < L\n"
            "def m(L, mu):\n    return 0.0 <= mu <= L, L > mu, mu > 0, L > 1.0 > 0\n")
    assert _hypothesis_sites(text) == {("f", "mu + L"), ("f", "2 / L"), ("g", "mu + L"),
                                       ("g", "2 / L"), ("k", "L > mu > 0")}


def test_step_edge_and_rate_are_written_only_in_diagnostics():
    # a second copy of 2/(mu+L), 2/L, the rate's mu+L or the "theory" step's L > mu > 0,
    # anywhere in the package, fails; certify writes the rate 1 - 2 theta alpha mu L/(mu+L)
    # once, and gen_heterogeneous's 0 < mu < L is its planted construction's input range
    sites = set()
    for path in sorted(pathlib.Path(diagnostics.__file__).parent.glob("*.py")):
        sites |= {(path.name, *site) for site in _hypothesis_sites(path.read_text("utf-8"))}
    assert sites == {("diagnostics.py", "certified_step", "mu + L"),
                     ("diagnostics.py", "certify", "mu + L"),
                     ("baselines.py", "theoretical_step_size", "L > mu > 0"),
                     ("problems.py", "gen_heterogeneous", "L > mu > 0")}
    for L in (1e-300, 0.362, 20.5, 4.0, 1e300):
        assert diagnostics.certified_step(L) == diagnostics.certified_step(L, 0.0) == 2.0 / L


def test_trace_record_row_format():
    rec = TraceRecord(epoch=2, grad_evals=20, grad_map_residual_sq=0.5,
                      prox_residual_sq=None, flags="f")
    row = rec.to_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[0] == "2" and row[1] == "20"
    assert row[2] == repr(0.5)
    assert row[3] == ""
    assert row[-1] == "f"
