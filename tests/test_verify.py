import numpy as np
import pytest

from dfinito import engine, problems, verify
from dfinito.checks import check_leq
from dfinito.diagnostics import pi_norm_sq
from dfinito.model import MemoryState, Regularizer

SEED0_CHECKS = [
    "fixed_point_blockwise", "fixed_point_x_recovery",
    "epoch_operator_nonexpansive_pi_norm", "epoch_operator_nonexpansive_expectation",
    "damped_epoch_operator_contracts",
    "convex_envelope_cyclic", "convex_envelope_reshuffle_mean",
    "strongly_convex_envelope_cyclic",
    "epoch_displacement_nonincreasing", "epoch_displacement_sublinear",
    "optimal_order_matches_brute_force",
    "component_spectra_within_[mu,L]", "full_gradient_zero_at_minimizer",
    "direction_norms_sqrt_n", "residual_vectors_solve_construction",
    "importance_profile_geometric", "norm_ratio_matches_exact_sum",
    "planted_optimal_order_is_identity",
    "literal_vs_efficient_epoch", "undamped_epoch_equals_operator",
    "step_size_dfinito_rr", "step_size_dfinito_cyclic", "step_size_svrg_rr",
    "step_size_svrg_cyclic", "step_size_saga_rr", "step_size_saga_cyclic",
]


def test_all_suites_pass_default_seed():
    results = verify.run_suites(seed=0)
    assert [r.name for r in results] == SEED0_CHECKS
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures
    for name in ("operators", "bounds", "ordering", "equivalence", "steps"):
        assert verify.SUITES[name] is getattr(verify, f"suite_{name}")


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        verify.run_suites(["nonexistent"])


def test_suite_filter_runs_only_selected():
    results = verify.run_suites(["steps"])
    assert all(r.name.startswith("step_size_") for r in results)


def test_checkresult_line_format():
    from dfinito.checks import check_leq
    ok = check_leq("thing", 0.5, 1.0)
    bad = check_leq("thing", 2.0, 1.0)
    assert ok.line().startswith("PASS thing")
    assert bad.line().startswith("FAIL thing")


def test_fault_injection_large_step_breaks_nonexpansiveness():
    # with alpha = 3/L the epoch operator expands along the top eigendirection
    # by a factor (1 - alpha*L)^2 = 4, so the alpha <= 2/L certificate is sharp
    p = problems.gen_least_squares(0, n=1, d=4, k=5, L=4.0, mu=0.0)
    alpha = 3.0 / p.L
    order = np.arange(p.n)
    hess = p.A[0].T @ p.A[0]
    _, vecs = np.linalg.eigh(hess)
    top = vecs[:, -1]
    v = np.zeros((1, p.d))
    u = v + top[None, :]
    num = pi_norm_sq(engine.apply_Tpi(p, order, u, alpha)
                     - engine.apply_Tpi(p, order, v, alpha), order)
    den = pi_norm_sq(u - v, order)
    assert num > den * (1 + 1e-10)
    assert num / den == pytest.approx(4.0, rel=1e-10)
    # the shared check finds the expansion from random pairs, never above 4
    ratio = verify.pi_norm_ratio(p, [alpha], 1.0, 1.0, 20, np.random.default_rng(0))
    assert 1 + 1e-10 < ratio <= 4.0 * (1 + 1e-10)
    # at d = 1 every direction is the top one, so one random pair reports 4
    p1 = problems.gen_least_squares(0, n=1, d=1, k=5, L=4.0, mu=0.0)
    ratio = verify.pi_norm_ratio(p1, [3.0 / p1.L], 1.0, 1.0, 1, np.random.default_rng(0))
    assert ratio == pytest.approx(4.0, rel=1e-10)


def _reference_pi_norm_ratio(p, alphas, theta, rate, pairs, rng):
    """pi_norm_ratio before the stacked pi-norm: two pi_norm_sq calls per pair."""
    order = np.arange(p.n)
    worst = 0.0
    for alpha in alphas:
        uv = np.array(list(verify._pairs(rng, pairs, p.n, p.d))).reshape(-1, p.n, p.d)
        images = engine.apply_Spi(p, order, uv, alpha, theta)
        for u, v, su, sv in zip(uv[::2], uv[1::2], images[::2], images[1::2]):
            num = pi_norm_sq(su - sv, order)
            worst = np.maximum(worst, num / (rate * pi_norm_sq(u - v, order)))
    return float(worst)


@pytest.mark.parametrize("theta, rate, pairs", [(1.0, 1.0, 30), (0.5, 0.9, 30), (1.0, 1.0, 0)])
def test_pi_norm_ratio_equals_per_pair_reference(theta, rate, pairs):
    p = problems.gen_least_squares(3, n=5, d=3, k=3, L=4.0, mu=0.0,
                                   regularizer=Regularizer.l1(0.1))
    args = (p, [0.5 / p.L, 2.0 / p.L], theta, rate, pairs)
    got = verify.pi_norm_ratio(*args, np.random.default_rng(4))
    assert got == _reference_pi_norm_ratio(*args, np.random.default_rng(4))


def test_fault_injection_large_step_breaks_expected_contraction():
    p = problems.gen_least_squares(0, n=2, d=1, k=2, L=4.0, mu=0.0)
    rng = np.random.default_rng(0)
    assert verify.expected_contraction_ratio(p, 3.0 / p.L, 1.0, 20, rng) > 1 + 1e-10


def test_nan_in_a_later_epoch_stops_literal_lean_check(monkeypatch):
    # a lean epoch that turns the table into NaN from its second epoch on;
    # prox rejects the non-finite mean, so the check cannot pass
    p = problems.gen_least_squares(0, n=4, d=3, k=3, L=2.0, mu=0.0)
    alpha, theta = 1.0 / p.L, 0.5
    real, calls = engine.epoch_step_efficient, []

    def broken(p, state, order, theta):
        calls.append(order)
        state = real(p, state, order, theta)
        if len(calls) < 2:
            return state
        return MemoryState.from_table(np.full_like(state.z, np.nan), alpha, theta)

    monkeypatch.setattr(engine, "epoch_step_efficient", broken)
    z0 = np.random.default_rng(0).standard_normal((p.n, p.d))
    with pytest.raises(ValueError, match="NaN"):
        verify.literal_lean_deviation(p, z0, alpha, theta, [np.arange(p.n)] * 3)
    assert len(calls) == 2


@pytest.mark.parametrize("column", [verify.CONVEX, verify.STRONGLY_CONVEX])
def test_nan_in_a_later_record_fails_envelope_check(column, monkeypatch):
    # the builtin max would keep the finite worst and pass this NaN record
    real = engine.run

    def run_with_nan_record(*args, **kwargs):
        state, trace = real(*args, **kwargs)
        setattr(trace[2], column[0], float("nan"))
        return state, trace

    monkeypatch.setattr(engine, "run", run_with_nan_record)
    p = problems.gen_least_squares(0, n=4, d=3, k=3, L=2.0, mu=0.5)
    alpha = 2.0 / (p.mu + p.L)
    xstar = verify.oracle.solve_reference(p, tol=1e-12)
    reference = (xstar, verify.oracle.zstar_table(p, xstar, alpha))
    worst = verify.envelope_ratio(p, [verify.cyclic_plan(p)], alpha, 0.5, 5,
                                  np.ones((p.n, p.d)), reference, column)
    assert np.isnan(worst)
    assert not check_leq("convex_envelope_cyclic", worst, 1.0).passed
