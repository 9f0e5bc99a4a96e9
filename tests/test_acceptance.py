"""Acceptance gate: twelve end-to-end criteria, one printed PASS/FAIL line each.

Each test prints exactly one line of the form

    PASS criterion_NN_<name> (<measurement>)

and asserts the same condition, so the printed report and the pytest verdict
cannot diverge. Criteria 01-07 and 10 call the property functions of
``dfinito verify`` at larger sizes.
"""
import math

import numpy as np

from dfinito import baselines, engine, oracle, problems, sampling, verify
from dfinito.diagnostics import rho_ratio
from dfinito.engine import DampedRunConfig
from dfinito.model import Regularizer
from dfinito.sampling import SamplingPlan


def _report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _mean(vals):
    return math.fsum(vals) / len(vals)


def test_criterion_01_fixed_point_tables():
    # 20 instances: 5 seeds x {plain, l1, squared-l2} least squares + 5 logistic
    instances = []
    for seed in range(5):
        for reg in (Regularizer.none(), Regularizer.l1(0.05), Regularizer.l2sq(0.1)):
            instances.append(problems.gen_least_squares(
                seed, n=8, d=5, k=5, L=5.0, mu=0.5, regularizer=reg))
    for seed in range(5):
        W, y, lam = problems.make_synthetic_logistic(seed, 30, 8, kappa=50.0)
        instances.append(problems.gen_logistic(W, y, lam))
    assert len(instances) == 20
    worst_block, worst_prox = verify.fixed_point_deviation(instances, tol=1e-11)
    _report("criterion_01_fixed_point_tables",
            worst_block <= 1e-8 and worst_prox <= 1e-8,
            f"max block dev {worst_block:.3e}, max prox dev {worst_prox:.3e}")


def test_criterion_02_cyclic_nonexpansive_pi_norm():
    p = problems.gen_least_squares(0, n=10, d=5, k=5, L=4.0, mu=0.0,
                                   regularizer=Regularizer.l1(0.1))
    alphas = (0.5 / p.L, 1.0 / p.L, 2.0 / p.L)
    worst = verify.pi_norm_ratio(p, alphas, 1.0, 1.0, 1000, np.random.default_rng(2))
    _report("criterion_02_cyclic_nonexpansive_pi_norm", worst <= 1.0 + 1e-10,
            f"max ratio over 3000 pairs = {worst:.15f}")


def test_criterion_03_expected_epoch_contraction():
    rng = np.random.default_rng(3)
    # nonexpansiveness on a merely convex instance at alpha = 2/L
    p_cvx = problems.gen_least_squares(3, n=5, d=4, k=4, L=2.0, mu=0.0,
                                       regularizer=Regularizer.l1(0.05))
    worst_plain = verify.expected_contraction_ratio(p_cvx, 2.0 / p_cvx.L, 1.0, 200, rng)
    # contraction on a strongly convex instance at alpha = 2/(mu+L)
    p_sc = problems.gen_least_squares(3, n=5, d=4, k=4, L=2.0, mu=0.2)
    alpha = 2.0 / (p_sc.mu + p_sc.L)
    rate = 1.0 - 2.0 * alpha * p_sc.mu * p_sc.L / (p_sc.mu + p_sc.L)
    worst_sc = verify.expected_contraction_ratio(p_sc, alpha, rate, 200, rng)
    _report("criterion_03_expected_epoch_contraction",
            worst_plain <= 1.0 + 1e-10 and worst_sc <= 1.0 + 1e-10,
            f"nonexpansive ratio {worst_plain:.12f}, contraction ratio {worst_sc:.12f}")


def _envelope_ratios(p, alpha, theta, epochs, column):
    """Worst value/envelope from z0 = 0: (cyclic, mean over 8 reshuffle seeds)."""
    xstar = oracle.solve_reference(p)
    z0 = np.zeros((p.n, p.d))
    reshuffled = [SamplingPlan("reshuffle", p.n, seed=seed) for seed in range(8)]
    return [verify.envelope_ratio(p, plans, alpha, theta, epochs, z0, xstar, column)
            for plans in ([verify.cyclic_plan(p)], reshuffled)]


def test_criterion_04_convex_envelopes():
    p = problems.gen_least_squares(4, n=50, d=20, k=20, L=10.0, mu=0.0)
    cyclic, reshuffle = _envelope_ratios(p, 2.0 / p.L, 0.5, 200, verify.CONVEX)
    _report("criterion_04_convex_envelopes", cyclic <= 1.0 and reshuffle <= 1.0,
            f"max residual/bound: cyclic {cyclic:.3g}, reshuffle-mean {reshuffle:.3g}")


def test_criterion_05_strongly_convex_envelopes():
    p = problems.gen_least_squares(5, n=50, d=20, k=20, L=10.0, mu=0.1)  # kappa 100
    alpha = 2.0 / (p.mu + p.L)
    ratios = [_envelope_ratios(p, alpha, theta, 300, verify.STRONGLY_CONVEX)
              for theta in (0.5, 0.9)]
    _report("criterion_05_strongly_convex_envelopes", np.max(ratios) <= 1.0,
            "max dist/bound (cyclic, reshuffle-mean) theta 0.5/0.9: "
            + ", ".join(f"{c:.3g}/{r:.3g}" for c, r in ratios))


def test_criterion_06_order_rule_matches_brute_force():
    rng = np.random.default_rng(6)

    def score_vector(n):
        scores = rng.uniform(0.0, 1.0, size=n)
        return np.round(scores, 1) if rng.integers(0, 4) == 0 else scores  # ties sometimes

    worst = verify.order_rule_deviation([score_vector(n) for n in range(2, 8) for _ in range(100)])
    _report("criterion_06_order_rule_matches_brute_force", worst <= 1e-12,
            f"600 score vectors, argmin identical, max rel value gap {worst:.1e}")


def test_criterion_07_heterogeneous_construction():
    L, mu, beta, n = 10.0, 0.1, 0.1, 500
    alpha = 2.0 / (L + mu)
    z0 = np.random.default_rng(7).standard_normal((n, 20))
    p, cert = problems.gen_heterogeneous(7, n, 20, 20, mu, L, alpha, beta, z0)
    checks = verify.verify_heterogeneous(p, cert, z0, alpha)
    all_pass = all(c.passed for c in checks)
    zstar = cert.zstar(z0)
    diff = z0 - zstar
    scores = np.einsum("ij,ij->i", diff, diff)
    rho = rho_ratio(z0, zstar, sampling.optimal_cyclic_order(scores))
    target = 1.0 / (n * (1.0 - beta))  # = 1/450
    rel = abs(rho - target) / target
    _report("criterion_07_heterogeneous_construction",
            all_pass and rel <= 1e-3,
            f"{len(checks)} construction checks pass, rho rel err {rel:.2e}")


def test_criterion_08_optimal_order_beats_random():
    n, d, L, mu, beta = 200, 50, 100.0, 1e-2, 0.1
    alpha, theta, epochs = 2.0 / (L + mu), 0.5, 30
    z0 = np.random.default_rng(12345).standard_normal((n, d))
    p, cert = problems.gen_heterogeneous(7, n, d, d, mu, L, alpha, beta, z0)
    disp = (math.sqrt(beta) ** np.arange(n))[:, None] * cert.t
    scores = np.einsum("ij,ij->i", disp, disp)

    def final_err(plan):
        cfg = DampedRunConfig(alpha, theta, epochs, plan, trace_every=epochs)
        _, recs = engine.run(p, cfg, z0, cert.v)
        return recs[-1].dist_sq_to_opt

    err_opt = final_err(SamplingPlan("cyclic", n,
                                     order=sampling.optimal_cyclic_order(scores)))
    rand_errs = [final_err(SamplingPlan(
        "cyclic", n, order=np.random.default_rng(s).permutation(n)))
        for s in range(8)]
    err_adaptive = final_err(SamplingPlan("adaptive", n, seed=0, gamma=0.5))
    ratio = err_adaptive / err_opt
    ok = all(err_opt <= e for e in rand_errs) and max(ratio, 1.0 / ratio) <= 2.0
    _report("criterion_08_optimal_order_beats_random", ok,
            f"opt {err_opt:.3e} <= min random {min(rand_errs):.3e}, "
            f"adaptive/opt {ratio:.3f}")


def test_criterion_09_rate_independent_of_sample_size():
    d, L, mu, beta = 20, 10.0, 0.1, 0.1
    alpha, theta, epochs = 2.0 / (L + mu), 0.5, 25

    def decay_exponent(n):
        z0 = np.random.default_rng(100 + n).standard_normal((n, d))
        p, cert = problems.gen_heterogeneous(11, n, d, d, mu, L, alpha, beta, z0)
        disp = (math.sqrt(beta) ** np.arange(n))[:, None] * cert.t
        scores = np.einsum("ij,ij->i", disp, disp)
        plan = SamplingPlan("cyclic", n, order=sampling.optimal_cyclic_order(scores))
        cfg = DampedRunConfig(alpha, theta, epochs, plan, trace_every=epochs)
        _, recs = engine.run(p, cfg, z0, cert.v)
        return -math.log(recs[-1].prox_residual_sq / recs[0].prox_residual_sq) / epochs

    lam_small = decay_exponent(100)
    lam_big = decay_exponent(500)
    ratio = lam_big / lam_small
    _report("criterion_09_rate_independent_of_sample_size",
            0.5 <= ratio <= 2.0,
            f"per-epoch decay exponent ratio n=500/n=100 = {ratio:.3f}")


def test_criterion_10_literal_and_efficient_epochs_agree():
    p = problems.gen_least_squares(10, n=6, d=4, k=4, L=3.0, mu=0.3,
                                   regularizer=Regularizer.l1(0.05))
    alpha, theta = 2.0 / (p.mu + p.L), 0.6
    z0 = np.random.default_rng(10).standard_normal((p.n, p.d))
    plan = SamplingPlan("reshuffle", p.n, seed=0)
    orders = [sampling.epoch_order(plan, k) for k in range(50)]
    worst = verify.literal_lean_deviation(p, z0, alpha, theta, orders)
    _report("criterion_10_literal_and_efficient_epochs_agree", worst <= 1e-12,
            f"max x deviation over 50 epochs = {worst:.3e}")


def test_criterion_11_step_size_table():
    L, mu, n = 1.0, 0.1, 10
    expected = {
        ("dfinito", "rr"): 2.0 / 1.1,
        ("dfinito", "cyclic"): 2.0 / 1.1,
        ("svrg", "rr"): math.sqrt(0.1) / (2.0 * math.sqrt(2.0) * 10),  # small-n branch
        ("svrg", "cyclic"): math.sqrt(0.1) / (4.0 * 1.0 * 10),
        ("saga", "rr"): 0.1 / (11.0 * 1.0 * 10),
        ("saga", "cyclic"): 0.1 / (65.0 * math.sqrt(10.0 * 11.0)),
    }
    worst = 0.0
    for (alg, reg), want in expected.items():
        got = baselines.theoretical_step_size(alg, reg, L, mu, n)
        worst = max(worst, abs(got - want) / want)
    _report("criterion_11_step_size_table", worst <= 1e-15,
            f"6 entries, max rel dev {worst:.2e}")


def test_criterion_12_budget_matched_logistic_comparison():
    W, y, lam = problems.make_synthetic_logistic(42, 500, 50, kappa=400.0)
    p = problems.gen_logistic(W, y, lam)
    xstar = oracle.solve_reference(p, tol=1e-10)
    alpha_df = 2.0 / (p.L + p.mu)
    alpha_svrg = baselines.theoretical_step_size("svrg", "rr", p.L, p.mu, p.n)
    alpha_saga = baselines.theoretical_step_size("saga", "rr", p.L, p.mu, p.n)
    finals = {"dfinito": [], "svrg": [], "saga": []}
    budgets = set()
    x0 = np.zeros(p.d)
    for seed in range(8):
        plan = SamplingPlan("reshuffle", p.n, seed=seed)
        cfg = DampedRunConfig(alpha_df, 0.9, 30, plan, trace_every=30)
        _, recs = engine.run(p, cfg, np.zeros((p.n, p.d)), xstar)
        finals["dfinito"].append(recs[-1].dist_sq_to_opt)
        budgets.add(recs[-1].grad_evals)
        tr = baselines.svrg_run(p, plan, alpha_svrg, 12, x0, snapshot_every=2)
        finals["svrg"].append(float(np.sum((tr[-1].x - xstar) ** 2)))
        budgets.add(tr[-1].grad_evals)
        tr = baselines.saga_run(p, plan, alpha_saga, 29, x0)
        finals["saga"].append(float(np.sum((tr[-1].x - xstar) ** 2)))
        budgets.add(tr[-1].grad_evals)
    means = {k: _mean(v) for k, v in finals.items()}
    ok = (budgets == {15000}
          and means["dfinito"] < means["svrg"]
          and means["dfinito"] < means["saga"])
    _report("criterion_12_budget_matched_logistic_comparison", ok,
            f"15000 grad evals each; mean dist^2: dfinito {means['dfinito']:.3g}, "
            f"svrg {means['svrg']:.3g}, saga {means['saga']:.3g}")
