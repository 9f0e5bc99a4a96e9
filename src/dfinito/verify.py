"""Built-in verification suites: operator properties, bound envelopes,
ordering oracles, implementation equivalence, and the step-size table.

Each suite returns a list of CheckResult; the CLI prints one line per check
and exits nonzero when any fails. Each property is one function here that
returns the observed worst value, NaN if any is (np.maximum, not max); the
suites call it at quick sizes and tests/test_acceptance.py at larger ones.
The planted certificate's check, :func:`verify_heterogeneous`, returns its six
CheckResults directly rather than a worst value. Acceptance criteria 08, 09
and 12 have no check here, and criterion 11 keeps its own step-size literals
as an independent reference for the formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import baselines, diagnostics, engine, kernels, oracle, problems, sampling
from .model import ProblemInstance, Regularizer, ordered_mean, prox

CONVEX = ("prox_residual_sq", "bound_convex")
STRONGLY_CONVEX = ("dist_sq_to_opt", "bound_sc")


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    observed: float
    passed: bool

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.name} tolerance={self.tolerance:.3e} observed={self.observed:.6e}"


def check_leq(name: str, observed: float, tolerance: float) -> CheckResult:
    """Pass when observed <= tolerance."""
    return CheckResult(name, float(tolerance), float(observed), float(observed) <= float(tolerance))


def _pairs(rng, count, n, d):
    for _ in range(count):
        yield rng.standard_normal((n, d)), rng.standard_normal((n, d))


def fixed_point_deviation(instances, tol):
    """(worst ||T_i z* - z*|| over every block, worst ||prox(mean z*) - x*||)
    at each instance's fixed-point table for alpha = 1/L."""
    worst_block = worst_prox = 0.0
    for p in instances:
        alpha = 1.0 / p.L
        xstar = oracle.solve_reference(p, tol=tol)
        zstar = oracle.zstar_table(p, xstar, alpha)
        stack = np.broadcast_to(zstar, (p.n,) + zstar.shape)  # block i of table i
        for table in engine.apply_Ti(p, np.arange(p.n), stack, alpha):
            worst_block = np.maximum(worst_block, float(np.linalg.norm(table - zstar)))
        x = prox(p.regularizer, alpha, ordered_mean(zstar))
        worst_prox = np.maximum(worst_prox, np.linalg.norm(x - xstar))
    return float(worst_block), float(worst_prox)


def pi_norm_ratio(p, alphas, theta, rate, pairs, rng):
    """Worst ||S u - S v||^2_pi / (rate ||u - v||^2_pi) for the damped epoch
    operator S = (1 - theta) I + theta T_pi in the order 0..n-1, over `pairs`
    random (u, v) per step size; theta = 1 gives T_pi itself."""
    order = np.arange(p.n)
    worst = 0.0
    for alpha in alphas:
        uv = np.array(list(_pairs(rng, pairs, p.n, p.d))).reshape(-1, p.n, p.d)
        images = engine.apply_Spi(p, order, uv, alpha, theta)  # one stack of all pairs
        num = diagnostics.pi_norm_sq(images[::2] - images[1::2], order)
        den = diagnostics.pi_norm_sq(uv[::2] - uv[1::2], order)
        worst = np.maximum.reduce(num / (rate * den), initial=worst)
    return float(worst)


def expected_contraction_ratio(p, alpha, rate, pairs, rng):
    """Worst E ||T_tau u - T_tau v||^2 / (rate ||u - v||^2) over `pairs`
    random (u, v), the expectation exact over all orders tau."""
    worst = 0.0
    for u, v in _pairs(rng, pairs, p.n, p.d):
        val = oracle.expected_contraction(p, u, v, alpha)
        worst = np.maximum(worst, val / (rate * float(np.sum((u - v) ** 2))))
    return float(worst)


def cyclic_plan(p):
    return sampling.SamplingPlan("cyclic", p.n, order=np.arange(p.n))


def envelope_ratio(p, plans, alpha, theta, epochs, z0, reference, column):
    """Worst ratio, record by record, of the mean over one run per plan of
    the (value, envelope) `column`'s value to the first run's envelope."""
    cfgs = [engine.DampedRunConfig(alpha, theta, epochs, plan) for plan in plans]
    traces = [engine.run(p, cfg, z0, reference)[1] for cfg in cfgs]
    value, bound = column
    return float(np.max([
        math.fsum(getattr(tr[k], value) for tr in traces) / len(traces)
        / getattr(traces[0][k], bound)
        for k in range(len(traces[0]))
    ]))


def order_rule_deviation(score_vectors):
    """Worst gap between the sorting rule's order and the brute-force best
    order: their value gap relative to max(1, |best|), or 1 if they differ."""
    worst = 0.0
    for scores in score_vectors:
        fast = sampling.optimal_cyclic_order(scores)
        best, best_val = oracle.brute_force_best_order(scores)
        weights = np.arange(1, scores.size + 1) / scores.size
        gap = abs(float(weights @ scores[fast]) - best_val) / max(1.0, abs(best_val))
        worst = np.maximum(worst, gap if np.array_equal(fast, best) else 1.0)
    return float(worst)


def verify_heterogeneous(p: ProblemInstance, cert: problems.HeterogeneityCertificate, z0, alpha):
    """Re-check the planted construction from scratch.

    Returns six CheckResults, in order: component_spectra_within_[mu,L],
    full_gradient_zero_at_minimizer, direction_norms_sqrt_n, residual_vectors_solve_construction,
    importance_profile_geometric and norm_ratio_matches_exact_sum.
    """
    if alpha != cert.alpha_used:
        raise ValueError("certificate was built for a different step size")
    z0 = np.asarray(z0, dtype=np.float64)
    n = p.n
    results = []

    spectra_dev = 0.0
    for i in range(n):
        eig = np.linalg.eigvalsh(p.A[i].T @ p.A[i])
        spectra_dev = max(spectra_dev, p.mu - eig[0], eig[-1] - p.L, 0.0)
    results.append(check_leq("component_spectra_within_[mu,L]", spectra_dev, 1e-8))

    results.append(
        check_leq("full_gradient_zero_at_minimizer", float(np.linalg.norm(p.full_grad(cert.v))), 1e-10)
    )

    q = math.sqrt(cert.beta)
    tnorm_sq = np.einsum("ij,ij->i", cert.t, cert.t)
    results.append(
        check_leq("direction_norms_sqrt_n", float(np.max(np.abs(np.sqrt(tnorm_sq) - math.sqrt(n)))), 1e-10)
    )

    c = (z0 - cert.v[None, :] - (q ** np.arange(n))[:, None] * cert.t) / alpha
    residual_dev = max(
        float(np.linalg.norm(p.A[i].T @ cert.delta[i] - c[i])) for i in range(n)
    )
    results.append(check_leq("residual_vectors_solve_construction", residual_dev, 1e-8))

    # ||z_i^0 - z_i*||^2 = beta^{i-1} ||t_i||^2 by construction; beta powers
    # underflow for large i, so compare with the geometric factor divided out
    profile_normalized = tnorm_sq * (q * q / cert.beta) ** np.arange(n)
    results.append(
        check_leq(
            "importance_profile_geometric",
            float(np.max(np.abs(profile_normalized - n) / n)),
            1e-8,
        )
    )

    # the planted profile is strictly decreasing, so the optimal order is the
    # identity; underflowed tail blocks contribute nothing to either norm
    disp = (q ** np.arange(n))[:, None] * cert.t
    rho = diagnostics.pi_norm_sq(disp, np.arange(n)) / float(np.sum(disp * disp))
    # exact finite geometric sums: rho = (sum i b^{i-1}) / (n sum b^{i-1}),
    # which tends to 1/(n(1-beta)) as beta^n -> 0
    b = cert.beta
    s0 = (1.0 - b**n) / (1.0 - b)
    s1 = (1.0 - (n + 1) * b**n + n * b ** (n + 1)) / (1.0 - b) ** 2
    rho_target = s1 / (n * s0)
    results.append(
        check_leq("norm_ratio_matches_exact_sum", abs(rho - rho_target) / rho_target, 1e-3)
    )
    return results


def literal_lean_deviation(p, z0, alpha, theta, orders):
    """Worst max |x_literal - x_lean| after each epoch, the literal and the
    memory-lean epoch run side by side from z0 over `orders`."""
    literal, lean = z0.copy(), z0.copy()
    literal_mean, lean_mean = ordered_mean(z0), ordered_mean(z0)
    worst = 0.0
    for order in orders:
        engine.epoch_step(p, literal, literal_mean, alpha, theta, order)
        kernels.epoch_inplace(p, lean, lean_mean, alpha, theta, order)
        dev = prox(p.regularizer, alpha, literal_mean) - prox(p.regularizer, alpha, lean_mean)
        worst = np.maximum(worst, np.max(np.abs(dev)))
    return float(worst)


def suite_operators(seed=0):
    rng = np.random.default_rng(seed)

    # fixed point of every block operator at the reference table
    p = problems.gen_least_squares(seed, n=6, d=4, k=6, L=2.0, mu=0.5,
                                   regularizer=Regularizer.l1(0.05))
    block_dev, x_dev = fixed_point_deviation([p], tol=1e-12)
    results = [
        check_leq("fixed_point_blockwise", block_dev, 1e-8),
        check_leq("fixed_point_x_recovery", x_dev, 1e-8),
    ]

    # order-weighted non-expansiveness of the cyclic epoch operator
    ratio = pi_norm_ratio(p, [f / p.L for f in (0.5, 1.0, 2.0)], 1.0, 1.0, 100, rng)
    results.append(check_leq("epoch_operator_nonexpansive_pi_norm", ratio - 1.0, 1e-10))

    # exact expected non-expansiveness over all permutations (n = 5)
    p5 = problems.gen_least_squares(seed + 1, n=5, d=3, k=5, L=2.0, mu=0.0,
                                    regularizer=Regularizer.l1(0.05))
    ratio = expected_contraction_ratio(p5, 2.0 / p5.L, 1.0, 30, rng)
    results.append(check_leq("epoch_operator_nonexpansive_expectation", ratio - 1.0, 1e-10))

    # contraction of the damped epoch operator under strong convexity
    psc = problems.gen_least_squares(seed + 2, n=5, d=3, k=5, L=2.0, mu=0.5)
    a = 2.0 / (psc.mu + psc.L)
    theta = 0.7
    rate = 1.0 - 2.0 * theta * a * psc.mu * psc.L / (psc.mu + psc.L)
    ratio = pi_norm_ratio(psc, [a], theta, rate, 100, rng)
    results.append(check_leq("damped_epoch_operator_contracts", ratio - 1.0, 1e-10))
    return results


def suite_bounds(seed=0):
    results = []

    # sublinear envelope, fixed cyclic order, merely convex instance
    p = problems.gen_least_squares(seed, n=20, d=10, k=10, L=4.0, mu=0.0)
    alpha, theta, epochs = 2.0 / p.L, 0.5, 60
    xstar = oracle.solve_reference(p, tol=1e-10)
    zstar = oracle.zstar_table(p, xstar, alpha)
    z0 = np.random.default_rng(seed).standard_normal((p.n, p.d))
    worst = envelope_ratio(p, [cyclic_plan(p)], alpha, theta, epochs, z0, (xstar, zstar), CONVEX)
    results.append(check_leq("convex_envelope_cyclic", worst, 1.0))

    # same instance, reshuffled every epoch, averaged over seeds
    plans = [sampling.SamplingPlan("reshuffle", p.n, seed=s) for s in range(4)]
    worst = envelope_ratio(p, plans, alpha, theta, epochs, z0, (xstar, zstar), CONVEX)
    results.append(check_leq("convex_envelope_reshuffle_mean", worst, 1.0))

    # linear envelope under strong convexity
    psc = problems.gen_least_squares(seed + 1, n=20, d=10, k=10, L=5.0, mu=0.2)
    a = 2.0 / (psc.mu + psc.L)
    xs = oracle.solve_reference(psc, tol=1e-12)
    zs = oracle.zstar_table(psc, xs, a)
    z0 = np.random.default_rng(seed + 1).standard_normal((psc.n, psc.d))
    worst = envelope_ratio(psc, [cyclic_plan(psc)], a, 0.9, 100, z0, (xs, zs), STRONGLY_CONVEX)
    results.append(check_leq("strongly_convex_envelope_cyclic", worst, 1.0))

    # epoch displacement: non-increasing and sublinearly bounded
    order = np.arange(p.n)
    z0c = np.random.default_rng(seed + 2).standard_normal((p.n, p.d))
    cfg = engine.DampedRunConfig(alpha=alpha, theta=theta, epochs=epochs, plan=cyclic_plan(p))
    _, tr = engine.run(p, cfg, z0c, reference=(xstar, zstar))
    init = diagnostics.pi_norm_sq(z0c - zstar, order)
    disp = [r.pi_norm_residual_sq for r in tr if r.pi_norm_residual_sq is not None]
    mono = np.max([
        (disp[k + 1] - disp[k]) / max(disp[k], 1e-300) for k in range(len(disp) - 1)
    ])
    results.append(check_leq("epoch_displacement_nonincreasing", mono, 1e-10))
    worst = np.max([
        disp[k] / (theta / ((k + 1) * (1.0 - theta)) * init) for k in range(len(disp))
    ])
    results.append(check_leq("epoch_displacement_sublinear", worst, 1.0))
    return results


def suite_ordering(seed=0):
    rng = np.random.default_rng(seed)
    scores = [rng.random(n) * 10.0 for n in range(2, 8) for _ in range(20)]
    results = [check_leq("optimal_order_matches_brute_force", order_rule_deviation(scores), 1e-12)]

    n, d, beta = 100, 10, 0.1
    z0 = np.random.default_rng(seed + 3).standard_normal((n, d))
    p, cert = problems.gen_heterogeneous(seed, n, d, k=d, mu=0.1, L=10.0,
                                         alpha=2.0 / 10.1, beta=beta, z0=z0)
    results.extend(verify_heterogeneous(p, cert, z0, 2.0 / 10.1))
    disp = (math.sqrt(beta) ** np.arange(n))[:, None] * cert.t
    profile = np.einsum("ij,ij->i", disp, disp)
    ident = float(np.max(np.abs(sampling.optimal_cyclic_order(profile) - np.arange(n))))
    results.append(check_leq("planted_optimal_order_is_identity", ident, 0.0))
    return results


def suite_equivalence(seed=0):
    p = problems.gen_least_squares(seed, n=12, d=6, k=8, L=3.0, mu=0.0,
                                   regularizer=Regularizer.l1(0.02))
    alpha, theta = 1.0 / p.L, 0.6
    rng = np.random.default_rng(seed)
    z0 = rng.standard_normal((p.n, p.d))
    orders = [rng.permutation(p.n) for _ in range(30)]
    worst = literal_lean_deviation(p, z0, alpha, theta, orders)
    results = [check_leq("literal_vs_efficient_epoch", worst, 1e-12)]

    order = np.arange(p.n)
    undamped = z0.copy()
    engine.epoch_step(p, undamped, ordered_mean(z0), alpha, 1.0, order)
    direct = engine.apply_Tpi(p, order, z0, alpha)
    results.append(
        check_leq("undamped_epoch_equals_operator", float(np.max(np.abs(undamped - direct))), 1e-12)
    )
    return results


def suite_steps(seed=0):
    L, mu, n = 1.0, 0.1, 10
    expected = {
        ("dfinito", "rr"): 2.0 / 1.1,
        ("dfinito", "cyclic"): 2.0 / 1.1,
        ("svrg", "rr"): (1.0 / (2.0 * math.sqrt(2.0) * L * n)) * math.sqrt(mu / L),
        ("svrg", "cyclic"): (1.0 / (4.0 * L * n)) * math.sqrt(mu / L),
        ("saga", "rr"): mu / (11.0 * L**2 * n),
        ("saga", "cyclic"): mu / (65.0 * L**2 * math.sqrt(n * (n + 1.0))),
    }
    results = []
    for (alg, reg), want in expected.items():
        got = baselines.theoretical_step_size(alg, reg, L, mu, n)
        results.append(check_leq(f"step_size_{alg}_{reg}", abs(got - want), 1e-15))
    return results


SUITES = {
    "operators": suite_operators,
    "bounds": suite_bounds,
    "ordering": suite_ordering,
    "equivalence": suite_equivalence,
    "steps": suite_steps,
}


def run_suites(names=None, seed=0):
    """Run the named suites (all when None); returns list of CheckResult."""
    names = list(SUITES) if names is None else list(names)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.extend(SUITES[name](seed=seed))
    return results
