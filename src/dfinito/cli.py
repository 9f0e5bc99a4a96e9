"""Command-line harness: generate | run | sweep | verify | order.

Exit codes: 0 success, 1 verification/check failure, 2 usage or config
error. Trace CSVs use the fixed column schema from diagnostics.CSV_COLUMNS,
UTF-8, '.' decimals, and '\\n' newlines; files are written atomically. Seeds
and sweep cells run one after another.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import baselines, engine, oracle, problems, sampling, verify
from .diagnostics import CSV_COLUMNS, TraceRecord, rho_ratio
from .model import Regularizer
from .prox import prox, subgradient_residual


class UsageError(Exception):
    pass


ALGORITHMS = ("dfinito", "prox_gd", "sgd", "svrg", "saga", "finito_uniform")


def _write_csv(path, rows):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    os.replace(tmp, path)


def read_trace_csv(path):
    """Round-trip reader for trace CSVs; returns list of dict rows."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV schema {reader.fieldnames}")
        out = []
        for row in reader:
            parsed = {}
            for key, val in row.items():
                if key == "flags":
                    parsed[key] = val
                elif val == "":
                    parsed[key] = None
                elif key in ("epoch", "grad_evals"):
                    parsed[key] = int(val)
                else:
                    parsed[key] = float(val)
            out.append(parsed)
        return out


def _mean_rows(per_seed_records):
    """Pointwise mean across seeds; a column is empty if empty for any seed."""
    n_rows = len(per_seed_records[0])
    for recs in per_seed_records:
        if len(recs) != n_rows:
            raise ValueError("seed traces have differing lengths; cannot average")
    rows = []
    numeric = [c for c in CSV_COLUMNS if c not in ("epoch", "grad_evals", "flags")]
    for k in range(n_rows):
        rec = TraceRecord(
            epoch=per_seed_records[0][k].epoch,
            grad_evals=per_seed_records[0][k].grad_evals,
            flags=per_seed_records[0][k].flags,
        )
        for col in numeric:
            vals = [getattr(recs[k], col) for recs in per_seed_records]
            if all(v is not None for v in vals):
                setattr(rec, col, math.fsum(vals) / len(vals))
        rows.append(rec.to_row())
    return rows


# ---------------------------------------------------------------- generate


def cmd_generate(args):
    if args.out is None:
        raise UsageError("generate requires --out DIR")
    if not os.path.isdir(args.out):
        raise UsageError(f"output directory does not exist: {args.out}")
    seed = args.seed[0] if args.seed else 0
    rho = None
    cert = None
    if args.kind == "least_squares":
        reg = Regularizer(args.reg, args.reg_lam)
        p = problems.gen_least_squares(seed, args.n, args.d, args.k, args.L, args.mu,
                                       regularizer=reg)
    elif args.kind == "heterogeneous":
        alpha = args.alpha if args.alpha else 2.0 / (args.L + args.mu)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        z0 = rng.standard_normal((args.n, args.d))
        p, cert = problems.gen_heterogeneous(
            seed, args.n, args.d, max(args.k, args.d), args.mu, args.L, alpha,
            args.beta, z0,
        )
        p.metadata["z0"] = z0.tolist()
        zstar = cert.zstar(z0)
        profile = np.einsum("ij,ij->i", z0 - zstar, z0 - zstar)
        rho = rho_ratio(z0, zstar, sampling.optimal_cyclic_order(profile))
    elif args.kind == "logistic":
        W, y, lam = problems.make_synthetic_logistic(
            seed, args.n, args.d, kappa=args.kappa, lam=args.lam
        )
        p = problems.gen_logistic(W, y, lam)
    else:
        raise UsageError(f"unknown kind {args.kind!r}")
    path = os.path.join(args.out, "instance.json")
    problems.save_instance(path, p, cert)
    summary = f"kind={p.kind} n={p.n} d={p.d} L={p.L:.6g} mu={p.mu:.6g} kappa={p.L / p.mu if p.mu > 0 else math.inf:.6g}"
    if rho is not None:
        summary += f" rho={rho:.6g}"
    print(summary)
    print(f"wrote {path}")
    return 0


# -------------------------------------------------------------------- run


def _load_config(path):
    if path is None:
        raise UsageError("--config PATH is required")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")


def _resolve_problem(cfg):
    spec = cfg.get("problem")
    if not isinstance(spec, dict):
        raise UsageError("config needs a 'problem' object")
    if "path" in spec:
        return problems.load_instance(spec["path"])
    gen = spec.get("generator")
    if not isinstance(gen, dict):
        raise UsageError("'problem' needs 'path' or 'generator'")
    kind = gen.get("kind")
    if kind == "least_squares":
        reg = Regularizer(gen.get("reg", "none"), gen.get("reg_lam", 0.0))
        return (
            problems.gen_least_squares(
                gen.get("seed", 0), gen["n"], gen["d"], gen.get("k", gen["d"]),
                gen["L"], gen.get("mu", 0.0), regularizer=reg,
            ),
            None,
        )
    if kind == "logistic":
        W, y, lam = problems.make_synthetic_logistic(
            gen.get("seed", 0), gen["n"], gen["d"],
            kappa=gen.get("kappa"), lam=gen.get("lam"),
        )
        return problems.gen_logistic(W, y, lam), None
    raise UsageError(f"unknown generator kind {kind!r}")


def _resolve_alpha(cfg, p, regime):
    alpha = cfg.get("alpha", "theory")
    if alpha == "theory":
        algorithm = cfg.get("algorithm", "dfinito")
        table_regime = "cyclic" if regime in ("cyclic", "adaptive") else "rr"
        if algorithm in ("dfinito", "finito_uniform", "prox_gd"):
            if not (p.L > p.mu > 0):
                raise UsageError("'theory' step size needs L > mu > 0")
            return 2.0 / (p.L + p.mu)
        if algorithm in ("svrg", "saga"):
            try:
                return baselines.theoretical_step_size(algorithm, table_regime, p.L, p.mu, p.n)
            except ValueError as exc:
                raise UsageError(str(exc))
        raise UsageError(f"no theoretical step size for algorithm {algorithm!r}")
    if not (isinstance(alpha, (int, float)) and alpha > 0):
        raise UsageError("alpha must be a positive number or 'theory'")
    return float(alpha)


def _make_plan(samp, n, seed):
    regime = samp.get("regime", "reshuffle")
    try:
        if regime == "cyclic":
            order = samp.get("order")
            order = np.arange(n) if order is None else np.asarray(order, dtype=np.int64)
            return sampling.SamplingPlan("cyclic", n, order=order)
        if regime == "adaptive":
            return sampling.SamplingPlan("adaptive", n, gamma=samp.get("gamma", 0.5), seed=seed)
        return sampling.SamplingPlan(regime, n, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc))


def _baseline_to_records(p, trace, reference, trace_every):
    xstar = None if reference is None else reference[0]
    out = []
    last = len(trace) - 1
    for idx, rec in enumerate(trace):
        if not (rec.epoch % trace_every == 0 or idx == last):
            continue
        g = p.full_grad(rec.x)
        tr = TraceRecord(
            epoch=rec.epoch,
            grad_evals=rec.grad_evals,
            grad_map_residual_sq=subgradient_residual(p.regularizer, rec.x, g),
        )
        if xstar is not None:
            tr.dist_sq_to_opt = float(np.sum((rec.x - xstar) ** 2))
        out.append(tr)
    return out


def run_experiment(cfg, p, seed, reference):
    """One (config, seed) cell; returns the list of TraceRecord."""
    algorithm = cfg.get("algorithm", "dfinito")
    if algorithm not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {algorithm!r}")
    samp = dict(cfg.get("sampling", {"regime": "reshuffle"}))
    if algorithm == "finito_uniform":
        samp["regime"] = "uniform"
        algorithm = "dfinito"
    regime = samp.get("regime", "reshuffle")
    alpha = _resolve_alpha(cfg, p, regime)
    theta = float(cfg.get("theta", 0.5))
    epochs = int(cfg.get("epochs", 100))
    trace_every = int(cfg.get("trace_every", 1))
    plan = _make_plan(samp, p.n, seed)
    if algorithm == "dfinito":
        config = engine.DampedRunConfig(alpha=alpha, theta=theta, epochs=epochs,
                                        plan=plan, trace_every=trace_every)
        _, records = engine.run(p, config, np.zeros((p.n, p.d)), reference=reference)
        return records
    x0 = np.zeros(p.d)
    if algorithm == "prox_gd":
        trace = baselines.prox_gd_run(p, alpha, epochs, x0)
    elif algorithm == "sgd":
        trace = baselines.sgd_run(p, plan, alpha, epochs, x0,
                                  schedule=cfg.get("schedule", "constant"))
    elif algorithm == "svrg":
        trace = baselines.svrg_run(p, plan, alpha, epochs, x0,
                                   snapshot_every=int(cfg.get("snapshot_every", 2)))
    else:
        trace = baselines.saga_run(p, plan, alpha, epochs, x0)
    return _baseline_to_records(p, trace, reference, trace_every)


def _reference_for(cfg, p, previous=None):
    """(x*, z*) at the config's alpha, or None if off; x* is reused from a ``previous`` pair."""
    if not cfg.get("reference", True):
        return None
    alpha_probe = cfg.get("alpha", "theory")
    regime = cfg.get("sampling", {}).get("regime", "reshuffle")
    alpha = _resolve_alpha(cfg, p, regime) if alpha_probe == "theory" else float(alpha_probe)
    xstar = oracle.solve_reference(p, tol=1e-10) if previous is None else previous[0]
    return xstar, oracle.zstar_table(p, xstar, alpha)


def cmd_run(args):
    cfg = _load_config(args.config)
    if args.format != "csv":
        raise UsageError(f"unsupported format {args.format!r}")
    out_dir = args.out or cfg.get("output")
    if out_dir is None:
        raise UsageError("run needs --out DIR (or 'output' in the config)")
    if not os.path.isdir(out_dir):
        raise UsageError(f"output directory does not exist: {out_dir}")
    seeds = args.seed or cfg.get("seeds") or [0]
    p, _ = _resolve_problem(cfg)
    reference = _reference_for(cfg, p)
    per_seed = [run_experiment(cfg, p, s, reference) for s in seeds]
    for s, records in zip(seeds, per_seed):
        _write_csv(os.path.join(out_dir, f"trace_seed{s}.csv"), [r.to_row() for r in records])
    _write_csv(os.path.join(out_dir, "trace_mean.csv"), _mean_rows(per_seed))
    print(f"wrote {len(seeds)} seed trace(s) and trace_mean.csv to {out_dir}")
    return 0


# ------------------------------------------------------------------ sweep


def cmd_sweep(args):
    cfg = _load_config(args.config)
    out_dir = args.out or cfg.get("output")
    if out_dir is None or not os.path.isdir(out_dir):
        raise UsageError("sweep needs an existing --out DIR")
    grid = cfg.get("grid")
    if not isinstance(grid, dict) or not grid:
        raise UsageError("sweep config needs a non-empty 'grid' object")
    alphas = grid.get("alpha", [cfg.get("alpha", "theory")])
    thetas = grid.get("theta", [cfg.get("theta", 0.5)])
    samplings = grid.get("sampling", [cfg.get("sampling", {"regime": "reshuffle"})])
    if not (alphas and thetas and samplings):
        raise UsageError("grid axes must be non-empty")
    seeds = args.seed or cfg.get("seeds") or [0]
    p, _ = _resolve_problem(cfg)
    cells = []
    for a in alphas:
        for t in thetas:
            for smp in samplings:
                cell = dict(cfg)
                cell.update({"alpha": a, "theta": t, "sampling": smp})
                cells.append(cell)

    finals, reference = [], None
    for cell in cells:
        reference = _reference_for(cell, p, reference)
        per_seed = [run_experiment(cell, p, s, reference) for s in seeds]
        finals.append(math.fsum(recs[-1].grad_map_residual_sq for recs in per_seed) / len(seeds))
    best = int(np.argmin(finals))
    path = os.path.join(out_dir, "sweep_summary.csv")
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "theta", "regime", "final_grad_map_residual_sq", "best"])
        for idx, (cell, val) in enumerate(zip(cells, finals)):
            writer.writerow([
                cell["alpha"], cell["theta"], cell["sampling"].get("regime"),
                repr(float(val)), "1" if idx == best else "0",
            ])
    os.replace(tmp, path)
    print(f"wrote {path}; best cell #{best + 1} of {len(cells)}")
    return 0


# ----------------------------------------------------------------- verify


def cmd_verify(args):
    names = args.suite or None
    try:
        results = verify.run_suites(names, seed=args.seed[0] if args.seed else 0)
    except KeyError as exc:
        raise UsageError(str(exc))
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# ------------------------------------------------------------------ order


def cmd_order(args):
    if args.instance is None:
        raise UsageError("order requires --instance PATH")
    p, cert = problems.load_instance(args.instance)
    alpha = args.alpha or (2.0 / (p.L + p.mu) if p.mu > 0 else 1.0 / p.L)
    if "z0" in p.metadata:
        z0 = np.asarray(p.metadata["z0"], dtype=np.float64)
    else:
        z0 = np.zeros((p.n, p.d))
    xstar = oracle.solve_reference(p, tol=1e-10)
    zstar = oracle.zstar_table(p, xstar, alpha)
    diff = z0 - zstar
    scores = np.einsum("ij,ij->i", diff, diff)
    if float(np.max(scores)) <= 1e-24:
        print("warning: start table coincides with the fixed point; all scores ~0, "
              "falling back to the identity order")
    best = sampling.optimal_cyclic_order(scores)
    worst = best[::-1]
    rho = rho_ratio(z0, zstar, best) if float(np.max(scores)) > 0 else float("nan")
    # printed orders are 1-based for human consumption
    print("optimal order:", " ".join(str(i + 1) for i in best))
    print("worst order:  ", " ".join(str(i + 1) for i in worst))
    print(f"rho={rho:.6g} 1/n={1.0 / p.n:.6g}")
    return 0


# ------------------------------------------------------------------- main


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dfinito",
        description="Damped proximal Finito benchmark harness",
    )
    sub = parser.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--config", default=None)
        sp.add_argument("--seed", type=int, action="append", default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--suite", action="append", default=None)
        sp.add_argument("--format", default="csv")

    gen = sub.add_parser("generate", help="write a problem instance JSON")
    common(gen)
    gen.add_argument("--kind", required=True,
                     choices=("least_squares", "heterogeneous", "logistic"))
    gen.add_argument("--n", type=int, default=50)
    gen.add_argument("--d", type=int, default=10)
    gen.add_argument("--k", type=int, default=10)
    gen.add_argument("--L", type=float, default=10.0)
    gen.add_argument("--mu", type=float, default=0.1)
    gen.add_argument("--beta", type=float, default=0.1)
    gen.add_argument("--alpha", type=float, default=None)
    gen.add_argument("--lam", type=float, default=None)
    gen.add_argument("--kappa", type=float, default=None)
    gen.add_argument("--reg", default="none", choices=("none", "l1", "l2sq"))
    gen.add_argument("--reg-lam", type=float, default=0.0)

    for name in ("run", "sweep", "verify"):
        common(sub.add_parser(name))

    order = sub.add_parser("order", help="print importance-based cyclic orders")
    common(order)
    order.add_argument("--instance", default=None)
    order.add_argument("--alpha", type=float, default=None)

    return parser


COMMANDS = {
    "generate": cmd_generate,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "order": cmd_order,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
