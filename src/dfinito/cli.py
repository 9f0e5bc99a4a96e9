"""Command-line harness: generate | run | sweep | verify | order.

Exit codes: 0 success, 1 verification/check failure, 2 usage or config
error. Trace CSVs use the fixed column schema from diagnostics.CSV_COLUMNS,
UTF-8, '.' decimals, and '\\n' newlines; files are written atomically. Seeds
and sweep cells run one after another; the seeds of a cell that reads no seed
share one run. ``run`` solves x* once per command when ``reference`` is on;
``sweep`` solves none, because its summary has no column that reads x*.
"""
from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import baselines, engine, oracle, problems, sampling, verify
from .diagnostics import CSV_COLUMNS, TraceRecord, certified_step, rho_ratio, table_norm_sq
from .model import REG_KINDS, Regularizer, check_constants, check_int, check_step, subgradient_residual


class UsageError(Exception):
    pass


# Every config key that run and sweep accept, with its default; any other key
# exits 2. A generator's keys depend on its kind.
REQUIRED = object()
CONFIG_KEYS = {
    "problem": REQUIRED, "algorithm": "dfinito", "sampling": {}, "alpha": "theory",
    "theta": 0.5, "epochs": 100, "seeds": [0], "trace_every": 1, "schedule": "constant",
    "snapshot_every": 2, "reference": True, "output": None, "grid": None,
}
PROBLEM_KEYS = {"path": None, "generator": None}
GENERATOR_KEYS = {
    "least_squares": {"kind": REQUIRED, "n": REQUIRED, "d": REQUIRED, "L": REQUIRED,
                      "k": None, "mu": 0.0, "reg": "none", "reg_lam": 0.0, "seed": 0},
    "logistic": {"kind": REQUIRED, "n": REQUIRED, "d": REQUIRED, "kappa": None,
                 "lam": None, "seed": 0},
}
SAMPLING_KEYS = {"regime": "reshuffle", "order": None, "gamma": 0.5}
GRID_AXES = {"alpha": None, "theta": None, "sampling": None}
# What each algorithm reads beyond problem, alpha, epochs, seeds, trace_every,
# reference and output: its keys among theta, schedule and snapshot_every, the
# sampling regimes it runs (none: no sampling and no seed) and its "theory" step
# row (None: no certified step). A key it does not read may be given only at its
# default; finito_uniform runs uniform under the default regime too.
Reads = collections.namedtuple("Reads", "keys regimes step")
SEQUENTIAL = ("cyclic", "reshuffle", "shuffle_once", "uniform")
READS = {
    "dfinito": Reads(("theta",), sampling.REGIMES, "dfinito"),
    "prox_gd": Reads((), (), "dfinito"),
    "sgd": Reads(("schedule",), SEQUENTIAL, None),
    "svrg": Reads(("snapshot_every",), SEQUENTIAL, "svrg"),
    "saga": Reads((), SEQUENTIAL, "saga"),
    "finito_uniform": Reads(("theta",), ("uniform",), "dfinito"),
}
REGIME_KEYS = {"order": "cyclic", "gamma": "adaptive"}  # the one regime that reads each


def _write_csv(path, header, rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    problems._write_atomically(path, [text.getvalue().encode("utf-8")])


def read_trace_csv(path):
    """Round-trip reader for trace CSVs; returns list of dict rows."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames) != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected CSV schema {reader.fieldnames}")
        return [{key: (val if key == "flags" else None if val == ""
                       else int(val) if key in ("epoch", "grad_evals") else float(val))
                 for key, val in row.items()} for row in reader]


def _mean_rows(per_seed_records):
    """Pointwise mean across seeds; a column is empty if empty for any seed."""
    n_rows = len(per_seed_records[0])
    for recs in per_seed_records:
        if len(recs) != n_rows:
            raise ValueError("seed traces have differing lengths; cannot average")
    rows = []
    numeric = [c for c in CSV_COLUMNS if c not in ("epoch", "grad_evals", "flags")]
    for k in range(n_rows):
        first = per_seed_records[0][k]
        rec = TraceRecord(epoch=first.epoch, grad_evals=first.grad_evals, flags=first.flags)
        for col in numeric:
            vals = [getattr(recs[k], col) for recs in per_seed_records]
            if all(v is not None for v in vals):
                setattr(rec, col, math.fsum(vals) / len(vals))
        rows.append(rec.to_row())
    return rows


# ---------------------------------------------------------------- generate


# the flags each kind reads beyond --seed, --n and --d, with their defaults
# (heterogeneous: --k max(10, d), --alpha 2/(L+mu), both resolved by _generate)
GENERATE_FLAGS = {
    "least_squares": {"k": 10, "L": 10.0, "mu": 0.1, "reg": "none", "reg_lam": 0.0},
    "heterogeneous": {"k": None, "L": 10.0, "mu": 0.1, "beta": 0.1, "alpha": None},
    "logistic": {"lam": None, "kappa": None},
}


def cmd_generate(args):
    if not os.path.isdir(args.out):
        raise UsageError(f"output directory does not exist: {args.out}")
    check_int("--seed", args.seed, 0)  # named as the flag; run and sweep check theirs as seeds
    problems.check_sizes(n=args.n, d=args.d)  # before any kind-specific flag or draw
    reads = GENERATE_FLAGS[args.kind]
    for key in dict.fromkeys(key for flags in GENERATE_FLAGS.values() for key in flags):
        if key in reads:
            if getattr(args, key) is None:
                setattr(args, key, reads[key])
        elif getattr(args, key) is not None:
            flag = "--" + key.replace("_", "-")
            raise UsageError(f"{flag} is not read by --kind {args.kind}")
    p, cert = _generate(args.kind, {key: getattr(args, key) for key in ("seed", "n", "d", *reads)})
    summary = f"kind={p.kind} n={p.n} d={p.d} L={p.L:.6g} mu={p.mu:.6g} kappa={p.L / p.mu if p.mu > 0 else math.inf:.6g}"
    if cert is not None:
        z0 = p.metadata["z0"]
        summary += f" rho={_importance(z0, cert.zstar(z0), cert.alpha_used)[2]:.6g}"
    path = os.path.join(args.out, "instance.json")
    problems.save_instance(path, p, cert)
    print(summary)
    print(f"wrote {path}")
    return 0


def _generate(kind, params):
    """(instance, certificate or None) of ``kind`` from the resolved ``params``: the one
    caller of the generators. A ``k`` of None is d (max(10, d) if heterogeneous); a
    heterogeneous ``alpha`` of None is the certified step, and the generator draws its
    start table z0 (``metadata["z0"]``). Sizes too large to allocate exit 2."""
    g = dict(params)
    if kind != "logistic" and g["k"] is None:
        g["k"] = max(10, g["d"]) if kind == "heterogeneous" else g["d"]
    try:
        if kind == "least_squares":
            return problems.gen_least_squares(g["seed"], g["n"], g["d"], g["k"], g["L"], g["mu"],
                                              regularizer=Regularizer(g["reg"], g["reg_lam"])), None
        if kind == "logistic":
            W, y, lam = problems.make_synthetic_logistic(g["seed"], g["n"], g["d"],
                                                         kappa=g["kappa"], lam=g["lam"])
            return problems.gen_logistic(W, y, lam), None
        check_constants(g["L"], g["mu"])  # before the certified step divides by L + mu
        alpha = certified_step(g["L"], g["mu"]) if g["alpha"] is None else g["alpha"]
        return problems.gen_heterogeneous(g["seed"], g["n"], g["d"], g["k"], g["mu"], g["L"],
                                          alpha, g["beta"])
    except MemoryError as exc:
        named = ", ".join(f"{key}={g[key]}" for key in ("n", "d", "k") if key in g)
        raise UsageError(f"cannot allocate an instance of {named}: {exc}") from None


# ------------------------------------------------------------- run, sweep


def _fill(obj, keys, where):
    """``obj`` over the defaults in ``keys``; an unknown or missing key is named."""
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must be a JSON object, got {obj!r}")
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise UsageError(f"unknown key {unknown[0]!r} in {where}")
    missing = [key for key, default in keys.items() if default is REQUIRED and key not in obj]
    if missing:
        raise UsageError(f"{where} needs {missing[0]!r}")
    return {**keys, **obj}


def _number(value, key):
    """``value`` as a finite float; anything else is named. Integers are checked
    where they enter the library, by ``model.check_int``."""
    # the comparison also refuses NaN, and a JSON integer too large for a float
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max or float(value) != value):
        raise UsageError(f"{key} must be a finite float, got {value!r}")
    return float(value)


def _resolve_problem(spec):
    spec = _fill(spec, PROBLEM_KEYS, "problem")
    if spec["path"] is not None and spec["generator"] is not None:
        raise UsageError("problem takes one source, 'path' or 'generator', got both")
    if spec["path"] is not None:
        if not isinstance(spec["path"], str):
            raise UsageError(f"problem.path must be a string, got {spec['path']!r}")
        return problems.load_instance(spec["path"])[0]
    gen = spec["generator"]
    kind = gen.get("kind") if isinstance(gen, dict) else None
    if not isinstance(kind, str) or kind not in GENERATOR_KEYS:
        raise UsageError("'problem' needs 'path' or a 'generator' of kind "
                         f"{' or '.join(GENERATOR_KEYS)}, got {gen!r}")
    gen = _fill(gen, GENERATOR_KEYS[kind], f"{kind} generator")
    if kind == "least_squares" and gen["reg"] not in REG_KINDS:
        raise UsageError(f"reg must be one of {', '.join(REG_KINDS)}, got {gen['reg']!r}")
    for key in ("L", "mu", "reg_lam", "kappa", "lam"):  # kappa and lam may be null
        if key in gen and not (key in ("kappa", "lam") and gen[key] is None):
            gen[key] = _number(gen[key], key)
    return _generate(kind, gen)[0]


@dataclasses.dataclass(frozen=True)
class Cell:
    """One resolved point of a sweep; a run is the one-cell grid."""

    algorithm: str  # finito_uniform is dfinito with uniform sampling
    alpha_spec: object  # alpha as configured, "theory" or a number
    config: engine.DampedRunConfig  # resolved alpha; each run replaces the plan's seed
    schedule: str
    snapshot_every: int


def _cells(cfg, p):
    """Every cell, resolved and checked before any solve or run: the product
    of the grid's axes in (alpha, theta, sampling) order, where an axis the
    grid omits is the config's own value."""
    grid = _fill(cfg["grid"] or {}, GRID_AXES, "grid")
    for key, axis in grid.items():
        if axis is not None and not (isinstance(axis, list) and axis):
            raise UsageError(f"grid axis {key!r} must be a non-empty list, got {axis!r}")
    axes = [[cfg[key]] if grid[key] is None else grid[key] for key in GRID_AXES]
    name, reads = cfg["algorithm"], READS[cfg["algorithm"]]
    if cfg["schedule"] not in baselines.SCHEDULES:
        raise UsageError(f"unknown schedule {cfg['schedule']!r}")
    for key, values in (("theta", axes[1]), ("schedule", [cfg["schedule"]]),
                        ("snapshot_every", [cfg["snapshot_every"]])):
        for value in values:
            if key not in reads.keys and value != CONFIG_KEYS[key]:
                raise UsageError(f"{key} is not read by algorithm {name!r}; it may be given only "
                                 f"at its default {CONFIG_KEYS[key]!r}, got {value!r}")
    check_int("snapshot_every", cfg["snapshot_every"])  # svrg_run reads it after the solve
    if name == "sgd" and p.regularizer.kind != "none":
        raise UsageError("algorithm 'sgd' supports smooth problems only, but the problem's "
                         f"regularizer is {p.regularizer.kind!r}")
    if "theory" in axes[0] and reads.step is None:
        raise UsageError(f"algorithm {name!r} has no certified step; set alpha")
    cells = []
    for alpha, theta, entry in itertools.product(*axes):
        smp = _fill(entry, SAMPLING_KEYS, "sampling")
        regime = smp["regime"]
        if regime not in reads.regimes:
            if regime != SAMPLING_KEYS["regime"]:
                raise UsageError(f"sampling.regime {regime!r} is not run by algorithm {name!r}, "
                                 f"which takes {', '.join(map(repr, reads.regimes)) or 'none'}")
            regime = reads.regimes[0] if reads.regimes else regime
        for key, reader in REGIME_KEYS.items():
            if regime != reader and smp[key] != SAMPLING_KEYS[key]:
                raise UsageError(f"sampling.{key} is read by regime {reader!r} only, "
                                 f"got regime {regime!r}")
        if alpha != "theory":
            step = _number(alpha, "alpha")
        else:
            try:
                step = baselines.theoretical_step_size(
                    reads.step, "cyclic" if regime == "cyclic" else "rr", p.L, p.mu, p.n)
            except ValueError as exc:  # the table states when "theory" resolves
                raise UsageError(f"{exc}; set alpha") from None
        order = smp["order"]
        if order is not None and not (isinstance(order, list)
                                      and all(type(i) is int for i in order)
                                      and sorted(order) == list(range(p.n))):
            raise UsageError(f"sampling.order must be a list of the integers 0..{p.n - 1}, "
                             f"each once, got {order!r}")
        if regime == "cyclic" and order is None:
            order = np.arange(p.n)
        plan = sampling.SamplingPlan(regime, p.n, order=order, seed=0,
                                     gamma=_number(smp["gamma"], "gamma"))
        config = engine.DampedRunConfig(step, _number(theta, "theta"), cfg["epochs"], plan,
                                        cfg["trace_every"])
        cells.append(Cell("dfinito" if name == "finito_uniform" else name, alpha, config,
                          cfg["schedule"], cfg["snapshot_every"]))
    return cells


def _baseline_to_records(p, trace, xstar, trace_every):
    out = []
    for rec in [rec for rec in trace[:-1] if rec.epoch % trace_every == 0] + trace[-1:]:
        residual = subgradient_residual(p.regularizer, rec.x, p.full_grad(rec.x))
        tr = TraceRecord(epoch=rec.epoch, grad_evals=rec.grad_evals, grad_map_residual_sq=residual)
        if xstar is not None:
            tr.dist_sq_to_opt = float(np.sum((rec.x - xstar) ** 2))
        out.append(tr)
    return out


def run_experiment(cell, p, seed, xstar):
    """One (cell, seed) run; returns the list of TraceRecord. ``xstar`` is the
    minimizer or None."""
    config = dataclasses.replace(cell.config, plan=dataclasses.replace(cell.config.plan, seed=seed))
    if cell.algorithm == "dfinito":
        return engine.run(p, config, np.zeros((p.n, p.d)), xstar)[1]
    alpha, epochs, plan, x0 = config.alpha, config.epochs, config.plan, np.zeros(p.d)
    if cell.algorithm == "prox_gd":
        trace = baselines.prox_gd_run(p, alpha, epochs, x0)
    elif cell.algorithm == "sgd":
        trace = baselines.sgd_run(p, plan, alpha, epochs, x0, schedule=cell.schedule)
    elif cell.algorithm == "svrg":
        trace = baselines.svrg_run(p, plan, alpha, epochs, x0, snapshot_every=cell.snapshot_every)
    else:
        trace = baselines.saga_run(p, plan, alpha, epochs, x0)
    return _baseline_to_records(p, trace, xstar, config.trace_every)


def _prepare(args):
    """Output directory, seeds, problem, cells and x* of a run or sweep; x* is None
    if off or for a sweep, which writes no column that reads it. Every config error
    comes before the reference solve."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {args.config}: {exc}")
    cfg = _fill(cfg, CONFIG_KEYS, "config")
    if (args.command == "sweep") != bool(cfg["grid"]):
        raise UsageError("sweep needs a non-empty 'grid' object, and run takes none")
    out_dir = args.out or cfg["output"]
    if not isinstance(out_dir, str) or not os.path.isdir(out_dir):
        raise UsageError(f"{args.command} needs an existing --out DIR or 'output', got {out_dir}")
    for seeds in (cfg["seeds"], args.seed or cfg["seeds"]):  # the config's, then --seed's
        if not (isinstance(seeds, list) and seeds
                and all(type(s) is int and s >= 0 for s in seeds)):
            raise UsageError("seeds must be a non-empty list of non-negative integers, "
                             f"got {seeds!r}")
        twice = [s for i, s in enumerate(seeds) if s in seeds[:i]]
        if twice:
            raise UsageError(f"seed {twice[0]} is given more than once")
    if not isinstance(cfg["reference"], bool):
        raise UsageError(f"reference must be true or false, got {cfg['reference']!r}")
    if not isinstance(cfg["algorithm"], str) or cfg["algorithm"] not in READS:
        raise UsageError(f"unknown algorithm {cfg['algorithm']!r}")  # before the instance is read
    p = _resolve_problem(cfg["problem"])
    cells = _cells(cfg, p)
    solve = cfg["reference"] and args.command == "run"
    xstar = oracle.solve_reference(p, tol=1e-10) if solve else None
    return out_dir, seeds, p, cells, xstar


def _run_cell(cell, p, seeds, xstar):
    """Every seed's TraceRecord list for ``cell``; a cell whose algorithm runs no
    regime, or whose regime is not in ``sampling.SEEDED``, reads no seed, so it
    runs once."""
    if not READS[cell.algorithm].regimes or cell.config.plan.regime not in sampling.SEEDED:
        return [run_experiment(cell, p, seeds[0], xstar)] * len(seeds)
    return [run_experiment(cell, p, s, xstar) for s in seeds]


def cmd_run(args):
    out_dir, seeds, p, (cell,), xstar = _prepare(args)
    per_seed = _run_cell(cell, p, seeds, xstar)
    for s, records in zip(seeds, per_seed):
        _write_csv(os.path.join(out_dir, f"trace_seed{s}.csv"), CSV_COLUMNS,
                   [r.to_row() for r in records])
    _write_csv(os.path.join(out_dir, "trace_mean.csv"), CSV_COLUMNS, _mean_rows(per_seed))
    print(f"wrote {len(seeds)} seed trace(s) and trace_mean.csv to {out_dir}")
    return 0


def cmd_sweep(args):
    out_dir, seeds, p, cells, xstar = _prepare(args)
    finals = [math.fsum(recs[-1].grad_map_residual_sq for recs in _run_cell(cell, p, seeds, xstar))
              / len(seeds) for cell in cells]
    best = int(np.argmin(finals))
    rows = [[cell.alpha_spec, cell.config.theta, cell.config.plan.regime, repr(float(val)),
             "1" if idx == best else "0"] for idx, (cell, val) in enumerate(zip(cells, finals))]
    path = os.path.join(out_dir, "sweep_summary.csv")
    _write_csv(path, ("alpha", "theta", "regime", "final_grad_map_residual_sq", "best"), rows)
    print(f"wrote {path}; best cell #{best + 1} of {len(cells)}")
    return 0


# ----------------------------------------------------------------- verify


def cmd_verify(args):
    check_int("--seed", args.seed, 0)
    results = verify.run_suites(args.suite, seed=args.seed)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# ------------------------------------------------------------------ order


def cmd_order(args):
    p, cert = problems.load_instance(args.instance)
    default = certified_step(p.L, p.mu) if p.mu > 0 else 1.0 / p.L
    alpha = default if args.alpha is None else args.alpha
    check_step(alpha)  # before the reference solve
    z0 = p.metadata.get("z0", np.zeros((p.n, p.d)))  # a stored array loads as float64
    if np.shape(z0) != (p.n, p.d):  # a JSON scalar has shape []
        raise UsageError(f"{args.instance}: metadata.z0: shape {list(np.shape(z0))} is not "
                         f"[{p.n}, {p.d}]")
    xstar = oracle.solve_reference(p, tol=1e-10)
    scores, best, rho = _importance(z0, oracle.zstar_table(p, xstar, alpha), alpha)
    if float(np.max(scores)) <= 1e-24:
        print("warning: start table coincides with the fixed point; all scores ~0, "
              "falling back to the identity order")
    # printed orders are 1-based for human consumption
    print("optimal order:", " ".join(str(i + 1) for i in best))
    print("worst order:  ", " ".join(str(i + 1) for i in best[::-1]))
    print(f"rho={rho:.6g} 1/n={1.0 / p.n:.6g}")
    return 0


def _importance(z0, zstar, alpha):
    """(scores ||z0_i - z*_i||^2, the optimal cyclic order, rho) of a start table and
    its fixed-point table at step ``alpha``; rho is NaN when every score is 0. Scores or
    rho's sums that overflow raise ValueError naming alpha."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = z0 - zstar
        scores = np.einsum("ij,ij->i", diff, diff)
        finite = np.isfinite(scores).all() and np.isfinite(table_norm_sq(diff))  # rho's sums
    if not finite:
        raise ValueError(f"order scores (squared distances to z*) overflow at alpha={alpha!r}")
    best = sampling.optimal_cyclic_order(scores)
    rho = rho_ratio(z0, zstar, best) if float(np.max(scores)) > 0 else float("nan")
    return scores, best, rho


# ------------------------------------------------------------------- main


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dfinito",
        description="Damped proximal Finito benchmark harness",
    )
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("generate", help="write a problem instance JSON")
    gen.set_defaults(func=cmd_generate)
    gen.add_argument("--kind", required=True,
                     choices=("least_squares", "heterogeneous", "logistic"))
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, default=50)
    gen.add_argument("--d", type=int, default=10)
    # kind-specific flags default to None; cmd_generate refuses one its kind does
    # not read and fills in GENERATE_FLAGS' defaults
    gen.add_argument("--k", type=int)
    for flag in ("--L", "--mu", "--beta", "--alpha", "--lam", "--kappa"):
        gen.add_argument(flag, type=float)
    gen.add_argument("--reg", choices=("none", "l1", "l2sq"))
    gen.add_argument("--reg-lam", type=float)

    for name, func, text in (("run", cmd_run, "run one config, a trace CSV per seed"),
                             ("sweep", cmd_sweep, "run a config's grid, a summary row per cell")):
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(func=func)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, action="append", default=None)

    ver = sub.add_parser("verify", help="run the numerical verification suites")
    ver.set_defaults(func=cmd_verify)
    ver.add_argument("--suite", action="append", default=None)
    ver.add_argument("--seed", type=int, default=0)

    order = sub.add_parser("order", help="print importance-based cyclic orders")
    order.set_defaults(func=cmd_order)
    order.add_argument("--instance", required=True)
    order.add_argument("--alpha", type=float, default=None)

    return parser


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
        return args.func(args)
    except (UsageError, oracle.OracleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
