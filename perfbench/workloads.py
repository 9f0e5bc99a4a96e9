"""The four CLI workloads, built from the workload seed.

Each workload is a closed loop of ``dfinito`` commands: one client, one
process per pass, every command starting when the previous one ends. The
seed drives the problem generators, the instance file and the run seeds, so
dfinito only ever sees the generated configs and files. Sizes and the
reason for each workload:

run_ls_l1
    ``run`` on generated least squares (n=1000, d=50, k=50, L=10, mu=0.1,
    l1 0.01), reshuffle, alpha "theory", theta 0.5, 4 seeds, 30 epochs,
    a trace record every epoch. Epochs and per-epoch trace records dominate;
    one reference solve. Mechanism workload for cheap tracing and batching
    seeds; bypass workload for reference caching.
sweep_logistic
    ``sweep`` on generated logistic data (kappa=400, n=1000, d=50) over
    alpha {theory, 0.5, 1.0} x theta {0.3, 0.7} x {reshuffle, cyclic,
    shuffle_once}, 2 seeds, 20 epochs, trace at the last epoch only. 720
    logistic epochs plus 18 re-solves of one reference. Mechanism workload
    for reference caching and batching sweep cells; bypass for the trace fix.
planted_compare
    setup writes the planted heterogeneous instance (n=2000, d=20, k=20,
    beta=0.9) with ``generate``; four ``run`` commands then load it: damped
    Finito cyclic (bound-envelope columns), ``finito_uniform`` (literal epoch
    path), SVRG and SAGA, each one seed and 10 epochs. SAGA runs at alpha
    0.03 because its certified step barely moves in 10 epochs. The only
    workload reaching instance loading, the per-component baseline loops and
    baseline trace conversion.
verify_suites
    ``verify`` with all five suites. The only user command running the
    literal block operators, the exact-expectation oracle and the
    brute-force ordering; bypass workload for kernel changes.

``smoke=True`` shrinks every size so that all four workloads run in seconds;
it keeps the command structure (the 18 sweep cells, the four planted runs).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

DEFAULT_SEED = 0
NAMES = ("run_ls_l1", "sweep_logistic", "planted_compare", "verify_suites")
SWEEP_GRID = {
    "alpha": ["theory", 0.5, 1.0],
    "theta": [0.3, 0.7],
    "sampling": [{"regime": "reshuffle"}, {"regime": "cyclic"}, {"regime": "shuffle_once"}],
}


@dataclass
class Command:
    """One dfinito invocation; ``{out}`` in argv is the pass's output directory."""

    argv: list
    tag: str  # output subdirectory under {out}, also the golden subdirectory
    check: dict  # what checks.check_command requires of the output


@dataclass
class Plan:
    files: dict  # config file name -> JSON document, written at setup
    commands: list  # Command per pass
    setup: list = field(default_factory=list)  # dfinito argv run before the passes
    dirs: list = field(default_factory=list)  # directories setup needs


def _trace_files(seeds):
    return [f"trace_seed{s}.csv" for s in seeds] + ["trace_mean.csv"]


def _run_ls_l1(seed, work, smoke):
    n, d, epochs = (40, 6, 5) if smoke else (1000, 50, 30)
    seeds = [4 * seed + j for j in range(4)]
    cfg = {
        "problem": {"generator": {"kind": "least_squares", "n": n, "d": d, "k": d,
                                  "L": 10.0, "mu": 0.1, "reg": "l1", "reg_lam": 0.01,
                                  "seed": seed}},
        "algorithm": "dfinito", "sampling": {"regime": "reshuffle"}, "alpha": "theory",
        "theta": 0.5, "epochs": epochs, "seeds": seeds, "trace_every": 1,
    }
    check = {"kind": "trace", "files": _trace_files(seeds), "rows": epochs + 1,
             "max_drop": 0.1 if smoke else 1e-6}
    argv = ["run", "--config", os.path.join(work, "run.json"), "--out", "{out}/run"]
    return Plan({"run.json": cfg}, [Command(argv, "run", check)])


def _sweep_logistic(seed, work, smoke):
    n, d, epochs = (40, 6, 4) if smoke else (1000, 50, 20)
    gen = {"kind": "logistic", "n": n, "d": d, "kappa": 400, "seed": seed}
    cfg = {
        "problem": {"generator": gen}, "algorithm": "dfinito", "epochs": epochs,
        "seeds": [2 * seed, 2 * seed + 1], "trace_every": epochs, "grid": SWEEP_GRID,
    }
    check = {"kind": "sweep", "generator": gen,
             "cells": math.prod(len(axis) for axis in SWEEP_GRID.values()),
             "max_drop": 0.9 if smoke else 0.25}
    argv = ["sweep", "--config", os.path.join(work, "sweep.json"), "--out", "{out}/sweep"]
    return Plan({"sweep.json": cfg}, [Command(argv, "sweep", check)])


# tag, config, max final/initial residual after 10 epochs. Over 30 seeds the
# ratios were about 1e-6, 7e-4 to 1.1e-2, 8e-4 and 1e-8: uniform sampling with
# replacement leaves some components stale, so its ratio spreads widely.
PLANTED_RUNS = (
    ("dfinito", {"algorithm": "dfinito", "sampling": {"regime": "cyclic"}, "alpha": "theory"},
     1e-4),
    ("finito_uniform", {"algorithm": "finito_uniform", "alpha": "theory"}, 0.1),
    ("svrg", {"algorithm": "svrg", "sampling": {"regime": "reshuffle"}, "alpha": "theory",
              "snapshot_every": 2}, 1e-2),
    ("saga", {"algorithm": "saga", "sampling": {"regime": "reshuffle"}, "alpha": 0.03}, 1e-6),
)


def _planted_compare(seed, work, smoke):
    n, d, epochs = (60, 5, 8) if smoke else (2000, 20, 10)
    inst_dir = os.path.join(work, "instance")
    setup = [["generate", "--kind", "heterogeneous", "--n", str(n), "--d", str(d),
              "--k", str(d), "--L", "10", "--mu", "0.1", "--beta", "0.9",
              "--seed", str(seed), "--out", inst_dir]]
    files, commands = {}, []
    for tag, algo, max_drop in PLANTED_RUNS:
        cfg = {"problem": {"path": os.path.join(inst_dir, "instance.json")}, **algo,
               "theta": 0.5, "epochs": epochs, "seeds": [seed], "trace_every": 1}
        files[f"{tag}.json"] = cfg
        check = {"kind": "trace", "files": _trace_files([seed]), "rows": epochs + 1,
                 "max_drop": 0.9 if smoke else max_drop}
        argv = ["run", "--config", os.path.join(work, f"{tag}.json"), "--out", f"{{out}}/{tag}"]
        commands.append(Command(argv, tag, check))
    return Plan(files, commands, setup, [inst_dir])


def _verify_suites(seed, work, smoke):
    return Plan({}, [Command(["verify", "--seed", str(seed)], "", {"kind": "verify"})])


def build(name, seed, work, smoke=False):
    """The plan of workload ``name`` for ``seed``, with files under ``work``."""
    builders = {"run_ls_l1": _run_ls_l1, "sweep_logistic": _sweep_logistic,
                "planted_compare": _planted_compare, "verify_suites": _verify_suites}
    return builders[name](seed, work, smoke)
