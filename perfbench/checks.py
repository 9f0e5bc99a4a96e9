"""Output checks for one command of a pass; every failure counts in ``failed``.

- the exit code is 0;
- trace CSVs parse with ``dfinito.cli.read_trace_csv`` (which rejects a
  wrong column schema) and have the expected number of rows;
- the final ``grad_map_residual_sq`` is at most ``max_drop`` times the
  initial one (for a sweep: each cell's final value against the residual
  at the zero start, which every cell shares);
- ``verify`` prints only PASS lines;
- on the default seed at full size, every numeric cell agrees with the
  stored golden output (``golden/<workload>/<tag>/``) within GOLDEN_RTOL,
  relative to the largest magnitude in its column. The golden files are
  the outputs of one pass at the default seed; a change meant to alter
  results replaces them with a new pass's output directory.

The sha256 of every CSV is returned for the report, so byte-identity of
traces across versions is visible without being required.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os

GOLDEN_RTOL = 1e-6
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def compare_golden(path, golden_path):
    """Failures of ``path`` against ``golden_path``, cell by cell."""
    if not os.path.isfile(golden_path):
        return [f"no golden file {os.path.relpath(golden_path, GOLDEN_DIR)}"]
    head, rows = _read_rows(path)
    ghead, grows = _read_rows(golden_path)
    if head != ghead or len(rows) != len(grows):
        return [f"{os.path.basename(path)}: shape differs from golden"]
    failures = []
    for col, name in enumerate(head):
        try:
            want = [float(r[col]) if r[col] != "" else None for r in grows]
            got = [float(r[col]) if r[col] != "" else None for r in rows]
        except ValueError:  # text column (flags, regime): must match exactly
            if [r[col] for r in rows] != [r[col] for r in grows]:
                failures.append(f"{os.path.basename(path)}: column {name} differs from golden")
            continue
        scale = max((abs(v) for v in want if v is not None), default=0.0)
        for k, (a, b) in enumerate(zip(got, want)):
            if (a is None) != (b is None) or (
                a is not None and not abs(a - b) <= GOLDEN_RTOL * scale
            ):
                failures.append(f"{os.path.basename(path)}: {name} row {k} = {a}, golden {b}")
                break
    return failures


def _check_trace(out_dir, check, shas):
    from dfinito import cli

    failures = []
    for fname in check["files"]:
        path = os.path.join(out_dir, fname)
        if not os.path.isfile(path):
            failures.append(f"missing {fname}")
            continue
        shas[path] = sha256_of(path)
        try:
            rows = cli.read_trace_csv(path)
        except ValueError as exc:
            failures.append(str(exc))
            continue
        if len(rows) != check["rows"]:
            failures.append(f"{fname}: {len(rows)} rows, expected {check['rows']}")
            continue
        first, last = rows[0]["grad_map_residual_sq"], rows[-1]["grad_map_residual_sq"]
        if not (last is not None and first and last <= check["max_drop"] * first):
            failures.append(f"{fname}: final residual {last} not below "
                            f"{check['max_drop']} x initial {first}")
    return failures


def _sweep_initial_residual(gen):
    import numpy as np
    from dfinito import diagnostics, problems

    W, y, lam = problems.make_synthetic_logistic(gen["seed"], gen["n"], gen["d"],
                                                 kappa=gen["kappa"])
    p = problems.gen_logistic(W, y, lam)
    return diagnostics.grad_map_residual(p, np.zeros(p.d), 1.0)[0]


def _check_sweep(out_dir, check, shas):
    path = os.path.join(out_dir, "sweep_summary.csv")
    if not os.path.isfile(path):
        return ["missing sweep_summary.csv"]
    shas[path] = sha256_of(path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != check["cells"]:
        return [f"sweep_summary.csv: {len(rows)} cells, expected {check['cells']}"]
    failures = []
    initial = _sweep_initial_residual(check["generator"])
    finals = [float(r["final_grad_map_residual_sq"]) for r in rows]
    if not all(math.isfinite(v) and v <= check["max_drop"] * initial for v in finals):
        failures.append(f"sweep: worst final residual {max(finals)} not below "
                        f"{check['max_drop']} x initial {initial}")
    if sum(r["best"] == "1" for r in rows) != 1:
        failures.append("sweep: not exactly one best cell")
    return failures


def _check_verify(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    checks = lines[:-1]
    if not checks or not all(ln.startswith("PASS ") for ln in checks):
        return ["verify: not every check passed"]
    if lines[-1] != f"{len(checks)}/{len(checks)} checks passed":
        return [f"verify: unexpected summary {lines[-1]!r}"]
    return []


def check_command(command, result, out_dir, golden_dir, shas):
    """Failure messages for one command of a pass (empty when it is correct).

    ``golden_dir`` is the workload's golden directory, or None to skip the
    golden comparison (non-default seed, smoke sizes).
    """
    if result["rc"] != 0:
        return [f"{command.argv[0]}: exit code {result['rc']} {result['error']}"]
    kind = command.check["kind"]
    out = os.path.join(out_dir, command.tag)
    before = set(shas)
    if kind == "trace":
        failures = _check_trace(out, command.check, shas)
    elif kind == "sweep":
        failures = _check_sweep(out, command.check, shas)
    else:
        failures = _check_verify(result["stdout"])
    if golden_dir is not None and not failures:
        for path in sorted(set(shas) - before):
            failures += compare_golden(
                path, os.path.join(golden_dir, command.tag, os.path.basename(path)))
    return failures
