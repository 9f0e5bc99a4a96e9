"""dfinito benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

The workloads and the reason for each are in ``workloads.py``. A run is a
closed loop: one client, each pass a fresh process (``worker.py``) running
the workload's commands one after the other through ``dfinito.cli.main``.

``--trace 0`` measures the end-to-end metrics with tracing off. It sets the
workload up SETUP_REPEATS times (config files, the setup commands and
``import dfinito`` in a fresh process) and then runs passes until
``--seconds`` have gone by. A shared machine's speed can drift by a third
for minutes at a time, so pass times are normalised: while a pass runs, a
second thread in the pass process times a fixed loop of interpreter and
small numpy work every 20 ms (``worker.SpeedProbe``), and the pass wall
time is scaled by REF_PROBE_S over the probe's mean time. A normalised time
is the time the pass would take at the machine speed where the probe takes
REF_PROBE_S.

- ``norm_wall_s``: median normalised time of one pass over the workload's
  commands (the raw wall times are in the report);
- ``norm_grad_evals_per_s``: median over passes of the final ``grad_evals``
  of every optimizer run in the pass (each trace CSV's last row for
  ``run``) divided by the normalised pass time;
- ``setup_s``: median set-up time, normalised by the median probe time of
  the run's passes (the raw set-up times are in the report);
- ``peak_rss_mb``: median peak resident memory of the pass process;
- ``ok_frac``: commands whose output passed every check (``checks.py``) over
  commands attempted, 1 - failed_frac.

``--trace 1`` runs one untraced pass to two traced ones (at least one and two)
until ``--seconds`` have gone by and reports the per-layer metrics of
``tracing.py`` (median over traced passes; counts must repeat exactly, and
traced passes must write the same files as untraced ones), plus
``kernels.generic_over_numpy`` from a separate epoch micro-benchmark and
``trace.overhead_frac``, the traced over untraced normalised pass time
minus 1.

Every result is preceded by a report (environment, per-pass samples with
their raw wall and probe times, the highest percentile with ten samples
beyond it, check failures and CSV sha256s); the last stdout line is the JSON
summary. ``--smoke`` runs tiny sizes for the benchmark's own test. Without
``src/dfinito`` next to this directory the benchmark exits with code 2 and
prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
# mean time of worker.timed_probe on the machine the benchmark was tuned on (2
# vCPUs of a 2.1 GHz Xeon); it sets only the scale of the normalised times
REF_PROBE_S = 2.6e-4
MICROBENCH = {"n": 1000, "d": 50, "repeats": 15}
# every worker is stopped by this time after start, so that a run ends within 180 s
STARTED = time.perf_counter()
RUN_LIMIT_S = 170
END_TO_END = [("norm_wall_s", "s"), ("norm_grad_evals_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "frac")]
# BLAS pools pinned to one thread; SHUFFLE_VR_THREADS keeps dfinito sequential
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "SHUFFLE_VR_THREADS")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(spec, work):
    """Run worker.py on ``spec`` in a fresh process; returns its result dict."""
    fd, spec_path = tempfile.mkstemp(suffix=".json", dir=work)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    result_path = spec_path[:-5] + ".out.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
        env=worker_env(), cwd=work, capture_output=True, text=True,
        timeout=max(1.0, STARTED + RUN_LIMIT_S - time.perf_counter()),
    )
    if proc.returncode != 0 or not os.path.isfile(result_path):
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(spec_path)
    os.remove(result_path)
    return result


def setup(plan, work, report, trace=False):
    """Write the workload's files and run its setup commands in a fresh
    process (which also pays ``import dfinito``); returns (result, seconds).
    Failed setup commands are added to ``report["setup_failures"]``."""
    start = time.perf_counter()
    for d in plan.dirs:
        os.makedirs(d, exist_ok=True)
    for name, doc in plan.files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    result = run_worker({"setup": plan.setup, "commands": [], "trace": trace}, work)
    secs = time.perf_counter() - start
    report["setup_failures"] += [
        f"setup {r['argv'][0]}: exit code {r['rc']} {r['error']}"
        for r in result["setup"] if r["rc"] != 0
    ]
    return result, secs


class Pass:
    """One pass: fresh output directories, the worker, and the output checks."""

    def __init__(self, plan, work, trace, golden_dir):
        from dfinito import cli

        self.out = tempfile.mkdtemp(prefix="pass", dir=work)
        for cmd in plan.commands:
            os.makedirs(os.path.join(self.out, cmd.tag), exist_ok=True)
        argvs = [[a.replace("{out}", self.out) for a in cmd.argv] for cmd in plan.commands]
        self.result = run_worker({"setup": [], "commands": argvs, "trace": trace}, work)
        self.shas = {}
        self.failures = []
        for cmd, res in zip(plan.commands, self.result["commands"]):
            self.failures.append(
                checks.check_command(cmd, res, self.out, golden_dir, self.shas))
        self.wall_s = self.result["wall_s"]
        self.norm_wall_s = self.wall_s * REF_PROBE_S / self.result["probe_s"]
        self.grad_evals = sum(self.result["grad_evals"])
        # final grad_evals summed over the per-seed trace CSVs the pass wrote
        self.csv_grad_evals = sum(
            cli.read_trace_csv(path)[-1]["grad_evals"] for path in self.shas
            if os.path.basename(path).startswith("trace_seed")
        )
        shutil.rmtree(self.out, ignore_errors=True)

    def files(self):
        """sha256 of every CSV, keyed by path relative to the pass directory."""
        return {os.path.relpath(p, self.out): h for p, h in self.shas.items()}


def percentile_summary(samples):
    """Median and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    out = {"count": len(xs), "median": statistics.median(xs)}
    rank = len(xs) - 10  # 1-based rank of the highest value with ten beyond it
    if rank >= 1:
        out[f"p{math.floor(100 * rank / len(xs))}"] = xs[rank - 1]
    return out


def _git_revision():
    """HEAD of the repository this checkout is, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def _cache_sizes():
    sizes = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
        except OSError:
            break
        sizes[level] = proc.stdout.strip() or None
    return sizes


def environment(seed):
    """What produced a result: code, backend, libraries, threads and machine."""
    import numpy
    import dfinito
    from dfinito import kernels

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "dfinito")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + fh.read())
    env = worker_env()
    return {
        "git_revision": _git_revision(),
        "dfinito_source_sha256": src_hash.hexdigest(),
        "dfinito_version": dfinito.__version__,
        "kernels_backend": kernels.BACKEND,
        "have_numba": kernels.HAVE_NUMBA,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {var: env[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache_sizes": _cache_sizes(),
        "workload_seed": seed,
    }


def measure_untraced(plan, work, seconds, golden_dir, report):
    setups = [setup(plan, work, report)[1] for _ in range(SETUP_REPEATS)]
    attempted = len(plan.setup) * SETUP_REPEATS
    failed = len(report["setup_failures"])
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(Pass(plan, work, False, golden_dir))
    for p in passes:
        attempted += len(p.failures)
        failed += sum(1 for f in p.failures if f)
        if p.csv_grad_evals and p.csv_grad_evals != p.grad_evals:
            report["run_failures"].append(
                f"runs report {p.grad_evals} grad_evals, the trace CSVs {p.csv_grad_evals}")
    norm_walls = [p.norm_wall_s for p in passes]
    probe_s = statistics.median(p.result["probe_s"] for p in passes)
    report["norm_wall_s"] = percentile_summary(norm_walls)
    report["wall_s"] = percentile_summary([p.wall_s for p in passes])
    report["setup_s"] = setups
    report["passes"] = [{"norm_wall_s": p.norm_wall_s, "wall_s": p.wall_s,
                         "probe_s": p.result["probe_s"],
                         "probe_samples": p.result["probe_samples"],
                         "peak_rss_mb": p.result["peak_rss_mb"],
                         "grad_evals": p.grad_evals, "failures": p.failures}
                        for p in passes]
    report["csv_sha256"] = passes[0].files()
    metrics = {
        "norm_wall_s": statistics.median(norm_walls),
        "norm_grad_evals_per_s": statistics.median(p.grad_evals / p.norm_wall_s
                                                   for p in passes),
        "setup_s": statistics.median(setups) * REF_PROBE_S / probe_s,
        "peak_rss_mb": statistics.median(p.result["peak_rss_mb"] for p in passes),
        "ok_frac": 1.0 - failed / attempted,
    }
    return metrics, attempted, failed


def measure_traced(plan, work, seconds, golden_dir, report):
    # set up traced, so that instance generation shows as a layer
    traced_setup, _ = setup(plan, work, report, trace=True)
    setup_layers = tracing.layer_metrics(traced_setup["trace"])
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        group = untraced if 2 * len(untraced) <= len(traced) else traced  # U, T, T, U, ...
        group.append(Pass(plan, work, group is traced, golden_dir))
    attempted = len(plan.setup) + sum(len(p.failures) for p in untraced + traced)
    failed = len(report["setup_failures"]) + sum(
        1 for p in untraced + traced for f in p.failures if f)
    layers = [tracing.layer_metrics(p.result["trace"]) for p in traced]
    for p in traced:
        if p.files() != untraced[0].files():
            report["run_failures"].append("traced and untraced passes wrote different CSVs")
    for name in tracing.EXACT_COUNTS:
        values = {m[name] for m in layers}
        if len(values) != 1:
            report["run_failures"].append(f"{name} differs between traced passes: {values}")
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        if name in layers[0]:
            # times are medians over traced passes; counts are the first pass's
            value = statistics.median(m[name] for m in layers) if unit == "s" else layers[0][name]
            metrics[name] = value + setup_layers.get(name, 0)
    bench = run_worker({"microbench": MICROBENCH}, work)
    metrics["kernels.generic_over_numpy"] = bench["generic_over_numpy"]
    metrics["trace.overhead_frac"] = (
        statistics.median(p.norm_wall_s for p in traced)
        / statistics.median(p.norm_wall_s for p in untraced) - 1.0
    )
    report["microbench"] = bench
    report["missing_spans"] = traced[0].result["trace"]["missing"]
    report["passes"] = [{"traced": p in traced, "norm_wall_s": p.norm_wall_s, "wall_s": p.wall_s,
                         "probe_s": p.result["probe_s"], "failures": p.failures}
                        for p in untraced + traced]
    report["csv_sha256"] = untraced[0].files()
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "dfinito", "__init__.py")):
        print(f"error: no dfinito sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    golden_dir = None
    if args.seed == workloads.DEFAULT_SEED and not args.smoke:
        golden_dir = os.path.join(checks.GOLDEN_DIR, args.workload)
    report = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "environment": environment(args.seed), "setup_failures": [], "run_failures": []}
    try:
        plan = workloads.build(args.workload, args.seed, work, args.smoke)
        measure = measure_traced if args.trace else measure_untraced
        values, attempted, failed = measure(plan, work, args.seconds, golden_dir, report)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(WORK_ROOT)
    units = dict(tracing.PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    correct = failed == 0 and not report["run_failures"]
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
