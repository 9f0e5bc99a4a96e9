"""One pass of a workload, in a fresh process so its peak memory is its own.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds ``setup`` and ``commands`` (lists of dfinito argv), ``trace``
(record spans with :class:`tracing.Tracer`) or ``microbench`` (time the
epoch backends instead of running commands). Each command runs through
``dfinito.cli.main`` in this process, one after the other. RESULT gets the
exit code, wall time and captured stdout of every command, the pass wall
time, the mean time of the speed probe over the pass (:class:`SpeedProbe`),
the peak resident memory and the final ``grad_evals`` of every optimizer run
(or the spans, when traced).
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import resource
import statistics
import sys
import threading
import time
import traceback

import tracing

# optimizer entry points whose final grad_evals make up a pass's work
RUNNERS = (("dfinito.engine", "run"), ("dfinito.baselines", "svrg_run"),
           ("dfinito.baselines", "saga_run"))
PROBE_EVERY_S = 0.02  # about 1% of the pass goes to the probe


def timed_probe(a, x):
    """Seconds taken by a fixed pure-Python loop and a fixed loop of small
    numpy operations like dfinito's (about 0.25 ms together)."""
    start = time.perf_counter()
    s = 0
    for i in range(1500):
        s += (i * 7) % 13
    for row in a[:20]:
        x = 0.5 * x + row * (row @ x) * 1e-3
    return time.perf_counter() - start


class SpeedProbe:
    """Times :func:`timed_probe` every PROBE_EVERY_S in a second thread while
    the commands run.

    The probe does the same work every time, so the mean of its times tracks
    how fast the shared machine runs this process during the pass, and a pass
    wall time divided by it is steady when the machine's speed drifts. Its two
    halves track interpreter and numpy speed, which drift differently.
    """

    def __init__(self):
        import numpy as np

        self._args = (np.cos(np.arange(2500.0)).reshape(50, 50), np.ones(50))
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(PROBE_EVERY_S):
            self.samples.append(timed_probe(*self._args))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a pass shorter than one period
            self.samples.append(timed_probe(*self._args))


def count_grad_evals(sink):
    """Append each optimizer run's final grad_evals to ``sink`` (a few calls per pass)."""
    for mod_name, attr in RUNNERS:
        module = importlib.import_module(mod_name)
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, _orig=orig, **kwargs):
            out = _orig(*args, **kwargs)
            trace = out[1] if isinstance(out, tuple) else out
            sink.append(trace[-1].grad_evals)
            return out

        setattr(module, attr, wrapper)


def run_commands(cli, commands, tracer, first_index):
    out = []
    for idx, argv in enumerate(commands):
        if tracer is not None:
            tracer.command = first_index + idx
        buf = io.StringIO()
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:  # a crash is reported as a failed command, not a lost pass
            rc, error = None, traceback.format_exc()
        out.append({"argv": argv, "rc": rc, "wall_s": time.perf_counter() - start,
                    "stdout": buf.getvalue(), "error": error})
    return out


def microbench(n, d, repeats):
    """Per-epoch time of the generic loop over the numpy kernel (medians)."""
    import numpy as np
    from dfinito import engine, kernels, problems
    from dfinito.model import Regularizer

    p = problems.gen_least_squares(0, n=n, d=d, k=1, L=5.0, mu=0.0,
                                   regularizer=Regularizer.l1(0.01))
    alpha, theta = 1.0 / p.L, 0.5
    rng = np.random.default_rng(0)
    z = rng.standard_normal((n, d))
    order = rng.permutation(n)

    def one_epoch(fn):
        zc, zbar = z.copy(), z.mean(axis=0)
        start = time.perf_counter()
        fn(zc, zbar)
        return time.perf_counter() - start

    # interleaved, so that a drift in machine speed hits both sides alike
    numpy_s, generic_s = [], []
    for _ in range(repeats):
        numpy_s.append(one_epoch(lambda zz, zb: kernels.epoch_inplace(
            p, zz, zb, alpha, theta, order, backend="numpy")))
        generic_s.append(one_epoch(lambda zz, zb: engine.epoch_step_efficient_inplace(
            p, zz, zb, alpha, theta, order)))
    numpy_s, generic_s = statistics.median(numpy_s), statistics.median(generic_s)
    return {"numpy_epoch_s": numpy_s, "generic_epoch_s": generic_s,
            "generic_over_numpy": generic_s / numpy_s}


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from dfinito import cli

    result = {}
    if "microbench" in spec:
        result.update(microbench(**spec["microbench"]))
    else:
        tracer, grad_evals = None, []
        if spec.get("trace"):
            tracer = tracing.Tracer()
            tracer.install()
        else:
            count_grad_evals(grad_evals)
        result["setup"] = run_commands(cli, spec["setup"], tracer, -len(spec["setup"]))
        with SpeedProbe() as probe:
            start = time.perf_counter()
            result["commands"] = run_commands(cli, spec["commands"], tracer, 0)
            result["wall_s"] = time.perf_counter() - start
        result["probe_s"] = statistics.fmean(probe.samples)
        result["probe_samples"] = len(probe.samples)
        result["grad_evals"] = grad_evals
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.export()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
