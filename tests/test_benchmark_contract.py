"""The library names the benchmark harness in ``perfbench/`` wraps, calls or reads.

The harness is read, never imported through ``sys.path``: its source is executed
into a fresh module, so no bytecode is written next to it. A library change that
removes or reshapes one of these names fails here, not only in the benchmark.
"""
import ast
import importlib
import os
import types

import numpy as np

from dfinito import engine, kernels, problems
from dfinito.diagnostics import TraceRecord
from dfinito.model import Regularizer, ordered_mean
from dfinito.sampling import SamplingPlan

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _source(name):
    path = os.path.join(PERFBENCH, name)
    with open(path, encoding="utf-8") as fh:
        return path, fh.read()


def _tracing():
    path, text = _source("tracing.py")
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = path
    exec(compile(text, path, "exec"), module.__dict__)
    return module


def _worker_runners():
    """``worker.RUNNERS``, read from its assignment without importing the worker."""
    _, text = _source("worker.py")
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "RUNNERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("worker.py assigns no RUNNERS")


def test_every_required_span_and_counted_target_resolves():
    tracing = _tracing()
    targets = {**tracing.SPANS, **tracing.COUNTED}
    for name, (mod_name, attr) in targets.items():
        if name in tracing.OPTIONAL:
            continue
        module = importlib.import_module(mod_name)
        cls_name, _, method = attr.rpartition(".")
        # the tracer replaces a method in its class's own __dict__
        target = vars(getattr(module, cls_name))[method] if cls_name else getattr(module, attr)
        assert callable(target), name


def _small_problem():
    p = problems.gen_least_squares(0, n=8, d=3, k=1, L=5.0, mu=0.0,
                                   regularizer=Regularizer.l1(0.01))
    return p, np.random.default_rng(0).standard_normal((p.n, p.d)), np.arange(p.n)[::-1]


def test_environment_and_microbench_names_exist():
    assert isinstance(kernels.BACKEND, str) and isinstance(kernels.HAVE_NUMBA, bool)
    p, z, order = _small_problem()
    tables = []
    for epoch in (lambda zz, zb: kernels.epoch_inplace(p, zz, zb, 0.2, 0.5, order,
                                                       backend="numpy"),
                  lambda zz, zb: engine.epoch_step_efficient_inplace(p, zz, zb, 0.2, 0.5,
                                                                     order)):
        zc, zbar = z.copy(), ordered_mean(z)
        assert epoch(zc, zbar) is None
        tables.append(zc.tobytes() + zbar.tobytes())
    assert tables[0] == tables[1]


def test_every_runner_returns_records_at_index_1_or_as_the_result():
    # the worker counts trace[-1].grad_evals of out[1] for a tuple, else of out
    p, z, _ = _small_problem()
    plan = SamplingPlan("reshuffle", p.n, seed=0)
    calls = {
        ("dfinito.engine", "run"):
            lambda f: f(p, engine.DampedRunConfig(0.2, 0.5, 3, plan), z),
        ("dfinito.baselines", "svrg_run"): lambda f: f(p, plan, 0.02, 3, z[0]),
        ("dfinito.baselines", "saga_run"): lambda f: f(p, plan, 0.02, 3, z[0]),
    }
    runners = _worker_runners()
    assert set(runners) == set(calls)
    for mod_name, attr in runners:
        out = calls[mod_name, attr](getattr(importlib.import_module(mod_name), attr))
        trace = out[1] if isinstance(out, tuple) else out
        assert isinstance(trace, list) and trace[-1].epoch == 3
        assert isinstance(trace[-1].grad_evals, int) and trace[-1].grad_evals > 0
    out = engine.run(p, engine.DampedRunConfig(0.2, 0.5, 3, plan), z)
    assert isinstance(out, tuple) and len(out) == 2
    assert all(isinstance(rec, TraceRecord) for rec in out[1])
