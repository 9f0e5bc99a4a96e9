"""Spans around the calls into each dfinito layer, and the per-layer metrics.

The library is not edited: :class:`Tracer` replaces a public function by a
wrapper at every name a dfinito module looks it up under (``engine`` imports
``grad_map_residual`` into its own namespace, ``oracle`` imports
``apply_Tpi``, ``verify`` dispatches through its ``SUITES`` dict), records a
span (name, start, end, parent) per call, and restores the originals on exit.
``ProblemInstance.component_grad`` is only counted: it is called hundreds of
thousands of times and a span per call would dominate the traced run.

Boundaries that may disappear in a later version of the library (the private
``cli._write_csv`` and ``cli._baseline_to_records``) are reported as missing
and their metrics are left out instead of failing the run.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time

# span name -> (module, attribute). Class attributes are "Class.method".
SPANS = {
    "cli.main": ("dfinito.cli", "main"),
    "cli.baseline_records": ("dfinito.cli", "_baseline_to_records"),
    "cli.write_csv": ("dfinito.cli", "_write_csv"),
    "engine.run": ("dfinito.engine", "run"),
    "engine.epoch_generic": ("dfinito.engine", "epoch_step_efficient_inplace"),
    "engine.epoch_literal": ("dfinito.engine", "epoch_step"),
    "engine.apply_Tpi": ("dfinito.engine", "apply_Tpi"),
    "kernels.epoch": ("dfinito.kernels", "epoch_inplace"),
    "diagnostics.grad_map_residual": ("dfinito.diagnostics", "grad_map_residual"),
    "diagnostics.bound_convex": ("dfinito.diagnostics", "bound_convex"),
    "diagnostics.bound_sc": ("dfinito.diagnostics", "bound_strongly_convex"),
    "diagnostics.pi_norm_sq": ("dfinito.diagnostics", "pi_norm_sq"),
    "model.full_grad": ("dfinito.model", "ProblemInstance.full_grad"),
    "oracle.solve_reference": ("dfinito.oracle", "solve_reference"),
    "oracle.zstar_table": ("dfinito.oracle", "zstar_table"),
    "oracle.expected_contraction": ("dfinito.oracle", "expected_contraction"),
    "problems.load_instance": ("dfinito.problems", "load_instance"),
    "problems.gen_least_squares": ("dfinito.problems", "gen_least_squares"),
    "problems.gen_heterogeneous": ("dfinito.problems", "gen_heterogeneous"),
    "problems.gen_logistic": ("dfinito.problems", "gen_logistic"),
    "problems.make_synthetic_logistic": ("dfinito.problems", "make_synthetic_logistic"),
    "sampling.epoch_order": ("dfinito.sampling", "epoch_order"),
    "baselines.svrg_run": ("dfinito.baselines", "svrg_run"),
    "baselines.saga_run": ("dfinito.baselines", "saga_run"),
    **{
        f"verify.suite.{suite}": ("dfinito.verify", f"suite_{suite}")
        for suite in ("operators", "bounds", "ordering", "equivalence", "steps")
    },
}
COUNTED = {"model.component_grad": ("dfinito.model", "ProblemInstance.component_grad")}
OPTIONAL = {"cli.baseline_records", "cli.write_csv"}

# name, unit; the order in which the report lists them
PER_LAYER = [
    ("kernels.epoch_s", "s"),
    ("kernels.epoch_calls", "count"),
    ("kernels.bytes_computed", "B"),
    ("kernels.flops_computed", "flop"),
    ("kernels.generic_over_numpy", "ratio"),
    ("engine.run_self_s", "s"),
    ("engine.epoch_generic_s", "s"),
    ("engine.epoch_literal_s", "s"),
    ("engine.apply_Tpi_s", "s"),
    ("engine.path.kernel", "count"),
    ("engine.path.generic", "count"),
    ("engine.path.literal", "count"),
    ("diagnostics.grad_map_residual_s", "s"),
    ("diagnostics.records", "count"),
    ("diagnostics.bounds_s", "s"),
    ("diagnostics.trace_to_epoch_ratio", "ratio"),
    ("model.full_grad_s", "s"),
    ("model.full_grad_calls", "count"),
    ("model.component_grad_calls", "count"),
    ("oracle.solve_reference_s", "s"),
    ("oracle.solve_reference_calls", "count"),
    ("oracle.reference_useful_ratio", "ratio"),
    ("oracle.zstar_table_s", "s"),
    ("oracle.expected_contraction_s", "s"),
    ("problems.load_instance_s", "s"),
    ("problems.instance_bytes", "B"),
    ("problems.generate_s", "s"),
    ("sampling.epoch_order_s", "s"),
    ("baselines.svrg_run_s", "s"),
    ("baselines.saga_run_s", "s"),
    ("cli.baseline_records_s", "s"),
    ("cli.write_csv_s", "s"),
    ("cli.csv_bytes", "B"),
    ("cli.self_s", "s"),
    ("verify.suite.operators_s", "s"),
    ("verify.suite.bounds_s", "s"),
    ("verify.suite.ordering_s", "s"),
    ("verify.suite.equivalence_s", "s"),
    ("verify.suite.steps_s", "s"),
    ("trace.overhead_frac", "ratio"),
]
# counts that must repeat exactly between traced passes of one workload
EXACT_COUNTS = (
    "kernels.epoch_calls",
    "oracle.solve_reference_calls",
    "model.component_grad_calls",
    "diagnostics.records",
    "engine.path.kernel",
    "engine.path.generic",
    "engine.path.literal",
)
# metrics needing a wrapper that may be missing: metric -> span it comes from
NEEDS_SPAN = {"cli.baseline_records_s": "cli.baseline_records",
              "cli.write_csv_s": "cli.write_csv", "cli.csv_bytes": "cli.write_csv"}

EPOCHS = ("kernels.epoch", "engine.epoch_generic", "engine.epoch_literal")
BOUNDS = ("diagnostics.bound_convex", "diagnostics.bound_sc", "diagnostics.pi_norm_sq")
GENERATORS = ("problems.gen_least_squares", "problems.gen_heterogeneous",
              "problems.gen_logistic", "problems.make_synthetic_logistic")


def kernel_work(problem, z):
    """(bytes, flops) one ``kernels.epoch_inplace`` call computes from shapes.

    Per inner step the least-squares kernel reads A_i twice (forward and
    transposed product), b_i once, and reads and writes z_i, zbar and x;
    the logistic kernel reads w_i twice. The epoch-end recompute reads the
    table once. Cache reuse is ignored, so these are computed counts, not
    measured traffic.
    """
    n, d = z.shape
    if problem.kind == "least_squares":
        k = problem.A.shape[1]
        step_bytes, step_flops = 8 * (2 * k * d + k + 6 * d), 4 * k * d + 2 * k + 8 * d
    else:
        step_bytes, step_flops = 8 * (2 * d + 1 + 6 * d), 4 * d + 10 + 8 * d
    return n * step_bytes + 8 * n * d, n * step_flops + n * d


def problem_fingerprint(p):
    """Content key of an instance, cheap enough to take per reference solve."""
    data = p.A if p.kind == "least_squares" else p.W
    head = data.ravel()[:256].tobytes() if data is not None else b""
    key = repr((p.kind, p.n, p.d, p.L, p.mu, p.regularizer)).encode() + head
    return hashlib.sha256(key).hexdigest()


class Tracer:
    """Records spans and counts at the dfinito layer boundaries of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, command index]
        self.counts = {name: 0 for name in COUNTED}
        self.extra = {"kernels.bytes_computed": 0, "kernels.flops_computed": 0,
                      "problems.instance_bytes": 0, "cli.csv_bytes": 0}
        self.fingerprints = []
        self.command = -1
        self.missing = []
        self._stack = []
        self._restore = []

    # ------------------------------------------------------------ wrappers

    def _after(self, name, args):
        """Per-call counts taken after the span's end stamp."""
        if name == "kernels.epoch":
            nbytes, flops = kernel_work(args[0], args[1])
            self.extra["kernels.bytes_computed"] += nbytes
            self.extra["kernels.flops_computed"] += flops
        elif name == "problems.load_instance":
            self.extra["problems.instance_bytes"] += os.path.getsize(args[0])
        elif name == "cli.write_csv":
            self.extra["cli.csv_bytes"] += os.path.getsize(args[0])
        elif name == "oracle.solve_reference":
            self.fingerprints.append(problem_fingerprint(args[0]))

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            self._after(name, args)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------- install

    def _replace(self, module, attr, make):
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            owner = getattr(module, cls_name)
            orig = owner.__dict__[method]
            self._set(owner, method, make(orig))
            return
        orig = getattr(module, attr)
        wrapper = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "dfinito" or mod_name.startswith("dfinito."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is orig:
                                self._set_item(value, dkey, wrapper)

    def _set(self, owner, key, value):
        self._restore.append((setattr, owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _set_item(self, mapping, key, value):
        self._restore.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def install(self):
        """Wrap every boundary; returns the span names whose target is absent."""
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, (mod_name, attr) in table.items():
                module = importlib.import_module(mod_name)
                try:
                    self._replace(module, attr, functools.partial(make, name))
                except (AttributeError, KeyError):
                    if name not in OPTIONAL:
                        raise
                    self.missing.append(name)
        return self.missing

    def uninstall(self):
        while self._restore:
            setter, owner, key, value = self._restore.pop()
            setter(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def export(self):
        return {"spans": self.spans, "counts": self.counts, "extra": self.extra,
                "fingerprints": self.fingerprints, "missing": self.missing}


# ----------------------------------------------------------------- metrics


def layer_metrics(trace):
    """Per-layer metrics of one traced pass, from :meth:`Tracer.export` data.

    A group's time counts each span once: a span nested inside another span
    of the same group (``pi_norm_sq`` inside ``bound_convex``) is skipped.
    Self time is a span's duration minus its direct children's.
    """
    spans = trace["spans"]
    children = [0.0] * len(spans)
    by_name = {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(idx)
        if parent >= 0:
            children[parent] += end - start

    def has_ancestor(idx, names):
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    def total(*names, under=None):
        return sum(
            spans[i][2] - spans[i][1]
            for name in names for i in by_name.get(name, ())
            if not has_ancestor(i, names) and (under is None or has_ancestor(i, (under,)))
        )

    def calls(name, parent=None):
        return sum(
            1 for i in by_name.get(name, ())
            if parent is None or (spans[i][3] >= 0 and spans[spans[i][3]][0] == parent)
        )

    def self_time(name):
        return sum(spans[i][2] - spans[i][1] - children[i] for i in by_name.get(name, ()))

    epoch_in_run = total(*EPOCHS, under="engine.run")
    trace_in_run = total("diagnostics.grad_map_residual", *BOUNDS, under="engine.run")
    solves = len(trace["fingerprints"])
    m = {
        "kernels.epoch_s": total("kernels.epoch"),
        "kernels.epoch_calls": calls("kernels.epoch"),
        "kernels.bytes_computed": trace["extra"]["kernels.bytes_computed"],
        "kernels.flops_computed": trace["extra"]["kernels.flops_computed"],
        "engine.run_self_s": self_time("engine.run"),
        "engine.epoch_generic_s": total("engine.epoch_generic"),
        "engine.epoch_literal_s": total("engine.epoch_literal"),
        "engine.apply_Tpi_s": total("engine.apply_Tpi"),
        "engine.path.kernel": calls("kernels.epoch", parent="engine.run"),
        "engine.path.generic": calls("engine.epoch_generic", parent="engine.run"),
        "engine.path.literal": calls("engine.epoch_literal", parent="engine.run"),
        "diagnostics.grad_map_residual_s": total("diagnostics.grad_map_residual"),
        "diagnostics.records": calls("diagnostics.grad_map_residual"),
        "diagnostics.bounds_s": total(*BOUNDS),
        "diagnostics.trace_to_epoch_ratio": trace_in_run / epoch_in_run if epoch_in_run else 0.0,
        "model.full_grad_s": total("model.full_grad"),
        "model.full_grad_calls": calls("model.full_grad"),
        "model.component_grad_calls": trace["counts"]["model.component_grad"],
        "oracle.solve_reference_s": total("oracle.solve_reference"),
        "oracle.solve_reference_calls": solves,
        "oracle.reference_useful_ratio":
            len(set(trace["fingerprints"])) / solves if solves else 0.0,
        "oracle.zstar_table_s": total("oracle.zstar_table"),
        "oracle.expected_contraction_s": total("oracle.expected_contraction"),
        "problems.load_instance_s": total("problems.load_instance"),
        "problems.instance_bytes": trace["extra"]["problems.instance_bytes"],
        "problems.generate_s": total(*GENERATORS),
        "sampling.epoch_order_s": total("sampling.epoch_order"),
        "baselines.svrg_run_s": total("baselines.svrg_run"),
        "baselines.saga_run_s": total("baselines.saga_run"),
        "cli.baseline_records_s": total("cli.baseline_records"),
        "cli.write_csv_s": total("cli.write_csv"),
        "cli.csv_bytes": trace["extra"]["cli.csv_bytes"],
        "cli.self_s": self_time("cli.main"),
    }
    for suite in ("operators", "bounds", "ordering", "equivalence", "steps"):
        m[f"verify.suite.{suite}_s"] = total(f"verify.suite.{suite}")
    for metric, span in NEEDS_SPAN.items():
        if span in trace["missing"]:
            del m[metric]
    return m
