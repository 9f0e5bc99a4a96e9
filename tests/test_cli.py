import base64
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfinito
from dfinito import baselines, cli, engine, oracle
from dfinito.cli import main, read_trace_csv
from dfinito.diagnostics import CSV_COLUMNS
from dfinito.problems import gen_logistic, save_instance


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def ls_instance(tmp_path):
    out = tmp_path / "gen"
    out.mkdir()
    code = run_cli("generate", "--kind", "least_squares", "--n", "8", "--d", "4",
                   "--k", "4", "--L", "5", "--mu", "0.5", "--out", str(out))
    assert code == 0
    return str(out / "instance.json")


def _config(tmp_path, instance, **overrides):
    cfg = {
        "problem": {"path": instance},
        "algorithm": "dfinito",
        "sampling": {"regime": "reshuffle"},
        "alpha": "theory",
        "theta": 0.5,
        "epochs": 6,
        "seeds": [0, 1],
        "trace_every": 2,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_generate_missing_out_dir_errors(tmp_path):
    code = run_cli("generate", "--kind", "least_squares",
                   "--out", str(tmp_path / "missing"))
    assert code == 2


def test_generate_heterogeneous_prints_rho(tmp_path, capsys):
    out = tmp_path / "het"
    out.mkdir()
    code = run_cli("generate", "--kind", "heterogeneous", "--n", "50", "--d", "6",
                   "--k", "6", "--L", "10", "--mu", "0.1", "--beta", "0.1",
                   "--out", str(out))
    captured = capsys.readouterr().out
    assert code == 0
    assert "rho=" in captured
    rho = float(captured.split("rho=")[1].split()[0])
    assert rho == pytest.approx(1.0 / (50 * 0.9), rel=1e-2)


def test_generate_mu_equals_L_reports_kappa_one(tmp_path, capsys):
    out = tmp_path / "k1"
    out.mkdir()
    code = run_cli("generate", "--kind", "least_squares", "--n", "4", "--d", "3",
                   "--k", "3", "--L", "2", "--mu", "2", "--out", str(out))
    assert code == 0
    assert "kappa=1" in capsys.readouterr().out


def test_run_produces_schema_and_mean(tmp_path, ls_instance):
    out = tmp_path / "runout"
    out.mkdir()
    cfg = _config(tmp_path, ls_instance)
    assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
    for fname in ("trace_seed0.csv", "trace_seed1.csv", "trace_mean.csv"):
        rows = read_trace_csv(str(out / fname))
        assert rows, fname
        assert rows[0]["epoch"] == 0
        assert rows[-1]["epoch"] == 6
    # mean equals pointwise average of the per-seed traces
    s0 = read_trace_csv(str(out / "trace_seed0.csv"))
    s1 = read_trace_csv(str(out / "trace_seed1.csv"))
    mean = read_trace_csv(str(out / "trace_mean.csv"))
    for a, b, m in zip(s0, s1, mean):
        for col in CSV_COLUMNS:
            if col in ("epoch", "grad_evals", "flags"):
                continue
            if a[col] is None or b[col] is None:
                assert m[col] is None
            else:
                assert abs(m[col] - (a[col] + b[col]) / 2) <= 1e-12 * max(1.0, abs(m[col]))


def test_run_epochs_zero_gives_initial_record(tmp_path, ls_instance):
    out = tmp_path / "zero"
    out.mkdir()
    cfg = _config(tmp_path, ls_instance, epochs=0, seeds=[0])
    assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
    rows = read_trace_csv(str(out / "trace_seed0.csv"))
    assert len(rows) == 1 and rows[0]["epoch"] == 0


def test_run_deterministic_bytes(tmp_path, ls_instance):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        out.mkdir()
        cfg = _config(tmp_path, ls_instance, seeds=[3])
        assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
        outs.append((out / "trace_seed3.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_seed_flag_overrides_config(tmp_path, ls_instance):
    out = tmp_path / "flagged"
    out.mkdir()
    cfg = _config(tmp_path, ls_instance)
    assert run_cli("run", "--config", cfg, "--out", str(out), "--seed", "7") == 0
    assert (out / "trace_seed7.csv").exists()
    assert not (out / "trace_seed0.csv").exists()


def test_run_baseline_algorithms(tmp_path, ls_instance):
    for algo in ("prox_gd", "svrg", "saga", "finito_uniform"):
        out = tmp_path / algo
        out.mkdir()
        cfg = _config(tmp_path, ls_instance, algorithm=algo, seeds=[0])
        assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
        rows = read_trace_csv(str(out / "trace_seed0.csv"))
        assert rows[-1]["grad_map_residual_sq"] is not None


def test_run_sgd_theory_step_rejected(tmp_path, ls_instance):
    out = tmp_path / "sgd"
    out.mkdir()
    cfg = _config(tmp_path, ls_instance, algorithm="sgd", seeds=[0])
    assert run_cli("run", "--config", cfg, "--out", str(out)) == 2
    cfg = _config(tmp_path, ls_instance, algorithm="sgd", seeds=[0], alpha=0.01)
    assert run_cli("run", "--config", cfg, "--out", str(out)) == 0


def test_run_bad_format_and_missing_config(tmp_path, ls_instance):
    cfg = _config(tmp_path, ls_instance)
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path), "--format", "parquet") == 2
    assert run_cli("run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)) == 2
    assert run_cli("run") == 2


def test_sweep_summary(tmp_path, ls_instance):
    out = tmp_path / "sweep"
    out.mkdir()
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "problem": {"path": ls_instance},
        "algorithm": "dfinito",
        "sampling": {"regime": "reshuffle"},
        "epochs": 5,
        "seeds": [0],
        "grid": {"alpha": ["theory", 0.01], "theta": [0.5, 0.9]},
    }), encoding="utf-8")
    assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
    lines = (out / "sweep_summary.csv").read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "alpha,theta,regime,final_grad_map_residual_sq,best"
    assert len(lines) == 5
    assert sum(line.endswith(",1") for line in lines[1:]) == 1


def test_sweep_solves_reference_once(tmp_path, ls_instance, monkeypatch):
    calls = []
    solve = oracle.solve_reference

    def counted(p, tol):
        calls.append(tol)
        return solve(p, tol=tol)

    monkeypatch.setattr(oracle, "solve_reference", counted)
    grid = {"alpha": ["theory", 0.1], "theta": [0.5, 0.9],
            "sampling": [{"regime": "reshuffle"}, {"regime": "cyclic"}]}

    def sweep(tag, grid):
        out, cfg_path = tmp_path / tag, tmp_path / f"{tag}.json"
        out.mkdir()
        cfg_path.write_text(json.dumps({
            "problem": {"path": ls_instance}, "algorithm": "dfinito", "epochs": 3,
            "seeds": [0, 1], "grid": grid,
        }), encoding="utf-8")
        assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
        # alpha, theta, regime and final residual; "best" differs by design
        return [line.rsplit(",", 1)[0] for line in
                (out / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()[1:]]

    rows = sweep("all", grid)
    assert len(rows) == 8 and len(calls) == 1
    # each cell swept alone, with its own x*, ends at the same residual
    for idx, (alpha, theta, smp) in enumerate(itertools.product(*grid.values())):
        assert sweep(f"cell{idx}", {"alpha": [alpha], "theta": [theta], "sampling": [smp]}) \
            == [rows[idx]]
    assert len(calls) == 1 + 8


@pytest.mark.parametrize("algorithm, regime, runs", [
    ("dfinito", "cyclic", 1), ("dfinito", "adaptive", 1), ("prox_gd", "reshuffle", 1),
    ("dfinito", "reshuffle", 2),
])
def test_seeds_of_an_unseeded_cell_share_one_run(tmp_path, ls_instance, monkeypatch,
                                                 algorithm, regime, runs):
    calls = []
    for module, name in ((engine, "run"), (baselines, "prox_gd_run")):
        def counted(*args, _orig=getattr(module, name), **kwargs):
            calls.append(name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    out = tmp_path / "out"
    out.mkdir()
    cfg = _config(tmp_path, ls_instance, algorithm=algorithm, sampling={"regime": regime},
                  seeds=[0, 1])
    assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
    assert len(calls) == runs
    same = (out / "trace_seed0.csv").read_bytes() == (out / "trace_seed1.csv").read_bytes()
    assert same == (runs == 1)


def test_sweep_requires_grid(tmp_path, ls_instance):
    cfg = _config(tmp_path, ls_instance)
    assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("command, overrides, named", [
    ("run", {"sampling": ["x"]}, "sampling"),
    ("run", {"sampling": {"regime": "x"}}, "'x'"),
    ("run", {"problem": {"generator": {"kind": "least_squares", "n": 8, "L": 5.0}}}, "'d'"),
    ("run", {"epoch": 2}, "'epoch'"),
    ("run", {"problem": {"generator": {"kind": "logistic", "n": 8, "d": 2, "kappa": 10,
                                       "dim": 2}}}, "'dim'"),
    ("run", {"grid": {"theta": [0.5]}}, "'grid'"),
    ("run", {"theta": "high"}, "theta"),
    ("run", {"epochs": 2.5}, "epochs"),
    ("run", {"problem": {"generator": {"kind": "quadratic", "n": 8}}}, "'quadratic'"),
    ("sweep", {"grid": {"alpha": [0.1], "gamma": [0.5]}}, "'gamma'"),
    ("sweep", {"grid": {"sampling": [{"regime": "cyclic", "oder": [0]}]}}, "'oder'"),
])
def test_malformed_config_exits_2_naming_field(tmp_path, ls_instance, capsys, command,
                                               overrides, named):
    cfg = _config(tmp_path, ls_instance, **overrides)
    assert run_cli(command, "--config", cfg, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not list(tmp_path.glob("*.csv"))


def _encoded(values, shape):
    """An instance-file array in its encoded form, written out by hand."""
    raw = np.asarray(values, dtype="<f8").tobytes()
    return {"dtype": "<f8", "shape": shape, "base64": base64.b64encode(raw).decode("ascii")}


@pytest.mark.parametrize("field, value, named", [
    ("regularizer", None, "missing field regularizer"),
    ("n", "30", "n: expected integer, got str"),
    ("kind", "quadratic", "kind: unknown serialized kind 'quadratic'"),
    ("certificate.t.dtype", "<f4", "certificate.t: dtype '<f4' is not '<f8'"),
    ("certificate.t.base64", "!!!!", "certificate.t: Only base64 data is allowed"),
    ("certificate.t.shape", [30, 5], "certificate.t: 960 bytes do not fill shape [30, 5]"),
    ("A", [[0.0] * 4] * 30, "A must have shape (n, k, d), got (30, 4)"),
    ("A", [[[None] + [0.0] * 3] + [[0.0] * 4] * 3] + [[[0.0] * 4] * 4] * 29,
     "A: non-numeric entry null"),
    ("A", [[[0.0] * 4] * 4] * 29 + [[[0.0] * 4] * 3 + [[0.0, True, 0.0, 0.0]]],
     "A: non-numeric entry true"),
    ("b", _encoded([0.0] * 119 + [math.nan], [30, 4]), "b: non-finite entry nan"),
    ("certificate.t", _encoded([-math.inf] + [0.0] * 119, [30, 4]),
     "certificate.t: non-finite entry -inf"),
], ids=["missing_key", "wrong_type", "unknown_kind", "bad_dtype", "bad_base64",
        "bytes_do_not_fill_shape", "wrong_rank", "list_null", "list_true", "encoded_nan",
        "encoded_inf"])
def test_malformed_instance_exits_2_naming_file_and_field(tmp_path, capsys, field, value,
                                                          named):
    assert run_cli("generate", "--kind", "heterogeneous", "--n", "30", "--d", "4",
                   "--k", "4", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "instance.json").read_text(encoding="utf-8"))
    *parents, key = field.split(".")
    node = doc
    for part in parents:
        node = node[part]
    if value is None:
        del node[key]
    else:
        node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("run", "--config", _config(tmp_path, str(bad)), "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {bad}: {named}\n"
    assert not list(tmp_path.glob("*.csv"))


def test_unknown_schedule_exits_2_before_reference_solve(tmp_path, ls_instance, monkeypatch,
                                                         capsys):
    def fail(p, tol):
        raise AssertionError("x* was solved before the config was checked")

    monkeypatch.setattr(oracle, "solve_reference", fail)
    cfg = _config(tmp_path, ls_instance, algorithm="sgd", alpha=0.1, schedule="x")
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: unknown schedule 'x'\n"


def test_diverging_saga_exits_2_on_non_finite_iterate(tmp_path, ls_instance, capsys):
    # each inner step multiplies the error by about alpha * L = 5e10, so the
    # iterate overflows within the 48 steps of six epochs
    cfg = _config(tmp_path, ls_instance, algorithm="saga", alpha=1e10, seeds=[0])
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: vector contains NaN or infinite entries\n"
    assert not list(tmp_path.glob("*.csv"))


def test_diverging_logistic_exits_2_on_non_finite_iterate(tmp_path, capsys):
    # each step multiplies the mean by 1 + (1 - alpha * ridge) / n, far below -1
    # here, so it overflows within six epochs
    problem = {"generator": {"kind": "logistic", "n": 40, "d": 5, "kappa": 10, "seed": 0}}
    cfg = _config(tmp_path, None, problem=problem, alpha=1e6, theta=1.0, seeds=[0])
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert run_cli("run", "--config", cfg, "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: vector contains NaN or infinite entries\n"
    assert not list(tmp_path.glob("*.csv"))


def test_duplicate_seeds_rejected(tmp_path, ls_instance, capsys):
    cfg = _config(tmp_path, ls_instance, seeds=[0, 1, 0])
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path)) == 2
    assert "seed 0" in capsys.readouterr().err
    cfg = _config(tmp_path, ls_instance)
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path),
                   "--seed", "1", "--seed", "1") == 2
    assert "seed 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_subcommands_reject_flags_they_do_not_read(tmp_path, ls_instance, capsys):
    for argv in (["order", "--instance", ls_instance, "--config", "x"],
                 ["verify", "--out", str(tmp_path)],
                 ["run", "--config", "x", "--suite", "steps"],
                 ["sweep", "--config", "x", "--format", "csv"],
                 ["generate", "--kind", "logistic", "--out", str(tmp_path), "--config", "x"]):
        assert run_cli(*argv) == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_reference_failure_exits_2(tmp_path, ls_instance, monkeypatch, capsys):
    def fail(p, tol):
        raise oracle.OracleError("no convergence within 10 iterations")

    monkeypatch.setattr(oracle, "solve_reference", fail)
    cfg = _config(tmp_path, ls_instance)
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path)) == 2
    assert run_cli("order", "--instance", ls_instance) == 2
    assert capsys.readouterr().err.count("error: no convergence") == 2


def test_readme_config_schema_matches_reader(tmp_path, ls_instance):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Run config schema")[1].split("\n### ")[0]
    listed = {m.group(1): re.findall(r"`(\w+)`", m.group(2))
              for m in re.finditer(r"^- ([\w ]+) keys: (.*)$", section, re.M)}
    accepted = {"config": cli.CONFIG_KEYS, "problem": cli.PROBLEM_KEYS,
                "sampling": cli.SAMPLING_KEYS, "grid": cli.GRID_AXES,
                **{f"{kind} generator": keys for kind, keys in cli.GENERATOR_KEYS.items()}}
    assert {group: sorted(keys) for group, keys in listed.items()} == \
        {group: sorted(keys) for group, keys in accepted.items()}
    example = json.loads(section.split("```json")[1].split("```")[0])
    out = tmp_path / "example"
    out.mkdir()
    example["problem"]["path"] = ls_instance
    example["output"] = str(out)
    cfg_path = tmp_path / "example.json"
    cfg_path.write_text(json.dumps(example), encoding="utf-8")
    assert run_cli("run", "--config", str(cfg_path)) == 0
    assert (out / "trace_mean.csv").exists()


def test_verify_steps_suite_exit_zero(capsys):
    assert run_cli("verify", "--suite", "steps") == 0
    out = capsys.readouterr().out
    assert "PASS step_size_dfinito_rr" in out


def test_verify_unknown_suite(capsys):
    assert run_cli("verify", "--suite", "bogus") == 2


def test_order_command(tmp_path, capsys):
    out = tmp_path / "het"
    out.mkdir()
    assert run_cli("generate", "--kind", "heterogeneous", "--n", "6", "--d", "3",
                   "--k", "3", "--L", "4", "--mu", "0.2", "--beta", "0.2",
                   "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("order", "--instance", str(out / "instance.json")) == 0
    text = capsys.readouterr().out
    assert "optimal order: 1 2 3 4 5 6" in text
    assert "worst order:   6 5 4 3 2 1" in text
    assert "rho=" in text and "1/n=" in text


def test_order_matches_brute_force_small(tmp_path, capsys):
    out = tmp_path / "ls"
    out.mkdir()
    assert run_cli("generate", "--kind", "least_squares", "--n", "5", "--d", "3",
                   "--k", "3", "--L", "3", "--mu", "0.3", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("order", "--instance", str(out / "instance.json")) == 0
    printed = capsys.readouterr().out
    printed_order = [int(t) - 1 for t in
                     printed.split("optimal order:")[1].split("\n")[0].split()]
    from dfinito.oracle import brute_force_best_order, solve_reference, zstar_table
    from dfinito.problems import load_instance
    p, _ = load_instance(str(out / "instance.json"))
    alpha = 2.0 / (p.L + p.mu)
    zstar = zstar_table(p, solve_reference(p, tol=1e-10), alpha)
    scores = np.einsum("ij,ij->i", zstar, zstar)  # z0 = 0 table
    best, _ = brute_force_best_order(scores)
    assert printed_order == best.tolist()


def test_order_alpha_zero_is_rejected_and_omitted_alpha_is_the_default(tmp_path, capsys):
    out = tmp_path / "ls"
    out.mkdir()
    assert run_cli("generate", "--kind", "least_squares", "--n", "5", "--d", "3",
                   "--k", "3", "--L", "3", "--mu", "0.3", "--out", str(out)) == 0
    instance = str(out / "instance.json")
    capsys.readouterr()
    assert run_cli("order", "--instance", instance, "--alpha", "0") == 2
    assert "alpha must be positive" in capsys.readouterr().err
    from dfinito.problems import load_instance
    p, _ = load_instance(instance)
    printed = {}
    for alpha in (None, 2.0 / (p.L + p.mu), 0.5 / p.L):
        flag = () if alpha is None else ("--alpha", repr(alpha))
        assert run_cli("order", "--instance", instance, *flag) == 0
        printed[alpha] = capsys.readouterr().out
    assert printed[None] == printed[2.0 / (p.L + p.mu)] != printed[0.5 / p.L]


def test_generate_heterogeneous_alpha_zero_is_rejected(tmp_path, capsys):
    assert run_cli("generate", "--kind", "heterogeneous", "--n", "6", "--d", "3", "--k", "3",
                   "--alpha", "0", "--out", str(tmp_path)) == 2
    assert "alpha must be positive" in capsys.readouterr().err
    assert not (tmp_path / "instance.json").exists()


def test_order_requires_instance():
    assert run_cli("order") == 2


def test_no_command_prints_help(capsys):
    assert run_cli() == 2


def _run_in_subprocess(cfg_path, out, blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.path.dirname(os.path.dirname(dfinito.__file__)))
    code = "import sys; from dfinito.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, "run", "--config", str(cfg_path),
                    "--out", str(out)], env=env, check=True, capture_output=True)


@pytest.mark.parametrize("kind", ["least_squares_l1", "logistic_file"])
def test_traces_independent_of_blas_threads(tmp_path, kind):
    if kind == "least_squares_l1":
        problem = {"generator": {"kind": "least_squares", "n": 400, "d": 30, "k": 30,
                                 "L": 10.0, "mu": 0.1, "reg": "l1", "reg_lam": 0.01}}
    else:
        # loaded from a file: the logistic generator's eigvalsh(W^T W) is itself
        # thread-dependent; at this size OpenBLAS threads W^T v and splits its sum
        rng = np.random.default_rng(0)
        W = rng.standard_normal((4000, 300)) / math.sqrt(300)
        y = np.where(rng.random(4000) < 0.5, -1.0, 1.0)
        save_instance(str(tmp_path / "instance.json"), gen_logistic(W, y, 0.1))
        problem = {"path": str(tmp_path / "instance.json")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": problem, "algorithm": "dfinito", "sampling": {"regime": "reshuffle"},
        "alpha": "theory", "theta": 0.5, "epochs": 2, "seeds": [0], "trace_every": 1,
    }), encoding="utf-8")
    traces = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        _run_in_subprocess(cfg_path, out, threads)
        traces.append((out / "trace_seed0.csv").read_bytes())
    assert traces[0] == traces[1]
