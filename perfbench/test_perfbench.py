"""The benchmark's own tests: smoke runs of every workload, the missing-wrapper
rule, the golden comparison, and refusal without the library sources.

Run from the repository root: python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def run_bench(*args, cwd=ROOT, bench_dir=HERE):
    return subprocess.run(
        [sys.executable, os.path.join(bench_dir, "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_missing_private_boundary_drops_its_metrics(monkeypatch):
    from dfinito import cli

    main = cli.main
    monkeypatch.delattr(cli, "_write_csv")
    with tracing.Tracer() as tracer:
        assert tracer.missing == ["cli.write_csv"]
        assert cli.main is not main
    assert cli.main is main
    metrics = tracing.layer_metrics(tracer.export())
    assert "cli.write_csv_s" not in metrics and "cli.csv_bytes" not in metrics
    assert "cli.baseline_records_s" in metrics


def test_golden_comparison_uses_column_scaled_tolerance(tmp_path):
    golden = tmp_path / "golden.csv"
    golden.write_text("epoch,value,flags\n0,2.0,\n1,1e-12,x\n")
    close = tmp_path / "close.csv"
    close.write_text(f"epoch,value,flags\n0,2.0,\n1,{1e-12 + 1e-7},x\n")
    far = tmp_path / "far.csv"
    far.write_text(f"epoch,value,flags\n0,2.0,\n1,{1e-5},x\n")
    text = tmp_path / "text.csv"
    text.write_text("epoch,value,flags\n0,2.0,\n1,1e-12,y\n")
    assert checks.compare_golden(str(close), str(golden)) == []
    assert checks.compare_golden(str(far), str(golden))
    assert checks.compare_golden(str(text), str(golden))


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "verify_suites", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, bench_dir=str(tmp_path / "perfbench"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
