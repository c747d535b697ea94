"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
It checks that every metric named in BENCHMARK.json is emitted with its
unit, that every correctness check passes, that a traced run records spans
for each layer on the workloads where that layer runs, and that the
benchmark refuses to run without the library's sources.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_tracing_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
tracing = sys.modules[_tracing_spec.name] = importlib.util.module_from_spec(_tracing_spec)
_tracing_spec.loader.exec_module(tracing)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args,
                           "--seed", "3", "--seconds", "0.2", "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def results(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith('{"correct"')]


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_every_end_to_end_metric_with_checks_passing():
    proc = run("--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    *per_workload, combined = results(proc.stdout)
    assert len(per_workload) == len(WORKLOADS)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for res in per_workload:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert units(res) == want
        assert all(m["value"] > 0 for m in res["metrics"].values())
    described = {"gen_devices_per_s", "train_rows_per_s", "train_val_loss",
                 "extract_devices_per_s", "extract_latency_ms_p50", "extract_latency_ms_p99",
                 "extract_objective_pct", "fit_s_per_device", "fit_objective_pct"}
    shared = {f"{w}.{name}" for w in WORKLOADS
              for name in ("setup_s", "peak_rss_mb", "failed_ratio")}
    assert set(combined["metrics"]) == described | shared
    assert combined["correct"] and combined["failed"] == 0
    assert all(m["unit"] for m in combined["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_its_layers(workload):
    proc = run("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    (res,) = results(proc.stdout)
    assert res["correct"] and res["failed"] == 0
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    expected = {layer.name for layer in tracing.LAYERS if workload in layer.workloads}
    for name in expected:
        assert res["metrics"][name + ".calls_per_item"]["value"] > 0, name
        assert res["metrics"][name + ".self_ms_per_item"]["value"] > 0, name
    spans = (ROOT / ".perfbench-out" / f"trace-{workload}.jsonl").read_text().splitlines()
    names = {json.loads(line)[0] for line in spans}
    assert expected | {"bench.request"} <= names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "gen", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not results(proc.stdout)
