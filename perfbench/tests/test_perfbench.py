"""Smoke tests of the benchmark itself, at the `tiny` sizes.

Each workload must print every metric BENCHMARK.json declares, with its
unit, and pass its own output checks on the package as it is; a corrupted
output must show up in `failed` instead of aborting the run.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from workloads import SIZES, make_inputs  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SIZES))
def test_tiny_run_emits_every_declared_metric(tmp_path, workload, trace):
    result = run.run(workload, 1, 0.0, bool(trace), str(tmp_path), size="tiny")
    declared = run.declared_metrics()[trace]
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    assert result["failed"] == 0, result["report"]["failures"]
    assert result["correct"] and result["attempted"] > 0


def _nan_predictions(monkeypatch):
    import hlsl.cli
    from hlsl.inference import MapSolution

    real = hlsl.cli.map_infer

    def corrupt(*args, **kwargs):
        solution = real(*args, **kwargs)
        return MapSolution({i: math.nan for i in solution.values}, solution.objective)

    monkeypatch.setattr(hlsl.cli, "map_infer", corrupt)


def _unstable_model(monkeypatch):
    import hlsl.cli

    real, calls = hlsl.cli.write_model, []

    def stamped(model, stream):
        real(model, stream)
        calls.append(1)
        stream.write("\n" * len(calls))  # readers skip blank lines; only the bytes change

    monkeypatch.setattr(hlsl.cli, "write_model", stamped)


def _crashing_eval(monkeypatch):
    import hlsl.cli

    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(hlsl.cli, "cmd_eval", crash)


@pytest.mark.parametrize("corrupt", [_nan_predictions, _unstable_model, _crashing_eval])
def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch, corrupt):
    corrupt(monkeypatch)
    result = run.run("learn-pool", 1, 0.0, False, str(tmp_path), size="tiny")
    assert result["failed"] > 0 and not result["correct"]
    assert result["report"]["ops_failed"] > 0
    assert set(result["metrics"]) == set(run.declared_metrics()[0])


def test_inputs_follow_the_seed(tmp_path):
    def files(seed, name):
        inp = make_inputs("sparse-large", seed, str(tmp_path / name), size="tiny")
        return [open(p, encoding="utf-8").read() for p in (inp.observed, inp.train, inp.test)]

    assert files(3, "a") == files(3, "b")
    assert files(3, "a") != files(4, "c")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable] + spec["command"][1:] + ["--workload", "learn-pool", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
