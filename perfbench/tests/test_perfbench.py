"""The benchmark's own tests: smoke-size runs, the output check, the contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench_run
import workloads
from layers import LAYERS
from repro.experiments.trace_cache import shared_trace_cache

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def _run(capsys, tmp_path, name, trace):
    code = bench_run.main(
        [
            "--workload", name, "--seed", str(workloads.REFERENCE_SEED),
            "--seconds", "0.5", "--trace", str(trace), "--smoke",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.SMOKE_WORKLOADS)
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    for layer in LAYERS:
        for suffix in ("calls", "self_s", "us_per_request", "share"):
            assert f"{layer}.{suffix}" in names


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_untraced_smoke_run_passes_check_and_emits_every_metric(capsys, tmp_path, name):
    result = _run(capsys, tmp_path, name, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_smoke_run_emits_every_layer_metric(capsys, tmp_path, name):
    result = _run(capsys, tmp_path, name, trace=1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert (metrics["faults.calls"]["value"] > 0) == (name == "churn_faults_1k")
    if name == "baselines_1k":
        assert metrics["net.server.popularity.calls"]["value"] == 0
    else:
        assert metrics["net.server.popularity.calls"]["value"] > 0
    assert os.path.exists(tmp_path / f"spans-{name}-seed{workloads.REFERENCE_SEED}.tsv.gz")


def _smoke_batch(name):
    load = workloads.workload(name, smoke=True)
    shared_trace_cache.clear()
    from repro.experiments.runner import run_spec

    return load, [run_spec(spec) for spec in load.specs(workloads.REFERENCE_SEED)]


def test_reference_check_passes_and_perturbed_reference_fails():
    load, results = _smoke_batch("socialtube_1k")
    reference = workloads.load_reference()[workloads.reference_key(load.name, True)]
    assert workloads.check(load, workloads.REFERENCE_SEED, results, reference) == []

    shifted = json.loads(json.dumps(reference))
    shifted["socialtube"]["startup_delay_ms_mean"] *= 1.5
    problems = workloads.check(load, workloads.REFERENCE_SEED, results, shifted)
    assert any("startup_delay_ms_mean" in p for p in problems)

    recount = json.loads(json.dumps(reference))
    recount["socialtube"]["events_processed"] += 1
    problems = workloads.check(load, workloads.REFERENCE_SEED, results, recount)
    assert any("events_processed" in p for p in problems)


def test_orderings_are_checked_on_every_seed():
    load, results = _smoke_batch("baselines_1k")
    assert workloads.check(load, 1, results, None) == []
    swapped = list(reversed(results))  # PA-VoD's output reported as NetTube's
    problems = workloads.check(load, 1, swapped, None)
    assert any(p.startswith("fig16") for p in problems)
    assert any(p.startswith("fig17") for p in problems)


def test_failed_check_counts_every_request_as_failed(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "check", lambda *args: ["forced failure"])
    result = _run(capsys, tmp_path, "socialtube_10k", trace=0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "socialtube_1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
