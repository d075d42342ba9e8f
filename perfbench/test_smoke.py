"""Smoke check of the benchmark itself: every workload at its tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced (16x16 frames, 20 frames,
one training step); the result line must parse, be correct and carry exactly
the metrics BENCHMARK.json lists.  A checkout without src/ must exit non-zero
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())["workloads"]


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_train_counts_one_step():
    proc = run(ROOT, "--workload", "train-desk", "--seconds", "1", "--trace", "1",
               "--tiny")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["train.step_s.p50"]["value"] > 0
    # one step: one forward and one backward of 8 convs, plus 8 holdout convs
    assert metrics["spikenet.conv1d_backward.calls"]["value"] == 8
    assert metrics["spikenet.conv1d.calls"]["value"] == 16


def _copy_benchmark(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_the_package(tmp_path):
    _copy_benchmark(tmp_path)
    proc = run(tmp_path, "--workload", "synth-mixed-64", "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_fixture_hash_mismatch_fails_setup(tmp_path):
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    fixture = tmp_path / "perfbench" / "fixtures" / "desk_epoch1.evsn"
    fixture.write_bytes(fixture.read_bytes()[:-4] + b"\0\0\0\0")
    proc = run(tmp_path, "--workload", "synth-mixed-64", "--seed", "0",
               "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode != 0
    assert "sha256" in proc.stderr
    assert proc.stdout.strip() == ""
