"""The benchmark's own tests, at smoke size (g2 at q=5, type A n=3 over
GF(4), scan to 6)."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_pass

bench_pass.use_repo_source()

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from kirillov import g2  # noqa: E402
from kirillov.partitions import Partition  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    table = {line.split()[0]: line.split()[-1] for line in lines[:-2]}
    for name, unit in declared.items():
        assert table[name] == unit, name
    record = json.loads(lines[-2])["record"]
    assert record["seed"] == 3
    assert set(record["env"]) == {"nproc", "usable_cpus", "cpu", "python",
                                  "numpy", "git_sha"}
    assert record["samples"]["passes"] >= 1


@pytest.mark.parametrize("workload", ["g2-prime", "typea-ext", "symbolic"])
def test_layer_self_times_add_up_to_the_pass(workload):
    wl = bench_workloads.make(workload, smoke=True)
    wl.warm()
    wl.reference()
    rec = bench_trace.Recorder()
    _, problems, _ = bench_pass.one_pass(wl, random.Random(0), rec, pass_id=0)
    assert not problems
    own = bench_trace.self_times(rec.spans)
    children: dict = {}
    for s in rec.spans:
        children.setdefault(s["parent"], []).append(s)

    def subtree_self(span):
        return own[span["id"]] + sum(subtree_self(c)
                                     for c in children.get(span["id"], ()))

    for root in rec.spans:
        if root["name"] in ("bench.pass", "g2.census", "typea.census"):
            assert subtree_self(root) == pytest.approx(
                root["end"] - root["start"], rel=1e-9, abs=1e-12)
    (pass_span,) = [s for s in rec.spans if s["name"] == "bench.pass"]
    metrics = bench_trace.layer_metrics(rec.spans, passes=1)
    summed = sum(metrics[m] for m in bench_trace.SELF_TIME_METRICS.values())
    assert summed == pytest.approx(pass_span["end"] - pass_span["start"],
                                   rel=1e-9, abs=1e-12)


def test_g2_trace_counts_match_the_census():
    wl = bench_workloads.make("g2-prime", smoke=True)
    out = bench_pass.run_workload(wl, seed=0, seconds=0, trace=True)
    layers = out["layers"]
    assert out["failed"] == 0
    assert layers["g2.tuples"] == 5**6 and layers["g2.enum_ratio"] == 1.0
    assert layers["kernels.rank.calls"] == 6 * layers["g2.batches"]
    assert layers["kernels.rank.s"] == pytest.approx(
        sum(layers[f"kernels.rank.p{i}.s"] for i in range(1, 7)))
    assert 0 < layers["kernels.rank.pivot_ratio"] <= 1


def test_worker_spans_come_back_from_the_pool():
    wl = bench_workloads.make("g2-parallel", smoke=True)
    out = bench_pass.run_workload(wl, seed=0, seconds=0, trace=True)
    assert out["failed"] == 0
    layers = out["layers"]
    assert layers["g2.tuples"] == 5**6
    assert layers["kernels.rank.calls"] == 6 * layers["g2.batches"]
    assert layers["g2.worker.imbalance"] >= 1.0


def _corrupt_g2(wl):
    wl.expected_counts[Partition((7,))] += 1


def _corrupt_typea(wl):
    wl.expected[4][Partition((3,))] += 1


def _corrupt_symbolic(wl):
    wl.conservation[3] = wl.conservation[3] + 1


@pytest.mark.parametrize("workload, corrupt", [
    ("g2-prime", _corrupt_g2),
    ("g2-parallel", _corrupt_g2),
    ("typea-ext", _corrupt_typea),
    ("symbolic", _corrupt_symbolic),
])
def test_a_wrong_expected_count_is_reported_as_a_failure(workload, corrupt):
    wl = bench_workloads.make(workload, smoke=True)
    reference = wl.reference

    def wrong_reference():
        reference()
        corrupt(wl)

    wl.reference = wrong_reference
    out = bench_pass.run_workload(wl, seed=0, seconds=0, trace=False)
    assert out["attempted"] == 1 and out["failed"] == 1
    assert out["problems"]


def test_a_raising_pass_is_reported_as_a_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("census broke")

    monkeypatch.setattr(g2, "g2_census", broken)
    wl = bench_workloads.make("g2-prime", smoke=True)
    out = bench_pass.run_workload(wl, seed=0, seconds=0, trace=False)
    assert out["failed"] == out["attempted"] == 1
    assert "census broke" in out["problems"][0]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "g2-prime", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
