"""Tests of the benchmark itself: tiny workloads pass their oracles, injected
wrong answers are counted as failures, the tracer's arithmetic is right,
and the command keeps its output contract.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import workloads  # noqa: E402
from disentlab import calculus, metrics  # noqa: E402
from tracer import DETERMINISTIC_COUNTERS, Tracer, layer_metrics, self_times  # noqa: E402

TINY = {
    "theorems": {"support_max": 4, "nuisance_cards": (2, 2)},
    "sweep": {"trials": 25, "n_values": (5, 6), "sparse_per_n": 4, "dense_span": 2, "plans": 1},
    "sampling": {"records": 500, "mc_samples": 2000, "mc_candidates": 2, "suite_samples": 5000},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, tmp_path: Path, seed: int = 7):
    return workloads.BUILDERS[name](seed, tmp_path, **TINY[name])


@pytest.mark.parametrize("name", workloads.BUILDERS)
def test_tiny_workload_passes_its_oracles(name, tmp_path):
    wl = tiny(name, tmp_path)
    res = run.measure(wl, seconds=0.001)
    assert res["failures"] == []
    assert res["failed"] == 0 and len(res["latencies"]) == len(wl.ops)


def test_flipped_calc_verdict_is_a_failure(tmp_path, monkeypatch):
    wl = tiny("sweep", tmp_path)
    original = calculus.FactSet.contains
    monkeypatch.setattr(calculus.FactSet, "contains", lambda self, f: not original(self, f))
    res = run.measure(wl, seconds=0.001)
    # every calc query and plan; the soundness trials never ask FactSet.contains
    assert res["failed"] == sum(op.kind in ("op.calc", "op.plan") for op in wl.ops) > 0


def test_perturbed_mc_score_is_a_failure(tmp_path, monkeypatch):
    wl = tiny("sampling", tmp_path)
    original = metrics.normalized_consistency

    def perturbed(*args, **kwargs):
        rep = original(*args, **kwargs)
        return dataclasses.replace(rep, score=rep.score - 0.5)

    monkeypatch.setattr(metrics, "normalized_consistency", perturbed)
    res = run.measure(wl, seconds=0.001)
    # every discrete candidate's consistency op plus the rotation one
    assert res["failed"] == TINY["sampling"]["mc_candidates"] + 1
    assert all("consistency" in reason for reason in res["failures"])


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_from_a_synthetic_trace():
    tracer = Tracer()
    spans = [  # (name, parent, start, end)
        ("op.verify_guarantee", -1, 0.0, 10.0),
        ("learner.enumerate_matched", 0, 1.0, 9.0),
        ("worlds.candidate_model", 1, 2.0, 3.0),
        ("worlds.candidate_model", 1, 4.0, 5.0),
        ("worlds.candidate_model", 0, 9.5, 9.75),
    ]
    for name, parent, start, end in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(parent)
        tracer.op.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    tracer.count("learner.matched", 1)
    out = layer_metrics(tracer, untraced_s=8.0, traced_s=10.0, ops=1)
    assert out["learner.enumerate_matched.self_s"] == (6.0, "s")
    assert out["worlds.candidate_model.calls"] == (3, "count")
    assert out["worlds.candidate_model.self_s"] == (2.25, "s")
    assert out["learner.candidates_built"] == (2, "count")  # the third is outside enumerate_matched
    assert out["learner.match_ratio"] == (0.5, "ratio")
    assert out["trace.overhead_frac"][0] == pytest.approx(0.2)
    assert out["metrics.mc_samples_per_s"] == (0.0, "1/s")  # a layer the trace never reached


@pytest.mark.parametrize("name", workloads.BUILDERS)
def test_deterministic_counters_repeat(name, tmp_path):
    runs = [run.measure_traced(tiny(name, tmp_path)) for _ in range(2)]
    assert all(r["failed"] == 0 for r in runs)
    first, second = ({k: r["layers"][k] for k in DETERMINISTIC_COUNTERS} for r in runs)
    assert first == second
    assert set(runs[0]["layers"]) == {m["name"] for m in SPEC["per_layer"]}


def test_instrumentation_is_removed_after_the_traced_pass(tmp_path):
    before = (calculus.closure, calculus.FactSet.trace_lines, metrics.holds)
    run.measure_traced(tiny("sweep", tmp_path))
    assert (calculus.closure, calculus.FactSet.trace_lines, metrics.holds) == before


def _command(trace: int, cwd: Path):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sampling", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    proc = _command(trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared


def test_command_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _command(0, tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
