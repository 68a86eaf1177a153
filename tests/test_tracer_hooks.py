"""The benchmark's traced run wraps library functions and methods by name
(``perfbench/tracer.py``).  These tests fail when a refactor renames or
moves one of them, which would otherwise break only ``run.py --trace 1``.
The benchmark's workloads also run here once each, at the tiny sizes of
``perfbench/tests``, so a library change that breaks a name or an answer
the benchmark relies on fails this suite too."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
BENCH_TESTS_PATH = ROOT / "perfbench" / "tests" / "test_perfbench.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("perfbench_tracer", TRACER_PATH)


@pytest.fixture(scope="module")
def bench():
    """The benchmark's own tests, for their ``TINY`` sizes and the ``run``
    and ``workloads`` modules they put on the path."""
    return _load("perfbench_tests", BENCH_TESTS_PATH)


def test_function_hooks_exist(tracer):
    for modname, attr, _, _ in tracer.FUNCTION_HOOKS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), f"{modname}.{attr}"


def test_method_hooks_are_defined_on_their_class(tracer):
    """The tracer swaps ``cls.__dict__[attr]``, so an inherited method fails."""
    for modname, clsname, attr, _ in tracer.METHOD_HOOKS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert attr in vars(cls), f"{modname}.{clsname}.{attr}"


def test_guard_factory_and_cli_group_exist():
    assert callable(importlib.import_module("disentlab.verify").zigzag_guard)
    assert callable(importlib.import_module("disentlab.cli").main.main)


@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_workload_passes_its_oracles(bench, name, tmp_path):
    wl = bench.tiny(name, tmp_path)
    res = bench.run.measure(wl, seconds=0.001)
    assert res["failures"] == [] and res["failed"] == 0
    assert len(res["latencies"]) == len(wl.ops)
