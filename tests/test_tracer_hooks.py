"""The benchmark's traced run wraps library functions and methods by name
(``perfbench/tracer.py``).  These tests fail when a refactor renames or
moves one of them, which would otherwise break only ``run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
