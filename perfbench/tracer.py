"""Outside-in span tracer for the benchmark's traced run.

The library is not edited.  ``instrument`` swaps each listed public
function for a wrapper at every name a caller looks it up by: the module
attribute in every ``disentlab`` module that imported it, or the class
attribute for methods.  A wrapper records one span (name, start, end,
parent span, op id) into flat in-memory arrays and, for some functions,
bumps a counter computed from the call's arguments or result.  Spans are
only written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Spans and counters of one traced pass, held in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.op_id = -1
        self.enabled = False
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def count(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path, provenance: dict):
        """Dump every span plus the name table and provenance as one .npz."""
        meta = json.dumps({"names": self.names, "counters": self.counters, "provenance": provenance})
        np.savez(path, meta=np.array(meta), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other.
    """
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


# -- wrappers ------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _wrap(tracer: Tracer, fn, name, after=None):
    """Span around ``fn``; ``name`` may be a function of (args, kwargs)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.begin(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


def _closure_name(args, kwargs):
    guarded = _arg(args, kwargs, 3, "guard") is not None
    return "calculus.closure_guarded" if guarded else "calculus.closure_unguarded"


def _closure_atoms(tracer, args, kwargs, result):
    tracer.count(_closure_name(args, kwargs) + ".atoms", len(result))


def _cli_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "args") or ["?"]
    return f"cli.{argv[0]}"


def _score_name(args, kwargs):
    return "metrics.mc_score" if _arg(args, kwargs, 2, "mode", "exact") == "mc" else "metrics.exact_score"


def _score_samples(tracer, args, kwargs, result):
    if result.mode == "mc":
        tracer.count("metrics.mc_samples", 2 * result.samples)  # numerator and denominator draws


def _count_len(key):
    def after(tracer, args, kwargs, result):
        tracer.count(key, len(result))

    return after


def _dataset_bytes(tracer, args, kwargs, result):
    tracer.count("supervision.dataset_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _counting_guard_factory(tracer: Tracer, zigzag_guard):
    """Wrap ``verify.zigzag_guard`` so every guard it returns counts its
    consultations and the rule applications it suppresses."""

    @functools.wraps(zigzag_guard)
    def factory(support):
        guard = zigzag_guard(support)
        if not tracer.enabled:
            return guard

        def counted(rule, I, J):
            allowed = guard(rule, I, J)
            tracer.count("calculus.guard.calls")
            if not allowed:
                tracer.count("calculus.guard.suppressed")
            return allowed

        return counted

    return factory


# (module, attribute, span name, counter hook) for module-level functions.
FUNCTION_HOOKS = [
    ("disentlab.worlds", "random_world", "worlds.random_world", None),
    ("disentlab.worlds", "zigzag_connected_support", "worlds.zigzag", None),
    ("disentlab.supervision", "augmented_table", "supervision.augmented_table", None),
    ("disentlab.supervision", "tables_match", "supervision.tables_match", None),
    ("disentlab.supervision", "sample_records", "supervision.sample_records", _count_len("supervision.records")),
    ("disentlab.supervision", "write_dataset", "supervision.write_dataset", _dataset_bytes),
    ("disentlab.supervision", "read_dataset", "supervision.read_dataset", None),
    ("disentlab.learner", "enumerate_matched", "learner.enumerate_matched", _count_len("learner.matched")),
    ("disentlab.metrics", "holds", "metrics.holds", None),
    ("disentlab.metrics", "mig", "metrics.mig", None),
    ("disentlab.metrics", "normalized_consistency", _score_name, _score_samples),
    ("disentlab.metrics", "normalized_restrictiveness", _score_name, _score_samples),
    ("disentlab.metrics", "mc_match_check", "metrics.mc_match_check", None),
    ("disentlab.calculus", "closure", _closure_name, _closure_atoms),
    ("disentlab.calculus", "plan_supervision", "calculus.plan_supervision", None),
    ("disentlab.calculus", "parse_facts", "calculus.parse_facts", None),
    ("disentlab.verify", "check_nuisance_guarantee", "verify.check_nuisance_guarantee", None),
    ("disentlab.verify", "run_counterexample_suite", "verify.run_counterexample_suite", None),
    ("disentlab.verify", "soundness_sweep", "verify.soundness_sweep", None),
]

# (module, class, method, span name) for methods, looked up on the class.
METHOD_HOOKS = [
    ("disentlab.worlds", "CandidateModel", "__init__", "worlds.candidate_model"),
    ("disentlab.worlds", "CandidateModel", "observe", "worlds.observe"),
    ("disentlab.continuous", "DiskRotationWorld", "sample_latents", "continuous.sample_latents"),
    ("disentlab.continuous", "DiskRotationWorld", "resample_latents", "continuous.resample_latents"),
    ("disentlab.calculus", "FactSet", "trace_lines", "calculus.trace_lines"),
]


def _rebind_everywhere(original, replacement, undo: list):
    """Point every ``disentlab`` module attribute bound to ``original`` at
    ``replacement`` (callers import names with ``from .x import f``)."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "disentlab" or modname.startswith("disentlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)


@contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    undo: list = []
    try:
        for modname, attr, name, after in FUNCTION_HOOKS:
            original = getattr(sys.modules[modname], attr)
            _rebind_everywhere(original, _wrap(tracer, original, name, after), undo)
        for modname, clsname, attr, name in METHOD_HOOKS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, original, name))
        guard_factory = sys.modules["disentlab.verify"].zigzag_guard
        _rebind_everywhere(guard_factory, _counting_guard_factory(tracer, guard_factory), undo)
        # CliRunner calls the group's ``main``: click parsing, dispatch and
        # output formatting, with the library calls as child spans.
        group = sys.modules["disentlab.cli"].main
        group.main = _wrap(tracer, group.main, _cli_name)
        undo.append((group, "main", None))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------------------

# Span aggregates reported as "<span>.<field>": call count, self time
# summed over the run, and inclusive time where a rate needs it as base.
SPAN_METRICS = [
    ("worlds.candidate_model", ("calls", "self_s")),
    ("worlds.random_world", ("self_s",)),
    ("worlds.observe", ("calls", "self_s")),
    ("worlds.zigzag", ("calls", "self_s")),
    ("continuous.sample_latents", ("self_s",)),
    ("continuous.resample_latents", ("self_s",)),
    ("supervision.augmented_table", ("calls", "self_s")),
    ("supervision.tables_match", ("calls", "self_s")),
    ("supervision.sample_records", ("self_s",)),
    ("supervision.write_dataset", ("self_s",)),
    ("supervision.read_dataset", ("self_s",)),
    ("learner.enumerate_matched", ("calls", "self_s")),
    ("metrics.holds", ("calls", "self_s")),
    ("metrics.mig", ("self_s",)),
    ("metrics.mc_score", ("calls", "self_s", "total_s")),
    ("metrics.mc_match_check", ("self_s",)),
    ("calculus.closure_unguarded", ("calls", "self_s")),
    ("calculus.closure_guarded", ("calls", "self_s")),
    ("calculus.plan_supervision", ("self_s",)),
    ("calculus.parse_facts", ("self_s",)),
    ("calculus.trace_lines", ("self_s",)),
    ("verify.check_nuisance_guarantee", ("self_s",)),
    ("verify.run_counterexample_suite", ("self_s",)),
    ("verify.soundness_sweep", ("self_s",)),
    ("cli.calc", ("calls", "self_s")),
]

# Counters that depend only on the inputs, never on timing: a traced pass
# over one seed must reproduce them exactly.
DETERMINISTIC_COUNTERS = [
    "learner.candidates_built",
    "learner.matched",
    "calculus.closure_unguarded.atoms",
    "calculus.closure_guarded.atoms",
    "calculus.plan.closure_calls",
    "metrics.mc_samples",
    "supervision.records",
]

COUNTER_METRICS = DETERMINISTIC_COUNTERS + [
    "calculus.guard.calls",
    "calculus.guard.suppressed",
    "supervision.dataset_bytes",
]

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "supervision.dataset_bytes": "bytes"}


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float, ops: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); layers a workload
    never reaches read zero."""
    a = tracer.arrays()
    own = self_times(a["parent"], a["start"], a["end"])
    dur = a["end"] - a["start"]
    k = len(tracer.names)
    calls = np.bincount(a["name"], minlength=k)
    self_s = np.bincount(a["name"], weights=own, minlength=k)
    total_s = np.bincount(a["name"], weights=dur, minlength=k)
    fields = {"calls": calls, "self_s": self_s, "total_s": total_s}

    has_parent = a["parent"] >= 0
    parent_name_id = np.full(len(a["name"]), -1)
    parent_name_id[has_parent] = a["name"][a["parent"][has_parent]]

    def child_count(child: str, parent_name: str) -> int:
        """Spans called ``child`` whose direct parent is called ``parent_name``."""
        if child not in tracer._ids or parent_name not in tracer._ids:
            return 0
        return int(((a["name"] == tracer._ids[child]) & (parent_name_id == tracer._ids[parent_name])).sum())

    out: dict[str, tuple[float, str]] = {}
    for span, span_fields in SPAN_METRICS:
        nid = tracer._ids.get(span)
        for field in span_fields:
            value = 0.0 if nid is None else fields[field][nid]
            out[f"{span}.{field}"] = (int(value) if field == "calls" else float(value), UNITS[field])

    counters = dict(tracer.counters)
    counters["learner.candidates_built"] = child_count("worlds.candidate_model", "learner.enumerate_matched")
    counters["calculus.plan.closure_calls"] = child_count("calculus.closure_unguarded", "calculus.plan_supervision")
    for key in COUNTER_METRICS:
        out[key] = (int(counters.get(key, 0)), UNITS.get(key, "count"))

    built, matched = out["learner.candidates_built"][0], out["learner.matched"][0]
    out["learner.match_ratio"] = (matched / built if built else 0.0, "ratio")
    samples, mc_s = out["metrics.mc_samples"][0], out["metrics.mc_score.total_s"][0]
    out["metrics.mc_samples_per_s"] = (samples / mc_s if mc_s else 0.0, "1/s")

    untraced_rate, traced_rate = ops / untraced_s, ops / traced_s
    out["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    out["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    out["trace.overhead_frac"] = ((untraced_rate - traced_rate) / untraced_rate, "ratio")
    out["trace.spans"] = (len(a["name"]), "count")
    return out
