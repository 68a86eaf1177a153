"""Benchmark of the disentlab library: closed-loop workloads, one client.

    python3 perfbench/run.py --workload theorems --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout.  Each workload is a fixed cycle of ops built
from ``--seed``; the runner sends one op at a time and repeats whole
cycles until ``--seconds`` of op time have passed.  Every output is checked
against the benchmark's own oracles between cycles, outside the timed
region.

``--trace 0`` reports the end-to-end metrics: setup time (median over
fresh processes, from process start to the first op), ops per second
over the whole timed loop, p50/p90 op latency over every op, peak RSS and
the failed fraction.  On a shared host the CPU can switch between fast and
slow phases lasting seconds; a total over the run averages the phases,
where a median over cycles would jump from one to the other between runs.
``--trace 1`` runs every op of one cycle twice, untraced and traced, and
reports per-layer self times, counts and ratios plus the tracing overhead.
``--workload all`` runs every workload in turn, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans, counters
and provenance are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("theorems", "sweep", "sampling")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
READY = "ready"


def _import_library():
    """Put the checkout's ``src`` first on the path, or refuse to run."""
    if not (SRC / "disentlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC / 'disentlab'}; run from a disentlab checkout")
    sys.path.insert(0, str(SRC))
    import disentlab

    if Path(disentlab.__file__).resolve().parent != (SRC / "disentlab").resolve():
        sys.exit(f"perfbench: imported disentlab from {disentlab.__file__}, not from {SRC}")


# -- one pass over a cycle ---------------------------------------------------------------------


def run_op(op, tracer=None, op_id: int = 0):
    """Run one op; returns (latency, output, error).  An op that raises is
    a failed op, not a crash.  With a tracer, the op is a root span."""
    out = err = None
    t0 = perf_counter()
    try:
        if tracer is None:
            out = op.call()
        else:
            tracer.op_id = op_id
            with tracer.span(op.kind):
                out = op.call()
    except Exception as exc:
        err = exc
    return perf_counter() - t0, out, err


def run_cycle(ops):
    """Every op once, closed loop: (latencies, outputs, errors, wall seconds)."""
    start = perf_counter()
    latencies, outputs, errors = zip(*(run_op(op) for op in ops))
    return latencies, outputs, errors, perf_counter() - start


def check_cycle(ops, outputs, errors, failures: list) -> int:
    """Run each op's oracle on its output; returns the number failed and
    appends a one-line reason per failure."""
    from oracles import Mismatch

    failed = 0
    for op, out, err in zip(ops, outputs, errors):
        reason = None
        if err is not None:
            reason = f"{op.kind} raised {type(err).__name__}: {err}"
        else:
            try:
                op.check(out)
            except Mismatch as exc:
                reason = f"{op.kind}: {exc}"
            except Exception as exc:  # a malformed output fails its op
                reason = f"{op.kind}: oracle could not read output: {type(exc).__name__}: {exc}"
        if reason is not None:
            failed += 1
            failures.append(reason)
    return failed


def measure(wl, seconds: float) -> dict:
    """Whole cycles until ``seconds`` of op time have passed (at least one)."""
    latencies: list[float] = []
    failures: list[str] = []
    elapsed = 0.0
    failed = cycles = 0
    while cycles == 0 or elapsed < seconds:
        lat, outs, errs, wall = run_cycle(wl.ops)
        elapsed += wall
        cycles += 1
        latencies.extend(lat)
        failed += check_cycle(wl.ops, outs, errs, failures)
    return {"latencies": latencies, "cycles": cycles, "elapsed": elapsed, "failed": failed, "failures": failures}


def measure_traced(wl) -> dict:
    """Every op twice, untraced and traced, alternating which goes first, so
    the overhead compares the same ops at nearly the same moment.  Untraced
    runs pass through the installed but disabled wrappers.  Checks run
    after the wrappers are removed."""
    from tracer import Tracer, instrument, layer_metrics

    tracer = Tracer()
    spent = {False: 0.0, True: 0.0}
    ran, outputs, errors = [], [], []
    with instrument(tracer):
        for i, op in enumerate(wl.ops):
            for traced in (False, True) if i % 2 == 0 else (True, False):
                tracer.enabled = traced
                latency, out, err = run_op(op, tracer if traced else None, i)
                spent[traced] += latency
                ran.append(op)
                outputs.append(out)
                errors.append(err)
        tracer.enabled = False
    failures: list[str] = []
    failed = check_cycle(ran, outputs, errors, failures)
    return {
        "tracer": tracer,
        "layers": layer_metrics(tracer, spent[False], spent[True], len(wl.ops)),
        "attempted": len(ran),
        "failed": failed,
        "failures": failures,
    }


# -- setup time ------------------------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to it being ready for its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("setup probe timed out") from None
    if line.strip() != READY or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()[-500:]}")
    return ready


# -- provenance --------------------------------------------------------------------------------------


def provenance(wl, trace: bool, seconds: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "disentlab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": wl.name,
        "seed": wl.seed,
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in wl.params.items()},
        "ops_per_cycle": len(wl.ops),
        "run_seconds": seconds,
        "traced": trace,
    }


def check_counters_repeat(wl, prov: dict, layers: dict) -> str | None:
    """Compare the deterministic counters with the last traced run of the
    same workload, seed, parameters and source; record this run's."""
    from tracer import DETERMINISTIC_COUNTERS

    counters = {k: layers[k][0] for k in DETERMINISTIC_COUNTERS}
    key = {k: prov[k] for k in ("source_sha256", "workload", "seed", "params")}
    path = OUT / f"counters-{wl.name}-seed{wl.seed}.json"
    message = None
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous["key"] == key and previous["counters"] != counters:
            message = f"deterministic counters changed between runs: {previous['counters']} -> {counters}"
    path.write_text(json.dumps({"key": key, "counters": counters}) + "\n")
    return message


# -- entry points ------------------------------------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int, metrics: dict):
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def report_failures(failures: list[str]):
    for reason in failures[:20]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    if len(failures) > 20:
        print(f"perfbench: ... {len(failures) - 20} more failures", file=sys.stderr)


def run_one(args) -> int:
    _import_library()
    from workloads import BUILDERS

    OUT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        wl = BUILDERS[args.workload](args.seed, tmpdir)
        if args.setup_probe:
            print(READY, flush=True)
            return 0
        prov = provenance(wl, bool(args.trace), args.seconds)
        print(f"# disentlab benchmark  workload={wl.name}  seed={wl.seed}  trace={args.trace}")
        print("provenance " + json.dumps(prov))
        if args.trace:
            res = measure_traced(wl)
            metrics = res["layers"]
            res["tracer"].write(OUT / f"spans-{wl.name}.npz", prov)
            repeat_error = check_counters_repeat(wl, prov, metrics)
            if repeat_error:
                res["failures"].append(repeat_error)
            attempted, failed = res["attempted"], res["failed"]
            correct = failed == 0 and repeat_error is None
            for name, (value, unit) in metrics.items():
                print(f"  {name:40s} {value:>16.6g} {unit}")
        else:
            setup = [probe_setup(wl.name, wl.seed) for _ in range(SETUP_PROBES)]
            res = measure(wl, args.seconds)
            lat = res["latencies"]
            attempted, failed = len(lat), res["failed"]
            correct = failed == 0
            deciles = quantiles(lat, n=10, method="inclusive")
            metrics = {
                "setup_s": (median(setup), "s"),
                "ops_per_s": (attempted / res["elapsed"], "1/s"),
                "op_p50_ms": (1000 * deciles[4], "ms"),
                "op_p90_ms": (1000 * deciles[8], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            print(f"  ops {attempted} in {res['cycles']} cycles of {len(wl.ops)}, {res['elapsed']:.3f} s of op time")
            for name, (value, unit) in metrics.items():
                print(f"  {name:12s} {value:12.4f} {unit}")
            print(f"  {'failed_frac':12s} {failed / attempted:12.4f} ({failed}/{attempted})")
        report_failures(res["failures"])
        (OUT / f"report-{wl.name}-trace{args.trace}.json").write_text(
            json.dumps({"provenance": prov, "correct": correct, "attempted": attempted, "failed": failed,
                        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}, indent=1) + "\n"
        )
        emit(correct, attempted, failed, metrics)
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process; prints a table and a combined line."""
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        print(f"{name}: {doc['failed']}/{doc['attempted']} failed")
        for metric, m in doc["metrics"].items():
            print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
            combined[f"{name}.{metric}"] = (m["value"], m["unit"])
    emit(correct, attempted, failed, combined)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
