import ast
import csv
import errno
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from disentlab import cli
from disentlab.calculus import MAX_UNIVERSE
from disentlab.cli import main

LISTING_BUDGET_S = 12.0  # about 3x the slowest of 2.2-4.2 s measured, 2 CPUs, with and without two busy processes
MAX_UNIVERSE_BUDGET_S = 0.025  # about 3x the slowest of 2.3-8.3 ms measured, 2 CPUs, with and without two busy processes


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_world_gen_and_validate(runner, tmp_path):
    out = tmp_path / "w.json"
    res = invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,2", "--out", str(out))
    assert res.exit_code == 0
    res = invoke(runner, "world", "validate", str(out))
    assert res.exit_code == 0 and res.output == "ok\n"


def test_world_gen_stdout_is_parseable(runner):
    res = invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,2")
    doc = json.loads(res.output)
    assert doc["n"] == 2 and len(doc["prior"]) == 4
    res = invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,3,2")  # one factor per cardinality
    doc = json.loads(res.output)
    assert doc["n"] == 3 and doc["cards"] == [2, 3, 2] and len(doc["prior"]) == 12


def test_world_gen_deterministic(runner):
    a = invoke(runner, "world", "gen", "--seed", "5", "--cards", "3,2", "--corr", "0.5")
    b = invoke(runner, "world", "gen", "--seed", "5", "--cards", "3,2", "--corr", "0.5")
    assert a.output == b.output


def test_world_validate_zigzag_warning_exits_zero(runner, tmp_path):
    out = tmp_path / "zz.json"
    invoke(runner, "world", "gen", "--schematic", "zigzag-violation", "--out", str(out))
    res = invoke(runner, "world", "validate", str(out))
    assert res.exit_code == 0
    assert res.output == (
        "warning: support not zig-zag connected for I=[1] J=[2]\n"
        "warning: support not zig-zag connected for I=[1] J=[2, 3]\n"
        "warning: support not zig-zag connected for I=[1, 3] J=[2]\n"
        "warning: support not zig-zag connected for I=[1, 3] J=[2, 3]\n"
        "assumption warnings present\n"
    )


def test_world_validate_malformed_exits_two(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["world", "validate", str(bad)])
    assert res.exit_code == 2


def test_world_inspect(runner, tmp_path):
    out = tmp_path / "w.json"
    invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,2", "--out", str(out))
    res = invoke(runner, "world", "inspect", str(out))
    assert res.exit_code == 0
    assert "support size: 4" in res.output and "pairwise MI" in res.output


# a correlated 3x2 world (``world gen --seed 5 --cards 3,2 --corr 1.0``): three
# support rows out of six, with observation ids 1, 0, 2
SPARSE_WORLD_DOC = {
    "version": 1, "n": 2, "cards": [3, 2], "ordered": [True, True],
    "prior": [0.3665407309466721, 0.0, 0.0, 0.36756143669408664, 0.26589783235924136, 0.0],
    "gen": [1, -1, -1, 0, 2, -1],
}
SPARSE_WORLD_INSPECT = """\
factors: 2  cards: [3, 2]  ordered: [True, True]
support size: 3
  s=(0, 0)  p=0.3665407309466721  x=1
  s=(1, 1)  p=0.36756143669408664  x=0
  s=(2, 0)  p=0.26589783235924136  x=2
marginal s_1: [0.366541, 0.367561, 0.265898]
marginal s_2: [0.632439, 0.367561]
pairwise MI (nats):
  0.000000 0.657645
  0.657645 0.000000
"""


def test_world_inspect_golden_on_sparse_support(runner, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(SPARSE_WORLD_DOC))
    res = invoke(runner, "world", "inspect", str(path))
    assert res.exit_code == 0
    assert res.output == SPARSE_WORLD_INSPECT


def test_dataset_command(runner, tmp_path):
    w = tmp_path / "w.json"
    ds = tmp_path / "d.jsonl"
    invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,2", "--out", str(w))
    res = invoke(runner, "dataset", "--world", str(w), "--spec", "share:1", "--n", "100",
                 "--seed", "2", "--out", str(ds))
    assert res.exit_code == 0
    lines = ds.read_text().splitlines()
    assert len(lines) == 101  # header + records
    header = json.loads(lines[0])
    assert header["spec"] == "share:1" and header["seed"] == 2


def test_dataset_rank_on_unordered_exits_two(runner, tmp_path):
    w = tmp_path / "w.json"
    invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,2", "--out", str(w))
    doc = json.loads(w.read_text())
    doc["ordered"] = [True, False]
    w.write_text(json.dumps(doc))
    res = runner.invoke(main, ["dataset", "--world", str(w), "--spec", "rank:2",
                               "--n", "5", "--out", str(tmp_path / "d.jsonl")])
    assert res.exit_code == 2


def test_dataset_zero_records_header_only(runner, tmp_path):
    w = tmp_path / "w.json"
    ds = tmp_path / "d.jsonl"
    invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,2", "--out", str(w))
    res = invoke(runner, "dataset", "--world", str(w), "--spec", "label:1", "--n", "0",
                 "--out", str(ds))
    assert res.exit_code == 0
    assert len(ds.read_text().splitlines()) == 1


def test_score_identity_six_factors(runner, tmp_path):
    w = tmp_path / "w6.json"
    invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,2,2,2,2,2",
           "--out", str(w))
    res = invoke(runner, "score", "--world", str(w), "--kind", "c", "--format", "json")
    records = [json.loads(line) for line in res.output.splitlines()]
    assert len(records) == 6
    assert all(rec["score"] == 1.0 for rec in records)


def test_score_schematic_records(runner):
    res = invoke(runner, "score", "--world", "consistent-not-restrictive", "--set", "1",
                 "--format", "json")
    recs = {r["kind"]: r for r in map(json.loads, res.output.splitlines())}
    assert recs["consistency"]["score"] == 1.0
    assert recs["restrictiveness"]["score"] == 0.0


def test_score_rotation_mc(runner):
    res = invoke(runner, "score", "--world", "rotation", "--set", "1", "--samples", "20000",
                 "--format", "json")
    recs = {r["kind"]: r for r in map(json.loads, res.output.splitlines())}
    assert recs["consistency"]["mode"] == "mc"
    assert recs["restrictiveness"]["std_error"] > 0.0


def test_score_degenerate_reported_not_fatal(runner, tmp_path):
    w = tmp_path / "w.json"
    invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,2", "--out", str(w))
    res = invoke(runner, "score", "--world", str(w), "--set", "", "--kind", "c",
                 "--format", "json")
    assert res.exit_code == 0
    rec = json.loads(res.output.splitlines()[0])
    assert rec["degenerate"] is True and rec["score"] is None


def test_score_degenerate_mc_reported_not_fatal(runner, tmp_path):
    """C{} compares no factor, so its Monte-Carlo denominator is zero too."""
    w = tmp_path / "w.json"
    invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,2", "--out", str(w))
    res = invoke(runner, "score", "--world", str(w), "--set", "", "--mode", "mc", "--format", "json")
    assert res.exit_code == 0
    recs = [json.loads(line) for line in res.stdout.splitlines()]
    assert recs[0] == {"direction": "generator", "kind": "consistency", "index_set": [], "score": None,
                       "degenerate": True}
    assert recs[1]["kind"] == "restrictiveness" and recs[1]["mode"] == "mc"


def test_score_model_file(runner, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"perm": [0, 1, 3, 2]}))
    res = invoke(runner, "score", "--world", "consistent-not-restrictive", "--model-file",
                 str(model), "--set", "1", "--format", "json")
    assert res.exit_code == 0
    recs = {r["kind"]: r for r in map(json.loads, res.output.splitlines())}
    assert recs["consistency"]["score"] == 1.0


@pytest.mark.parametrize(
    "text", ['{"perm": [0, 1', '{"bijection": [0, 1, 2, 3]}', '[0, 1, 2, 3]', '{"perm": ["a"]}']
)
def test_score_malformed_model_file_exits_two(runner, tmp_path, text):
    model = tmp_path / "model.json"
    model.write_text(text)
    res = invoke(runner, "score", "--world", "consistent-not-restrictive", "--model-file",
                 str(model))
    assert res.exit_code == 2
    assert "model file" in res.output and "Traceback" not in res.output


def test_score_csv_format(runner):
    res = invoke(runner, "score", "--world", "consistent-not-restrictive", "--set", "1",
                 "--format", "csv")
    lines = res.output.splitlines()
    assert lines[0].startswith("direction,kind,index_set")
    assert len(lines) == 3


def test_score_csv_mixed_record_types(runner, tmp_path):
    w = tmp_path / "w.json"
    invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,2", "--out", str(w))
    res = invoke(runner, "score", "--world", str(w), "--set", "", "--set", "1", "--kind", "c",
                 "--facts", "C{1}", "--with-mig", "--format", "csv")
    assert res.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert [r["degenerate"] for r in rows] == ["True", "", "", ""]
    assert rows[1]["kind"] == "consistency" and rows[1]["score"] == "1.0"
    assert rows[2]["fact"] == "C{1}" and rows[2]["holds"] == "True"
    assert rows[3]["kind"] == "mig" and rows[3]["mean"] == "1.0"


CNR = ["--world", "consistent-not-restrictive"]
HALF = '"version": 1, "n": 1, "cards": [2], "prior": [0.5, 0.5]'
BAD_WORLDS = {  # world files the CLI must reject with one line
    "arity": '{"version": 1, "n": 2, "cards": [2], "prior": [0.5, 0.5], "gen": [0, 1]}',
    "n-huge": '{"version": 1, "n": 1e400, "cards": [2], "prior": [0.5, 0.5], "gen": [0, 1]}',
    "cards-huge": '{"version": 1, "n": 1, "cards": [1e400], "prior": [0.5, 0.5], "gen": [0, 1]}',
    "prior-huge": '{"version": 1, "n": 1, "cards": [2], "prior": [1%s, 0.5], "gen": [0, 1]}' % ("0" * 400),
    "gen-huge": '{%s, "gen": [0, 9223372036854775808]}' % HALF,
    "ordered-number": '{%s, "gen": [0, 1], "ordered": 5}' % HALF,
    "ordered-string": '{"version": 1, "n": 2, "cards": [2, 1], "prior": [0.5, 0.5], "gen": [0, 1], "ordered": "ab"}',
    "n-string": '{"version": 1, "n": "1", "cards": [2], "prior": [0.5, 0.5], "gen": [0, 1]}',
    "cards-float": '{"version": 1, "n": 2, "cards": [2.9, "1"], "prior": [0.5, 0.5], "gen": [0, 1]}',
    "cards-bool": '{"version": 1, "n": 2, "cards": [true, 2], "prior": [0.5, 0.5], "gen": [0, 1]}',
    "version-bool": '{"version": true, "n": 1, "cards": [2], "prior": [0.5, 0.5], "gen": [0, 1]}',
    "not-utf8": b'\xff{%s, "gen": [0, 1]}' % HALF.encode(),
    "gen-repeat": '{%s, "gen": [0, 0]}' % HALF,
    "prior-over": '{"version": 1, "n": 1, "cards": [2], "prior": [0.6, 0.5], "gen": [0, 1]}',
}


@pytest.mark.parametrize(
    "args",
    [
        ["score", *CNR, "--bijection", "a,b"],
        ["score", *CNR, "--set", "5"],
        ["score", *CNR, "--set", "x"],
        ["score", *CNR, "--samples", "0"],
        ["score", *CNR, "--samples", "-3"],
        ["score", *CNR, "--seed", "-1"],
        ["score", *CNR, "--facts", "C{1}", "--tol", "-1"],
        ["score", *CNR, "--facts", "C{1}", "--tol", "nan"],
        ["score", *CNR, "--facts", "C{1}", "--tol", "inf"],
        ["score", *CNR, "--model-file", "{tmp}"],
        ["score", "--world", "rotation", "--mode", "exact"],
        ["score", "--world", "{tmp}/arity.json"],
        ["score", "--world", "{tmp}"],
        ["dataset", *CNR, "--spec", "share:a", "--out", "{tmp}/d.jsonl"],
        ["dataset", *CNR, "--spec", "share:1", "--out", "{tmp}"],
        ["calc", "--n", "2", "--nuisance", "--query", "Ceta{5}"],
        ["calc", "--n", "3", "--query", "C{\u00b2}"],
        ["calc", "--n", "3", "--query", "C{\u0663}"],
        ["score", *CNR, "--facts", "C{\u00b2}"],
        ["verify", "--counterexamples", "--samples", "0"],
        ["verify", "--theorems", "--support-max", "0"],
        ["verify", "--theorems", "--support-max", "3"],
        ["verify", "--theorems", "--support-max", "9"],
        ["world", "validate", "{tmp}/n-huge.json"],
        ["world", "validate", "{tmp}/cards-huge.json"],
        ["world", "validate", "{tmp}/prior-huge.json"],
        ["world", "validate", "{tmp}/gen-huge.json"],
        ["world", "validate", "{tmp}/ordered-number.json"],
        ["world", "validate", "{tmp}/ordered-string.json"],
        ["world", "inspect", "{tmp}/n-string.json"],
        ["world", "inspect", "{tmp}/cards-float.json"],
        ["world", "inspect", "{tmp}/cards-bool.json"],
        ["world", "inspect", "{tmp}/version-bool.json"],
        ["world", "gen", "--out", "{tmp}"],
        ["world", "gen", "--out", "{tmp}/missing/w.json"],
        ["score", *CNR, "--set", "\u0662"],
        ["score", *CNR, "--bijection", "\u0660,\u0661,\u0662,\u0663"],
        ["world", "gen", "--cards", "\u0662,\u0663"],
        ["dataset", *CNR, "--spec", "share:\u0662", "--out", "{tmp}/d.jsonl"],
        ["score", *CNR, "--model-file", "{tmp}/missing.json"],
        ["world", "inspect", "{tmp}/not-utf8.json"],
        ["score", *CNR, "--bijection", str(2**64)],
        ["score", "--world", "rotation", "--bijection", "0,1"],
        ["world", "validate", "{tmp}/gen-repeat.json"],
        ["world", "validate", "{tmp}/prior-over.json"],
        ["world", "gen", "--n", "2"],
        ["world", "gen", "--schematic", "zigzag-violation", "--cards", "5,5,5", "--corr", "0.9", "--seed", "3"],
        ["world", "gen", "--schematic", "zigzag-violation", "--seed", "0"],
    ],
    ids=["bijection", "set-range", "set-token", "samples-zero", "samples-negative", "seed-negative",
         "tol-negative", "tol-nan", "tol-inf", "model-file-directory",
         "exact-on-continuous", "world-arity", "world-directory", "spec-token", "out-directory",
         "eta-query-range", "superscript-digit", "arabic-indic-digit", "score-superscript-digit",
         "verify-samples-zero", "support-max-zero", "support-max-three",
         "support-max-nine", "world-n-huge", "world-cards-huge", "world-prior-huge",
         "world-gen-huge", "world-ordered-number", "world-ordered-string", "world-n-string",
         "world-cards-float", "world-cards-bool", "world-version-bool", "gen-out-directory",
         "gen-out-missing-dir", "set-arabic-indic-digit", "bijection-arabic-indic-digit",
         "cards-arabic-indic-digit", "spec-arabic-indic-digit", "model-file-missing", "world-not-utf8",
         "bijection-past-int64", "bijection-on-rotation", "world-gen-repeat", "world-prior-over",
         "gen-n-removed", "schematic-with-random-options", "schematic-with-default-seed"],
)
def test_bad_input_exits_two_with_one_line(runner, tmp_path, args):
    for name, text in BAD_WORLDS.items():
        (tmp_path / f"{name}.json").write_bytes(text if isinstance(text, bytes) else text.encode())
    res = runner.invoke(main, [a.replace("{tmp}", str(tmp_path)) for a in args])
    assert res.exit_code == 2 and isinstance(res.exception, (SystemExit, type(None)))
    lines = [line for line in res.output.splitlines() if line.strip()]
    assert len(lines) == 1 and lines[0].startswith("Error:"), res.output


_GEN_BOUNDARY = [
    ["world", "gen", "--cards", cards, "--corr", corr, *schematic]
    for cards in ["", "1", "2,1", "64,65", "4097"]
    for corr in ["0", "1", "-0.1", "1.5", "nan"]
    for schematic in [[], ["--schematic", "zigzag-violation"]]
]


@pytest.mark.parametrize(
    "args",
    [*_GEN_BOUNDARY, ["world", "validate", "{big}"], ["world", "inspect", "{big}"]],
    ids=[" ".join(a[2:]) or "empty" for a in _GEN_BOUNDARY] + ["validate-2^13", "inspect-2^13"],
)
def test_world_boundary_values_exit_zero_or_two(runner, tmp_path, args):
    """``world gen`` at the edges of ``--cards`` and ``--corr``, with and
    without ``--schematic``, and a world file of 2^13 cells, above
    DEFAULT_SUPPORT_CAP: exit 0, or exit 2 with one line, never a traceback.
    The file is refused as it is loaded, before any check runs on it."""
    big = tmp_path / "big.json"
    size = 1 << 13
    big.write_text(json.dumps({"version": 1, "n": 13, "cards": [2] * 13, "prior": [1 / size] * size,
                               "gen": list(range(size))}))
    start = time.perf_counter()
    res = runner.invoke(main, [a.replace("{big}", str(big)) for a in args])
    elapsed = time.perf_counter() - start
    assert res.exception is None or isinstance(res.exception, SystemExit), res.output
    assert res.exit_code in (0, 2), res.output
    if res.exit_code == 2:
        lines = [line for line in res.output.splitlines() if line.strip()]
        assert len(lines) == 1 and lines[0].startswith("Error:"), res.output
    if "{big}" in args:
        assert res.exit_code == 2 and "exceeds the support cap" in res.output and elapsed < 1.0


@pytest.mark.parametrize("args", [[], ["world"]], ids=["top", "world"])
def test_bare_group_prints_its_help(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and res.output.startswith("Usage:") and "Commands:" in res.output


def test_errors_become_exit_two_at_one_boundary():
    """Command bodies catch nothing but the degenerate-denominator record of
    ``score``, and only ``_OneLineErrors`` turns a caught exception into a
    ``click.UsageError``; parameter types report bad values through
    ``self.fail``.  So every error takes the same one-line path to exit 2."""
    tree = ast.parse(Path(cli.__file__).read_text())
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and any(f".{kind}(" in ast.unparse(d) for d in node.decorator_list for kind in ("command", "group"))]
    assert {c.name for c in commands} >= {"world_gen", "world_validate", "dataset", "score", "calc", "verify"}
    for command in commands:
        caught = [ast.unparse(h.type) for node in ast.walk(command) if isinstance(node, ast.Try) for h in node.handlers]
        assert caught == (["DegenerateDenominator"] if command.name == "score" else []), command.name
    converters = {
        top.name
        for top in tree.body
        for handler in ast.walk(top) if isinstance(handler, ast.ExceptHandler)
        for node in ast.walk(handler)
        if isinstance(node, ast.Raise) and node.exc is not None and "UsageError" in ast.unparse(node.exc)
    }
    assert converters == {"_OneLineErrors"}


@pytest.mark.parametrize(
    "error, exit_code, output",
    [(OSError(errno.ENOSPC, "No space left on device"), 2, f"Error: [Errno {errno.ENOSPC}] No space left on device\n"),
     (BrokenPipeError(errno.EPIPE, "Broken pipe"), 1, "")],
    ids=["no-file-name", "closed-stdout"],
)
def test_os_errors_without_a_file(runner, monkeypatch, tmp_path, error, exit_code, output):
    """An OSError that names no file still exits 2 with one line; a closed
    stdout is left to click, which exits 1 and prints nothing."""
    def fail(*args):
        raise error
    monkeypatch.setattr(cli, "save_world", fail)
    res = runner.invoke(main, ["world", "gen", "--out", str(tmp_path / "w.json")])
    assert (res.exit_code, res.output) == (exit_code, output)


def test_score_world_with_non_integer_gen_exits_two(runner, tmp_path):
    w = tmp_path / "w.json"
    invoke(runner, "world", "gen", "--seed", "1", "--cards", "2,2", "--out", str(w))
    doc = json.loads(w.read_text())
    doc["gen"][1] = "one"
    w.write_text(json.dumps(doc))
    res = runner.invoke(main, ["score", "--world", str(w)])
    assert res.exit_code == 2
    assert "invalid world file" in res.output and "Traceback" not in res.output


def strict_json(text: str):
    """``json.loads`` that rejects NaN and Infinity, as RFC 8259 does."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "args",
    [["score", "--world", "rotation", "--samples", "1", "--format", "json", "--set", "1"],
     ["verify", "--counterexamples", "--samples", "1", "--format", "json"]],
    ids=["score", "verify"],
)
def test_json_output_is_strict_json(runner, args):
    """One sample makes the MC error NaN; JSON output writes it as null."""
    res = runner.invoke(main, args)
    assert res.exit_code in (0, 1), res.output
    docs = [strict_json(line) for line in res.stdout.splitlines()]
    if args[0] == "score":
        assert [doc["std_error"] for doc in docs] == [None, None]


def _fuzz_files(root: Path) -> dict:
    """Paths the fuzzed argument lists refer to by name."""
    good = root / "good.json"
    CliRunner().invoke(main, ["world", "gen", "--seed", "1", "--cards", "2,2", "--out", str(good)])
    bad = root / "bad.json"
    bad.write_text('{"version": 1, "n": 1, "cards": [2], "prior": [0.5, 0.5], "gen": [0, "x"]}')
    model = root / "model.json"
    model.write_text(json.dumps({"perm": [1, 0, 2, 3]}))
    return {"good": str(good), "bad": str(bad), "model": str(model), "dir": str(root),
            "out": str(root / "out.jsonl"), "missing": str(root / "missing.json"),
            "doc": str(root / "doc.json")}


FILES = ("good", "bad", "dir", "missing")
TOKEN = st.one_of(st.text(max_size=6), st.integers(-3, 5).map(str))
WORLDS = st.one_of(st.sampled_from(["rotation", "consistent-not-restrictive", "zigzag-violation"]),
                   st.sampled_from(FILES), TOKEN)
FACTS = st.one_of(st.sampled_from(["C{1}", "R{1,2} & D{2}", "Ceta{1}", "Ceta{9}", "C{9}", "C{", ""]), TOKEN)
OPTIONS = {
    "score": {
        "--world": WORLDS,
        "--bijection": st.one_of(st.sampled_from(["0,1,2,3", "3,2,1,0", "0,0", "a,b"]), TOKEN),
        "--model-file": st.sampled_from(["model", "bad", "dir"]),
        "--set": st.one_of(st.sampled_from(["1", "1,2", "", "3", "2,x"]), TOKEN),
        "--facts": FACTS,
        "--kind": st.sampled_from(["c", "r", "both", "q"]),
        "--direction": st.sampled_from(["gen", "enc", "both"]),
        "--mode": st.sampled_from(["exact", "mc", "fast"]),
        "--samples": st.sampled_from(["-1", "0", "1", "2", "40", "x"]),
        "--seed": TOKEN,
        "--tol": st.sampled_from(["0", "1e-3", "-1", "nan", "inf", "x"]),
        "--with-mig": st.just(None),
        "--format": st.sampled_from(["text", "json", "csv", "xml"]),
    },
    "calc": {
        "--n": st.sampled_from(["-1", "0", "1", "2", "3", "17", "x"]),
        "--axioms": FACTS,
        "--query": FACTS,
        "--nuisance": st.just(None),
        "--format": st.sampled_from(["text", "json", "csv"]),
    },
    "dataset": {
        "--world": WORLDS,
        "--spec": st.one_of(st.sampled_from(["share:1", "label:1,2", "rank:2", "change:3", "share:", "rank:a"]), TOKEN),
        "--seed": TOKEN,
        "--n": st.sampled_from(["-1", "0", "1", "30", "x"]),
        "--out": st.sampled_from(["out", "dir"]),
    },
    "world gen": {
        "--cards": st.one_of(st.sampled_from(["2,2", "3,2,2", "2", "1,2", "", "2,x", "99999,99999"]), TOKEN),
        "--corr": st.sampled_from(["0", "0.5", "1", "-0.1", "2", "nan", "x"]),
        "--schematic": st.one_of(st.sampled_from(["zigzag-violation", "consistent-not-restrictive"]), TOKEN),
        "--seed": TOKEN,
        "--out": st.sampled_from(["out", "dir"]),
    },
    "verify": {
        "--sweep": st.just(None),
        "--counterexamples": st.just(None),
        "--theorems": st.just(None),
        "--seed": TOKEN,
        "--trials": st.sampled_from(["-1", "0", "1", "3", "x"]),
        "--support-max": st.sampled_from(["0", "3", "4", "5", "9", "x"]),
        "--samples": st.sampled_from(["-1", "0", "1", "2", "50", "x"]),
        "--format": st.sampled_from(["text", "json", "csv"]),
    },
}
REQUIRED = {"score": ["--world"], "calc": ["--n"], "dataset": ["--world", "--spec", "--out"],
            "world gen": [], "verify": []}
# given first, so the suites never run at their default sizes; a drawn value overrides
BOUNDED = {"verify": ["--trials", "1", "--samples", "50", "--support-max", "4"]}
EXITS = {"verify": (0, 1, 2)}  # 1: a check failed, e.g. with too few samples

GOOD_DOC = {"version": 1, "n": 2, "cards": [2, 2], "ordered": [True, False],
            "prior": [0.25] * 4, "gen": [0, 1, 2, 3]}
ODD = st.sampled_from([10**400, -(10**400), 2**63, -(2**63) - 1, float("inf"), float("nan"), 1e300,
                       2.5, 1.0, -1, 0, 1, True, None, "x", "", [], [[2]], {}])


@st.composite
def command_lines(draw, command):
    """Required options (each dropped with probability 1/8), then a few
    optional ones, then now and then a stray positional argument."""
    options = OPTIONS[command]
    names = [name for name in REQUIRED[command] if draw(st.integers(0, 7))]
    names += draw(st.lists(st.sampled_from(sorted(options)), max_size=5))
    args = [*command.split(), *BOUNDED.get(command, [])]
    for name in names:
        args.append(name)
        value = draw(options[name])
        if value is not None:
            args.append(value)
    if not draw(st.integers(0, 7)):
        args.append(draw(TOKEN))
    return args


@st.composite
def world_lines(draw):
    """``world validate`` or ``world inspect`` on a valid document with up
    to three keys, or entries of its arrays, replaced by odd values (huge
    numbers, floats where ints go, wrong types) or dropped.  The document
    text is the last argument; the test writes it to a file."""
    doc = json.loads(json.dumps(GOOD_DOC))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(GOOD_DOC)))
        how = draw(st.sampled_from(["drop", "replace", "entry"]))
        if how == "drop":
            doc.pop(key, None)
        elif how == "entry" and isinstance(doc.get(key), list) and doc[key]:
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(ODD)
        else:
            doc[key] = draw(ODD)
    return ["world", draw(st.sampled_from(["validate", "inspect"])), json.dumps(doc)]


@pytest.mark.parametrize("command", sorted([*OPTIONS, "world"]))
def test_cli_fuzz_never_crashes(command):
    """Random argument lists exit 0 or 2 with no uncaught exception; of
    these commands only ``verify`` runs a verification, so exit 1 from any
    other would mean a crash.  Every line of ``--format json`` output is
    strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        files = _fuzz_files(Path(tmp))
        runner = CliRunner()

        @settings(max_examples=50, deadline=None, derandomize=True, database=None)
        @given(world_lines() if command == "world" else command_lines(command))
        def run(args):
            if command == "world":
                Path(files["doc"]).write_text(args[-1])
                args = [*args[:-1], "doc"]
            args = [files.get(a, a) for a in args]
            res = runner.invoke(main, args)
            assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.output)
            assert res.exit_code in EXITS.get(command, (0, 2)), (args, res.output)
            formats = [value for name, value in zip(args, args[1:]) if name == "--format"]
            if res.exit_code != 2 and formats[-1:] == ["json"]:
                for line in res.stdout.splitlines():
                    strict_json(line)

        run()


@st.composite
def fact_text(draw, n: int, eta: bool = False):
    """A conjunction of up to three well-formed C/R/D facts over 1..n, and
    over 'eta' too when ``eta``."""
    indices = [str(i) for i in range(1, n + 1)] + (["eta"] if eta else [])
    fact = st.tuples(st.sampled_from("CRD"), st.lists(st.sampled_from(indices), unique=True))
    return " & ".join(f"{kind}{{{','.join(members)}}}" for kind, members in draw(st.lists(fact, max_size=3)))


@st.composite
def accepted_lines(draw, command):
    """``score``, ``calc`` or ``verify`` argument lists of accepted values
    only, ending in ``--format json``.  A run may still exit 2 where the
    values meet badly, e.g. a Monte-Carlo mutual information gap of one
    sample, whose factors have zero entropy."""
    seed = ["--seed", str(draw(st.integers(0, 5)))]
    if command == "score":
        world = draw(st.sampled_from(["rotation", "consistent-not-restrictive", "zigzag-violation", "good"]))
        args = ["score", "--world", world, *seed, "--samples", draw(st.sampled_from(["1", "2", "40", "200"]))]
        if world == "good":
            args += ["--bijection", ",".join(map(str, draw(st.permutations(range(4)))))]
        if world != "rotation" and draw(st.booleans()):
            args += ["--mode", draw(st.sampled_from(["exact", "mc"]))]
        for _ in range(draw(st.integers(0, 2))):
            args += ["--set", ",".join(draw(st.lists(st.sampled_from("12"), unique=True)))]
        if draw(st.booleans()):
            args += ["--facts", draw(fact_text(2)), "--tol", draw(st.sampled_from(["0", "1e-3", "0.5"]))]
        args += ["--kind", draw(st.sampled_from(["c", "r", "both"]))]
        args += ["--direction", draw(st.sampled_from(["gen", "enc", "both"]))]
        if draw(st.booleans()):
            args.append("--with-mig")
    elif command == "calc":
        n, nuisance = draw(st.integers(1, 5)), draw(st.booleans())
        args = ["calc", "--n", str(n), "--axioms", draw(fact_text(n))]
        if nuisance:
            args.append("--nuisance")
        if draw(st.booleans()):
            args += ["--query", draw(fact_text(n, nuisance))]
    else:
        suites = draw(st.lists(st.sampled_from(["--sweep", "--counterexamples", "--theorems"]), unique=True))
        args = ["verify", *BOUNDED["verify"], *suites, *seed, "--trials", str(draw(st.integers(0, 3))),
                "--samples", str(draw(st.integers(1, 50)))]
    return [*args, "--format", "json"]


@pytest.mark.parametrize("command", ["calc", "score", "verify"])
def test_cli_fuzz_of_accepted_values_reaches_json(command):
    """Argument lists of accepted values mostly run to the end (exit 0, or 1
    for a failed verification) and every line they print is strict JSON.
    At least 80% of the examples must get there; all 50 of each command do."""
    with tempfile.TemporaryDirectory() as tmp:
        files = _fuzz_files(Path(tmp))
        runner = CliRunner()
        exits = []

        @settings(max_examples=50, deadline=None, derandomize=True, database=None)
        @given(accepted_lines(command))
        def run(args):
            res = runner.invoke(main, [files.get(a, a) for a in args])
            assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.output)
            assert res.exit_code in EXITS.get(command, (0, 2)), (args, res.output)
            exits.append(res.exit_code)
            if res.exit_code != 2:
                assert res.stdout.strip(), args
                for line in res.stdout.splitlines():
                    strict_json(line)

        run()
        reached = len(exits) - exits.count(2)
        assert reached >= 0.8 * len(exits), f"{reached} of {len(exits)} examples reached JSON output"


def test_calc_intersection_query(runner):
    res = invoke(runner, "calc", "--n", "3", "--axioms", "C{1,2} & C{2,3}", "--query", "C{2}")
    assert res.exit_code == 0
    assert res.output.startswith("YES")
    assert "c_intersect" in res.output


def test_calc_non_derivable(runner):
    res = invoke(runner, "calc", "--n", "3", "--axioms", "C{1,2} & C{2,3}", "--query", "R{2}")
    assert res.exit_code == 0 and res.output.startswith("NO")


def test_calc_empty_axioms_empty_d(runner):
    res = invoke(runner, "calc", "--n", "3", "--axioms", "", "--query", "D{}")
    assert res.exit_code == 0 and res.output.startswith("YES")


def test_calc_closure_listing(runner):
    res = invoke(runner, "calc", "--n", "2", "--axioms", "C{1}", "--format", "json")
    doc = json.loads(res.output)
    assert "C{1}" in doc["atoms"] and "R{2}" in doc["atoms"]


def test_calc_nuisance_query(runner):
    res = invoke(runner, "calc", "--n", "2", "--nuisance", "--axioms", "Ceta{1} & Ceta{2}",
                 "--query", "R{eta}")
    assert res.exit_code == 0 and res.output.startswith("YES")


def test_calc_at_max_universe(runner):
    """A query at n = MAX_UNIVERSE answers from the lattice, where
    saturation would list every subset of 16 factors."""
    n = MAX_UNIVERSE
    singletons = [f"C{{{i}}}" for i in range(1, n + 1)]
    start = time.perf_counter()
    yes = invoke(runner, "calc", "--n", str(n), "--axioms", " & ".join(singletons),
                 "--query", "D{1,3,5,7,9,11,13,15}", "--format", "json")
    no = invoke(runner, "calc", "--n", str(n), "--axioms", " & ".join(singletons[:-1]),
                "--query", f"C{{{n}}}", "--format", "json")
    elapsed = time.perf_counter() - start
    assert yes.exit_code == no.exit_code == 0
    doc = json.loads(yes.output)
    assert doc["entailed"]
    heads = [line.partition(" <= ")[0] for line in doc["trace"]]
    assert "C{1,3,5,7,9,11,13,15}" in heads and "R{1,3,5,7,9,11,13,15}" in heads
    assert json.loads(no.output) == {"entailed": False, "trace": []}
    assert elapsed < MAX_UNIVERSE_BUDGET_S, f"{elapsed:.3f} s"


def test_calc_listing_at_max_universe(runner):
    """Without --query, calc lists the closure of 16 singleton C axioms:
    all 2^16 C-sets, each as C and as R, from the lattice."""
    axioms = " & ".join(f"C{{{i}}}" for i in range(1, MAX_UNIVERSE + 1))
    start = time.perf_counter()
    res = invoke(runner, "calc", "--n", str(MAX_UNIVERSE), "--axioms", axioms, "--format", "json")
    elapsed = time.perf_counter() - start
    doc = json.loads(res.output)
    assert len(doc["atoms"]) == 2 ** (MAX_UNIVERSE + 1)
    assert len(doc["derived_d"]) == 2 ** MAX_UNIVERSE
    assert elapsed < LISTING_BUDGET_S, f"{elapsed:.2f} s"


def test_calc_parse_error_exits_two(runner):
    res = runner.invoke(main, ["calc", "--n", "2", "--axioms", "C{oops}", "--query", "C{1}"])
    assert res.exit_code == 2


def test_verify_counterexamples(runner):
    res = runner.invoke(main, ["verify", "--counterexamples", "--samples", "20000"])
    assert res.exit_code == 0
    assert res.output.count("[PASS]") == 5


@pytest.mark.parametrize("samples", ["1", "10"])
def test_verify_counterexamples_fail_on_too_few_samples(runner, samples):
    """At one sample the MC error is NaN and at ten it is wider than the
    gap to the thresholds, so the rotation check cannot pass."""
    res = runner.invoke(main, ["verify", "--counterexamples", "--samples", samples])
    assert res.exit_code == 1
    assert "[FAIL] rotation-consistent-unrestricted" in res.output


def test_verify_theorems_smallest_support_max(runner):
    res = runner.invoke(main, ["verify", "--theorems", "--support-max", "4"])
    assert res.exit_code == 0
    assert "[PASS] complete-share-perfect-information-gap" in res.output


def test_verify_sweep_zero_trials(runner):
    res = runner.invoke(main, ["verify", "--sweep", "--trials", "0"])
    assert res.exit_code == 0


def test_verify_json_format(runner):
    res = runner.invoke(
        main, ["verify", "--sweep", "--trials", "5", "--format", "json"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["sweep"]["passed"] is True
