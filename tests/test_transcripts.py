"""Golden CLI transcripts: every command and format, the named worlds and
a world file, and one bad input per error class, each with its exit code
and exact output.  ``tests/make_transcripts.py`` regenerates the file."""

import json
import shlex
from pathlib import Path

from click.testing import CliRunner

from disentlab.cli import main

TRANSCRIPTS = Path(__file__).with_name("cli_transcripts.json")


def replay(files: dict, commands: list):
    """Run each command line (``disentlab`` arguments, shell-quoted) in
    order in one empty directory holding ``files``, yielding click's results."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in files.items():
            Path(name).write_text(text)
        for line in commands:
            yield runner.invoke(main, shlex.split(line))


def test_cli_transcripts():
    doc = json.loads(TRANSCRIPTS.read_text())
    entries = doc["entries"]
    for entry, res in zip(entries, replay(doc["files"], [e["command"] for e in entries]), strict=True):
        got = {"exit_code": res.exit_code, "stdout": res.stdout.split("\n"), "stderr": res.stderr.split("\n")}
        want = {"stderr": [""], **{k: entry[k] for k in entry if k != "command"}}
        assert got == want, entry["command"]
