"""A pytest plugin that lists the executable lines of ``src/disentlab`` no
test runs, traced with ``sys.settrace``.  A default run does not load it;
load it by name: ``python -m pytest -p tests.reach``."""

import sys
from functools import lru_cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "disentlab"
RUN: set = set()


@lru_cache(maxsize=None)
def _source(filename: str):
    """The module file of ``src/disentlab`` a code file name refers to, else None."""
    path = Path(filename).resolve()
    return path if path.parent == SRC else None


def _line(frame, event, arg):
    if event == "line":
        RUN.add((_source(frame.f_code.co_filename), frame.f_lineno))
    return _line


def _lines(code) -> set:
    """Line numbers of a code object's instructions, nested code included."""
    return {line for *_, line in code.co_lines() if line} | {
        line for c in code.co_consts if hasattr(c, "co_lines") for line in _lines(c)}


sys.settrace(lambda frame, event, arg: _line if _source(frame.f_code.co_filename) else None)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        lines = _lines(compile(path.read_text(), str(path), "exec"))
        missed = sorted(lines - {line for source, line in RUN if source == path})
        terminalreporter.write_line(f"reach {path.name}: {len(lines) - len(missed)} of {len(lines)} lines run;"
                                    f" not run: {', '.join(map(str, missed)) or 'none'}")
