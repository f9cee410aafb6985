"""A line-coverage gate over src/hyperfactor, with the stdlib only.

Run the whole Tier-1 suite under it, from the root of a checkout:

    PYTHONPATH=src:tests/coverage python -m pytest -q -p linecov

The plugin installs its tracer when it loads, before any test imports the
package, through sys.settrace and threading.settrace.  The tracer records
lines only in frames whose code lives in src/hyperfactor/; every other
frame gets no local tracer.  When the session ends it compares the lines
that ran with the executable lines of each module, read off the code
objects that compiling its source gives.

Each unexecuted line must be named in allowed.txt, beside this file, by its
file, its function and its text (not its number, so an unrelated edit does
not move it), with a reason.  Any other unexecuted line fails the session,
and so does an entry that names no unexecuted line, so the list cannot
outlive the line it excuses.  The gate is meant for the whole suite: a run
of some of the tests leaves lines unexecuted that the others reach.

Lines run only in a subprocess (the tests that start `python -O` or the
console script) are not seen; the allow-list names those too.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "hyperfactor"
ALLOWED = Path(__file__).with_name("allowed.txt")

_prefix = str(PACKAGE) + "/"
#: per traced file, the numbers of the lines that ran
_ran: dict[str, set[int]] = {}
#: per traced file, its source when its first frame ran: the numbers above
#: refer to it, even if the file is edited before the session ends
_source: dict[str, str] = {}
#: per file seen, whether it is traced
_traced: dict[str, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    ours = _traced.get(filename)
    if ours is None:
        ours = _traced[filename] = filename.startswith(_prefix)
        if ours:
            _ran[filename] = set()
            _source[filename] = Path(filename).read_text(encoding="utf-8")
    return _local if ours else None


sys.settrace(_global)
threading.settrace(_global)


def executable_lines(source: str, filename: str) -> dict[int, str]:
    """Each line of the module that holds an instruction, mapped to the
    qualified name of the innermost function (or class body, or <module>)
    it belongs to."""
    owner: dict[int, str] = {}

    def walk(code, qualname: str) -> None:
        for _start, _end, line in code.co_lines():
            # a module's first instruction is numbered line 0 on 3.11 and later
            if line:
                owner[line] = qualname
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                inner = const.co_name
                walk(const, inner if qualname == "<module>" else f"{qualname}.{inner}")

    walk(compile(source, filename, "exec"), "<module>")
    return owner


def read_allowed(path: Path = ALLOWED) -> dict[str, str]:
    """The allow-list: `file::function: line text` keys, each followed by an
    indented reason; `#` starts a comment line."""
    text = path.read_text(encoding="utf-8").splitlines()
    lines = [line for line in text if line.strip() and not line.lstrip().startswith("#")]
    keys, reasons = lines[0::2], lines[1::2]
    if (
        len(keys) != len(reasons)
        or len(set(keys)) != len(keys)
        or any(key[0].isspace() or not reason[0].isspace() for key, reason in zip(keys, reasons))
    ):
        raise ValueError(f"{path.name}: each entry is one line, once, followed by one indented reason")
    return dict(zip(keys, (reason.strip() for reason in reasons)))


def unexecuted() -> tuple[int, dict[str, list[int]]]:
    """The number of executable lines, and the key of each one that did not
    run with its line numbers."""
    total = 0
    missed: dict[str, list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = _source.get(str(path)) or path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = _ran.get(str(path), set())
        lines = executable_lines(source, str(path))
        total += len(lines)
        for line, qualname in sorted(lines.items()):
            if line not in ran:
                key = f"{path.name}::{qualname}: {text[line - 1].strip()}"
                missed.setdefault(key, []).append(line)
    return total, missed


_report: list[str] = []


def pytest_sessionfinish(session: pytest.Session) -> None:
    sys.settrace(None)
    threading.settrace(None)
    lines, missed = unexecuted()
    allowed = read_allowed()
    unexcused = [key for key in missed if key not in allowed]
    stale = [key for key in allowed if key not in missed]
    _report.append(
        f"{lines} executable lines in src/hyperfactor; "
        f"{sum(map(len, missed.values()))} did not run, "
        f"{len(missed) - len(unexcused)} allowed entries, {len(unexcused)} not allowed"
    )
    for key in unexcused:
        _report.append(f"not run, not allowed (line {', '.join(map(str, missed[key]))}): {key}")
    for key in stale:
        _report.append(f"allowed, but no unexecuted line matches: {key}")
    if (unexcused or stale) and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter) -> None:
    terminalreporter.write_sep("=", "line coverage of src/hyperfactor")
    for line in _report:
        terminalreporter.write_line(line)
