"""Golden CLI outputs: exit code, stdout digest and stderr text per command.

This grid is the one place that pins what the CLI prints.  It reaches every
branch of the construction (divisible, divisible edge, even and odd lifts,
the odd-k top blocks, complement pairing, k = 1, k = n), every certificate
path, and `decide` on a certificate family, the pairing, the LP's integral
vertex, a completed floor of a fractional vertex and a simplex-derived
certificate.  It pins `construct --trace`'s step records, the two limit
refusals, and `types`' refusal of a k outside 1..n.  The undecided output
is pinned in test_cli.py.
`verify` runs on the files that `construct` prints, on certificate files
assembled from `certificate`'s output and its `certificate-levels` line,
the way a user saves them, and on hand-made bad files: certificates that
fail one Farkas condition and factorizations edited to break one format
rule.  Every construct, the two slow decides and the limit refusals keep
a wall-clock bound, in-process.

What needs a fresh process stays with the console-script step of CI: the
entry point itself, `--help`, the usage errors that go through argparse's
top-level parser, and the peak-RSS bounds of (20, {1..19}).

Regenerate the fixture with `PYTHONPATH=src python tests/test_golden_cli.py`;
a change to any entry is a change of CLI behaviour and needs a reason.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import time
from pathlib import Path

import pytest

from hyperfactor.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")

CONSTRUCT = [
    "--n 12 --k 3",
    "--n 15 --k 5",
    "--n 11 --k 4",
    "--n 11 --k 3",
    "--n 8 --k 4",
    "--n 10 --k 10",
    "--n 16 --k 16",
    "--n 9 --k 1",
    "--n 12 --levels 2,4",
    "--n 15 --k 9",
    "--n 15 --levels 1,3,5",
    "--n 17 --k 6",
    "--n 16 --k 2",
    "--n 64 --k 1",
    "--n 64 --levels 64",
]
#: construct instances refused, with no factorization or past a limit,
#: hence no file to verify
CONSTRUCT_REJECTED = [
    "--n 7 --k 3",
    "--n 20 --k 7 --max-ground-size 20 --trace",
    "--n 48 --k 6 --max-ground-size 48",
]
#: grid instances run again with --trace: the same file, and each flow
#: step's record on stderr, the forced last step's included
CONSTRUCT_TRACED = ["--n 12 --k 3 --trace", "--n 17 --k 6 --trace"]
SOLVE = [
    "--n 27 --k 7",
    "--n 20 --k 7",
    "--n 8 --k 4",
    "--n 11 --k 3",
    "--n 16 --k 16",
    "--n 12 --levels 2,4",
    "--n 11 --levels 2,3",
    "--n 20 --levels 1,2,3,4,6,7",
    "--n 10 --levels 1,2,4,6",
]
DECIDE = [
    "--n 18 --k 6",
    "--n 12 --levels 2,4",
    "--n 11 --levels 2,3",
    "--n 10 --levels 2,3,4",
    "--n 20 --levels 1,2,3,4,6,7",
    "--n 40 --levels 2,3,4,5,6,7,8",
    # a set the old integer search gave up on after 38 s: the LP's vertex is
    # fractional, and the integer stage completes its floor in two nodes
    "--n 62 --levels 5,6,7",
    # a fractional vertex: its floor, completed by the integer stage (17,360 types)
    "--n 63 --levels 1,3,4,5,6,7,8",
]
CERTIFICATE = [
    "--n 18 --k 6",
    "--n 23 --k 12",
    "--n 40 --levels 2,3,4,5,6,7,8",
    "--n 10 --levels 2,3,4",
    # the simplex refutes (64, {1..30, 32}) over 1,696,017 types
    "--n 64 --levels " + ",".join(str(level) for level in [*range(1, 31), 32]),
    "--n 64 --k 20",
    # a family certificate with a half among its entries, and a fractional b . y
    "--n 44 --k 20",
]
#: the one refusal every command that takes --k shares
TYPES = ["--n 5 --k 0"]
#: certificate files that fail one Farkas condition each
BAD_CERTIFICATES = {
    "row-violation": "FARKAS v1\nn=7 levels=1,2,3\n2 1/2 -2\n",
    "non-negative-b.y": "FARKAS v1\nn=7 levels=1,2,3\n0 0 0\n",
}


def _edit_line(number: int, pattern: str, replacement: str):
    """An edit of a text that substitutes the first match of pattern on its
    line `number` (from 1), which must hold one."""

    def edit(text: str) -> str:
        lines = text.split("\n")
        lines[number - 1], count = re.subn(pattern, replacement, lines[number - 1], count=1)
        assert count == 1, (number, pattern)
        return "\n".join(lines)

    return edit


#: factorization files that break one format rule each: the construct whose
#: output is edited, and the edit
BAD_FACTORIZATIONS = {
    "leading-zero": ("--n 15 --k 9", _edit_line(3, r"^\{", "{0")),
    "crlf-endings": ("--n 16 --k 2", lambda text: text.replace("\n", "\r\n")),
    "descending-elements": ("--n 16 --k 2", _edit_line(5, r"\{11,16\}$", "{16,11}")),
}
#: wall-clock bounds in seconds, each command run in-process
SECONDS = {
    **{f"construct {c}": 60 for c in CONSTRUCT + CONSTRUCT_TRACED},
    "decide --n 62 --levels 5,6,7": 10,
    "decide --n 63 --levels 1,3,4,5,6,7,8": 10,
    "construct --n 48 --k 6 --max-ground-size 48": 10,
    "construct --n 20 --k 7 --max-ground-size 20 --trace": 20,
}


@functools.lru_cache(maxsize=None)
def _run(command: str) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of `hyperfactor <command>`, in-process.

    `verify` commands name the command whose output becomes the file, or
    one of BAD_CERTIFICATES or BAD_FACTORIZATIONS; their seconds are the
    verify's alone.
    """
    if command.startswith("verify "):
        source = command[len("verify "):]
        if source in BAD_CERTIFICATES:
            out = BAD_CERTIFICATES[source]
        elif source in BAD_FACTORIZATIONS:
            construct, edit = BAD_FACTORIZATIONS[source]
            out = edit(_run(f"construct {construct}")[1])
        else:
            _, out, err, _ = _run(source)
        if source.startswith("certificate "):
            n = source.split()[2]
            levels = err.split("certificate-levels: ", 1)[1].strip()
            out = f"FARKAS v1\nn={n} levels={levels}\n{out}"
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "answer.txt")
            Path(path).write_text(out, encoding="utf-8", newline="\n")
            return _capture(["verify", "--file", path])
    return _capture(command.split())


def _capture(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _commands() -> list[str]:
    commands = [f"decide {c}" for c in DECIDE]
    commands += [f"construct {c}" for c in CONSTRUCT + CONSTRUCT_REJECTED + CONSTRUCT_TRACED]
    commands += [f"solve {c}" for c in SOLVE]
    commands += [f"certificate {c}" for c in CERTIFICATE]
    commands += [f"types {c}" for c in TYPES]
    commands += [f"verify construct {c}" for c in CONSTRUCT]
    commands += [f"verify certificate {c}" for c in CERTIFICATE]
    commands += [f"verify {name}" for name in BAD_CERTIFICATES]
    commands += [f"verify {name}" for name in BAD_FACTORIZATIONS]
    return commands


def _record(command: str) -> dict:
    rc, out, err, _ = _run(command)
    return {
        "exit": rc,
        "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
        "stderr": err,
    }


def _golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", _commands())
def test_cli_output_matches_golden(command):
    assert _record(command) == _golden()[command]
    seconds = _run(command)[3]
    assert seconds <= SECONDS.get(command, math.inf), f"{command}: {seconds:.1f} s"


def test_fixture_covers_the_grid():
    assert sorted(_golden()) == sorted(_commands())
    assert set(SECONDS) <= set(_commands())


if __name__ == "__main__":
    records = {command: _record(command) for command in _commands()}
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {FIXTURE}", file=sys.stderr)
