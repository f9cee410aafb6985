"""Golden CLI outputs: exit code, stdout digest and stderr text per command.

The grid reaches every branch of the construction (divisible, divisible
edge, even and odd lifts, the odd-k top blocks, complement pairing, k = 1,
k = n), every certificate path, and `decide` on a certificate family, the
pairing, the LP's integral vertex and a simplex-derived certificate.  The
undecided output, a fractional vertex beyond the search, is pinned in
test_cli.py.
`verify` runs on the files that `construct` prints and on certificate files
assembled from `certificate`'s output and its `certificate-levels` line, the
way a user saves them.

Regenerate the fixture with `PYTHONPATH=src python tests/test_golden_cli.py`;
a change to any entry is a change of CLI behaviour and needs a reason.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
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
]
#: construct instances with no factorization, hence no file to verify
CONSTRUCT_REJECTED = ["--n 7 --k 3"]
SOLVE = [
    "--n 27 --k 7",
    "--n 20 --k 7",
    "--n 8 --k 4",
    "--n 11 --k 3",
    "--n 16 --k 16",
    "--n 12 --levels 2,4",
    "--n 11 --levels 2,3",
]
DECIDE = [
    "--n 18 --k 6",
    "--n 12 --levels 2,4",
    "--n 11 --levels 2,3",
    "--n 10 --levels 2,3,4",
    "--n 20 --levels 1,2,3,4,6,7",
    "--n 40 --levels 2,3,4,5,6,7,8",
]
CERTIFICATE = [
    "--n 18 --k 6",
    "--n 23 --k 12",
    "--n 40 --levels 2,3,4,5,6,7,8",
    "--n 10 --levels 2,3,4",
]
#: certificate files that fail one Farkas condition each
BAD_CERTIFICATES = {
    "row-violation": "FARKAS v1\nn=7 levels=1,2,3\n2 1/2 -2\n",
    "non-negative-b.y": "FARKAS v1\nn=7 levels=1,2,3\n0 0 0\n",
}


@functools.lru_cache(maxsize=None)
def _run(command: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `hyperfactor <command>`, in-process.

    `verify` commands name the command whose output becomes the file, or
    one of BAD_CERTIFICATES.
    """
    if command.startswith("verify "):
        source = command[len("verify "):]
        if source in BAD_CERTIFICATES:
            out = BAD_CERTIFICATES[source]
        else:
            _, out, err = _run(source)
        if source.startswith("certificate "):
            n = source.split()[2]
            levels = err.split("certificate-levels: ", 1)[1].strip()
            out = f"FARKAS v1\nn={n} levels={levels}\n{out}"
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "answer.txt")
            Path(path).write_text(out, encoding="utf-8", newline="\n")
            return _capture(["verify", "--file", path])
    return _capture(command.split())


def _capture(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _commands() -> list[str]:
    commands = [f"decide {c}" for c in DECIDE]
    commands += [f"construct {c}" for c in CONSTRUCT + CONSTRUCT_REJECTED]
    commands += [f"solve {c}" for c in SOLVE]
    commands += [f"certificate {c}" for c in CERTIFICATE]
    commands += [f"verify construct {c}" for c in CONSTRUCT]
    commands += [f"verify certificate {c}" for c in CERTIFICATE]
    commands += [f"verify {name}" for name in BAD_CERTIFICATES]
    return commands


def _record(command: str) -> dict:
    rc, out, err = _run(command)
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


def test_fixture_covers_the_grid():
    assert sorted(_golden()) == sorted(_commands())


if __name__ == "__main__":
    records = {command: _record(command) for command in _commands()}
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {FIXTURE}", file=sys.stderr)
