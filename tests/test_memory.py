"""Bounds on the memory that writing, reading and verifying a factorization
hold beyond their inputs and results, and that the construct command holds
to write one to stdout.

The instance is (15, {1..14}): 32,766 sets in 16,383 factors, a 0.66 MiB
text.  Each bound is about one and a half times the peak measured with
Python 3.11.7, and well below the peak of the whole-file code it replaced;
each test's docstring gives both.
"""

import contextlib
import os
import tracemalloc
from functools import cache

import hyperfactor.cli as cli
from hyperfactor.combinatorics import LevelSet
from hyperfactor.decide import construct
from hyperfactor.fileformat import parse_factorization, save_factorization, write_factorization
from hyperfactor.verifier import verify_factorization

MIB = 2**20


@cache
def _fact():
    return construct(15, LevelSet.full(14))


def _transient_peak(call) -> int:
    """Bytes call() allocates at its peak beyond what it still holds when it
    returns, which is its result."""
    call()  # the set codec's tables are built on first use
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


def test_writing_a_file_holds_one_batch_of_lines(tmp_path):
    """0.21 MiB; 2.85 MiB when the lines, their join and a copy of it with
    the last newline were built before the file was written."""
    path = str(tmp_path / "f.txt")
    peak = _transient_peak(lambda: save_factorization(_fact(), path))
    assert peak < 0.35 * MIB, f"peak {peak / MIB:.2f} MiB"


def test_construct_to_stdout_writes_one_batch_of_lines(monkeypatch):
    """0.21 MiB; 1.32 MiB when the whole text was joined before it was
    written.  construct itself is left out: it returns the cached result."""
    monkeypatch.setattr(cli, "construct", lambda *args, **kwargs: _fact())

    def call():
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            assert cli.main(["construct", "--n", "15", "--k", "14"]) == 0

    peak = _transient_peak(call)
    assert peak < 0.35 * MIB, f"peak {peak / MIB:.2f} MiB"


def test_reading_holds_one_batch_of_lines():
    """0.14 MiB; 2.58 MiB with a list of all the lines and whole-file lists
    of masks, lowest bits and order tests."""
    text = write_factorization(_fact())
    peak = _transient_peak(lambda: parse_factorization(text))
    assert peak < 0.25 * MIB, f"peak {peak / MIB:.2f} MiB"


def test_verifying_a_genuine_factorization_holds_one_list_of_masks():
    """0.39 MiB; 2.10 MiB with a dict from each set to its factor."""
    assert verify_factorization(_fact()) == []
    peak = _transient_peak(lambda: verify_factorization(_fact()))
    assert peak < 0.6 * MIB, f"peak {peak / MIB:.2f} MiB"
