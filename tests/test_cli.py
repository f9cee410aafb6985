"""End-to-end tests of the command-line interface via main(argv)."""

import contextlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import hyperfactor
import hyperfactor.cli as cli
import hyperfactor.linear_system as linear_system
from hyperfactor.cli import main
from hyperfactor.decide import DEFAULT_MAX_GROUND, decide_general
from hyperfactor.errors import InvariantViolation
from hyperfactor.combinatorics import LevelSet
from hyperfactor.fileformat import parse_certificate, parse_factorization
from hyperfactor.linear_system import check_certificate
from hyperfactor.verifier import verify_factorization

CERT_7_3 = "FARKAS v1\nn=7 levels=1,2,3\n2 1/2 -1\n"


def test_decide_factorable(capsys):
    assert main(["decide", "--n", "12", "--k", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "FACTORABLE"
    assert out[1].startswith("reason: divisible case")


def test_decide_not_factorable_with_certificate(capsys):
    assert main(["decide", "--n", "18", "--k", "6"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "NOT_FACTORABLE"
    assert "certificate: 3 3 3 1 -1 0" in out
    assert "certificate-levels: 1,2,3,4,5,6" in out


def test_decide_sparse_levels(capsys):
    assert main(["decide", "--n", "12", "--levels", "2,4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "FACTORABLE"
    assert "solution-types: 2" in out

    assert main(["decide", "--n", "11", "--levels", "2,3,4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "NOT_FACTORABLE"
    assert "certificate: 0 -1/2 2 -1" in out


def _printed_certificate_holds(n: int, out: str) -> bool:
    """check_certificate on the certificate lines of a decide output, read
    back as a FARKAS v1 file."""
    fields = dict(line.split(": ", 1) for line in out.splitlines()[1:])
    text = f"FARKAS v1\nn={n} levels={fields['certificate-levels']}\n{fields['certificate']}\n"
    _, levels, cert = parse_certificate(text)
    return check_certificate(n, levels, cert).ok


def test_decide_undecided_statuses(capsys, monkeypatch):
    # 7,347 types: beyond the search; the LP, which lists none, refutes it
    assert main(["decide", "--n", "54", "--levels", "2,3,4,5,6,7,8,9"]) == 1
    out = capsys.readouterr().out
    assert out == (
        "NOT_FACTORABLE\n"
        "reason: exact rational infeasibility (simplex-derived certificate)\n"
        "certificate: 0 4 6 8 10 12 5 -2 0\n"
        "certificate-levels: 2,3,4,5,6,7,8,9\n"
    )
    assert _printed_certificate_holds(54, out)
    # a fractional LP vertex whose floor needs a completion, with no node to spend
    monkeypatch.setattr(linear_system, "SEARCH_NODE_LIMIT", 0)
    assert main(["decide", "--n", "10", "--levels", "1,2,4,6"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL"


def test_construct_stdout_and_verify_round_trip(capsys, tmp_path):
    assert main(["construct", "--n", "4", "--levels", "2"]) == 0
    text = capsys.readouterr().out
    fact = parse_factorization(text)
    assert verify_factorization(fact) == []
    assert {frozenset(f) for f in fact.factors} == {
        frozenset({0b0011, 0b1100}),
        frozenset({0b0101, 0b1010}),
        frozenset({0b1001, 0b0110}),
    }

    path = str(tmp_path / "fact_6_3.txt")
    assert main(["construct", "--n", "6", "--k", "3", "--out", path]) == 0
    assert capsys.readouterr().out.strip() == f"wrote 16 factors to {path}"
    assert main(["verify", "--file", path]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "OK: valid factorization of n=6 levels=1,2,3 with 16 factors"


def test_construct_trace(capsys):
    assert main(["construct", "--n", "6", "--k", "2", "--trace"]) == 0
    err = capsys.readouterr().err.splitlines()
    steps = [line for line in err if line.startswith("step ")]
    assert len(steps) == 6
    assert steps[0].startswith("step 0: flow=6 ")
    for ell, line in enumerate(steps):
        fields = dict(item.split("=") for item in line.split(": ", 1)[1].split())
        # identical partitions share a class node
        assert 1 <= int(fields["classes"]) <= int(fields["flow"]) == 6
        # one node per open (S, j): S in {1..ell}, |S| < j, j - |S| <= 6 - ell
        open_pairs = sum(
            math.comb(ell, size) for j in (1, 2) for size in range(j) if j - size <= 6 - ell
        )
        assert int(fields["occurrences"]) == open_pairs


def test_construct_not_factorable(capsys):
    assert main(["construct", "--n", "7", "--k", "3"]) == 1
    assert capsys.readouterr().err.startswith("not factorable:")


def test_construct_work_limit(capsys):
    assert main(["construct", "--n", "20", "--k", "4"]) == 3
    assert capsys.readouterr().err.startswith("limit exceeded:")


def test_construct_refuses_an_over_limit_lift_before_any_flow(capsys):
    """(20, 7) plans a flow block on 20, then a lift to 21: the lift is the
    widest block, so the work limit 19 or 20 names it before any flow."""
    for limit in (19, 20):
        start = time.perf_counter()
        assert main(["construct", "--n", "20", "--k", "7", "--max-ground-size", str(limit)]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"limit exceeded: ground size 21 exceeds the evolution work limit {limit}; "
            "raise max_ground_size explicitly to proceed\n"
        )


def test_one_partition_blocks_skip_the_work_limit(capsys, tmp_path):
    """Levels {n} and {1} route one partition, n one-arc steps at any n, so
    the ground-size work limit lets them through; {1, n} routes two."""
    for n in (64, 40):
        path = str(tmp_path / f"whole_{n}.txt")
        assert main(["construct", "--n", str(n), "--levels", str(n), "--out", path]) == 0
        assert main(["verify", "--file", path]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"OK: valid factorization of n={n} levels={n} with 1 factors"
        )
        assert Path(path).read_text() == (
            f"HYPERFACTOR v1\nn={n} levels={n}\n{{{','.join(map(str, range(1, n + 1)))}}}\n"
        )

    assert main(["construct", "--n", "64", "--k", "1", "--trace"]) == 0
    steps = capsys.readouterr().err.splitlines()
    assert [line.split()[:3] for line in steps] == [
        ["step", f"{ell}:", "flow=1"] for ell in range(64)
    ]

    assert main(["construct", "--n", "19", "--levels", "1,19"]) == 3
    assert capsys.readouterr().err == (
        "limit exceeded: ground size 19 exceeds the evolution work limit 18; "
        "raise max_ground_size explicitly to proceed\n"
    )


def test_construct_refuses_a_family_too_large_to_verify_before_any_flow(capsys):
    """(48, 6) plans one flow block on 48 elements; its 14,196,868 sets are
    past the verifier's cap, so construct refuses it before the flow."""
    start = time.perf_counter()
    assert main(["construct", "--n", "48", "--k", "6", "--max-ground-size", "48"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "limit exceeded: verification would track 14196868 sets (limit 5000000)\n"
    )


def test_complement_only_construct_is_refused_up_front(capsys):
    """For k >= n-2 the only flow block, if any, is one partition (the n
    singletons or the whole set); the verification limit refuses the family,
    all 2**64 - 1 sets of 64 elements for k = 64, before any pair is built."""
    for n, k, sets in [(64, 64, 2**64 - 1), (30, 28, 2**30 - 32), (23, 22, 2**23 - 2)]:
        start = time.perf_counter()
        assert main(["construct", "--n", str(n), "--k", str(k)]) == 3
        assert time.perf_counter() - start < 1.0, (n, k)
        assert capsys.readouterr().err == (
            f"limit exceeded: verification would track {sets} sets (limit 5000000)\n"
        )


def test_lp_decides_without_listing_types(capsys):
    """(64, {1..30, 32}) has 1,696,017 types; the LP prices them all with a
    knapsack DP instead of listing them."""
    levels = ",".join(map(str, [*range(1, 31), 32]))
    start = time.perf_counter()
    assert main(["decide", "--n", "64", "--levels", levels]) == 1
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == [
        "NOT_FACTORABLE", "reason: exact rational infeasibility (simplex-derived certificate)",
    ]
    assert _printed_certificate_holds(64, out)


def test_solve_lifted_block(capsys):
    assert main(["solve", "--n", "11", "--k", "3"]) == 0
    assert capsys.readouterr().out == "n=12 levels=1,3\n0,0,4: 52\n3,0,3: 4\n"


def test_solve_lifts_to_ground_65(capsys):
    """(64, {1..5}) lifts to a block on 65 elements: it has multiplicities
    only, and its evolution is beyond the work limit."""
    assert main(["solve", "--n", "64", "--k", "5"]) == 0
    assert capsys.readouterr().out.startswith("n=65 levels=1,3,5\n")
    # the 64-element cap is named first: raising the work limit cannot help
    cap = (
        "limit exceeded: ground size 65 exceeds the 64-element bit-mask cap of the "
        "evolution engine; no max_ground_size can lift it\n"
    )
    assert main(["construct", "--n", "64", "--k", "5"]) == 3
    assert capsys.readouterr().err == cap
    assert main(["construct", "--n", "64", "--k", "5", "--max-ground-size", "65"]) == 3
    assert capsys.readouterr().err == cap


def test_solve_complement_blocks(capsys):
    assert main(["solve", "--n", "8", "--k", "4"]) == 0
    assert capsys.readouterr().out == (
        "n=8 levels=4\n"
        "0,0,0,2: 35\n"
        "n=9 levels=1,3\n"
        "0,0,3: 26\n"
        "3,0,2: 3\n"
    )


def test_solve_not_factorable(capsys):
    assert main(["solve", "--n", "7", "--k", "3"]) == 1
    assert capsys.readouterr().err.startswith("not factorable:")


def test_solve_undecided_is_a_limit_not_a_refusal(capsys, monkeypatch):
    monkeypatch.setattr(linear_system, "SEARCH_NODE_LIMIT", 0)
    assert main(["solve", "--n", "10", "--levels", "1,2,4,6"]) == 3
    assert capsys.readouterr().err.startswith("limit exceeded: (n=10, levels=(1, 2, 4, 6)) undecided:")


def test_certificate_success(capsys):
    assert main(["certificate", "--n", "18", "--k", "6"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "3 3 3 1 -1 0\n"
    assert captured.err == "family: divisible-below-threshold\ncertificate-levels: 1,2,3,4,5,6\n"


def test_certificate_factorable_instance(capsys):
    assert main(["certificate", "--n", "12", "--k", "3"]) == 1
    assert "no certificate exists" in capsys.readouterr().err


def test_certificate_no_family(capsys, monkeypatch):
    # undecided and rationally feasible: no Farkas certificate can exist
    monkeypatch.setattr(linear_system, "SEARCH_NODE_LIMIT", 0)
    assert main(["certificate", "--n", "10", "--levels", "1,2,4,6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no Farkas certificate exists: the rational relaxation is feasible\n"


def test_certificate_family_of_a_reduced_range(capsys):
    # k >= n/2: the vector separates the complementary range 1..10
    assert main(["certificate", "--n", "23", "--k", "12"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1 1 2 1 1 1 0 0 0 -1\n"
    assert captured.err == "family: residue-mid-tight\ncertificate-levels: 1,2,3,4,5,6,7,8,9,10\n"


def test_certificate_simplex_derived(capsys):
    assert main(["certificate", "--n", "40", "--levels", "2,3,4,5,6,7,8"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "family: simplex-derived\ncertificate-levels: 2,3,4,5,6,7,8\n"
    assert captured.out.strip()  # a non-empty rational vector


def test_types_canonical_order(capsys):
    assert main(["types", "--n", "7", "--k", "3"]) == 0
    assert capsys.readouterr().out == (
        "1,0,2\n0,2,1\n2,1,1\n4,0,1\n1,3,0\n3,2,0\n5,1,0\n7,0,0\n"
    )


def test_types_streams_without_listing():
    """types prints each type as it is generated: (40, {1..40}) has 37,338
    types, a 13 MiB peak when listed first, and 0.2 MiB streamed."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["types", "--n", "40", "--k", "40"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_verify_certificate_file(capsys, tmp_path):
    path = str(tmp_path / "cert.txt")
    Path(path).write_bytes(CERT_7_3.encode())
    assert main(["verify", "--file", path]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "OK: certificate separates n=7 levels=1,2,3 (b . y = -21/2)"


def test_large_negative_verdicts_are_fast(capsys, tmp_path):
    """decide, certificate and verify at n = 60 and 64, where streaming every
    type row took minutes; the Farkas check is a knapsack DP."""
    start = time.perf_counter()
    for n, k in ((64, 20), (60, 14)):
        instance = ["--n", str(n), "--k", str(k)]
        assert main(["decide", *instance]) == 1
        assert capsys.readouterr().out.startswith("NOT_FACTORABLE\n")
        assert main(["certificate", *instance]) == 0
        y = capsys.readouterr().out
        path = str(tmp_path / f"cert_{n}.txt")
        levels = ",".join(map(str, range(1, k + 1)))
        Path(path).write_bytes(f"FARKAS v1\nn={n} levels={levels}\n{y}".encode())
        assert main(["verify", "--file", path]) == 0
        assert capsys.readouterr().out.startswith(f"OK: certificate separates n={n} ")
    assert time.perf_counter() - start < 5


def test_verify_rejects_bad_certificates(capsys, tmp_path):
    row_bad = str(tmp_path / "row_bad.txt")
    Path(row_bad).write_bytes(CERT_7_3.replace("2 1/2 -1", "2 1/2 -2").encode())
    assert main(["verify", "--file", row_bad]) == 1
    assert "negative product with y" in capsys.readouterr().out

    sep_bad = str(tmp_path / "sep_bad.txt")
    Path(sep_bad).write_bytes(CERT_7_3.replace("2 1/2 -1", "0 0 0").encode())
    assert main(["verify", "--file", sep_bad]) == 1
    assert "b . y = 0 is not negative" in capsys.readouterr().out


def test_verify_detects_corruption(capsys, tmp_path):
    path = str(tmp_path / "bad_fact.txt")
    # swap elements between two sets of one factor: duplicate + missing
    text = (
        "HYPERFACTOR v1\n"
        "n=4 levels=2\n"
        "{1,2} | {3,4}\n"
        "{1,3} | {2,4}\n"
        "{1,3} | {2,4}\n"
    )
    Path(path).write_bytes(text.encode())
    assert main(["verify", "--file", path]) == 1
    out = capsys.readouterr().out
    assert "violation:" in out and "appears in factors" in out


@pytest.mark.parametrize(
    "data, magic",
    [(b"", "''"), (b"XYZ\nn=3 levels=1\n", "'XYZ'")],
    ids=["empty", "unknown"],
)
def test_verify_refuses_a_file_of_neither_magic(capsys, tmp_path, data, magic):
    path = tmp_path / "magic.txt"
    path.write_bytes(data)
    assert main(["verify", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"format error: unrecognized file magic {magic}\n"


def test_verify_format_error_exit_code(capsys, tmp_path):
    path = str(tmp_path / "garbage.txt")
    Path(path).write_bytes(b"garbage\n")
    assert main(["verify", "--file", path]) == 2
    assert "format error" in capsys.readouterr().err

    missing = str(tmp_path / "does_not_exist.txt")
    assert main(["verify", "--file", missing]) == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("HYPERFACTOR v1\nn=5 levels=0\n", "format error: line 2: levels must be positive"),
        ("FARKAS v1\nn=5 levels=0,2\n1 1\n", "format error: line 2: levels must be positive"),
        ("HYPERFACTOR v1\nn=4 levels=1,3\n{0} | {1,2,3}\n",
         "format error: line 3: element 0 is not in 1..4"),
    ],
)
def test_verify_rejects_zero_as_a_format_error(capsys, tmp_path, text, message):
    path = str(tmp_path / "zero.txt")
    Path(path).write_bytes(text.encode())
    assert main(["verify", "--file", path]) == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"HYPERFACTOR v1\nn=3 levels=1\n{1} | {2} | {\xff3}\n",
         "format error: byte 41: not UTF-8 (invalid start byte)"),
        (b"FARKAS v1\nn=2 levels=1,2\n1 \xff\n",
         "format error: byte 27: not UTF-8 (invalid start byte)"),
    ],
    ids=["factorization", "certificate"],
)
def test_verify_rejects_non_utf8_as_a_format_error(capsys, tmp_path, data, message):
    path = tmp_path / "bytes.txt"
    path.write_bytes(data)
    assert main(["verify", "--file", str(path)]) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize(
    "text",
    ["HYPERFACTOR v1\nn=2 levels=1,2\n{1} | {2}\n{1,2}\n", CERT_7_3],
    ids=["factorization", "certificate"],
)
def test_verify_names_the_carriage_returns_of_a_crlf_file(capsys, tmp_path, text):
    path = tmp_path / "crlf.txt"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert main(["verify", "--file", str(path)]) == 2
    assert capsys.readouterr().err == (
        "format error: carriage returns are not allowed (LF endings only)\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("HYPERFACTOR v1\nn=3 levels=1,9\n{1} | {2} | {3}\n", "line 2: level 9 exceeds n=3"),
        ("FARKAS v1\nn=5 levels=1,9\n1 1 1 1 1 1 1 1 1\n", "line 2: level 9 exceeds n=5"),
    ],
)
def test_verify_rejects_a_level_above_n(capsys, tmp_path, text, message):
    path = str(tmp_path / "level.txt")
    Path(path).write_bytes(text.encode())
    assert main(["verify", "--file", path]) == 2
    assert capsys.readouterr().err == f"format error: {message}\n"


@pytest.fixture
def default_int_digit_limit():
    """int() refusing more than 4,300 digits, as Python does by default."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


NINES = "9" * 5000


@pytest.mark.parametrize(
    "text, message",
    [
        (f"HYPERFACTOR v1\nn={NINES} levels=1\n{{1}}\n", "line 2: number too long (5000 digits)"),
        (f"HYPERFACTOR v1\nn=2 levels=1,2\n{{1,2}}\n{{1}} | {{{NINES}}}\n",
         "line 4: number too long (5000 digits)"),
        (f"FARKAS v1\nn=3 levels=1\n-{NINES}\n", "line 3: rational too long (5001 characters)"),
    ],
    ids=["header", "factor-element", "certificate-value"],
)
def test_verify_rejects_a_number_past_the_int_digit_limit(
    capsys, tmp_path, default_int_digit_limit, text, message
):
    path = str(tmp_path / "long.txt")
    Path(path).write_bytes(text.encode())
    assert main(["verify", "--file", path]) == 2
    assert capsys.readouterr().err == f"format error: {message}\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--n", "7"])  # neither --k nor --levels
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--n", "7", "--k", "3", "--levels", "2"])  # both
    assert exc.value.code == 2
    capsys.readouterr()


def test_a_usage_error_does_not_break_the_next_call(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--n", "5"])  # neither --k nor --levels
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["decide", "--n", "12", "--k", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "FACTORABLE"


def test_the_parser_is_reused_and_keeps_no_state_between_calls(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()

    assert main(["construct", "--n", "12", "--k", "3", "--trace"]) == 0
    assert capsys.readouterr().err.startswith("step 0: ")
    assert main(["construct", "--n", "12", "--k", "3"]) == 0
    assert "step" not in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["construct", "--n", "12", "--k", "3", "--max-ground-size", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["construct", "--n", "20", "--k", "4"]) == 3
    assert f"work limit {DEFAULT_MAX_GROUND};" in capsys.readouterr().err

    # the mutually exclusive group starts empty on every call
    for argv in (["--levels", "2,4"], ["--k", "3"], ["--levels", "2,4"]):
        assert main(["decide", "--n", "12", *argv]) == 0
        assert capsys.readouterr().out.startswith("FACTORABLE\n")

    # the handlers look decide_general up at call time, not when the parser was built
    seen = []

    def recording(n, levels):
        seen.append((n, levels.levels))
        return decide_general(n, levels)

    monkeypatch.setattr(cli, "decide_general", recording)
    assert main(["decide", "--n", "12", "--k", "3"]) == 0
    assert seen == [(12, (1, 2, 3))]


_ROOT_USAGE = "usage: hyperfactor [-h] {decide,construct,solve,certificate,verify,types} ...\n"
_DECIDE_USAGE = "usage: hyperfactor decide [-h] --n N (--k K | --levels LEVELS)\n"
# argparse spells the choices with repr on Python 3.11 and with str in later releases
_CHOICES = ("'decide', 'construct', 'solve', 'certificate', 'verify', 'types'",
            "decide, construct, solve, certificate, verify, types")


@pytest.mark.parametrize(
    "argv, code, out, errs",
    [
        (["decide", "--n", "7"], 2, "", [
            _DECIDE_USAGE + "hyperfactor decide: error: one of the arguments --k --levels is required\n"
        ]),
        (["decide", "--n", "7", "--k", "3", "--levels", "2"], 2, "", [
            _DECIDE_USAGE
            + "hyperfactor decide: error: argument --levels: not allowed with argument --k\n"
        ]),
        (["bogus"], 2, "", [
            _ROOT_USAGE
            + f"hyperfactor: error: argument command: invalid choice: 'bogus' (choose from {c})\n"
            for c in _CHOICES
        ]),
        (["construct", "--n", "12", "--k", "3", "--max-ground-size", "0"], 2, "", [
            _ROOT_USAGE + "hyperfactor: error: argument --max-ground-size: must be at least 1, got 0\n"
        ]),
        (["--help"], 0, _ROOT_USAGE + """
Decide and construct 1-factorizations of level-restricted subset families.

positional arguments:
  {decide,construct,solve,certificate,verify,types}
    decide              decide factorability
    construct           build and verify an explicit factorization
    solve               print witness multiplicity vectors
    certificate         print a Farkas infeasibility certificate
    verify              validate a factorization or certificate file
    types               enumerate level types in canonical order

options:
  -h, --help            show this help message and exit
""", [""]),
        (["decide", "--help"], 0, _DECIDE_USAGE + """
options:
  -h, --help       show this help message and exit
  --n N            ground set size (1..64)
  --k K            full level range 1..k
  --levels LEVELS  comma-separated level set, e.g. 2,4
""", [""]),
        ([], 2, "", [
            _ROOT_USAGE + "hyperfactor: error: the following arguments are required: command\n"
        ]),
        (["decide", "--n", "12", "--k", "3", "extra"], 2, "", [
            _ROOT_USAGE + "hyperfactor: error: unrecognized arguments: extra\n"
        ]),
    ],
)
def test_usage_and_help_texts_are_pinned(monkeypatch, capsys, argv, code, out, errs):
    """Each text twice in one process: a reused parser prints the same bytes."""
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err in errs


_VALID = [
    ["decide", "--n", "12", "--k", "3"],
    ["construct", "--n", "12", "--levels", "1,3", "--out", "f.txt", "--trace",
     "--max-ground-size", "20"],
    ["solve", "--n", "10", "--levels", "1,2,4,6"],
    ["certificate", "--n", "10", "--levels", "2,3,4"],
    ["verify", "--file", "cert.txt"],
    ["types", "--n", "5", "--k", "2"],
]


@pytest.mark.parametrize("argv", _VALID + [
    # --opt=value forms and abbreviated options
    ["decide", "--n=12", "--k=3"],
    ["decide", "--n=12", "--lev", "2,4"],
    ["decide", "--k", "3", "--n", "12"],
    ["construct", "--n", "12", "--k", "3", "--max", "5", "--tr", "--o=f.txt"],
    ["types", "--n", "-5", "--k", "2"],
    # usage errors of a command's own parser
    ["decide", "--n", "7"],
    ["decide", "--n", "7", "--k", "3", "--levels", "2"],
    ["decide", "--n", "x", "--k", "3"],
    ["decide", "--k", "3"],
    ["decide", "--n"],
    ["verify"],
    # parsed as given: main refuses it after parsing
    ["construct", "--n", "12", "--k", "3", "--max-ground-size", "0"],
    # help at both levels
    ["-h"],
    ["--help"],
    ["--he"],
    ["decide", "-h"],
    ["construct", "--help"],
    ["decide", "--h"],
    ["decide", "--n", "12", "--help", "--k", "3"],
    # no arguments, and an unknown command
    [],
    ["bogus"],
    ["decid", "--n", "12", "--k", "3"],
    ["Decide"],
    [""],
    # options before the command
    ["--n", "12", "decide", "--k", "3"],
    ["-h", "decide"],
    ["--bogus", "decide", "--n", "12", "--k", "3"],
    # extras after a valid command
    ["decide", "--n", "12", "--k", "3", "extra"],
    ["decide", "--n", "12", "--k", "3", "extra", "--more", "-x"],
    ["types", "--n", "5", "--k", "2", "--bogus=1"],
    ["decide", "--n", "12", "--k", "3", ""],
    # -- before and after the command
    ["--", "decide", "--n", "12", "--k", "3"],
    ["--", "--help"],
    ["decide", "--n", "12", "--k", "3", "--"],
    ["decide", "--n", "12", "--k", "3", "--", "x"],
    ["decide", "--", "--n", "12", "--k", "3"],
    ["decide", "--n", "--", "12", "--k", "3"],
    ["decide", "--n", "12", "--", "--k", "3"],
])
def test_dispatch_parses_as_the_top_level_parser(monkeypatch, capsys, argv):
    """Sending a command word straight to its own parser gives the Namespace
    the top-level parser gives, or exits with the same code and the same
    bytes on stdout and stderr."""
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
        return result, capsys.readouterr()

    reference = outcome(cli.build_parser().parse_args)
    assert outcome(cli._parse) == reference
    if argv in _VALID:
        assert reference[0].command == argv[0]


def test_main_without_argv_parses_the_process_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hyperfactor", "decide", "--n", "12", "--k", "3"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("FACTORABLE\n")
    monkeypatch.setattr(sys, "argv", ["hyperfactor", "decide", "--n", "12", "--k", "3", "extra"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("hyperfactor: error: unrecognized arguments: extra\n")


def test_max_ground_size_below_one_is_a_usage_error(capsys):
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--n", "12", "--k", "3", "--max-ground-size", value])
        assert exc.value.code == 2
        assert f"must be at least 1, got {value}" in capsys.readouterr().err


def test_internal_error_is_not_a_verdict(monkeypatch, capsys):
    """An internal fault exits 4, never 1 (NOT_FACTORABLE) or 3 (undecided)."""

    def faulty(n, levels):
        raise InvariantViolation("audit failed")

    monkeypatch.setattr(cli, "decide_general", faulty)
    assert main(["decide", "--n", "12", "--k", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert captured.err.endswith("\ninternal error: audit failed\n")


def test_closed_pipe_ends_quietly():
    """A reader that stops early gets exit 141 and nothing on stderr."""
    src = str(Path(hyperfactor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hyperfactor.cli", "types", "--n", "40", "--k", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"0,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_value_errors_exit_two(capsys):
    assert main(["decide", "--n", "0", "--k", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["decide", "--n", "7", "--levels", "2,x"]) == 2
    assert "comma-separated" in capsys.readouterr().err
    assert main(["decide", "--n", "7", "--levels", "9"]) == 2
    capsys.readouterr()


def test_level_beyond_ground_errors_agree(capsys):
    for command in ("decide", "solve", "construct", "certificate", "types"):
        for k in ("7", "0", "-1"):
            assert main([command, "--n", "5", "--k", k]) == 2
            assert capsys.readouterr().err == f"error: k must be an int in 1..n=5, got {k}\n"
        assert main([command, "--n", "5", "--levels", "2,7"]) == 2
        assert capsys.readouterr().err == "error: largest level 7 exceeds ground size 5\n"
