"""Command-line surface.

Exit codes: 0 factorable / operation OK, 1 not factorable / invalid input
object, 2 usage or format error, 3 undecided (the LP vertex's floor was not
completed) or work-limit exceeded, 4 internal error, 141 the reader closed
the output pipe (128 + SIGPIPE, as a shell reports for a writer killed by
that signal).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import traceback
from typing import Sequence

from .combinatorics import LevelSet, canonical_key, check_range, iter_types
from .decide import DEFAULT_MAX_GROUND, Status, Verdict, construct, decide_general, plan
from .errors import FormatError, LimitExceeded, NotFactorableError
from .fileformat import (
    CERTIFICATE_MAGIC,
    FACTORIZATION_MAGIC,
    dump_factorization,
    load_text,
    parse_certificate,
    parse_factorization,
    rational_text,
    save_factorization,
)
from .flow import StepRecord
from .linear_system import check_certificate
from .verifier import verify_factorization

_STATUS_EXIT = {
    Status.FACTORABLE: 0,
    Status.NOT_FACTORABLE: 1,
    Status.RATIONALLY_FEASIBLE_UNKNOWN_INTEGRAL: 3,
}


def _parse_levels(text: str) -> LevelSet:
    try:
        parts = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"--levels expects comma-separated integers, got {text!r}")
    return LevelSet.of(parts)


def _levels_of(args: argparse.Namespace) -> LevelSet:
    if args.k is not None:
        check_range(args.n, args.k)
        return LevelSet.full(args.k)
    return _parse_levels(args.levels)


def _print_verdict(verdict: Verdict) -> None:
    print(verdict.status.value)
    print(f"reason: {verdict.reason}")
    if verdict.certificate is not None:
        print("certificate: " + rational_text(verdict.certificate.y, verdict.certificate.den))
        print("certificate-levels: " + ",".join(map(str, verdict.certificate_levels)))
    if verdict.solution is not None:
        print("solution-types: " + str(len(verdict.solution)))


def _cmd_decide(args: argparse.Namespace) -> int:
    verdict = decide_general(args.n, _levels_of(args))
    _print_verdict(verdict)
    return _STATUS_EXIT[verdict.status]


def _trace_printer(record: StepRecord) -> None:
    print(
        f"step {record.ell}: flow={record.flow_value} classes={record.class_nodes} "
        f"occurrences={record.occurrence_nodes} pairs-checked={record.pairs_checked}",
        file=sys.stderr,
    )


def _cmd_construct(args: argparse.Namespace) -> int:
    levels = _levels_of(args)
    trace = _trace_printer if args.trace else None
    fact = construct(args.n, levels, max_ground_size=args.max_ground_size, trace=trace)
    if args.out:
        save_factorization(fact, args.out)
        print(f"wrote {len(fact.factors)} factors to {args.out}")
    else:
        dump_factorization(fact, sys.stdout)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    for block in plan(args.n, _levels_of(args)):
        solution = block.solution
        print(f"n={block.n} levels={','.join(map(str, block.levels.levels))}")
        for lam in sorted(solution, key=canonical_key):
            print(",".join(map(str, lam)) + f": {solution[lam]}")
    return 0


def _cmd_certificate(args: argparse.Namespace) -> int:
    verdict = decide_general(args.n, _levels_of(args))
    if verdict.status is Status.FACTORABLE:
        print("instance is factorable; no certificate exists", file=sys.stderr)
        return 1
    if verdict.certificate is not None:
        print(rational_text(verdict.certificate.y, verdict.certificate.den))
        levels = ",".join(map(str, verdict.certificate_levels))
        print(f"family: {verdict.family}\ncertificate-levels: {levels}", file=sys.stderr)
        return 0
    print("no Farkas certificate exists: the rational relaxation is feasible", file=sys.stderr)
    return 3


def _cmd_verify(args: argparse.Namespace) -> int:
    text = load_text(args.file)
    # line 1 without a copy of the rest; a CRLF file is refused by the
    # parser, which names the carriage returns
    end = text.find("\n")
    first = (text[:end] if end >= 0 else text).removesuffix("\r")
    if first == FACTORIZATION_MAGIC:
        fact = parse_factorization(text)
        del text  # the verifier needs only the factors
        problems = verify_factorization(fact)
        if problems:
            for p in problems:
                print(f"violation: {p}")
            return 1
        print(f"OK: valid factorization of n={fact.n} levels={','.join(map(str, fact.levels))} "
              f"with {len(fact.factors)} factors")
        return 0
    if first == CERTIFICATE_MAGIC:
        n, levels, cert = parse_certificate(text)
        check = check_certificate(n, levels, cert)
        if check.violating_type is not None:
            print(f"violation: type {check.violating_type} has negative product with y")
            return 1
        b_dot_y = rational_text((check.b_dot_y,), cert.den)
        if not check.ok:
            print(f"violation: b . y = {b_dot_y} is not negative")
            return 1
        print(f"OK: certificate separates n={n} levels={','.join(map(str, levels.levels))} "
              f"(b . y = {b_dot_y})")
        return 0
    raise FormatError(f"unrecognized file magic {first!r}")


def _cmd_types(args: argparse.Namespace) -> int:
    levels = _levels_of(args)
    for lam in iter_types(args.n, levels):
        print(",".join(map(str, lam)))
    return 0


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="ground set size (1..64)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="full level range 1..k")
    group.add_argument("--levels", type=str, help="comma-separated level set, e.g. 2,4")


# one parser per process, built by the first main call; parse_args keeps no state in it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperfactor",
        description="Decide and construct 1-factorizations of level-restricted subset families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide factorability")
    _add_instance_args(p)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("construct", help="build and verify an explicit factorization")
    _add_instance_args(p)
    p.add_argument("--out", type=str, help="write the factorization to this file")
    p.add_argument("--trace", action="store_true", help="print per-step flow records to stderr")
    p.add_argument(
        "--max-ground-size",
        type=int,
        default=DEFAULT_MAX_GROUND,
        help=f"work limit for the evolution engine (default {DEFAULT_MAX_GROUND})",
    )
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("solve", help="print witness multiplicity vectors")
    _add_instance_args(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("certificate", help="print a Farkas infeasibility certificate")
    _add_instance_args(p)
    p.set_defaults(fn=_cmd_certificate)

    p = sub.add_parser("verify", help="validate a factorization or certificate file")
    p.add_argument("--file", type=str, required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("types", help="enumerate level types in canonical order")
    _add_instance_args(p)
    p.set_defaults(fn=_cmd_types)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_ground_size", 1) < 1:
        parser.error(f"argument --max-ground-size: must be at least 1, got {args.max_ground_size}")
    try:
        code = args.fn(args)
        # flush inside the try, so a closed pipe is reported here
        sys.stdout.flush()
        return code
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except NotFactorableError as exc:
        print(f"not factorable: {exc}", file=sys.stderr)
        return 1
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader is gone; with stdout on devnull the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
