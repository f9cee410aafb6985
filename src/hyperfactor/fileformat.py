"""Serialization of factorizations and certificates.

Both formats are line-based UTF-8 with LF endings and a trailing newline, and
both parsers are strict: any accepted text re-serializes byte-identically.

HYPERFACTOR v1
n=<N> levels=<l1,l2,...>
{e1,e2,...} | {..} | ..          one line per factor
...

FARKAS v1
n=<N> levels=<l1,l2,...>
p/q p/q ...                      k exact rationals, space-separated
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, chain
from operator import lt
from typing import NoReturn

from .combinatorics import MAX_GROUND_SIZE, LevelSet, set_decoder, set_text
from .errors import FormatError
from .factorization import Factorization
from .linear_system import FarkasCertificate

FACTORIZATION_MAGIC = "HYPERFACTOR v1"
CERTIFICATE_MAGIC = "FARKAS v1"

_HEADER_RE = re.compile(r"^n=(\d+) levels=((?:\d+(?:,\d+)*)?)$", re.ASCII)
_SET_RE = re.compile(r"^\{(\d+(?:,\d+)*)\}$", re.ASCII)
_RATIONAL_RE = re.compile(r"^-?\d+(?:/0*[1-9]\d*)?$", re.ASCII)  # no zero denominator


def _header(n: int, levels: tuple[int, ...]) -> str:
    return f"n={n} levels={','.join(map(str, levels))}"


def write_factorization(fact: Factorization) -> str:
    lines = [FACTORIZATION_MAGIC, _header(fact.n, fact.levels)]
    lines.extend(" | ".join(map(set_text, factor)) for factor in fact.factors)
    return "\n".join(lines) + "\n"


def _number(digits: str, no: int) -> int:
    """The int a matched run of digits spells; FormatError naming line `no`
    when it is longer than int() converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise FormatError(f"line {no}: number too long ({len(digits)} digits)") from None


def _split_lines(text: str, magic: str) -> list[str]:
    if "\r" in text:
        raise FormatError("carriage returns are not allowed (LF endings only)")
    if not text.endswith("\n"):
        raise FormatError("missing trailing newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != magic:
        raise FormatError(f"line 1: expected {magic!r}")
    return lines


def _parse_header(line: str) -> tuple[int, tuple[int, ...]]:
    m = _HEADER_RE.match(line)
    if not m:
        raise FormatError(f"line 2: malformed header {line!r}")
    n = _number(m.group(1), 2)
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise FormatError(f"line 2: ground size n={n} out of range 1..{MAX_GROUND_SIZE}")
    levels = tuple(_number(v, 2) for v in m.group(2).split(",")) if m.group(2) else ()
    if levels and levels[0] < 1:
        raise FormatError(f"line 2: levels must be positive, got {levels}")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise FormatError(f"line 2: levels must be strictly increasing, got {levels}")
    if levels and levels[-1] > n:
        raise FormatError(f"line 2: level {levels[-1]} exceeds n={n}")
    return n, levels


def _raise_first_error(lines: list[str], n: int) -> NoReturn:
    """Name the first fault of a text whose factor lines or header the reader refused."""
    for no, line in enumerate(lines, start=3):
        if not line:
            raise FormatError(f"line {no}: empty factor line")
        mins: list[int] = []
        for piece in line.split(" | "):
            m = _SET_RE.match(piece)
            if not m:
                raise FormatError(f"line {no}: malformed set {piece!r}")
            elems = [_number(v, no) for v in m.group(1).split(",")]
            if any(a >= b for a, b in zip(elems, elems[1:])):
                raise FormatError(f"line {no}: elements not strictly ascending in {piece!r}")
            if elems[0] < 1:
                raise FormatError(f"line {no}: element {elems[0]} is not in 1..{n}")
            if elems[-1] > n:
                raise FormatError(f"line {no}: element {elems[-1]} exceeds n={n}")
            mins.append(elems[0])
        if any(a >= b for a, b in zip(mins, mins[1:])):
            raise FormatError(f"line {no}: sets not ordered by minimum element")
    # catches leading zeros and any other non-canonical spelling
    raise FormatError("factorization text is not in canonical form")


def parse_factorization(text: str) -> Factorization:
    """The factorization a canonical text spells.  Each piece decodes only as
    the canonical spelling of its mask, the header is compared with its own,
    and _split_lines fixes the rest, so an accepted text is its re-write."""
    lines = _split_lines(text, FACTORIZATION_MAGIC)
    if len(lines) < 2:
        raise FormatError("line 2: missing header")
    n, levels = _parse_header(lines[1])
    set_mask = set_decoder()
    try:
        factors = [tuple(map(set_mask, line.split(" | "))) for line in lines[2:]]
    except KeyError:
        _raise_first_error(lines[2:], n)
    masks = list(chain.from_iterable(factors))
    lows = [mask & -mask for mask in masks]
    rises = list(map(lt, lows, lows[1:]))
    for end in accumulate(map(len, factors[:-1])):
        rises[end - 1] = True  # a line's first set may lie below the line before's last
    if all(rises) and not max(masks, default=0) >> n and lines[1] == _header(n, levels):
        return Factorization(n, levels, tuple(factors))
    _raise_first_error(lines[2:], n)


def write_certificate(n: int, levels: LevelSet, cert: FarkasCertificate) -> str:
    values = " ".join(str(v) for v in cert.y)
    return f"{CERTIFICATE_MAGIC}\n{_header(n, levels.levels)}\n{values}\n"


def parse_certificate(text: str) -> tuple[int, LevelSet, FarkasCertificate]:
    lines = _split_lines(text, CERTIFICATE_MAGIC)
    if len(lines) != 3:
        raise FormatError(f"expected exactly 3 lines, got {len(lines)}")
    n, level_tuple = _parse_header(lines[1])
    if not level_tuple:
        raise FormatError("line 2: certificate needs a non-empty level set")
    levels = LevelSet(level_tuple)
    fields = lines[2].split(" ")
    if len(fields) != levels.k:
        raise FormatError(f"line 3: expected k={levels.k} rationals, got {len(fields)}")
    values = []
    for f in fields:
        if not _RATIONAL_RE.match(f):
            raise FormatError(f"line 3: malformed rational {f!r}")
        try:
            values.append(Fraction(f))
        except ValueError:  # the pattern leaves only int()'s digit limit
            raise FormatError(f"line 3: rational too long ({len(f)} characters)") from None
    cert = FarkasCertificate(tuple(values))
    if write_certificate(n, levels, cert) != text:
        raise FormatError("certificate text is not in canonical form")
    return n, levels, cert


def save_text(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_text(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"byte {exc.start}: not UTF-8 ({exc.reason})") from None
