"""Serialization of factorizations and certificates.

Both formats are line-based UTF-8 with LF endings and a trailing newline, and
both parsers are strict: any accepted text re-serializes byte-identically.

HYPERFACTOR v1
n=<N> levels=<l1,l2,...>
{e1,e2,...} | {..} | ..          one line per factor
...

FARKAS v1
n=<N> levels=<l1,l2,...>
p/q p/q ...                      k exact rationals in lowest terms, space-separated

A factorization file lists every set of its family, up to the verifier's cap
of 5,000,000, so neither direction holds a whole-file list of lines.  The
writer spells the text _WRITE_BATCH factor lines at a time: dump_factorization
writes each batch to a stream as it comes, save_factorization to a file, and
write_factorization joins them.
The reader holds the text and the factors it has decoded, plus one batch of
about _READ_BATCH characters, cut at a newline, with that batch's lines and
masks.  Only a text it refuses is split into all its lines, to name the
first fault.
"""

from __future__ import annotations

import math
import re
from itertools import accumulate, chain, repeat
from operator import lt
from typing import Iterator, NoReturn, Sequence, TextIO

from .combinatorics import MAX_GROUND_SIZE, LevelSet, set_decoder, set_text
from .errors import FormatError
from .factorization import Factorization
from .linear_system import FarkasCertificate

FACTORIZATION_MAGIC = "HYPERFACTOR v1"
CERTIFICATE_MAGIC = "FARKAS v1"

_HEADER_RE = re.compile(r"^n=(\d+) levels=((?:\d+(?:,\d+)*)?)$", re.ASCII)
_SET_RE = re.compile(r"^\{(\d+(?:,\d+)*)\}$", re.ASCII)
_RATIONAL_RE = re.compile(r"^-?\d+(?:/0*[1-9]\d*)?$", re.ASCII)  # no zero denominator

#: factor lines the writer spells per batch
_WRITE_BATCH = 1024
#: characters of factor lines the reader decodes per batch; a batch runs on
#: to the end of the line it reaches this count in
_READ_BATCH = 1 << 15


def _header(n: int, levels: tuple[int, ...]) -> str:
    return f"n={n} levels={','.join(map(str, levels))}"


def _factorization_batches(fact: Factorization) -> Iterator[str]:
    """The text of fact in pieces that each end a line: the magic and the
    header, then the factor lines, _WRITE_BATCH at a time."""
    yield f"{FACTORIZATION_MAGIC}\n{_header(fact.n, fact.levels)}\n"
    factors = fact.factors
    for start in range(0, len(factors), _WRITE_BATCH):
        batch = factors[start:start + _WRITE_BATCH]
        lines = [" | ".join(map(set_text, factor)) for factor in batch]
        lines.append("")  # the last line's newline
        yield "\n".join(lines)


def write_factorization(fact: Factorization) -> str:
    return "".join(_factorization_batches(fact))


def dump_factorization(fact: Factorization, fh: TextIO) -> None:
    """Write the text of fact to fh a batch at a time; the whole text is never held."""
    fh.writelines(_factorization_batches(fact))


def save_factorization(fact: Factorization, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        dump_factorization(fact, fh)


def _number(digits: str, no: int) -> int:
    """The int a matched run of digits spells; FormatError naming line `no`
    when it is longer than int() converts (sys.get_int_max_str_digits)."""
    try:
        return int(digits)
    except ValueError:
        raise FormatError(f"line {no}: number too long ({len(digits)} digits)") from None


def _after_magic(text: str, magic: str) -> int:
    """The index just past line 1, once text has LF endings, a trailing
    newline and magic as line 1."""
    if "\r" in text:
        raise FormatError("carriage returns are not allowed (LF endings only)")
    if not text.endswith("\n"):
        raise FormatError("missing trailing newline")
    end = text.find("\n")
    if end != len(magic) or not text.startswith(magic):
        raise FormatError(f"line 1: expected {magic!r}")
    return end + 1


def _split_lines(text: str, magic: str) -> list[str]:
    _after_magic(text, magic)
    return text.split("\n")[:-1]


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
            canonical = "{" + ",".join(map(str, elems)) + "}"
            if piece != canonical:
                raise FormatError(f"line {no}: {piece!r} is not the canonical spelling {canonical!r}")
            mins.append(elems[0])
        if any(a >= b for a, b in zip(mins, mins[1:])):
            raise FormatError(f"line {no}: sets not ordered by minimum element")
    # the factor lines are canonical, so the header is not: _parse_header reads n=04 as 4
    raise FormatError("factorization text is not in canonical form")


def _line_batches(text: str, start: int) -> Iterator[list[str]]:
    """The lines of text from index start, where a line begins, a list at a
    time.  A batch ends at the first newline at least _READ_BATCH - 1
    characters past its start (the text ends in one), so it holds one line
    or more, and a _READ_BATCH of 1 gives one line per batch."""
    last = len(text) - 1
    while start <= last:
        end = text.find("\n", min(start + _READ_BATCH - 1, last))
        yield text[start:end].split("\n")
        start = end + 1


def _decode_factors(text: str, start: int, n: int) -> list[tuple[int, ...]] | None:
    """The factors spelled by the lines of text from index start, or None
    when a piece is not the canonical spelling of a mask, a line's sets are
    not ordered by minimum element, or a set has an element beyond n."""
    set_mask = set_decoder()
    factors: list[tuple[int, ...]] = []
    for lines in _line_batches(text, start):
        try:
            batch = [tuple(map(set_mask, line.split(" | "))) for line in lines]
        except KeyError:
            return None
        masks = list(chain.from_iterable(batch))
        lows = [mask & -mask for mask in masks]
        rises = list(map(lt, lows, lows[1:]))
        for end in accumulate(map(len, batch[:-1])):
            rises[end - 1] = True  # a line's first set may lie below the line before's last
        if not all(rises) or max(masks) >> n:
            return None
        factors.extend(batch)
    return factors


def parse_factorization(text: str) -> Factorization:
    """The factorization a canonical text spells.  Each piece decodes only as
    the canonical spelling of its mask, the header is compared with its own,
    and _after_magic fixes the rest, so an accepted text is its re-write."""
    start = _after_magic(text, FACTORIZATION_MAGIC)
    end = text.find("\n", start)
    if end < 0:
        raise FormatError("line 2: missing header")
    header = text[start:end]
    n, levels = _parse_header(header)
    factors = _decode_factors(text, end + 1, n) if header == _header(n, levels) else None
    if factors is None:
        _raise_first_error(text.split("\n")[2:-1], n)
    return Factorization(n, levels, tuple(factors))


def rational_text(values: Sequence[int], den: int) -> str:
    """The ints values over den, each in lowest terms as p or p/q, one space
    apart: the one spelling of a certificate and of its b . y."""
    pairs = ((v // g, den // g) for v, g in zip(values, map(math.gcd, values, repeat(den))))
    return " ".join(f"{p}/{q}" if q > 1 else str(p) for p, q in pairs)


def write_certificate(n: int, levels: LevelSet, cert: FarkasCertificate) -> str:
    return f"{CERTIFICATE_MAGIC}\n{_header(n, levels.levels)}\n{rational_text(cert.y, cert.den)}\n"


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
    pairs = []
    for f in fields:
        if not _RATIONAL_RE.match(f):
            raise FormatError(f"line 3: malformed rational {f!r}")
        p, _, q = f.partition("/")
        try:
            pairs.append((int(p), int(q or 1)))
        except ValueError:  # the pattern leaves only int()'s digit limit
            raise FormatError(f"line 3: rational too long ({len(f)} characters)") from None
    den = math.lcm(*(q for _, q in pairs))
    cert = FarkasCertificate(tuple(p * (den // q) for p, q in pairs), den)
    if write_certificate(n, levels, cert) != text:
        raise FormatError("certificate text is not in canonical form")
    return n, levels, cert


def load_text(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"byte {exc.start}: not UTF-8 ({exc.reason})") from None
