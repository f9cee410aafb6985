"""Tests for the strict text formats and their round-trip guarantees."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import LevelSet
from hyperfactor.decide import construct
from hyperfactor.errors import FormatError
from hyperfactor.factorization import Factorization
from hyperfactor.fileformat import (
    CERTIFICATE_MAGIC,
    FACTORIZATION_MAGIC,
    load_text,
    parse_certificate,
    parse_factorization,
    save_text,
    write_certificate,
    write_factorization,
)
from hyperfactor.linear_system import FarkasCertificate

K4 = Factorization(
    4, (2,), ((0b0011, 0b1100), (0b0101, 0b1010), (0b1001, 0b0110))
)

K4_TEXT = (
    "HYPERFACTOR v1\n"
    "n=4 levels=2\n"
    "{1,2} | {3,4}\n"
    "{1,3} | {2,4}\n"
    "{1,4} | {2,3}\n"
)

CERT_TEXT = "FARKAS v1\nn=7 levels=1,2,3\n2 1/2 -1\n"


def test_factorization_golden_text():
    assert write_factorization(K4) == K4_TEXT
    assert parse_factorization(K4_TEXT) == K4


def test_factorization_round_trip_byte_identical():
    fact = construct(7, 2)
    text = write_factorization(fact)
    again = parse_factorization(text)
    assert again == fact
    assert write_factorization(again) == text


def test_certificate_golden_text():
    cert = FarkasCertificate((Fraction(2), Fraction(1, 2), Fraction(-1)))
    assert write_certificate(7, LevelSet.full(3), cert) == CERT_TEXT
    n, levels, parsed = parse_certificate(CERT_TEXT)
    assert (n, levels.levels) == (7, (1, 2, 3))
    assert parsed.y == cert.y
    assert write_certificate(n, levels, parsed) == CERT_TEXT


def test_file_save_load(tmp_path):
    path = str(tmp_path / "fact.txt")
    save_text(K4_TEXT, path)
    assert load_text(path) == K4_TEXT
    assert parse_factorization(load_text(path)) == K4


@pytest.mark.parametrize(
    "text",
    [
        K4_TEXT.replace("\n", "\r\n"),  # CRLF endings
        K4_TEXT[:-1],  # missing trailing newline
        K4_TEXT.replace("HYPERFACTOR v1", "HYPERFACTOR v2"),
        K4_TEXT.replace("n=4", "n=04"),  # non-canonical ground size
        K4_TEXT.replace("{1,2}", "{01,2}"),  # non-canonical element
        K4_TEXT.replace("n=4 levels=2", "n=4  levels=2"),
        K4_TEXT.replace("n=4 levels=2", "n=0 levels=2"),
        K4_TEXT.replace("n=4 levels=2", "n=65 levels=2"),
        K4_TEXT.replace("levels=2", "levels=2,2"),
        K4_TEXT.replace("{1,2} | {3,4}", "{3,4} | {1,2}"),  # min-element order
        K4_TEXT.replace("{1,2}", "{2,1}"),  # ascending elements
        K4_TEXT.replace("{1,2}", "{1,5}"),  # element exceeds n
        K4_TEXT.replace("{1,2}", "{0,2}"),  # element below 1
        K4_TEXT.replace("levels=2", "levels=0,2"),
        K4_TEXT + "\n",  # trailing empty factor line
        K4_TEXT.replace(" | ", "|"),
        "HYPERFACTOR v1\n",  # missing header
        "HYPERFACTOR v1\nn=3 levels=1,9\n{1} | {2} | {3}\n",  # level above n
    ],
)
def test_factorization_rejects(text):
    with pytest.raises(FormatError):
        parse_factorization(text)


@pytest.mark.parametrize(
    "text",
    [
        CERT_TEXT.replace("FARKAS v1", "FARKAS v2"),
        CERT_TEXT[:-1],
        CERT_TEXT.replace("2 1/2 -1", "2 1/2"),  # too few rationals
        CERT_TEXT.replace("2 1/2 -1", "2 1/2 -1 0"),  # too many
        CERT_TEXT.replace("1/2", "2/4"),  # non-canonical rational
        CERT_TEXT.replace("1/2", "0/2"),
        CERT_TEXT.replace("1/2", "1 / 2"),
        CERT_TEXT.replace("1/2", "0.5"),
        CERT_TEXT + "0 0 0\n",  # extra line
        "FARKAS v1\nn=7 levels=\n\n",  # empty level set
        CERT_TEXT.replace("levels=1,2,3", "levels=0,2,3"),
        "FARKAS v1\nn=5 levels=1,9\n1 1 1 1 1 1 1 1 1\n",  # level above n
    ],
)
def test_certificate_rejects(text):
    with pytest.raises(FormatError):
        parse_certificate(text)


def test_factorization_accepts_empty_levels():
    text = "HYPERFACTOR v1\nn=5 levels=\n"
    fact = parse_factorization(text)
    assert fact == Factorization(5, (), ())
    assert write_factorization(fact) == text


def _spelled(draw, value: int) -> str:
    """value in decimal, now and then with a leading zero."""
    sign = "-" if value < 0 else ""
    return sign + ("0" if draw(st.integers(0, 5)) == 0 else "") + str(abs(value))


def _header(draw, n: int, levels: list[int]) -> str:
    return f"n={_spelled(draw, n)} levels={','.join(_spelled(draw, l) for l in levels)}"


@st.composite
def _factorization_texts(draw):
    """Texts in the shape of the format, some spelled in non-canonical ways."""
    n = draw(st.integers(0, 9))
    ground = st.integers(1, max(n, 1))
    levels = sorted(draw(st.sets(ground, max_size=3)))
    lines = [FACTORIZATION_MAGIC, _header(draw, n, levels)]
    for _ in range(draw(st.integers(0, 3))):
        sets = draw(st.lists(st.sets(ground, min_size=1, max_size=3), min_size=1, max_size=3))
        sets.sort(key=min)
        pieces = ("{" + ",".join(_spelled(draw, e) for e in sorted(s)) + "}" for s in sets)
        lines.append(" | ".join(pieces))
    return "\n".join(lines) + "\n"


@st.composite
def _certificate_texts(draw):
    n = draw(st.integers(1, 9))
    levels = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=3)))
    values = []
    for _ in levels:
        p, q = draw(st.integers(-4, 4)), draw(st.integers(0, 4))
        values.append(_spelled(draw, p) + ("" if q == 1 else f"/{_spelled(draw, q)}"))
    return f"{CERTIFICATE_MAGIC}\n{_header(draw, n, levels)}\n{' '.join(values)}\n"


#: the characters the edits insert or write
EDIT_ALPHABET = "0123456789{},| =/-\n"


@st.composite
def _edited(draw, texts):
    """A text from texts with up to three single-character edits."""
    chars = list(draw(texts))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.sampled_from(range(len(chars) + 1)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            chars.insert(pos, draw(st.sampled_from(EDIT_ALPHABET)))
        elif pos < len(chars):
            if op == "delete":
                del chars[pos]
            else:
                chars[pos] = draw(st.sampled_from(EDIT_ALPHABET))
    return "".join(chars)


@settings(max_examples=1000, deadline=None)
@given(_edited(_factorization_texts()))
def test_accepted_factorization_text_reserializes(text):
    try:
        fact = parse_factorization(text)
    except FormatError:
        return
    assert write_factorization(fact) == text


@settings(max_examples=1000, deadline=None)
@given(_edited(_certificate_texts()))
def test_accepted_certificate_text_reserializes(text):
    try:
        n, levels, cert = parse_certificate(text)
    except FormatError:
        return
    assert write_certificate(n, levels, cert) == text


def test_certificate_rejects_a_zero_denominator():
    with pytest.raises(FormatError, match="malformed rational"):
        parse_certificate(CERT_TEXT.replace("1/2", "1/0"))
