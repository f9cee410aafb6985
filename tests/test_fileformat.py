"""Tests for the strict text formats and their round-trip guarantees."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import (
    LevelSet,
    elements_of,
    min_element,
    set_decoder,
    set_tables,
    set_text,
)
from hyperfactor import fileformat
from hyperfactor.decide import construct
from hyperfactor.errors import FormatError
from hyperfactor.factorization import Factorization
from hyperfactor.fileformat import (
    CERTIFICATE_MAGIC,
    FACTORIZATION_MAGIC,
    _parse_header,
    _split_lines,
    load_text,
    parse_certificate,
    parse_factorization,
    rational_text,
    save_factorization,
    write_certificate,
    write_factorization,
)
from hyperfactor.linear_system import FarkasCertificate

from test_combinatorics import mask_of

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
    fact = construct(7, LevelSet.full(2))
    text = write_factorization(fact)
    again = parse_factorization(text)
    assert again == fact
    assert write_factorization(again) == text


def test_certificate_golden_text():
    cert = FarkasCertificate((4, 1, -2), 2)  # (2, 1/2, -1)
    assert write_certificate(7, LevelSet.full(3), cert) == CERT_TEXT
    n, levels, parsed = parse_certificate(CERT_TEXT)
    assert (n, levels.levels) == (7, (1, 2, 3))
    assert (parsed.y, parsed.den) == (cert.y, cert.den)
    assert write_certificate(n, levels, parsed) == CERT_TEXT


def test_certificate_reader_clears_mixed_denominators_once():
    """1/2, -1/3 and -1 are read as ints over their lcm 6, and spelled back."""
    text = "FARKAS v1\nn=7 levels=1,2,3\n1/2 -1/3 -1\n"
    _, levels, cert = parse_certificate(text)
    assert (cert.y, cert.den) == ((3, -2, -6), 6)
    assert write_certificate(7, levels, cert) == text


def test_file_save_load(tmp_path):
    path = str(tmp_path / "fact.txt")
    save_factorization(K4, path)
    assert load_text(path) == K4_TEXT
    assert parse_factorization(load_text(path)) == K4


#: a text whose pieces take the reader's table path with and without a tail
SIXTEEN_TEXT = (
    "HYPERFACTOR v1\n"
    "n=16 levels=8\n"
    "{1,2,3,4,5,6,7,8} | {9,10,11,12,13,14,15,16}\n"
    "{1,3,5,7,9,11,13,15} | {2,4,6,8,10,12,14,16}\n"
)

#: rejected factorization texts and the message each is rejected with
FACTORIZATION_REJECTS = {
    K4_TEXT.replace("\n", "\r\n"): "carriage returns are not allowed (LF endings only)",
    K4_TEXT[:-1]: "missing trailing newline",
    K4_TEXT.replace("HYPERFACTOR v1", "HYPERFACTOR v2"): "line 1: expected 'HYPERFACTOR v1'",
    # non-canonical ground size
    K4_TEXT.replace("n=4", "n=04"): "factorization text is not in canonical form",
    # non-canonical element
    K4_TEXT.replace("{1,2}", "{01,2}"): "factorization text is not in canonical form",
    K4_TEXT.replace("n=4 levels=2", "n=4  levels=2"): "line 2: malformed header 'n=4  levels=2'",
    K4_TEXT.replace("n=4 levels=2", "n=0 levels=2"): "line 2: ground size n=0 out of range 1..64",
    K4_TEXT.replace("n=4 levels=2", "n=65 levels=2"): "line 2: ground size n=65 out of range 1..64",
    K4_TEXT.replace("levels=2", "levels=2,2"): "line 2: levels must be strictly increasing, got (2, 2)",
    # min-element order
    K4_TEXT.replace("{1,2} | {3,4}", "{3,4} | {1,2}"): "line 3: sets not ordered by minimum element",
    # ascending elements
    K4_TEXT.replace("{1,2}", "{2,1}"): "line 3: elements not strictly ascending in '{2,1}'",
    K4_TEXT.replace("{1,2}", "{1,5}"): "line 3: element 5 exceeds n=4",
    K4_TEXT.replace("{1,2}", "{0,2}"): "line 3: element 0 is not in 1..4",
    K4_TEXT.replace("levels=2", "levels=0,2"): "line 2: levels must be positive, got (0, 2)",
    # trailing empty factor line
    K4_TEXT + "\n": "line 6: empty factor line",
    K4_TEXT.replace(" | ", "|"): "line 3: malformed set '{1,2}|{3,4}'",
    # a factor line without its opening or its closing brace
    K4_TEXT.replace("{1,2} | {3,4}", "1,2} | {3,4}"): "line 3: malformed set '1,2}'",
    K4_TEXT.replace("{1,2} | {3,4}", "{1,2} | {3,4"): "line 3: malformed set '{3,4'",
    "HYPERFACTOR v1\n": "line 2: missing header",
    # level above n
    "HYPERFACTOR v1\nn=3 levels=1,9\n{1} | {2} | {3}\n": "line 2: level 9 exceeds n=3",
    # pieces and headers that no table of the reader holds
    SIXTEEN_TEXT.replace("n=16", "n=016"): "factorization text is not in canonical form",
    SIXTEEN_TEXT.replace("{1,2,3,4,5,6,7,8}", "{01} | {2,3,4,5,6,7,8}"):
        "factorization text is not in canonical form",
    SIXTEEN_TEXT.replace("{1,2,3,4,5,6,7,8}", "{1,1} | {2,3,4,5,6,7,8}"):
        "line 3: elements not strictly ascending in '{1,1}'",
    SIXTEEN_TEXT.replace("{1,2,3,4,5,6,7,8}", "{2,1} | {3,4,5,6,7,8}"):
        "line 3: elements not strictly ascending in '{2,1}'",
    SIXTEEN_TEXT.replace("{1,2,3,4,5,6,7,8}", "{} | {1,2,3,4,5,6,7,8}"): "line 3: malformed set '{}'",
    SIXTEEN_TEXT.replace("{9,10,11,12,13,14,15,16}", "{9,10"): "line 3: malformed set '{9,10'",
    SIXTEEN_TEXT.replace("15,16}", "15,17}"): "line 3: element 17 exceeds n=16",
    SIXTEEN_TEXT.replace(
        "{1,3,5,7,9,11,13,15} | {2,4,6,8,10,12,14,16}", "{2,4,6,8,10,12,14,16} | {1,3,5,7,9,11,13,15}"
    ): "line 4: sets not ordered by minimum element",
    SIXTEEN_TEXT.replace("\n{1,3", "\n\n{1,3"): "line 4: empty factor line",
    # digits outside ASCII
    K4_TEXT.replace("n=4 levels=2", "n=\u0663 levels=1"): "line 2: malformed header 'n=\u0663 levels=1'",
    "HYPERFACTOR v1\nn=3 levels=1\n{\u0661} | {2} | {3}\n": "line 3: malformed set '{\u0661}'",
}

#: pieces at the edges of the head/tail split, each refused as a lone factor line
PIECE_REJECTS = {
    "{": "line 3: malformed set '{'",
    "}": "line 3: malformed set '}'",
    "{,10}": "line 3: malformed set '{,10}'",
    "{1,2,}": "line 3: malformed set '{1,2,}'",
    "{10,}": "line 3: malformed set '{10,}'",
    "{10,10}": "line 3: elements not strictly ascending in '{10,10}'",
    "{11,10}": "line 3: elements not strictly ascending in '{11,10}'",
    "{16,16}": "line 3: elements not strictly ascending in '{16,16}'",
    "{010}": "factorization text is not in canonical form",
}
FACTORIZATION_REJECTS.update(
    (f"HYPERFACTOR v1\nn=16 levels=8\n{piece}\n", message) for piece, message in PIECE_REJECTS.items()
)


@pytest.mark.parametrize("text", list(FACTORIZATION_REJECTS))
def test_factorization_rejects(text):
    with pytest.raises(FormatError) as info:
        parse_factorization(text)
    assert str(info.value) == FACTORIZATION_REJECTS[text]


@pytest.mark.parametrize("size", [1, 2, 7])
def test_factorization_rejects_at_every_batch_size(size, monkeypatch):
    """Each rejected text, with the reader's batches cut at other places: a
    batch of one line ends just before a trailing empty line."""
    monkeypatch.setattr(fileformat, "_READ_BATCH", size)
    for text, message in FACTORIZATION_REJECTS.items():
        with pytest.raises(FormatError) as info:
            parse_factorization(text)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "HYPERFACTOR v1\nn=1 levels=1\n{1}\n",  # the least ground size
        "HYPERFACTOR v1\nn=2 levels=1,2\n{1} | {2}\n{1,2}\n",  # a level equal to n
    ],
)
def test_factorization_accepts_the_edges_of_the_header(text):
    assert write_factorization(parse_factorization(text)) == text


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


@pytest.mark.parametrize(
    "text, message",
    [
        (CERT_TEXT.replace("1/2", "\u0661"), "line 3: malformed rational '\u0661'"),
        ("FARKAS v1\nn=\u0664 levels=2\n0 1\n", "line 2: malformed header 'n=\u0664 levels=2'"),
    ],
)
def test_certificate_names_a_digit_outside_ascii(text, message):
    with pytest.raises(FormatError) as info:
        parse_certificate(text)
    assert str(info.value) == message


def test_factorization_accepts_every_table_path_and_no_factor_lines():
    fact = parse_factorization(SIXTEEN_TEXT)
    assert write_factorization(fact) == SIXTEEN_TEXT
    assert fact.factors == ((0xFF, 0xFF00), (0x5555, 0xAAAA))
    assert parse_factorization("HYPERFACTOR v1\nn=16 levels=8\n") == Factorization(16, (8,), ())


def test_set_tables_split_at_nine():
    heads, tails = set_tables()
    assert (len(heads), len(tails)) == (512, 128)
    assert (heads[0x1FF], tails[0], tails[0x7F]) == ("{1,2,3,4,5,6,7,8,9", "}", ",10,11,12,13,14,15,16}")
    assert (set_text(0x1FF), set_text(1 << 9)) == ("{1,2,3,4,5,6,7,8,9}", "{10}")


def test_set_decoder_inverts_set_text_within_sixteen_elements():
    set_mask = set_decoder()
    masks = list(range(1, 0x10000))
    assert list(map(set_mask, map(set_text, masks))) == masks


def test_set_decoder_reads_sets_beyond_sixteen_and_refuses_every_other_piece():
    set_mask = set_decoder()
    for mask in [1 << 16, 0x1FFFF, (1 << 64) - 1, 1 << 63, (1 << 63) | 1]:
        assert set_mask(set_text(mask)) == mask
    for piece in ["{01}", "{1,1}", "{2,1}", "{}", "", "{9,10", "9,10}", "{1,10,10}",
                  "{10,9}", "{17,16}", "{64,64}", "{65}", "{1, 2}", ",10}", "{1,2}}",
                  *PIECE_REJECTS]:
        with pytest.raises(KeyError):
            set_mask(piece)


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


#: elements on either side of a split of the set codec's tables
SPLIT_EDGES = (1, 8, 9, 10, 16, 17, 56, 57, 64, 65)


@st.composite
def _factorization_texts(draw):
    """Texts in the shape of the format, some spelled in non-canonical ways.

    Ground sizes and elements cluster at the split edges, where the set codec
    moves from one table to the next; an element may be n + 1.
    """
    n = draw(st.one_of(st.integers(0, 9), st.sampled_from(SPLIT_EDGES), st.integers(0, 64)))
    edges = [e for e in SPLIT_EDGES if e <= n + 1]
    ground = st.one_of(st.integers(1, max(n, 1)), st.sampled_from(edges or [1]))
    # half the texts are canonical but for the edits, so that many are accepted
    spell = str if draw(st.booleans()) else (lambda value: _spelled(draw, value))
    levels = sorted(draw(st.sets(ground, max_size=3)))
    lines = [FACTORIZATION_MAGIC, f"n={spell(n)} levels={','.join(map(spell, levels))}"]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):  # disjoint sets, as in a factor
            elems = draw(st.lists(ground, min_size=1, max_size=9, unique=True))
            size = draw(st.integers(1, 3))
            sets = [set(elems[i:i + size]) for i in range(0, len(elems), size)]
        else:
            sets = draw(st.lists(st.sets(ground, min_size=1, max_size=3), min_size=1, max_size=3))
        sets.sort(key=min)
        lines.append(" | ".join("{" + ",".join(map(spell, sorted(s))) + "}" for s in sets))
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


def _reference_parse_factorization(text):
    """The element-by-element parser the byte-table one replaced: the
    differential oracle for its accept/reject decisions and messages."""
    lines = _split_lines(text, FACTORIZATION_MAGIC)
    if len(lines) < 2:
        raise FormatError("line 2: missing header")
    n, levels = _parse_header(lines[1])
    factors = []
    for no, line in enumerate(lines[2:], start=3):
        if not line:
            raise FormatError(f"line {no}: empty factor line")
        masks = []
        for piece in line.split(" | "):
            m = re.match(r"^\{(\d+(?:,\d+)*)\}$", piece, re.ASCII)
            if not m:
                raise FormatError(f"line {no}: malformed set {piece!r}")
            elems = [int(v) for v in m.group(1).split(",")]
            if any(a >= b for a, b in zip(elems, elems[1:])):
                raise FormatError(f"line {no}: elements not strictly ascending in {piece!r}")
            if elems[0] < 1:
                raise FormatError(f"line {no}: element {elems[0]} is not in 1..{n}")
            if elems[-1] > n:
                raise FormatError(f"line {no}: element {elems[-1]} exceeds n={n}")
            masks.append(mask_of(elems))
        mins = [min_element(mask) for mask in masks]
        if any(a >= b for a, b in zip(mins, mins[1:])):
            raise FormatError(f"line {no}: sets not ordered by minimum element")
        factors.append(tuple(masks))
    fact = Factorization(n, levels, tuple(factors))
    spelled = [FACTORIZATION_MAGIC, f"n={n} levels={','.join(map(str, levels))}"]
    for factor in factors:
        spelled.append(" | ".join(
            "{" + ",".join(str(e) for e in elements_of(mask)) + "}" for mask in factor
        ))
    if "\n".join(spelled) + "\n" != text:
        raise FormatError("factorization text is not in canonical form")
    return fact


def _outcome(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


@settings(max_examples=1000, deadline=None)
@given(_edited(_factorization_texts()))
def test_parser_matches_the_reference(text):
    assert _outcome(parse_factorization, text) == _outcome(_reference_parse_factorization, text)


#: read batch sizes of one line and of a few characters, whose batches end
#: inside a line and run on to its end, beside the reader's own
READ_BATCHES = (1, 2, 7, fileformat._READ_BATCH)


@settings(max_examples=1000, deadline=None)
@given(_edited(_factorization_texts()))
def test_reader_outcome_does_not_depend_on_the_batch_size(text):
    outcomes = set()
    for size in READ_BATCHES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileformat, "_READ_BATCH", size)
            outcomes.add(repr(_outcome(parse_factorization, text)))
    assert len(outcomes) == 1, outcomes


def test_batches_of_any_size_write_and_read_the_same_text(tmp_path):
    # 8,191 factors: eight whole write batches and part of a ninth
    fact = construct(14, LevelSet.full(13))
    text = write_factorization(fact)
    path = str(tmp_path / "f.txt")
    save_factorization(fact, path)
    assert load_text(path) == text
    for size in (1, 2, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileformat, "_WRITE_BATCH", size)
            mp.setattr(fileformat, "_READ_BATCH", size)
            assert write_factorization(fact) == text
            assert parse_factorization(text) == fact


def test_round_trip_through_every_table_row():
    fact = construct(64, LevelSet.full(1))
    text = write_factorization(fact)
    assert text == "HYPERFACTOR v1\nn=64 levels=1\n" + " | ".join(f"{{{e}}}" for e in range(1, 65)) + "\n"
    assert parse_factorization(text) == fact == _reference_parse_factorization(text)


def test_certificate_rejects_a_zero_denominator():
    with pytest.raises(FormatError, match="malformed rational"):
        parse_certificate(CERT_TEXT.replace("1/2", "1/0"))


def _reference_rational_text(values, den):
    return " ".join(str(Fraction(v, den)) for v in values)


def _rational_cases(rng):
    """(values, den) with den from 1 to 10**30 and entries that are 0,
    small, negative, multiples of den or 40 to 45 digits long."""
    den = rng.choice([1, 1, 2, rng.randint(1, 12), rng.randint(1, 10**6), rng.randint(1, 10**30)])
    values = []
    for _ in range(rng.randint(1, 4)):
        values.append(rng.choice([
            0,
            rng.randint(-12, 12),
            rng.randint(-10**6, 10**6) * den,
            rng.choice([-1, 1]) * rng.randint(10**39, 10**45),
        ]))
    return values, den


def test_rational_text_matches_the_fraction_reference():
    """The int spelling of a certificate against str(Fraction(v, den)),
    over 100,000 seeded cases."""
    rng = random.Random(47)
    for _ in range(100_000):
        values, den = _rational_cases(rng)
        assert rational_text(values, den) == _reference_rational_text(values, den), (values, den)


def _reference_parse_certificate(text):
    """The Fraction reader the int one replaced: the differential oracle for
    its accept/reject decisions, its messages and the certificate it reads."""
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
        if not re.match(r"^-?\d+(?:/0*[1-9]\d*)?$", f, re.ASCII):
            raise FormatError(f"line 3: malformed rational {f!r}")
        try:
            values.append(Fraction(f))
        except ValueError:
            raise FormatError(f"line 3: rational too long ({len(f)} characters)") from None
    den = math.lcm(*(v.denominator for v in values))
    cert = FarkasCertificate(tuple(v.numerator * (den // v.denominator) for v in values), den)
    spelled = _reference_rational_text(cert.y, cert.den)
    if f"{CERTIFICATE_MAGIC}\n{fileformat._header(n, level_tuple)}\n{spelled}\n" != text:
        raise FormatError("certificate text is not in canonical form")
    return n, levels, cert


@settings(max_examples=1000, deadline=None)
@given(_edited(_certificate_texts()))
def test_certificate_reader_matches_the_fraction_reference(text):
    assert _outcome(parse_certificate, text) == _outcome(_reference_parse_certificate, text)


@pytest.mark.parametrize("field", ["-" + "9" * 5000, "1/" + "7" * 5000, "-1/02", "4/6", "-0"])
def test_certificate_reader_matches_the_fraction_reference_at_the_edges(field):
    """A numerator or a denominator past int()'s digit limit, a denominator
    with a leading zero, an unreduced entry and a negative zero."""
    text = f"FARKAS v1\nn=3 levels=1,2\n1 {field}\n"
    assert _outcome(parse_certificate, text) == _outcome(_reference_parse_certificate, text)
