import random
import struct
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cregcert.certs import ResourceBudgetError
from cregcert.codes import SCAN_BUDGET, Code, CodeFormatError
from cregcert.regularity import certify_completely_regular

DIST12 = (1, 0, 0, 0, 0, 0, 22, 0, 0, 0, 0, 0, 1)
DIST11 = (1, 0, 0, 0, 0, 11, 11, 0, 0, 0, 0, 1)


def repetition(m):
    return Code(m, [0, (1 << m) - 1])


def extend_parity(code, p):
    """Insert a parity coordinate at p (1-based), so every word has even
    weight: the inverse of ``puncture(p)`` on an even-weight code."""
    low = (1 << (p - 1)) - 1
    return Code(
        code.length + 1,
        (
            (w & low) | (w & ~low) << 1 | (w.bit_count() & 1) << (p - 1)
            for w in code.words
        ),
    )


def test_min_distance_examples(code12, code11):
    assert code12.min_distance == 6
    assert code11.min_distance == 5
    assert repetition(12).min_distance == 12


def test_min_distance_needs_two_words():
    with pytest.raises(ValueError):
        Code(5, [3]).min_distance


def test_covering_radius(code12, code11):
    assert code12.covering_radius == 4
    assert code11.covering_radius == 3
    everything = Code(4, range(16))
    assert everything.covering_radius == 0


def test_distance_partition_cells(code12, code11):
    cells = code12.distance_partition()
    assert cells.cell_sizes()[0] == 24
    assert cells.cell_sizes()[1] == 288  # disjoint radius-1 balls: 24 * 12
    assert sum(cells.cell_sizes()) == 4096
    assert sum(code11.distance_partition().cell_sizes()) == 2048
    # cells are disjoint and the code is cell zero
    seen = set()
    for cell in cells.cells:
        assert not seen & set(cell)
        seen.update(cell)
    assert set(cells.cells[0]) == set(code12.words)


def test_distance_distribution(code12, code11):
    assert code12.distance_distribution == tuple(Fraction(v) for v in DIST12)
    assert code11.distance_distribution == tuple(Fraction(v) for v in DIST11)
    single = Code(6, [9])
    assert single.distance_distribution == (Fraction(1),) + (Fraction(0),) * 6


def test_distribution_matches_weight_enumerator_when_antipodal(code12, code11):
    # distance-invariant here: a_i * N equals the full pairwise census
    for code in (code12, code11):
        n = code.size
        census = [0] * (code.length + 1)
        for a in code.words:
            for b in code.words:
                census[(a ^ b).bit_count()] += 1
        assert tuple(Fraction(c, n) for c in census) == code.distance_distribution


def test_puncture(code12):
    c11 = code12.puncture(1)
    assert (c11.length, c11.size, c11.min_distance) == (11, 24, 5)
    for p in range(1, 13):
        assert code12.puncture(p).size == 24
    assert repetition(12).puncture(3) == repetition(11)
    with pytest.raises(ValueError):
        code12.puncture(0)
    with pytest.raises(ValueError):
        code12.puncture(13)


def test_puncture_collision_reporting(code12):
    # minimum distance above one forbids collisions for the codes here;
    # merged words leave a smaller punctured code
    assert all(code12.puncture(p).size == code12.size for p in range(1, 13))
    colliding = Code(3, [0b000, 0b001])
    assert colliding.puncture(1).words == (0b00,)
    assert colliding.puncture(2).size == 2


def test_extend_parity(code12, code11):
    # code11 is code12 punctured at 1: a parity coordinate there restores it
    assert extend_parity(code11, 1) == code12
    even = Code(4, [0b0000, 0b0011, 0b1111])
    assert extend_parity(even, 5).words == (0b00000, 0b00011, 0b01111)
    assert extend_parity(repetition(11), 1) == repetition(12)
    assert all(w.bit_count() % 2 == 0 for w in extend_parity(code11, 12).words)


def test_extend_parity_min_distance(code11):
    # an odd minimum distance always gains one under extension
    assert extend_parity(code11, 12).min_distance == 6


def test_puncture_extend_roundtrip(code12):
    # all words even weight: extending the punctured code is the identity
    for p in range(1, 13):
        assert extend_parity(code12.puncture(p), p) == code12


def test_antipodal(code12, code11):
    assert code12.is_antipodal()
    assert code11.is_antipodal()
    assert not Code(3, [0]).is_antipodal()


def test_weight_class(code12, code11):
    assert len(code12.weight_class(6)) == 22
    assert len(code11.weight_class(5)) == 11
    assert code12.weight_class(0) == (0,)
    with pytest.raises(ValueError):
        code12.weight_class(13)


def test_file_roundtrip(code12):
    text = code12.to_text()
    assert text.splitlines()[0] == "m=12"
    assert Code.from_text(text) == code12
    commented = "# header comment\n" + text
    assert Code.from_text(commented) == code12


def test_file_errors_carry_line_numbers():
    with pytest.raises(CodeFormatError) as err:
        Code.from_text("m=4\n0101\n01x1\n")
    assert err.value.line == 3
    with pytest.raises(CodeFormatError) as err:
        Code.from_text("0101\n")
    assert err.value.line == 1
    with pytest.raises(CodeFormatError) as err:
        Code.from_text("m=4\n01011\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("m=+4\n0101\n", 1),
        ("m=0_4\n0101\n", 1),
        ("m=\uff14\n0101\n", 1),  # full-width 4
        ("m= 4\n0101\n", 1),
        ("# spelled out\nm=4\n\u30000101\u3000\n", 3),  # ideographic spaces
        ("m=4\n0101\xa0\n", 2),  # no-break space
    ],
    ids=["sign", "underscore", "full-width", "inner-space", "ideographic", "no-break"],
)
def test_code_files_are_ascii(text, line):
    # int() and str.strip() read each of these as a length-4 code
    with pytest.raises(CodeFormatError) as err:
        Code.from_text(text)
    assert err.value.line == line


def test_constructor_validation():
    with pytest.raises(ValueError):
        Code(4, [])
    with pytest.raises(ValueError):
        Code(4, [16])
    deduped = Code(4, [3, 3, 5])
    assert deduped.words == (3, 5)


def pair_scan(code):
    """f_k(v) for every vertex v, counted word by word."""
    rows = []
    for v in range(1 << code.length):
        row = [0] * (code.length + 1)
        for w in code.words:
            row[(v ^ w).bit_count()] += 1
        rows.append(tuple(row))
    return rows


@st.composite
def small_codes(draw):
    m = draw(st.integers(1, 10))
    words = draw(
        st.one_of(
            st.sets(st.integers(0, (1 << m) - 1), min_size=1, max_size=40),
            st.just(range(1 << min(m, 8))),  # all low words: the full space at m <= 8
        )
    )
    return Code(m, words)


@settings(max_examples=80, deadline=None)
@given(small_codes())
@example(Code(1, [1]))
@example(Code(10, [0b1011001110]))
@example(Code(10, range(1 << 10)))
# blocks of 5 and 6 low bits; at m = 13 the block passes outnumber the low bits
@example(Code(11, random.Random(11).sample(range(1 << 11), 24)))
@example(Code(12, random.Random(12).sample(range(1 << 12), 24)))
@example(Code(13, random.Random(13).sample(range(1 << 13), 30)))
# vertex 0 sees 256 words at distance 5: a field whose low byte is zero
@example(Code(11, [w for w in range(1 << 11) if w.bit_count() == 5][:256]))
def test_butterfly_scan_matches_a_pair_scan(code):
    dist = code.outer_distribution
    for v, row in enumerate(pair_scan(code)):
        assert dist.row(v) == row
        assert dist.cell_index[v] == next(k for k, f in enumerate(row) if f)


def test_largest_scan_fields_do_not_carry():
    # in the full space of length 18 every field k holds C(18, k), up to
    # C(18, 9) = 48,620 < 2^16: the largest count the budget admits
    assert (1 << 18) * 19 <= SCAN_BUDGET < (1 << 19) * 20
    dist = Code(18, range(1 << 18)).outer_distribution
    binomial_row = struct.pack("<19H", *(comb(18, k) for k in range(19)))
    assert dist.data == binomial_row * (1 << 18)
    assert dist.row(12345) == tuple(comb(18, k) for k in range(19))
    # fields of 2^15 and more read as unsigned
    assert dist.distinct_prefixes(19) == {tuple(comb(18, k) for k in range(19))}


@settings(max_examples=80, deadline=None)
@given(small_codes())
# vertex 1 of cell 1 fails before vertex 5 of cell 0: (1, 0, 1, 1)
@example(Code(4, [4, 5, 7, 9, 10, 13]))
@example(Code(12, random.Random(12).sample(range(1 << 12), 24)))
def test_regularity_counterexample_matches_a_pair_scan(code):
    rows = pair_scan(code)
    cells = [next(k for k, f in enumerate(row) if f) for row in rows]
    least = [cells.index(i) for i in range(max(cells) + 1)]
    cert = certify_completely_regular(code)
    failing = [v for v, row in enumerate(rows) if row != rows[least[cells[v]]]]
    if not failing:
        assert cert.completely_regular
        assert cert.intersection_table == tuple(rows[v] for v in least)
        return
    v = failing[0]
    ref = rows[least[cells[v]]]
    k = next(k for k in range(code.length + 1) if rows[v][k] != ref[k])
    assert not cert.completely_regular
    assert cert.counterexample == (cells[v], least[cells[v]], v, k)


@pytest.mark.parametrize("m", range(1, 14))
def test_distinct_prefixes_match_row_slices(m):
    code = Code(m, random.Random(m).sample(range(1 << m), min(5, 1 << m)))
    dist = code.outer_distribution
    stride = 2 * (m + 1)
    # count = m + 1 reads whole rows: a format with zero pad bytes
    for count in (1, code.covering_radius + 1, m + 1):
        rows = {
            struct.unpack(f"<{count}H", dist.data[v * stride : v * stride + 2 * count])
            for v in range(1 << m)
        }
        assert dist.distinct_prefixes(count) == rows


@settings(max_examples=80, deadline=None)
@given(small_codes())
@example(Code(5, [3]))
@example(Code(3, [0, 7]))
@example(Code(3, [0, 1, 7]))
def test_min_distance_matches_a_pair_minimum(code):
    ws = code.words
    distances = [(a ^ b).bit_count() for i, a in enumerate(ws) for b in ws[i + 1 :]]
    if not distances:
        with pytest.raises(ValueError):
            code.min_distance
        return
    assert code.min_distance == min(distances)


@settings(max_examples=80, deadline=None)
@given(small_codes())
@example(Code(5, [3]))
@example(Code(8, range(1 << 8)))
def test_distance_distribution_matches_a_pair_census(code):
    census = [0] * (code.length + 1)
    for a in code.words:
        for b in code.words:
            census[(a ^ b).bit_count()] += 1
    assert code.distance_distribution == tuple(Fraction(c, code.size) for c in census)


def test_min_distance_past_the_scan_budget_raises():
    # the distribution, and the minimum distance with it, read the scan;
    # repr still answers
    code = Code(24, [0, 0b111, (1 << 24) - 1])
    with pytest.raises(ResourceBudgetError, match="scan budget"):
        code.min_distance
    assert repr(code) == "Code(m=24, N=3, delta=None)"


def test_full_length_13_space_has_min_distance_1():
    # 3.4e7 codeword pairs: the size of the code sets no limit of its own
    code = Code(13, range(1 << 13))
    assert code.min_distance == 1
    assert repr(code) == "Code(m=13, N=8192, delta=1)"


def test_scan_budget_counts_fields_not_words():
    with pytest.raises(ResourceBudgetError, match="scan budget"):
        Code(19, [0]).outer_distribution
