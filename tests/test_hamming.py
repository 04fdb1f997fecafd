"""Words as int bitmasks: the coordinate convention, the text form,
k-subsets, and the word metric as the scan of a one-word code reads it
(its oracle is XOR plus a popcount)."""

import random
from math import comb

import pytest

from cregcert.codes import Code
from cregcert.hamming import LengthError, format_mask, parse_mask, points_to_mask
from cregcert.symmetry import find_equivalence
from oracles import ksubset_masks


def dist(a: int, b: int, m: int) -> int:
    """d(a, b) read from the scan of the one-word code {a}."""
    return Code(m, [a]).distance_to(b)


def sphere(center: int, k: int, m: int) -> list[int]:
    """The words at distance k from center: center XOR each k-subset."""
    return [center ^ offset for offset in ksubset_masks(m, k)]


def test_dist_identity():
    assert dist(0b1011, 0b1011, 4) == 0


def test_dist_full_complement_at_12():
    zero, m = parse_mask("000000000000")
    ones, _ = parse_mask("111111111111")
    assert dist(zero, ones, m) == 12


def test_dist_length_mismatch():
    with pytest.raises(LengthError):
        find_equivalence(Code(4, [0]), Code(5, [0]))


def test_support_empty_and_full():
    assert points_to_mask([]) == 0
    assert points_to_mask(range(1, 12)) == (1 << 11) - 1


def test_support_bit_convention():
    # coordinate 1 is the leftmost text character, stored at bit 0
    assert parse_mask("001011") == (0b110100, 6)
    assert points_to_mask({3, 5, 6}) == 0b110100
    assert format_mask(0b110100, 6) == "001011"


def test_complement_involution_and_distance():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 12)
        full = (1 << m) - 1
        v = rng.randrange(1 << m)
        assert full ^ (full ^ v) == v
        assert dist(v, full ^ v, m) == m


def test_complement_is_isometry():
    rng = random.Random(8)
    for _ in range(30):
        m = rng.randint(2, 12)
        full = (1 << m) - 1
        code = Code(m, (rng.randrange(1 << m) for _ in range(rng.randint(1, 5))))
        image = Code(m, (full ^ w for w in code.words))
        assert all(
            image.distance_to(full ^ v) == code.distance_to(v) for v in range(1 << m)
        )


def test_sphere_radius_zero():
    assert sphere(0b0101, 0, 4) == [0b0101]


def test_sphere_sizes_and_partition():
    assert len(sphere(0b10010110, 4, 12)) == comb(12, 4) == 495
    total = 0
    seen = set()
    center = 0b1011
    for k in range(12):
        pts = sphere(center, k, 11)
        assert all(dist(center, p, 11) == k for p in pts)
        seen.update(pts)
        total += len(pts)
    assert total == 2048
    assert len(seen) == 2048


def test_sphere_deterministic_order():
    offsets = [v ^ 0b001 for v in sphere(0b001, 2, 3)]
    assert offsets == sorted(offsets) == [0b011, 0b101, 0b110]


def test_sphere_radius_out_of_range():
    with pytest.raises(ValueError):
        sphere(0, 5, 4)


def test_dist_equals_xor_weight():
    # the scan against the text form, compared character by character
    rng = random.Random(9)
    for _ in range(50):
        m = rng.randint(1, 12)
        a = rng.randrange(1 << m)
        text = format_mask(a, m)
        scan = Code(m, [a])
        for b in range(1 << m):
            differing = sum(x != y for x, y in zip(text, format_mask(b, m)))
            assert scan.distance_to(b) == differing == (a ^ b).bit_count()


def test_triangle_inequality():
    rng = random.Random(10)
    for _ in range(100):
        m = rng.randint(2, 12)
        a, b, c = (rng.randrange(1 << m) for _ in range(3))
        assert dist(a, c, m) <= dist(a, b, m) + dist(b, c, m)


def test_text_roundtrip():
    mask, m = parse_mask("10110001110")
    assert format_mask(mask, m) == "10110001110"
    with pytest.raises(ValueError):
        parse_mask("10x1")


@pytest.mark.parametrize(
    "text, bad",
    [
        # each of these int(text[::-1], 2) would accept
        ("1_0", "_"),
        (" 01", " "),
        ("01 ", " "),
        ("+1", "+"),
        ("0b1", "b"),
        ("\uff11", "\uff11"),  # FULLWIDTH DIGIT ONE
        ("10x1", "x"),
        ("1x0y1", "x"),  # the first of two
    ],
)
def test_parse_mask_rejects_the_first_invalid_character(text, bad):
    with pytest.raises(ValueError) as err:
        parse_mask(text)
    assert str(err.value) == f"invalid word character {bad!r} in {text!r}"


def test_parse_mask_inverts_format_mask():
    rng = random.Random(5)
    for m in range(1, 25):
        for mask in (0, (1 << m) - 1, 1, 1 << (m - 1), rng.randrange(1 << m)):
            assert parse_mask(format_mask(mask, m)) == (mask, m)
    with pytest.raises(ValueError):
        parse_mask("")


def test_vertex_validation():
    with pytest.raises(ValueError):
        Code(4, [16])
    with pytest.raises(ValueError):
        Code(0, [0])
    with pytest.raises(ValueError):
        Code(25, [0])
