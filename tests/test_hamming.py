import random
from math import comb

import pytest

from cregcert.hamming import (
    LengthError,
    Vertex,
    complement,
    dist,
    format_mask,
    ksubset_masks,
    parse_mask,
    parse_vertex,
    sphere,
    support,
)


def test_dist_identity():
    a = Vertex(0b1011, 4)
    assert dist(a, a) == 0


def test_dist_full_complement_at_12():
    zero = parse_vertex("000000000000")
    ones = parse_vertex("111111111111")
    assert dist(zero, ones) == 12


def test_dist_length_mismatch():
    with pytest.raises(LengthError):
        dist(Vertex(0, 4), Vertex(0, 5))


def test_support_empty_and_full():
    assert support(Vertex(0, 9)) == frozenset()
    assert support(Vertex((1 << 11) - 1, 11)) == frozenset(range(1, 12))


def test_support_bit_convention():
    # coordinate 1 is the leftmost text character, stored at bit 0
    v = parse_vertex("001011")
    assert v.bits == 0b110100
    assert support(v) == frozenset({3, 5, 6})


def test_complement_involution_and_distance():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 16)
        v = Vertex(rng.randrange(1 << m), m)
        assert complement(complement(v)) == v
        assert dist(v, complement(v)) == m
    assert complement(Vertex(0, 6)).bits == 0b111111


def test_complement_is_isometry():
    rng = random.Random(8)
    for _ in range(300):
        m = rng.randint(2, 14)
        a = Vertex(rng.randrange(1 << m), m)
        b = Vertex(rng.randrange(1 << m), m)
        assert dist(complement(a), complement(b)) == dist(a, b)


def test_sphere_radius_zero():
    center = Vertex(0b0101, 4)
    assert list(sphere(center, 0)) == [center]


def test_sphere_sizes_and_partition():
    center = Vertex(0b10010110, 12)
    assert sum(1 for _ in sphere(center, 4)) == comb(12, 4) == 495
    total = 0
    seen = set()
    center11 = Vertex(0b1011, 11)
    for k in range(12):
        pts = list(sphere(center11, k))
        assert all(dist(p, center11) == k for p in pts)
        seen.update(p.bits for p in pts)
        total += len(pts)
    assert total == 2048
    assert len(seen) == 2048


def test_sphere_deterministic_order():
    center = Vertex(0b001, 3)
    offsets = [v.bits ^ center.bits for v in sphere(center, 2)]
    assert offsets == sorted(offsets) == [0b011, 0b101, 0b110]


def test_sphere_radius_out_of_range():
    with pytest.raises(ValueError):
        list(sphere(Vertex(0, 4), 5))


def test_ksubset_masks_ascending():
    masks = list(ksubset_masks(6, 3))
    assert masks == sorted(masks)
    assert len(masks) == comb(6, 3)
    assert all(v.bit_count() == 3 for v in masks)


def test_dist_equals_xor_weight():
    rng = random.Random(9)
    for _ in range(500):
        m = rng.randint(1, 20)
        a, b = rng.randrange(1 << m), rng.randrange(1 << m)
        assert dist(Vertex(a, m), Vertex(b, m)) == (a ^ b).bit_count()


def test_triangle_inequality():
    rng = random.Random(10)
    for _ in range(300):
        m = rng.randint(2, 12)
        a, b, c = (Vertex(rng.randrange(1 << m), m) for _ in range(3))
        assert dist(a, c) <= dist(a, b) + dist(b, c)


def test_text_roundtrip():
    v = parse_vertex("10110001110")
    assert format_mask(v.bits, v.length) == "10110001110"
    with pytest.raises(ValueError):
        parse_vertex("10x1")


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
        Vertex(16, 4)
    with pytest.raises(ValueError):
        Vertex(0, 0)
    with pytest.raises(ValueError):
        Vertex(0, 25)
