"""Words of the binary Hamming graph H(m, 2) as integer bitmasks.

A binary word of length m is stored as an integer with coordinate i
(1-based) at bit i-1, so Hamming distance is one XOR plus a popcount and
vertex sets have a canonical (numeric) order for free.  Lengths up to 24
keep every mask inside a machine word with headroom; the codes studied
here only need m = 11 and 12.
"""

from __future__ import annotations

from typing import Iterator

MAX_LENGTH = 24
# bytes.isspace(); str.strip() and str.split() also take U+3000, U+00A0, ...
ASCII_SPACE = " \t\n\r\x0b\x0c"


class LengthError(ValueError):
    """Operands from Hamming spaces of different lengths were mixed."""


def check_length(m: int) -> None:
    if not 1 <= m <= MAX_LENGTH:
        raise ValueError(f"word length must be in 1..{MAX_LENGTH}, got {m}")


def ksubset_masks(m: int, k: int) -> Iterator[int]:
    """All k-subset bitmasks of {1..m} in ascending numeric order.

    Gosper's hack walks same-popcount masks in increasing value.
    """
    if not 0 <= k <= m:
        raise ValueError(f"subset size {k} out of range 0..{m}")
    if k == 0:
        yield 0
        return
    v = (1 << k) - 1
    top = 1 << m
    while v < top:
        yield v
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) // low) >> 2)


def points_to_mask(points) -> int:
    mask = 0
    for p in points:
        mask |= 1 << (p - 1)
    return mask


def format_mask(mask: int, m: int) -> str:
    """Text form: m characters over {0,1}, coordinate 1 leftmost."""
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(m))


def parse_mask(text: str) -> tuple[int, int]:
    """Inverse of format_mask; returns (mask, length)."""
    m = len(text)
    check_length(m)
    # what strip leaves starts at the first invalid character; int() alone
    # would take signs, "_", "0b", spaces and non-ASCII digits
    invalid = text.strip("01")
    if invalid:
        raise ValueError(f"invalid word character {invalid[0]!r} in {text!r}")
    return int(text[::-1], 2), m
