"""Binary codes as finite vertex sets of H(m, 2).

A Code is an immutable, sorted, deduplicated collection of bitmasks with
one shared length.  Everything derived from it (minimum distance,
covering radius, distance partition and distribution) is computed
exhaustively in exact arithmetic and cached on first use; at 2^m <= 4096
vertices the exhaustive scan *is* the certificate.  Every distance fact
is read from one cached scan, the outer distribution: each vertex's
counts f_0..f_m as 16-bit fields, vertices in ascending order, in one
``bytes`` object; the distribution sums the codewords' rows.  The scan
works on blocks of 2^h vertices that share their high bits: one table
add per codeword fills its block, and m - h butterfly passes over whole
blocks spread the counts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable

from .certs import ResourceBudgetError
from .hamming import ASCII_SPACE, check_length, format_mask, parse_mask

# 16-bit fields the scan holds, 2^m * (m+1); admits every m <= 18
SCAN_BUDGET = 1 << 23
# codeword lines a code file may hold: the full space of length 18, the
# largest code the scan admits
WORD_LINE_BUDGET = 1 << 18
FIELD_BITS = 16
# low bits of a scan block: a block holds the rows of 2^h vertices
MAX_BLOCK_BITS = 6

# byte -> 0xFF if nonzero: marks the vertices whose field is nonzero
_NONZERO = bytes.maketrans(bytes(range(256)), b"\x00" + b"\xff" * 255)


@lru_cache(maxsize=None)
def _block_table(m: int, h: int) -> tuple[int, ...]:
    """Entry u: the rows of a 2^h-vertex block holding the one word u,
    row v (m+1 fields from bit FIELD_BITS*(m+1)*v) being z^wt(u xor v)."""
    row_bits, vs = FIELD_BITS * (m + 1), range(1 << h)
    return tuple(
        sum(1 << (row_bits * v + FIELD_BITS * (u ^ v).bit_count()) for v in vs)
        for u in vs
    )


class CodeFormatError(ValueError):
    """A code file failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Code:
    """An (m, N, delta) binary code.

    Words are immutable after construction; derived parameters are
    computed at most once (``functools.cached_property``) and every
    query afterwards is read-only.
    """

    def __init__(self, length: int, words) -> None:
        check_length(length)
        ws = sorted({int(w) for w in words})
        if not ws:
            raise ValueError("a code needs at least one codeword")
        if ws[0] < 0 or ws[-1] >= (1 << length):
            raise ValueError(f"codeword out of range for length {length}")
        self.length = length
        self.words: tuple[int, ...] = tuple(ws)

    @property
    def size(self) -> int:
        return len(self.words)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Code)
            and self.length == other.length
            and self.words == other.words
        )

    def __hash__(self) -> int:
        return hash((self.length, self.words))

    def __repr__(self) -> str:
        try:
            delta = self.min_distance if self.size >= 2 else None
        except ResourceBudgetError:  # past the scan budget: repr must not raise
            delta = None
        return f"Code(m={self.length}, N={self.size}, delta={delta})"

    # ---- parameters -----------------------------------------------------

    @cached_property
    def min_distance(self) -> int:
        """Smallest distance between distinct codewords (needs N >= 2): the
        least i > 0 with a_i > 0, so past length 18 the scan budget refuses it."""
        if self.size < 2:
            raise ValueError("minimum distance undefined for a single-word code")
        return next(i for i, a in enumerate(self.distance_distribution) if i and a)

    @cached_property
    def outer_distribution(self) -> "OuterDistribution":
        """f_k(nu) = |Gamma_k(nu) cap C| for all 2^m vertices nu: the
        code's one vertex scan.  Row nu is the sum over codewords c of
        z^wt(nu xor c), z^k being its 16-bit field k.  One int holds the
        rows of a block, the 2^h vertices (h = min(m // 2, 6)) sharing
        their high bits; each codeword adds its table entry to its block.
        Each of m - h passes then pairs the lower and upper halves of the
        blocks and interleaves a + z*b and b + z*a (a perfect shuffle),
        which brings every block back in place.  Raises
        ResourceBudgetError before allocating when 2^m * (m+1) fields
        exceed SCAN_BUDGET."""
        m = self.length
        if (1 << m) * (m + 1) > SCAN_BUDGET:
            raise ResourceBudgetError(
                f"{1 << m} vertices x {m + 1} distance fields exceeds the scan "
                f"budget of {SCAN_BUDGET} fields"
            )
        h = min(m // 2, MAX_BLOCK_BITS)
        low = (1 << h) - 1
        table = _block_table(m, h)
        blocks = [0] * (1 << (m - h))
        for w in self.words:
            blocks[w >> h] += table[w & low]
        # after j passes field k of a row counts codewords that differ from
        # its vertex on k of the h+j coordinates summed over so far and
        # agree on the rest: at most C(18, 9) = 48,620 < 2^16, so no field
        # carries into the next.  Fields above h+j are zero, so field m is
        # zero until the last pass and a shift never reaches the next row.
        half = len(blocks) // 2
        for _ in range(m - h):
            lo, hi = blocks[:half], blocks[half:]
            blocks[0::2] = [a + (b << FIELD_BITS) for a, b in zip(lo, hi)]
            blocks[1::2] = [b + (a << FIELD_BITS) for a, b in zip(lo, hi)]
        size = 2 * (m + 1) << h
        data = b"".join(b.to_bytes(size, "little") for b in blocks)
        return OuterDistribution(m, data, _lowest_nonzero_fields(data, m))

    def distance_to(self, mask: int) -> int:
        # with _cells, read only by analyze's cell sizes and the benchmark's
        # tracer; both can go once those read the scan's cell index
        return self.outer_distribution.cell_index[mask]

    @cached_property
    def covering_radius(self) -> int:
        """max over all 2^m vertices of d(gamma, C): the largest cell index."""
        return max(self.outer_distribution.cell_index)

    @cached_property
    def _cells(self) -> tuple[tuple[int, ...], ...]:
        buckets: list[list[int]] = [[] for _ in range(self.covering_radius + 1)]
        for mask in range(1 << self.length):
            buckets[self.distance_to(mask)].append(mask)
        return tuple(tuple(b) for b in buckets)

    def distance_partition(self) -> "DistancePartition":
        return DistancePartition(self.length, self._cells)

    @cached_property
    def distance_distribution(self) -> tuple[Fraction, ...]:
        """a_i = sum over codewords c of f_i(c), divided by N: the ordered
        codeword pairs at distance i per word, summed from the scan's rows."""
        rows = map(self.outer_distribution.row, self.words)
        return tuple(Fraction(sum(column), self.size) for column in zip(*rows))

    def weight_class(self, k: int) -> tuple[int, ...]:
        """All codewords of weight exactly k."""
        if not 0 <= k <= self.length:
            raise ValueError(f"weight {k} out of range 0..{self.length}")
        return tuple(w for w in self.words if w.bit_count() == k)

    def is_antipodal(self) -> bool:
        full = (1 << self.length) - 1
        return {full ^ w for w in self.words} == set(self.words)

    # ---- derived codes --------------------------------------------------

    def puncture(self, p: int) -> "Code":
        """Delete coordinate p (1-based) from every codeword.

        Colliding words are deduplicated silently, so the punctured code
        is smaller exactly when two codewords differ only at p.
        """
        if not 1 <= p <= self.length:
            raise ValueError(f"coordinate {p} out of range 1..{self.length}")
        if self.length == 1:
            raise ValueError("cannot puncture a length-1 code")
        q = p - 1
        low = (1 << q) - 1
        return Code(
            self.length - 1, ((w & low) | ((w >> 1) & ~low) for w in self.words)
        )

    # ---- file format ----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"m={self.length}"]
        lines.extend(format_mask(w, self.length) for w in self.words)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Code":
        """Read a code file given as its lines, split at "\n" only (the
        ASCII strip takes the "\r" of CRLF).  Raises ResourceBudgetError
        at the first codeword line past WORD_LINE_BUDGET, before reading
        further."""
        length = None
        words = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip(ASCII_SPACE)
            if not line or line.startswith("#"):
                continue
            if length is None:
                # int() alone would take signs, "_", spaces and non-ASCII digits
                digits = line[2:]
                if not (line.startswith("m=") and digits.isascii() and digits.isdigit()):
                    raise CodeFormatError("expected header 'm=<int>'", lineno)
                try:
                    length = int(digits)
                    check_length(length)
                except ValueError as exc:
                    raise CodeFormatError(str(exc), lineno) from None
                continue
            if len(words) == WORD_LINE_BUDGET:
                raise ResourceBudgetError(
                    f"line {lineno}: the file lists more than the budget of "
                    f"{WORD_LINE_BUDGET} codeword lines"
                )
            try:
                mask, m = parse_mask(line)
            except ValueError as exc:
                raise CodeFormatError(str(exc), lineno) from None
            if m != length:
                raise CodeFormatError(
                    f"word length {m} does not match header m={length}", lineno
                )
            words.append(mask)
        if length is None:
            raise CodeFormatError("missing header 'm=<int>'", 1)
        if not words:
            raise CodeFormatError("code file contains no codewords", 1)
        return cls(length, words)


def _lowest_nonzero_fields(data: bytes, m: int) -> bytes:
    """Each row's lowest nonzero field (its vertex's cell index), one
    byte per vertex, read a column of fields at a time."""
    stride = 2 * (m + 1)
    n = len(data) // stride

    def nonzero(offset: int) -> int:
        # 0xFF in byte nu where byte ``offset`` of row nu is nonzero
        return int.from_bytes(data[offset::stride].translate(_NONZERO), "little")

    unset, cells = (1 << 8 * n) - 1, 0
    for k in range(m + 1):
        first = (nonzero(2 * k) | nonzero(2 * k + 1)) & unset
        cells |= first & int.from_bytes(bytes([k]) * n, "little")
        unset ^= first
        if not unset:
            break
    return cells.to_bytes(n, "little")


@dataclass(frozen=True)
class OuterDistribution:
    """f_k(nu) for every vertex nu, with each vertex's cell index.

    ``data`` holds the rows in vertex order, 2(m+1) bytes each, f_k(nu)
    little-endian at byte 2(m+1)nu + 2k, so two vertices have equal rows
    iff their slices are equal.  ``cell_index[nu]`` is nu's distance to
    the code, its row's lowest nonzero field.
    """

    length: int
    data: bytes
    cell_index: bytes

    @property
    def row_bytes(self) -> int:
        return 2 * (self.length + 1)

    def row(self, mask: int) -> tuple[int, ...]:
        width = self.length + 1
        return struct.unpack_from(f"<{width}H", self.data, mask * self.row_bytes)

    def distinct_prefixes(self, count: int) -> set[tuple[int, ...]]:
        """The distinct prefixes (f_0..f_{count-1}) over all vertices, read
        in one ``struct.iter_unpack`` pass that skips the other fields."""
        pad = self.row_bytes - 2 * count
        return set(struct.iter_unpack(f"<{count}H{pad}x", self.data))


class DistancePartition:
    """Cells C_0..C_rho of vertices grouped by distance to the code."""

    def __init__(self, length: int, cells: tuple[tuple[int, ...], ...]):
        self.length = length
        self.cells = cells

    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)
