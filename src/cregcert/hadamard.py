"""Hadamard matrices of order 12 and the bridge to binary codes.

A Hadamard matrix is a +-1 square matrix with pairwise orthogonal rows.
The order-12 instance is built by the Paley construction over the
quadratic residues mod 11, then sign-normalized so the first row and
column are all +1.  The kappa map (-1 -> 1, +1 -> 0) turns the 24 rows
of H and -H into a (12, 24, 6) binary code, and monomial transformations
of the matrix correspond exactly to graph automorphisms of that code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .codes import Code

_PALEY_PRIME = 11


@dataclass(frozen=True)
class HadamardMatrix:
    """An m x m matrix over {+1, -1} with H * H^T = m * I, checked on build."""

    order: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = self.order
        if len(self.rows) != m or any(len(r) != m for r in self.rows):
            raise ValueError(f"expected an {m} x {m} array of signs")
        for row in self.rows:
            if any(v not in (1, -1) for v in row):
                raise ValueError("entries must be +1 or -1")
        for i in range(m):
            for j in range(i, m):
                dot = sum(a * b for a, b in zip(self.rows[i], self.rows[j]))
                if dot != (m if i == j else 0):
                    raise ValueError(f"rows {i + 1} and {j + 1} are not orthogonal")

    def to_text(self) -> str:
        lines = [f"order={self.order}"]
        for row in self.rows:
            lines.append("".join("+" if v == 1 else "-" for v in row))
        return "\n".join(lines) + "\n"


def paley_hadamard_12() -> HadamardMatrix:
    """The normalized order-12 Hadamard matrix from the Paley construction.

    Border of +1s around the Jacobsthal matrix of the quadratic residue
    character mod 11, plus the identity; every row below the border
    opens with -1 and is negated, after which every column top entry is
    already +1.  Negated, entry j of row i is -1 exactly where i = j or
    j - i is a quadratic residue.
    """
    p = _PALEY_PRIME
    residues = {x * x % p for x in range(1, p)}
    rows = [(1,) * (p + 1)] + [
        (1, *(-1 if i == j or (j - i) % p in residues else 1 for j in range(p)))
        for i in range(p)
    ]
    return HadamardMatrix(p + 1, tuple(rows))


def kappa(vector: Sequence[int]) -> int:
    """The componentwise bijection -1 -> 1, +1 -> 0 into H(m, 2), as the
    word's bitmask."""
    bits = 0
    for i, v in enumerate(vector):
        if v == -1:
            bits |= 1 << i
        elif v != 1:
            raise ValueError(f"entries must be +1 or -1, got {v!r}")
    return bits


def code_of(matrix: HadamardMatrix) -> Code:
    """The code of all kappa images of rows of H and -H: an (m, 2m, m/2) code."""
    words = []
    for row in matrix.rows:
        words.append(kappa(row))
        words.append(kappa([-v for v in row]))
    return Code(matrix.order, words)
