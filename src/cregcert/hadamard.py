"""Hadamard matrices of order 12 and the bridge to binary codes.

A Hadamard matrix is a +-1 square matrix with pairwise orthogonal rows.
The order-12 instance is built by the Paley construction over the
quadratic residues mod 11, then sign-normalized so the first row and
column are all +1.  The kappa map (-1 -> 1, +1 -> 0) turns the 24 rows
of H and -H into a (12, 24, 6) binary code, and monomial transformations
of the matrix correspond exactly to graph automorphisms of that code;
the transfer in both directions is implemented and verified here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .certs import ContradictionError
from .codes import Code
from .symmetry import GraphAutomorphism

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


def _quadratic_residues(p: int) -> frozenset[int]:
    return frozenset((x * x) % p for x in range(1, p))


def paley_hadamard_12() -> HadamardMatrix:
    """The normalized order-12 Hadamard matrix from the Paley construction.

    Border of +1s around the Jacobsthal matrix of the quadratic residue
    character mod 11, plus the identity; rows with a leading -1 are then
    negated (after which every column top entry is already +1).
    """
    p = _PALEY_PRIME
    residues = _quadratic_residues(p)
    chi = [0] * p
    for x in range(1, p):
        chi[x] = 1 if x in residues else -1
    m = p + 1
    rows = []
    rows.append(tuple([1] * m))
    for i in range(p):
        row = [-1]
        for j in range(p):
            row.append(1 if i == j else chi[(j - i) % p])
        rows.append(tuple(row))
    # normalize: flip rows with leading -1; column tops are +1 afterwards
    normalized = [rows[0]]
    for row in rows[1:]:
        if row[0] == -1:
            row = tuple(-v for v in row)
        normalized.append(row)
    return HadamardMatrix(m, tuple(normalized))


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


@dataclass(frozen=True)
class Monomial:
    """A signed permutation matrix, stored factored as diagonal signs
    followed by a permutation (the factorization is unique).

    As a matrix: entry (i, j) is signs[i] when j = perm[i], else 0, so a
    row vector v maps to (vU)_{perm[i]} = v_i * signs[i].
    """

    signs: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("diagonal entries must be +1 or -1")
        if sorted(self.perm) != list(range(len(self.signs))):
            raise ValueError("not a permutation")

    @property
    def order(self) -> int:
        return len(self.signs)

    def inverse(self) -> "Monomial":
        inv_perm = [0] * self.order
        signs = [1] * self.order
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
            signs[p] = self.signs[i]
        return Monomial(tuple(signs), tuple(inv_perm))

    def as_matrix(self) -> tuple[tuple[int, ...], ...]:
        m = self.order
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            rows[i][self.perm[i]] = self.signs[i]
        return tuple(tuple(r) for r in rows)

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[int]]) -> "Monomial":
        m = len(rows)
        signs = []
        perm = []
        for row in rows:
            hits = [(j, v) for j, v in enumerate(row) if v != 0]
            if len(hits) != 1 or hits[0][1] not in (1, -1):
                raise ValueError("not a monomial matrix")
            perm.append(hits[0][0])
            signs.append(hits[0][1])
        return cls(tuple(signs), tuple(perm))


def theta(u: Monomial) -> GraphAutomorphism:
    """The isomorphism from monomial matrices to graph automorphisms:
    the diagonal's -1 positions become coordinate flips, the permutation
    carries over unchanged."""
    flips = 0
    for i, s in enumerate(u.signs):
        if s == -1:
            flips |= 1 << i
    return GraphAutomorphism(flips, u.perm)


def theta_inverse(x: GraphAutomorphism) -> Monomial:
    signs = tuple(-1 if (x.flips >> i) & 1 else 1 for i in range(x.degree))
    return Monomial(signs, x.perm)


def _mat_mul(a, b):
    n = len(a)
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def is_matrix_automorphism(p: Monomial, u: Monomial, h: HadamardMatrix) -> bool:
    """Whether P H U = H, evaluated entrywise in exact integers."""
    if p.order != h.order or u.order != h.order:
        raise ValueError("orders do not match")
    return _mat_mul(_mat_mul(p.as_matrix(), h.rows), u.as_matrix()) == h.rows


@dataclass(frozen=True)
class MatrixAutomorphism:
    """A certified pair (P, U) of monomials with P H U = H."""

    left: Monomial
    right: Monomial


def transfer_from_code_automorphism(
    x: GraphAutomorphism, h: HadamardMatrix
) -> MatrixAutomorphism:
    """Lift a code automorphism of code_of(h) to a matrix automorphism.

    Sets U from the graph automorphism, computes P = H U^{-1} H^{-1}
    using H^{-1} = (1/m) H^T, and verifies that P is monomial with
    P H U = H.  A non-monomial P would contradict the equivalence of the
    two automorphism groups and raises ContradictionError.
    """
    m = h.order
    if x.degree != m:
        raise ValueError("orders do not match")
    u = theta_inverse(x)
    ht = tuple(zip(*h.rows))
    numerator = _mat_mul(_mat_mul(h.rows, u.inverse().as_matrix()), ht)
    rows = []
    for row in numerator:
        scaled = []
        for v in row:
            if v % m:
                raise ContradictionError(
                    "H U^-1 H^T is not divisible by the order; "
                    "the input does not stabilize the code"
                )
            scaled.append(v // m)
        rows.append(scaled)
    try:
        p = Monomial.from_matrix(rows)
    except ValueError:
        raise ContradictionError(
            "H U^-1 H^-1 is not monomial; the input does not stabilize the code"
        ) from None
    if not is_matrix_automorphism(p, u, h):
        raise ContradictionError("transfer verification failed: P H U != H")
    return MatrixAutomorphism(p, u)
