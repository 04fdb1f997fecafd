"""Second routes to facts the package certifies, kept beside the tests.

No command, report step or replay reads these definitions, so the
package does not carry them.  Here they check the package from outside,
by a route its own certificates do not take:

- the monomial matrices and their transfer: every code automorphism of
  the (12, 24, 6) code lifts to a matrix automorphism P H U = H of the
  Hadamard matrix, checked entrywise in exact integers;
- the stabilizer of one vertex by Schreier's lemma, for group orders
  and indices;
- the slice lemma (transitivity on a cell from a codeword stabilizer's
  orbit on its sphere slice), against the full orbit partition;
- orbits on the k-subsets of the coordinates, for design groups;
- the k-subsets themselves, by brute force over all 2^m words (the
  package takes them from ``itertools.combinations``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from cregcert.certs import FAIL, PASS, Certificate
from cregcert.codes import Code
from cregcert.hadamard import HadamardMatrix
from cregcert.hamming import format_mask
from cregcert.symmetry import (
    GraphAutomorphism,
    GroupHandle,
    StabilizerChain,
    apply_mask,
    compose,
    identity,
    inverse,
    orbit_of,
)


def ksubset_masks(m: int, k: int) -> list[int]:
    """All k-subset bitmasks of {1..m} in ascending numeric order."""
    if not 0 <= k <= m:
        raise ValueError(f"subset size {k} out of range 0..{m}")
    return [v for v in range(1 << m) if v.bit_count() == k]


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
    P H U = H.  A map that moves the code gives a non-monomial P and
    raises ValueError.
    """
    m = h.order
    if x.degree != m:
        raise ValueError("orders do not match")
    u = theta_inverse(x)
    ht = tuple(zip(*h.rows))
    numerator = _mat_mul(_mat_mul(h.rows, u.inverse().as_matrix()), ht)
    if any(v % m for row in numerator for v in row):
        raise ValueError("H U^-1 H^T is not divisible by the order")
    try:
        p = Monomial.from_matrix([[v // m for v in row] for row in numerator])
    except ValueError:
        raise ValueError("H U^-1 H^-1 is not monomial") from None
    if not is_matrix_automorphism(p, u, h):
        raise ValueError("transfer verification failed: P H U != H")
    return MatrixAutomorphism(p, u)


def vertex_stabilizer(group: GroupHandle, mask: int) -> GroupHandle:
    """The subgroup of a closed group fixing one vertex, by Schreier's
    lemma.

    With u_v carrying ``mask`` to v along the orbit, the Schreier
    generators u_v * g * u_(v^g)^-1 generate the stabilizer.  They are
    sifted into a chain and the ones it accepts are kept; none is formed
    once the chain reaches |G| / |orbit|.
    """
    m, gens = group.length, group.generators
    orbit, transversal = [mask], {mask: identity(m)}
    for v in orbit:
        for g in gens:
            w = apply_mask(g, v)
            if w not in transversal:
                transversal[w] = compose(transversal[v], g)
                orbit.append(w)
    target = group.order // len(orbit)
    chain = StabilizerChain(m)
    schreier = (
        compose(compose(u, g), inverse(transversal[apply_mask(g, v)]))
        for v, u in transversal.items()
        for g in gens
        if chain.order < target
    )
    kept = [s for s in schreier if chain.add(s)]
    if chain.order != target:
        raise AssertionError("the Schreier generators do not reach |G| / |orbit|")
    return GroupHandle(m, tuple(kept), chain)


def transitivity_by_stabilizer(code: Code, group: GroupHandle, cell: int) -> Certificate:
    """Certify transitivity on cell C_i from a point-stabilizer orbit.

    If the group is transitive on the code and the stabilizer of the
    codeword alpha (the code's first word) is transitive on
    Gamma_i(alpha) cap C_i, the group is transitive on C_i (Giudici and
    Praeger, 1999).  Both orbit computations are recorded.
    """
    alpha = code.words[0]
    anchor = "regularity/transitivity-by-stabilizer"
    code_orbit = orbit_of(alpha, group.generators)
    if code_orbit != set(code.words):
        return Certificate(
            "the group is not transitive on the code",
            anchor,
            {"orbit_size": len(code_orbit), "code_size": code.size},
            FAIL,
        )
    stabilizer = vertex_stabilizer(group, alpha)
    cell_set = set(code.distance_partition().cells[cell])
    slice_masks = sorted(
        alpha ^ off for off in ksubset_masks(code.length, cell) if alpha ^ off in cell_set
    )
    witness = {
        "cell": cell,
        "alpha": format_mask(alpha, code.length),
        "code_orbit_size": len(code_orbit),
        "stabilizer_order": stabilizer.order,
        "slice_size": len(slice_masks),
    }
    seen: set[int] = set()
    orbit_count = 0
    for start in slice_masks:
        if start not in seen:
            seen |= orbit_of(start, stabilizer.generators)
            orbit_count += 1
    witness["slice_orbit_count"] = orbit_count
    if orbit_count <= 1:
        return Certificate(
            "the point stabilizer is transitive on its sphere slice of the "
            "cell, so the group is transitive on the whole cell",
            anchor,
            witness,
            PASS,
        )
    return Certificate(
        "the point stabilizer splits the sphere slice of the cell",
        anchor,
        witness,
        FAIL,
    )


def orbits_on_ksubsets(group: GroupHandle, k: int) -> list[frozenset[int]]:
    """The orbits of a flip-free group on the k-subsets of the
    coordinates, as bitmasks."""
    assert not any(g.flips for g in group.generators), "a generator flips"
    parts: list[frozenset[int]] = []
    for mask in ksubset_masks(group.length, k):
        if not any(mask in p for p in parts):
            parts.append(orbit_of(mask, group.generators))
    return parts
