"""Complete regularity and complete transitivity certifiers.

Complete regularity is decided by reading the code's cached outer
distribution f_k(nu) = |Gamma_k(nu) cap C| of every vertex and checking
each row is constant on its distance-partition cell; the resulting
intersection table is the certificate.  Complete transitivity is
decided by direct orbit computation: a group stabilizing the code must
have exactly the partition cells as vertex orbits, each orbit's vertices
sharing one entry of the scan's cell index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certs import FAIL, PASS, Certificate
from .codes import Code, OuterDistribution
from .hamming import LengthError, format_mask
from .symmetry import GroupHandle, apply_mask, orbits


def outer_distribution(code: Code) -> OuterDistribution:
    """The code's cached outer distribution (one scan per code)."""
    return code.outer_distribution


@dataclass(frozen=True)
class RegularityCertificate:
    """Verdict plus either the full intersection table or a counterexample.

    The counterexample is (cell, least vertex of the cell, failing
    vertex, radius): the failing vertex is the least vertex by bitmask,
    in whatever cell, whose outer-distribution row differs from the row
    of its cell's least vertex, and the radius is the first where the
    two rows differ.  A lower cell may fail too, at a greater vertex.
    """

    completely_regular: bool
    covering_radius: int
    intersection_table: tuple[tuple[int, ...], ...] | None
    counterexample: tuple[int, int, int, int] | None  # (cell, vertex, vertex, k)

    def to_certificate(self, code: Code) -> Certificate:
        if self.completely_regular:
            witness = {
                "covering_radius": self.covering_radius,
                "intersection_table": [list(r) for r in self.intersection_table],
            }
            return Certificate(
                "the number of codewords at each distance from a vertex depends "
                "only on the vertex's distance to the code",
                "regularity/completely-regular",
                witness,
                PASS,
            )
        cell, v1, v2, k = self.counterexample
        witness = {
            "cell": cell,
            "vertices": [
                format_mask(v1, code.length),
                format_mask(v2, code.length),
            ],
            "radius": k,
        }
        return Certificate(
            "two vertices in one distance-partition cell see different "
            "codeword counts at some radius",
            "regularity/completely-regular",
            witness,
            FAIL,
        )


def certify_completely_regular(code: Code) -> RegularityCertificate:
    dist = outer_distribution(code)
    cells, data, stride = dist.cell_index, dist.data, dist.row_bytes
    rho = code.covering_radius
    # each cell's reference row is the row of its least vertex; the scan
    # is compared whole against the reference rows laid out by cell
    least = [cells.index(i) for i in range(rho + 1)]
    reference = [data[v * stride : (v + 1) * stride] for v in least]
    expected = b"".join(map(reference.__getitem__, cells))
    if expected != data:
        # the least vertex whose row differs from its cell's reference row
        v = next(
            v
            for v, i in enumerate(cells)
            if data[v * stride : (v + 1) * stride] != reference[i]
        )
        i = cells[v]
        row, ref = dist.row(v), dist.row(least[i])
        k = next(a for a in range(code.length + 1) if row[a] != ref[a])
        return RegularityCertificate(False, rho, None, (i, least[i], v, k))
    return RegularityCertificate(True, rho, tuple(map(dist.row, least)), None)


def certify_completely_transitive(code: Code, group: GroupHandle) -> Certificate:
    """PASS iff the group's vertex orbits are exactly the partition cells.

    Precondition: every generator stabilizes the code setwise; a
    violating generator is reported with a witness word.  A generator of
    another degree raises LengthError.
    """
    word_set = set(code.words)
    for g in group.generators:
        if g.degree != code.length:
            raise LengthError(f"generator degree {g.degree} vs code length {code.length}")
        image = {apply_mask(g, w) for w in code.words}
        if image != word_set:
            moved = min(image - word_set)
            return Certificate(
                "a generator moves the code off itself",
                "regularity/completely-transitive",
                {
                    "generator": str(g),
                    "stray_image": format_mask(moved, code.length),
                },
                FAIL,
            )
    cell_index = outer_distribution(code).cell_index
    cell_sizes = [cell_index.count(i) for i in range(code.covering_radius + 1)]
    orbit_partition = orbits(group)
    # every cell is nonempty, so as many orbits as cells, each inside one
    # cell, means each cell is one orbit
    matches = len(orbit_partition) == len(cell_sizes) and all(
        len({cell_index[v] for v in o}) == 1 for o in orbit_partition
    )
    witness = {
        "orbit_sizes": sorted(len(o) for o in orbit_partition),
        "cell_sizes": cell_sizes,
        "orbit_representatives": [
            format_mask(o[0], code.length) for o in orbit_partition
        ],
    }
    if matches:
        creg = certify_completely_regular(code)
        if not creg.completely_regular:
            raise AssertionError(
                "completely transitive but not completely regular: impossible"
            )
        witness["implies_completely_regular"] = True
        return Certificate(
            "each distance-partition cell is a single orbit of the group",
            "regularity/completely-transitive",
            witness,
            PASS,
        )
    return Certificate(
        "the orbit partition does not match the distance partition",
        "regularity/completely-transitive",
        witness,
        FAIL,
    )
