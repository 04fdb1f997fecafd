"""Krawtchouk polynomials, the MacWilliams transform, and packing weights.

Everything here is exact and computed in integers: Krawtchouk values are
integers, a transform entry is an integer sum over its input's common
denominator, and the uniformly-packed weights come out of one
fraction-free Gauss-Jordan elimination that takes in only the rows a
running solution fails.  Fractions are built only for results.  Sign
decisions (nonnegativity of the transform) are proof steps, so floating
point never appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import mul
from typing import ClassVar

from .codes import Code


def krawtchouk(m: int, k: int, x: int) -> int:
    """K_k(x) = sum_j (-1)^j C(x, j) C(m-x, k-j), the binary-scheme value."""
    if not 0 <= k <= m:
        raise ValueError(f"degree {k} out of range 0..{m}")
    if not 0 <= x <= m:
        raise ValueError(f"point {x} out of range 0..{m}")
    return sum((-1) ** j * comb(x, j) * comb(m - x, k - j) for j in range(k + 1))


@lru_cache(maxsize=None)
def krawtchouk_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Full (m+1) x (m+1) table, table[k][x] = K_k(x)."""
    return tuple(
        tuple(krawtchouk(m, k, x) for x in range(m + 1)) for k in range(m + 1)
    )


def _integer_row(row) -> tuple[list[int], int]:
    """Ints or Fractions as numerators over their least common denominator."""
    den = lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row], den


def macwilliams_transform(a) -> tuple[Fraction, ...]:
    """a'_k = sum_i a_i K_k(i) for a distance distribution of length m+1
    (ints or Fractions): integer sums over a's common denominator."""
    nums, den = _integer_row(a)
    return tuple(
        Fraction(sum(map(mul, nums, row)), den) for row in krawtchouk_table(len(a) - 1)
    )


def external_distance(aprime) -> int:
    """A code's external distance from its MacWilliams transform
    ``aprime``: one less than the number of nonzero entries."""
    return sum(1 for v in aprime if v != 0) - 1


@dataclass(frozen=True)
class PackingSolution:
    """Outcome of the uniformly-packed (wide sense) certification.

    ``lambdas`` are the rational weights when the defining identity
    sum_{k=0..rho} lambda_k * f_k(nu) = 1 (a single index k binds both
    the weight and the radius) holds for every vertex nu; ``rows`` are
    all the distinct outer-distribution prefixes (f_0..f_rho), sorted;
    the verdict is checked against every one of them.
    """

    satisfied: bool
    lambdas: tuple[Fraction, ...] | None
    rows: tuple[tuple[int, ...], ...]
    note: ClassVar[str] = (
        "identity used: sum over k = 0..rho of lambda_k * f_k(nu) = 1 "
        "for every vertex nu"
    )


def _eliminate(row: list[int], pivot: list[int], c: int) -> list[int]:
    """``row`` with column c cleared by ``pivot``, fraction-free and over
    its gcd: a nonzero multiple of the Fraction row's elimination."""
    new = [pivot[c] * v - row[c] * p for v, p in zip(row, pivot)]
    g = gcd(*new)
    return [v // g for v in new]


def solve_unit_system(rows) -> tuple[Fraction, ...] | None:
    """Solve sum_k x_k row[k] = 1 for every row, exactly: the solution
    with free variables at zero, or None when the rows are inconsistent.

    Checks the rows in integers against the running solution scaled by
    its common denominator.  A failing row [row | 1], reduced by the kept
    pivot rows, proves inconsistency when no coefficient is left; else
    its first nonzero column becomes a pivot, cleared from the other
    rows.  The kept rows are the reduced row-echelon form of the failing
    rows, whose pivot columns are among the full system's (a column that
    depends on earlier ones in all rows does so in any subset), so a
    solution that fits every row is the full system's with free
    variables at zero.  There are at most unknowns + 1 rounds.
    """
    pivots: dict[int, list[int]] = {}  # pivot column -> [coefficients | rhs]
    weights, scale = [0] * len(rows[0]), 1  # x_k = weights[k] / scale
    while True:
        row = next((r for r in rows if sum(map(mul, weights, r)) != scale), None)
        if row is None:
            return tuple(Fraction(w, scale) for w in weights)
        new = [*row, 1]
        for c, p in pivots.items():
            if new[c]:
                new = _eliminate(new, p, c)
        c = next((k for k, v in enumerate(new[:-1]) if v), None)
        if c is None:
            return None
        pivots = {k: _eliminate(p, new, c) if p[c] else p for k, p in pivots.items()}
        pivots[c] = new
        scale = lcm(*(p[k] for k, p in pivots.items()))
        for k, p in pivots.items():
            weights[k] = p[-1] * (scale // p[k])


def certify_uniformly_packed(code: Code) -> PackingSolution:
    """Decide whether rational weights lambda_0..lambda_rho exist with
    sum_k lambda_k |Gamma_k(nu) cap C| = 1 for every vertex nu.

    Solves the distinct (f_0..f_rho) prefixes of the packed outer
    distribution, in sorted order, by ``solve_unit_system``: one
    elimination over at most rho+2 of them.  Unsatisfiable is a verdict,
    not an error.
    """
    width = code.covering_radius + 1
    distinct = tuple(sorted(code.outer_distribution.distinct_prefixes(width)))
    lambdas = solve_unit_system(distinct)
    return PackingSolution(lambdas is not None, lambdas, distinct)
