"""Krawtchouk polynomials, the MacWilliams transform, and packing weights.

Everything here is exact and computed in integers: Krawtchouk values are
integers, a transform entry is an integer sum over its input's common
denominator, and the uniformly-packed weights come out of an incremental
fraction-free solve that eliminates only on the rows a running solution
fails.  Fractions are built only for results.  Sign decisions
(nonnegativity of the transform) are proof steps, so floating point
never appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import mul

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
    note: str = (
        "identity used: sum over k = 0..rho of lambda_k * f_k(nu) = 1 "
        "for every vertex nu"
    )


def solve_rational_system(rows, rhs) -> list[Fraction] | None:
    """Solve A x = b exactly over the rationals.

    Returns one solution (free variables pinned to zero) or None when the
    system is inconsistent.  Fraction-free Gauss-Jordan on the rows of
    [A | b] scaled to integers: pivot p at column c turns a row into
    p * row - row[c] * pivot_row over its gcd, a nonzero multiple of the
    Fraction row, so the pivots are plain Gauss-Jordan's.  The systems
    here have rho+1 unknowns, at most m+1 (a one-word code has rho = m).
    """
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [_integer_row([*row, b])[0] for row, b in zip(rows, rhs)]
    pivots, r = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        top = aug[r]
        for i, row in enumerate(aug):
            if i != r and row[c]:
                new = [top[c] * v - row[c] * p for v, p in zip(row, top)]
                g = gcd(*new)
                aug[i] = [v // g for v in new] if g else new
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    if any(row[-1] for row in aug[r:]):
        return None
    solution = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        solution[c] = Fraction(aug[i][-1], aug[i][c])
    return solution


def solve_unit_system(rows) -> tuple[Fraction, ...] | None:
    """Solve sum_k x_k row[k] = 1 for every row, exactly: the solution
    with free variables at zero, or None when the rows are inconsistent.

    Checks the rows in integers against a solution scaled by its common
    denominator; a failing row joins a basis and only the basis is
    re-solved, raising its rank or proving inconsistency, so there are
    at most unknowns + 1 solves.  The basis's pivot columns are among
    the full system's (a column that depends on earlier ones in all rows
    does so in any subset), so a basis solution that fits every row is
    the full system's solution with free variables at zero.
    """
    basis: list[tuple[int, ...]] = []
    weights, scale = (0,) * len(rows[0]), 1  # x_k = weights[k] / scale
    while True:
        row = next((r for r in rows if sum(map(mul, weights, r)) != scale), None)
        if row is None:
            return tuple(Fraction(w, scale) for w in weights)
        basis.append(row)
        solution = solve_rational_system(basis, [1] * len(basis))
        if solution is None:
            return None
        scale = lcm(*(v.denominator for v in solution))
        weights = tuple(v.numerator * (scale // v.denominator) for v in solution)


def certify_uniformly_packed(code: Code) -> PackingSolution:
    """Decide whether rational weights lambda_0..lambda_rho exist with
    sum_k lambda_k |Gamma_k(nu) cap C| = 1 for every vertex nu.

    Solves the distinct (f_0..f_rho) prefixes of the packed outer
    distribution, in sorted order, by ``solve_unit_system``: at most
    rho+2 small eliminations.  Unsatisfiable is a verdict, not an error.
    """
    width = code.covering_radius + 1
    distinct = tuple(sorted(code.outer_distribution.distinct_prefixes(width)))
    lambdas = solve_unit_system(distinct)
    return PackingSolution(lambdas is not None, lambdas, distinct)
