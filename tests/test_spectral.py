import random
from fractions import Fraction
from fractions import Fraction as F
from math import comb

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cregcert.codes import Code
from cregcert.spectral import (
    certify_uniformly_packed,
    external_distance,
    krawtchouk,
    krawtchouk_table,
    macwilliams_transform,
    solve_unit_system,
)


def test_degree_zero_is_one():
    for m in (5, 11, 12):
        for x in range(m + 1):
            assert krawtchouk(m, 0, x) == 1


def test_values_at_zero_are_binomials():
    assert krawtchouk(11, 2, 0) == comb(11, 2) == 55


def test_central_values_masking_the_contradiction():
    # these feed the exact rejection of the hypothetical 23-word code
    assert krawtchouk(11, 2, 5) == -5
    assert krawtchouk(11, 2, 6) == -5


def test_argument_validation():
    with pytest.raises(ValueError):
        krawtchouk(5, 6, 0)
    with pytest.raises(ValueError):
        krawtchouk(5, 0, 6)


@pytest.mark.parametrize("m", [11, 12])
def test_orthogonality(m):
    table = krawtchouk_table(m)
    for k in range(m + 1):
        for l in range(m + 1):
            total = sum(comb(m, x) * table[k][x] * table[l][x] for x in range(m + 1))
            expected = (1 << m) * comb(m, k) if k == l else 0
            assert total == expected


@pytest.mark.parametrize("m", [11, 12])
def test_reflection(m):
    for k in range(m + 1):
        for x in range(m + 1):
            assert krawtchouk(m, k, m - x) == (-1) ** k * krawtchouk(m, k, x)


def test_hypothetical_23_word_distribution():
    a = [1, 0, 0, 0, 0, 11, 11, 0, 0, 0, 0, 0]
    aprime = macwilliams_transform(a)
    assert aprime[0] == 23
    assert aprime[2] == -55


def test_single_word_transform():
    m = 9
    a = [1] + [0] * m
    assert macwilliams_transform(a) == tuple(Fraction(comb(m, k)) for k in range(m + 1))


def test_code12_transform_has_five_nonzeros(code12):
    aprime = macwilliams_transform(code12.distance_distribution)
    assert sum(1 for v in aprime if v != 0) == 5
    assert all(v >= 0 for v in aprime)


def test_real_codes_have_nonnegative_transforms(code12, code11):
    for code in (code12, code11):
        assert all(v >= 0 for v in macwilliams_transform(code.distance_distribution))


def test_external_distance(code12, code11):
    for code, s in ((code12, 4), (code11, 3), (Code(4, range(16)), 0)):
        assert external_distance(macwilliams_transform(code.distance_distribution)) == s


def test_uniformly_packed_codes(code12, code11):
    up12 = certify_uniformly_packed(code12)
    assert up12.satisfied
    assert up12.lambdas == tuple(map(Fraction, ("1", "1", "4/9", "1/3", "1/9")))
    up11 = certify_uniformly_packed(code11)
    assert up11.satisfied
    assert up11.lambdas == tuple(map(Fraction, ("1", "1", "1/3", "1/3")))


def test_packing_weights_reverify_per_vertex(code12):
    up = certify_uniformly_packed(code12)
    words = code12.words
    rho = code12.covering_radius
    for mask in range(1 << 12):
        f = [0] * (rho + 1)
        for w in words:
            d = (mask ^ w).bit_count()
            if d <= rho:
                f[d] += 1
        assert sum(l * v for l, v in zip(up.lambdas, f)) == 1


def test_single_word_code_in_small_space():
    # distinct outer rows are the unit vectors, so every weight is 1
    result = certify_uniformly_packed(Code(4, [0]))
    assert result.satisfied
    assert result.lambdas == (Fraction(1),) * 5


def test_unpackable_code():
    # rows (0,3,0) and (0,2,0) force inconsistent weights; checked by hand
    result = certify_uniformly_packed(Code(3, [0b000, 0b110, 0b101]))
    assert not result.satisfied
    assert result.lambdas is None


def sympy_unit_solution(rows):
    """RREF over QQ of [rows | 1]: the solution with free variables at
    zero, or None when a pivot lands in the right-hand column."""
    width = len(rows[0])
    augmented = sympy.Matrix([list(r) + [1] for r in rows])
    reduced, pivots = augmented.rref()
    if width in pivots:
        return None
    x = [Fraction(0)] * width
    for i, c in enumerate(pivots):
        x[c] = Fraction(int(reduced[i, width].p), int(reduced[i, width].q))
    return tuple(x)


def fraction_transform(a):
    """a'_k = sum_i a_i K_k(i), one Fraction multiply-add per term, with
    K_k(i) from its defining sum."""
    m = len(a) - 1

    def kraw(k, x):
        return sum((-1) ** j * comb(x, j) * comb(m - x, k - j) for j in range(k + 1))

    return tuple(
        sum((Fraction(ai) * kraw(k, i) for i, ai in enumerate(a)), Fraction(0))
        for k in range(m + 1)
    )


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=24)),
        min_size=1,
        max_size=14,
    )
)
@example([1, 0, 0, 0, 0, 11, 11, 0, 0, 0, 0, 0])  # the hypothetical 23-word code
@example([F(1, 2), F(-1, 3), 0, F(5, 12)])
@example([0])
def test_transform_matches_a_fraction_sum(a):
    aprime = macwilliams_transform(a)
    assert aprime == fraction_transform(a)
    assert all(type(v) is Fraction for v in aprime)


def oracle_prefixes(code):
    """Distinct sorted (f_0..f_rho) over all vertices, counted pairwise."""
    rows = set()
    for v in range(1 << code.length):
        dists = [(v ^ w).bit_count() for w in code.words]
        rows.add(tuple(dists.count(k) for k in range(code.length + 1)))
    rho = max(next(k for k, f in enumerate(r) if f) for r in rows)
    return tuple(sorted({r[: rho + 1] for r in rows}))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda width: st.lists(
            st.tuples(*[st.integers(-2, 3)] * width), min_size=1, max_size=7
        )
    )
)
@example([(1, 1, 0, 0)])  # underdetermined
@example([(1, 2, 0, 0), (2, 4, 0, 0), (0, 0, 1, 1)])  # underdetermined, dependent rows
@example([(1, 0, 0, 0), (0, 1, 0, 0), (2, -1, 0, 0)])  # a dependent row that fits
@example([(1, 1, 0, 0), (2, 2, 0, 0)])  # the second row reduces to 0 = -1
@example([(0, 0, 0, 0)])  # inconsistent, zero row
@example([(1, 1), (1, -1), (1, 0)])  # overdetermined, consistent
@example([(3, 2), (4, -3)])  # a unique solution with denominators
def test_unit_system_matches_sympy(rows):
    assert solve_unit_system(rows) == sympy_unit_solution(rows)


@st.composite
def small_codes(draw):
    m = draw(st.integers(1, 7))
    words = draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1, max_size=12))
    return Code(m, words)


@settings(max_examples=60, deadline=None)
@given(small_codes())
@example(Code(3, [0b000, 0b110, 0b101]))  # unsatisfiable
@example(Code(4, [0]))
@example(Code(5, range(32)))
def test_packing_matches_sympy(code):
    rows = oracle_prefixes(code)
    expected = sympy_unit_solution(rows)
    result = certify_uniformly_packed(code)
    assert result.rows == rows
    assert result.satisfied == (expected is not None)
    assert result.lambdas == expected


class PassCounter(list):
    """Rows that count the passes made over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_packing_solves_at_most_rho_plus_two_systems(code12, code11):
    # one pass over the rows per round: each failing row raises the rank
    # or proves inconsistency, and the last pass finds no failing row
    rng = random.Random(8)
    randoms = [
        Code(m, rng.sample(range(1 << m), rng.randint(1, min(12, 1 << m))))
        for m in range(2, 9)
        for _ in range(3)
    ]
    for code in [code12, code11, Code(3, [0b000, 0b110, 0b101])] + randoms:
        result = certify_uniformly_packed(code)
        rows = PassCounter(result.rows)
        assert solve_unit_system(rows) == result.lambdas
        assert 1 <= rows.passes <= code.covering_radius + 2
