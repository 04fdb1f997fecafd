import random

import pytest

from cregcert.codes import Code
from cregcert.hadamard import HadamardMatrix, code_of, kappa
from cregcert.symmetry import GraphAutomorphism, apply_mask, compose, identity
from oracles import (
    Monomial,
    is_matrix_automorphism,
    theta,
    theta_inverse,
    transfer_from_code_automorphism,
)

GOLDEN_H12 = """order=12
++++++++++++
+--+---+++-+
++--+---+++-
+-+--+---+++
++-+--+---++
+++-+--+---+
++++-+--+---
+-+++-+--+--
+--+++-+--+-
+---+++-+--+
++---+++-+--
+-+---+++-+-
"""


def random_monomial(rng, m):
    perm = list(range(m))
    rng.shuffle(perm)
    signs = tuple(rng.choice((1, -1)) for _ in range(m))
    return Monomial(signs, tuple(perm))


def identity_monomial(m):
    return Monomial((1,) * m, tuple(range(m)))


def matrix_product(u1, u2):
    """The monomial u1 * u2, multiplied out from the entries of both."""
    a, b = u1.as_matrix(), u2.as_matrix()
    rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return Monomial.from_matrix(rows)


def row_action(u, vector):
    """The row vector v U, from the entries of U: (vU)_{perm[i]} = v_i * signs[i]."""
    out = [0] * u.order
    for i, v in enumerate(vector):
        out[u.perm[i]] = v * u.signs[i]
    return out


def test_orthogonality(hadamard12):
    rows = hadamard12.rows
    for i in range(12):
        for j in range(12):
            dot = sum(a * b for a, b in zip(rows[i], rows[j]))
            assert dot == (12 if i == j else 0)


def test_normalization(hadamard12):
    assert all(v == 1 for v in hadamard12.rows[0])
    assert all(row[0] == 1 for row in hadamard12.rows)


def test_row_balance(hadamard12):
    for row in hadamard12.rows[1:]:
        assert sum(1 for v in row if v == 1) == 6


def test_determinant_magnitude(hadamard12):
    # |det| = 12^6, computed independently by fraction-free elimination
    from fractions import Fraction

    mat = [[Fraction(v) for v in row] for row in hadamard12.rows]
    det = Fraction(1)
    for col in range(12):
        pivot = next(r for r in range(col, 12) if mat[r][col] != 0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, 12):
            factor = mat[r][col] * inv
            mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    assert abs(det) == 12**6


def test_golden_artifact(hadamard12):
    assert hadamard12.to_text() == GOLDEN_H12


def test_matrix_validation():
    with pytest.raises(ValueError):
        HadamardMatrix(2, ((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        HadamardMatrix(2, ((1, 2), (1, -1)))


def test_kappa():
    assert kappa([1, 1, 1]) == 0
    assert kappa([-1, 1, -1, -1]) == 0b1101  # coordinate i at bit i-1
    rng = random.Random(11)
    for _ in range(100):
        v = [rng.choice((1, -1)) for _ in range(10)]
        assert kappa([-a for a in v]) == kappa(v) ^ ((1 << 10) - 1)
    with pytest.raises(ValueError):
        kappa([1, 0, -1])


def test_kappa_of_second_row_has_weight_six(hadamard12):
    assert kappa(hadamard12.rows[1]).bit_count() == 6


def test_code_of(hadamard12, code12):
    assert code12.size == 24
    assert code12.min_distance == 6
    assert code12.is_antipodal()


def test_code_rows_pairwise_distance(hadamard12):
    images = [kappa(r) for r in hadamard12.rows]
    for i in range(12):
        for j in range(i + 1, 12):
            assert (images[i] ^ images[j]).bit_count() == 6


def test_theta_identity():
    assert theta(identity_monomial(5)) == identity(5)


def test_theta_is_a_homomorphism():
    rng = random.Random(12)
    for _ in range(200):
        u1 = random_monomial(rng, 8)
        u2 = random_monomial(rng, 8)
        assert theta(matrix_product(u1, u2)) == compose(theta(u1), theta(u2))


def test_action_identification():
    # kappa intertwines row-vector action with the graph action
    rng = random.Random(13)
    for _ in range(200):
        m = rng.randint(2, 10)
        u = random_monomial(rng, m)
        v = [rng.choice((1, -1)) for _ in range(m)]
        assert kappa(row_action(u, v)) == apply_mask(theta(u), kappa(v))


def test_theta_inverse_roundtrip():
    rng = random.Random(14)
    for _ in range(100):
        u = random_monomial(rng, 9)
        assert theta_inverse(theta(u)) == u


def test_is_matrix_automorphism_basics(hadamard12):
    eye = identity_monomial(12)
    neg = Monomial((-1,) * 12, tuple(range(12)))
    assert is_matrix_automorphism(eye, eye, hadamard12)
    assert is_matrix_automorphism(neg, neg, hadamard12)


def test_transfer_identity(hadamard12):
    pair = transfer_from_code_automorphism(identity(12), hadamard12)
    assert pair.right == identity_monomial(12)
    assert pair.left == identity_monomial(12)


def test_transfer_every_generator(hadamard12, aut12):
    for g in aut12.generators:
        pair = transfer_from_code_automorphism(g, hadamard12)
        assert is_matrix_automorphism(pair.left, pair.right, hadamard12)
        assert theta(pair.right) == g


def test_transfer_composition(hadamard12, aut12):
    g1, g2 = aut12.generators[0], aut12.generators[1]
    u1 = transfer_from_code_automorphism(g1, hadamard12).right
    u2 = transfer_from_code_automorphism(g2, hadamard12).right
    u12 = transfer_from_code_automorphism(compose(g1, g2), hadamard12).right
    assert u12 == matrix_product(u1, u2)


def test_transfer_rejects_non_automorphism(hadamard12, code12):
    # a transposition of the first two coordinates moves the code
    from cregcert.symmetry import apply_mask

    perm = list(range(12))
    perm[0], perm[1] = perm[1], perm[0]
    x = GraphAutomorphism(0, tuple(perm))
    assert {apply_mask(x, w) for w in code12.words} != set(code12.words)
    with pytest.raises(ValueError, match="not divisible|not monomial"):
        transfer_from_code_automorphism(x, hadamard12)


def test_equivalent_matrices_give_equivalent_codes(hadamard12, code12):
    # code_of(P H U) is the image of code_of(H) under the action of U
    rng = random.Random(15)
    for _ in range(20):
        u = random_monomial(rng, 12)
        p = random_monomial(rng, 12)
        rows = []
        for i in range(12):
            scaled = [p.signs[i] * v for v in hadamard12.rows[p.perm[i]]]
            rows.append(row_action(u, scaled))
        transformed = HadamardMatrix(12, tuple(tuple(r) for r in rows))
        image = Code(12, (apply_mask(theta(u), w) for w in code12.words))
        assert code_of(transformed) == image


def test_monomial_factorization_unique():
    rng = random.Random(16)
    for _ in range(50):
        u = random_monomial(rng, 7)
        rebuilt = Monomial.from_matrix(u.as_matrix())
        assert rebuilt == u
        assert matrix_product(u, u.inverse()) == identity_monomial(7)
