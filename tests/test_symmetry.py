import random
import re
from math import comb, factorial

import pytest

from cregcert.codes import Code
from cregcert.hamming import ksubset_masks
from cregcert.symmetry import (
    GraphAutomorphism,
    GroupHandle,
    ResourceBudgetError,
    apply_mask,
    closure,
    code_automorphism_group,
    compose,
    find_equivalence,
    find_family_isomorphism,
    format_automorphism,
    identity,
    inverse,
    orbit_of,
    orbits,
    parse_automorphism,
    setwise_stabilizer_perms,
)
from oracles import orbits_on_ksubsets, vertex_stabilizer


def random_automorphism(rng, m):
    perm = list(range(m))
    rng.shuffle(perm)
    return GraphAutomorphism(rng.randrange(1 << m), tuple(perm))


def test_identity_fixes_everything():
    e = identity(6)
    for mask in range(64):
        assert apply_mask(e, mask) == mask


def test_pure_translation():
    x = GraphAutomorphism(0b0110, (0, 1, 2, 3))
    assert apply_mask(x, 0b0001) == 0b0111


def test_three_cycle_moves_supports():
    # coordinates 1 -> 2 -> 3 -> 1, no flips
    x = GraphAutomorphism(0, (1, 2, 0, 3))
    assert apply_mask(x, 0b0001) == 0b0010
    assert apply_mask(x, 0b0100) == 0b0001


def test_composition_and_inverse_laws():
    rng = random.Random(21)
    for _ in range(1000):
        m = rng.randint(2, 12)
        x = random_automorphism(rng, m)
        y = random_automorphism(rng, m)
        a = rng.randrange(1 << m)
        assert apply_mask(compose(x, y), a) == apply_mask(y, apply_mask(x, a))
        assert apply_mask(compose(x, inverse(x)), a) == a
        assert compose(x, identity(m)) == x
        assert compose(identity(m), x) == x


def test_action_is_isometric():
    rng = random.Random(22)
    for _ in range(1000):
        m = rng.randint(2, 12)
        x = random_automorphism(rng, m)
        a, b = rng.randrange(1 << m), rng.randrange(1 << m)
        da = (apply_mask(x, a) ^ apply_mask(x, b)).bit_count()
        assert da == (a ^ b).bit_count()


def test_format_parse_roundtrip():
    rng = random.Random(23)
    for _ in range(50):
        x = random_automorphism(rng, 9)
        assert parse_automorphism(format_automorphism(x)) == x
    with pytest.raises(ValueError):
        parse_automorphism("0101")
    with pytest.raises(ValueError):
        parse_automorphism("0101|1 1 2 3")
    # ASCII whitespace still separates and frames the images
    x = GraphAutomorphism(0, (0, 1, 2))
    assert parse_automorphism("000|1  2 3") == x
    assert parse_automorphism(" 000|1\t2 3\r\n") == x


@pytest.mark.parametrize(
    "text, token",
    [
        ("000|+1 2 3", "+1"),
        ("000|1 2 \uff13", "\uff13"),
        ("000|0_1 2 3", "0_1"),
        ("000|1\u30002 3", "1\u30002"),
        ("000|1\xa02 3", "1\xa02"),
        ("\u3000000|1 2 3\u3000", "\u3000"),
    ],
    ids=["sign", "full-width", "underscore", "ideographic", "no-break", "framed"],
)
def test_parse_automorphism_takes_only_ascii_decimal_images(text, token):
    # int(), str.split() and str.strip() read each of these as 000|1 2 3
    with pytest.raises(ValueError, match=re.escape(repr(token))):
        parse_automorphism(text)


def test_closure_trivial_and_small():
    assert closure([], 4).order == 1
    swap = GraphAutomorphism(0, (1, 0, 2))
    assert closure([swap], 3).order == 2


def test_closure_budget_error_names_the_budget(element_budget):
    cyc = GraphAutomorphism(0, tuple((i + 1) % 8 for i in range(8)))
    flip = GraphAutomorphism(1, tuple(range(8)))
    element_budget(37)
    with pytest.raises(ResourceBudgetError, match="37"):
        closure([cyc, flip], 8)


def test_orbits_trivial_group():
    parts = orbits(closure([], 4))
    assert len(parts) == 16
    assert all(len(p) == 1 for p in parts)


def test_vertex_orbits_match_distance_partition(code12, aut12):
    parts = orbits(aut12)
    assert [len(p) for p in parts] == [24, 288, 1584, 1760, 440]
    cells = code12.distance_partition().cells
    assert [set(p) for p in parts] == [set(c) for c in cells]


def test_orbit_of_zero_is_the_code(code12, aut12):
    assert orbit_of(0, aut12.generators) == set(code12.words)


def test_orbit_sizes_divide_group_order(aut12, m11_stabilizer):
    for group in (aut12, m11_stabilizer):
        for orbit in orbits(group):
            assert group.order % len(orbit) == 0


def test_stabilizer_of_weight6_supports(m11_stabilizer):
    assert m11_stabilizer.order == 7920
    assert all(g.flips == 0 for g in m11_stabilizer.generators)


def test_stabilizer_of_weight5_supports(code11):
    stab = setwise_stabilizer_perms(code11.weight_class(5), 11)
    assert stab.order == 660


def test_stabilizer_of_singletons_is_symmetric_group():
    family = [1 << i for i in range(4)]
    stab = setwise_stabilizer_perms(family, 4)
    assert stab.order == factorial(4)


def test_m11_has_two_orbits_on_4_subsets(m11_stabilizer):
    parts = orbits_on_ksubsets(m11_stabilizer, 4)
    assert sorted(len(p) for p in parts) == [165, 330]


def test_point_stabilizer_transitive_on_small_spheres(m11_stabilizer):
    for k in (1, 2, 3):
        assert len(orbits_on_ksubsets(m11_stabilizer, k)) == 1


def test_psl_has_two_orbits_on_3_subsets(design11):
    group = setwise_stabilizer_perms(design11.blocks, design11.points)
    assert group.order == 660
    parts = orbits_on_ksubsets(group, 3)
    assert sorted(len(p) for p in parts) == [55, 110]


def test_full_symmetric_group_is_transitive_on_ksubsets():
    gens = [
        GraphAutomorphism(0, (1, 0, 2, 3, 4)),
        GraphAutomorphism(0, (1, 2, 3, 4, 0)),
    ]
    group = closure(gens, 5)
    assert group.order == 120
    assert len(orbits_on_ksubsets(group, 2)) == 1


def test_code_automorphism_group_order(aut12):
    assert aut12.order == 190080
    assert aut12.order % (2**12) != 0  # sanity: not the full graph group
    assert (2**12) * factorial(12) % aut12.order == 0


def test_zero_stabilizer_has_index_24(aut12, code12):
    stab = vertex_stabilizer(aut12, 0)
    assert stab.order == 7920
    assert aut12.order // stab.order == 24 == code12.size


def test_punctured_group_order(aut11):
    assert aut11.order == 15840


def test_repetition_code_group_with_oracle():
    code = Code(3, [0b000, 0b111])
    group = code_automorphism_group(code)
    # oracle: walk all 2^3 * 3! graph automorphisms and count preservers
    count = 0
    words = set(code.words)
    import itertools

    for perm in itertools.permutations(range(3)):
        for flips in range(8):
            x = GraphAutomorphism(flips, perm)
            if {apply_mask(x, w) for w in words} == words:
                count += 1
    assert group.order == count == 12


def test_generators_stabilize_the_code(aut12, code12):
    words = set(code12.words)
    for g in aut12.generators:
        assert {apply_mask(g, w) for w in words} == words


def test_family_isomorphism_finds_relabelings(design11):
    rng = random.Random(24)
    perm = list(range(11))
    rng.shuffle(perm)
    relabeled = [
        sum(1 << perm[i] for i in range(11) if (b >> i) & 1) for b in design11.blocks
    ]
    found = find_family_isomorphism(relabeled, design11.blocks, 11)
    assert found is not None
    image = {
        sum(1 << found[i] for i in range(11) if (b >> i) & 1) for b in relabeled
    }
    assert image == set(design11.blocks)


def coordinate1_stabilizer(group: GroupHandle) -> list[GraphAutomorphism]:
    """Generators of the elements whose permutation fixes coordinate 1:
    Schreier's lemma over the orbit of coordinate 1."""
    transversal = {0: identity(group.length)}
    orbit = [0]
    for c in orbit:
        for g in group.generators:
            if g.perm[c] not in transversal:
                transversal[g.perm[c]] = compose(transversal[c], g)
                orbit.append(g.perm[c])
    return [
        compose(compose(u, g), inverse(transversal[g.perm[c]]))
        for c, u in transversal.items()
        for g in group.generators
    ]


def drop_coordinate1(x: GraphAutomorphism) -> GraphAutomorphism:
    """The action on coordinates 2..m of an x that fixes coordinate 1."""
    assert x.perm[0] == 0
    return GraphAutomorphism(x.flips >> 1, tuple(p - 1 for p in x.perm[1:]))


def test_project_group_of_coordinate_stabilizer(aut12, code11, code12):
    stab1 = coordinate1_stabilizer(aut12)
    assert closure(stab1, 12).order == 15840
    projected = [drop_coordinate1(g) for g in stab1]
    # the projected group sits inside the punctured code's group and is
    # transitive on it
    words = set(code11.words)
    for g in projected:
        assert {apply_mask(g, w) for w in words} == words
    assert orbit_of(0, projected) == words


def test_projection_kernel_trivial_on_coordinate_stabilizer(aut12):
    stab1 = coordinate1_stabilizer(aut12)
    projected = closure([drop_coordinate1(g) for g in stab1], 11)
    assert projected.order == closure(stab1, 12).order == 15840


def test_find_equivalence_reflexive(code12):
    x = find_equivalence(code12, code12)
    assert x is not None
    assert {apply_mask(x, w) for w in code12.words} == set(code12.words)


def test_find_equivalence_after_relabeling(code12):
    rng = random.Random(25)
    perm = list(range(12))
    rng.shuffle(perm)
    sigma = GraphAutomorphism(0, tuple(perm))
    relabeled = Code(12, (apply_mask(sigma, w) for w in code12.words))
    x = find_equivalence(code12, relabeled)
    assert x is not None and x.flips == 0
    assert {apply_mask(x, w) for w in code12.words} == set(relabeled.words)


def test_find_equivalence_absent(code12):
    # 24 even-weight words cannot be equivalent: distributions differ
    evens = [w for w in range(1 << 12) if w.bit_count() % 2 == 0][:24]
    other = Code(12, evens)
    assert find_equivalence(code12, other) is None


def test_ksubset_domain_sizes():
    assert len(list(ksubset_masks(12, 4))) == comb(12, 4)
