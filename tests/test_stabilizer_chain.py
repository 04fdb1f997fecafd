"""The stabilizer chain and the setwise stabilizer search against
independent oracles.

The reference closure below works on permutations of the 2m literals
(coordinate i holding bit b) and shares no code with cregcert's group
arithmetic; sympy's Schreier-Sims is the oracle for the two large groups.
Setwise stabilizers are checked against every permutation of a small
point set, and their generators against the greedy choice over the
sorted element list, with closures computed breadth first.  Vertex
stabilizers are checked against the breadth-first closure filtered
element by element.
"""

import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from cregcert.codes import Code
from cregcert.hamming import LengthError
from cregcert.symmetry import (
    BlockFamily,
    GraphAutomorphism,
    GroupHandle,
    ResourceBudgetError,
    StabilizerChain,
    apply_mask,
    closure,
    code_automorphism_group,
    compose,
    identity,
    parse_automorphism,
    setwise_stabilizer_perms,
)
from oracles import vertex_stabilizer


def literal_permutation(x: GraphAutomorphism) -> tuple[int, ...]:
    """x as a permutation of the literals 2i+b."""
    images = []
    for i, p in enumerate(x.perm):
        f = (x.flips >> i) & 1
        images.extend((2 * p + f, 2 * p + (1 - f)))
    return tuple(images)


def reference_closure(gens, m):
    """Breadth-first closure of literal permutations."""
    e = tuple(range(2 * m))
    lits = [literal_permutation(g) for g in gens]
    seen = {e}
    frontier = [e]
    while frontier:
        fresh = []
        for a in frontier:
            for g in lits:
                z = tuple(g[p] for p in a)
                if z not in seen:
                    seen.add(z)
                    fresh.append(z)
        frontier = fresh
    return seen


def from_literals(lits: tuple[int, ...]) -> GraphAutomorphism:
    """The automorphism acting on the literals 2i+b as ``lits`` does."""
    flips = sum((lits[2 * i] & 1) << i for i in range(len(lits) // 2))
    return GraphAutomorphism(flips, tuple(q >> 1 for q in lits[::2]))


def transversal_products(chain: StabilizerChain) -> list[GraphAutomorphism]:
    """Every element of the chain's group as u_(m-1) * ... * u_0, one
    transversal element per level."""
    listed = [identity(chain.m)]
    for transversal in reversed(chain.transversal):
        listed = [compose(x, u) for x in listed for u, _ in transversal.values()]
    return sorted(listed)


@st.composite
def signed_permutation(draw, m):
    flips = draw(st.integers(0, (1 << m) - 1))
    perm = draw(st.permutations(range(m)))
    return GraphAutomorphism(flips, tuple(perm))


@st.composite
def generator_sets(draw):
    m = draw(st.integers(1, 5))
    gens = draw(st.lists(signed_permutation(m), max_size=4))
    probes = draw(st.lists(signed_permutation(m), min_size=1, max_size=8))
    return m, gens, probes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(generator_sets())
def test_chain_matches_breadth_first_closure(case):
    m, gens, probes = case
    chain = StabilizerChain(m, gens)
    group = reference_closure(gens, m)
    assert chain.order == len(group)
    check_transversals(chain)
    for x in probes:
        assert (x in chain) == (literal_permutation(x) in group)
    listed = transversal_products(chain)
    assert len(listed) == len(set(listed)) == len(group)
    assert {literal_permutation(x) for x in listed} == group
    # every member sifts, not only the listed transversal products
    for x in listed[:: max(1, len(listed) // 40)]:
        assert x in chain


def test_sympy_confirms_the_witness_orders(theorem12, theorem11):
    for certs, m, order in ((theorem12, 12, 190080), (theorem11, 11, 15840)):
        cert = next(c for c in certs if c.anchor == "theorem/automorphism-group")
        gens = [parse_automorphism(s) for s in cert.witness["generators"]]
        oracle = PermutationGroup(
            [Permutation(list(literal_permutation(g))) for g in gens]
        )
        assert oracle.order() == order
        assert closure(gens, m).order == order == cert.witness["order"]


def check_transversals(chain: StabilizerChain) -> None:
    """Each entry (u, v) of level i carries literal 2i to its key, v undoes
    u, and u fixes every literal below 2i."""
    e = identity(chain.m)
    for i, transversal in enumerate(chain.transversal):
        for point, (u, v) in transversal.items():
            lits = literal_permutation(u)
            assert lits[2 * i] == point
            assert compose(u, v) == e
            assert lits[: 2 * i] == tuple(range(2 * i))


def test_chain_holds_its_invariants_in_any_generator_order(theorem12):
    cert = next(c for c in theorem12 if c.anchor == "theorem/automorphism-group")
    gens = [parse_automorphism(s) for s in cert.witness["generators"]]
    assert len(gens) == 27
    rng = random.Random(12)
    members = []
    for _ in range(20):
        x = identity(12)
        for g in rng.choices(gens, k=8):
            x = compose(x, g)
        members.append(x)
    # the transposition of coordinates 1 and 2 is no member, so neither is
    # a member followed by it; random signed permutations almost never are
    swap = GraphAutomorphism(0, (1, 0) + tuple(range(2, 12)))
    probes = members + [compose(x, swap) for x in members]
    probes += [
        GraphAutomorphism(rng.getrandbits(12), tuple(rng.sample(range(12), 12)))
        for _ in range(20)
    ]
    answers = set()
    for seed in (0, 1, 2):
        order = list(gens)
        random.Random(seed).shuffle(order)
        chain = StabilizerChain(12, order)
        assert chain.order == 190080
        check_transversals(chain)
        answers.add(tuple(x in chain for x in probes))
    assert len(answers) == 1
    assert answers.pop()[:40] == (True,) * 20 + (False,) * 20


def test_chain_rejects_a_wrong_degree():
    chain = StabilizerChain(4)
    with pytest.raises(LengthError):
        chain.add(GraphAutomorphism(0, (1, 0, 2)))
    with pytest.raises(LengthError):
        closure([GraphAutomorphism(0, (1, 0, 2, 3)), GraphAutomorphism(1, (0, 1, 2))], 4)


def test_closure_is_held_to_its_budget(element_budget):
    cyc = GraphAutomorphism(0, tuple((i + 1) % 8 for i in range(8)))
    flip = GraphAutomorphism(1, tuple(range(8)))
    element_budget(2047)
    with pytest.raises(ResourceBudgetError, match="2047"):
        closure([cyc, flip], 8)
    element_budget(2048)
    group = closure([cyc, flip], 8)
    assert group.order == 2048


def test_a_chain_grown_by_add_stops_at_the_budget(element_budget):
    element_budget(3)
    chain = StabilizerChain(3)
    assert chain.add(GraphAutomorphism(0, (1, 2, 0)))
    assert chain.order == 3
    # the transposition completes S_3, of order 6
    message = "order 6 exceeds the element budget of 3"
    with pytest.raises(ResourceBudgetError, match=message):
        chain.add(GraphAutomorphism(0, (1, 0, 2)))


def test_chain_leaves_equality_and_hash_unchanged():
    gens = (GraphAutomorphism(0, (1, 2, 0)), GraphAutomorphism(1, (0, 1, 2)))
    group, twin = closure(gens, 3), closure(gens, 3)
    unclosed = GroupHandle(3, gens)
    assert group.order == 24
    with pytest.raises(ValueError, match="closure"):
        unclosed.order
    assert group == twin == unclosed
    assert hash(group) == hash(twin) == hash(unclosed)


@pytest.mark.parametrize(
    "m, words", [(3, [0b001, 0b110]), (4, [0b0011, 0b1100, 0b0101]), (5, [3, 12, 17, 30])]
)
def test_code_group_without_the_zero_word(m, words):
    code = Code(m, words)
    group = code_automorphism_group(code)
    every = (
        GraphAutomorphism(flips, perm)
        for perm in permutations(range(m))
        for flips in range(1 << m)
    )
    word_set = set(words)
    stabilizer = {x for x in every if {apply_mask(x, w) for w in words} == word_set}
    assert group.order == len(stabilizer)
    assert all(x in group.chain for x in stabilizer)


def brute_force_stabilizer(family, m):
    """Every permutation of the m points that maps the family onto itself."""
    blocks = set(family)

    def image(perm, block):
        return sum(1 << perm[i] for i in range(m) if (block >> i) & 1)

    return [p for p in permutations(range(m)) if {image(p, b) for b in blocks} == blocks]


def greedy_generators(elements, m):
    """Each least listed element outside the group generated so far, then,
    in order, each generator the others do not need dropped."""
    order = len(elements)
    gens, group = [], reference_closure([], m)
    for e in sorted(elements):
        if len(group) == order:
            break
        x = GraphAutomorphism(0, e)
        if literal_permutation(x) not in group:
            gens.append(x)
            group = reference_closure(gens, m)
    for g in list(gens):
        if len(gens) == 1:
            break
        rest = [h for h in gens if h != g]
        if len(reference_closure(rest, m)) == order:
            gens = rest
    return gens


@st.composite
def block_families(draw):
    m = draw(st.integers(1, 6))
    family = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=10))
    return m, family


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_families())
# the first element found for point 0 reaches only half of its orbit
@example((4, [0b0011, 0b1100]))
def test_setwise_stabilizer_matches_brute_force(case):
    m, family = case
    brute = brute_force_stabilizer(family, m)
    group = setwise_stabilizer_perms(BlockFamily(family, m))
    assert group.order == len(brute)
    assert all(GraphAutomorphism(0, p) in group.chain for p in brute)
    assert list(group.generators) == greedy_generators(brute, m)


def test_stabilizer_budget_is_checked_before_listing():
    # the symmetric group on 20 points: the order passes 10^6 after a few levels
    with pytest.raises(ResourceBudgetError, match="1000000"):
        setwise_stabilizer_perms(BlockFamily([1 << i for i in range(20)], 20))


def test_design_group_is_held_to_the_element_budget(design12, element_budget):
    element_budget(7919)
    with pytest.raises(ResourceBudgetError, match="7919"):
        setwise_stabilizer_perms(BlockFamily(design12.blocks, 12))
    element_budget(7920)
    group = setwise_stabilizer_perms(BlockFamily(design12.blocks, 12))
    assert group.order == 7920


@st.composite
def point_stabilizer_cases(draw):
    m, gens, _ = draw(generator_sets())
    return m, gens, draw(st.integers(0, (1 << m) - 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(point_stabilizer_cases())
def test_point_stabilizers_match_the_filtered_closure(case):
    m, gens, mask = case
    group = reference_closure(gens, m)
    vertex = {2 * i + ((mask >> i) & 1) for i in range(m)}
    oracle = [z for z in group if {z[q] for q in vertex} == vertex]
    stab = vertex_stabilizer(closure(gens, m), mask)
    assert stab.order == len(oracle)
    assert all(from_literals(z) in stab.chain for z in oracle)
