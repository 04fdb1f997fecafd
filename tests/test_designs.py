import random
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cregcert import designs
from cregcert.designs import (
    Design,
    block_count,
    blocks_are_canonical,
    check_t_design,
    enumerate_designs,
    lambda_i,
)
from cregcert.hamming import points_to_mask
from cregcert.symmetry import (
    BlockFamily,
    ResourceBudgetError,
    find_family_isomorphism,
    permute_mask,
    setwise_stabilizer_perms,
)
from oracles import ksubset_masks, orbits_on_ksubsets


def test_weight_classes_as_designs(code12, code11):
    assert check_t_design(code12.weight_class(6), 12, 3)[0] == 2
    assert check_t_design(code11.weight_class(5), 11, 2)[0] == 2
    assert check_t_design(code11.weight_class(6), 11, 2)[0] == 3


def test_check_t_design_counterexample():
    blocks = [0b000111, 0b111000]
    lam, counterexample = check_t_design(blocks, 6, 2)
    assert lam is None
    assert counterexample is not None


def test_check_t_design_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        check_t_design([0b011, 0b111], 3, 2)


def test_check_t_design_strength_bounds():
    # t = 0 counts the blocks, and t = k counts each block once
    assert check_t_design([0b0011, 0b1100], 4, 0) == (2, None)
    pairs = tuple(ksubset_masks(4, 2))
    assert check_t_design(pairs, 4, 2) == (1, None)
    with pytest.raises(ValueError, match="out of range"):
        check_t_design(pairs, 4, 3)


def test_enumerate_parameter_bounds():
    # the extremes t = k and k = m are searched; t = 0 and lam = 0 are refused
    assert [d.blocks for d in enumerate_designs(2, 4, 2, 1)] == [tuple(ksubset_masks(4, 2))]
    assert [d.blocks for d in enumerate_designs(1, 3, 3, 1)] == [(0b111,)]
    with pytest.raises(ValueError, match="need 0 < t"):
        enumerate_designs(0, 4, 2, 1)
    with pytest.raises(ValueError, match="positive"):
        enumerate_designs(2, 4, 2, 0)


def test_lambda_arithmetic():
    assert lambda_i(2, 11, 5, 2, 2) == 2  # top index is the design index
    assert lambda_i(2, 11, 5, 2, 1) == 5
    assert lambda_i(3, 12, 6, 2, 1) == 11
    assert lambda_i(3, 12, 6, 2, 2) == 5
    with pytest.raises(ValueError):
        lambda_i(2, 11, 5, 2, 3)


def test_block_counts():
    assert block_count(3, 12, 6, 2) == 22
    assert block_count(2, 11, 5, 2) == 11
    assert block_count(2, 11, 6, 3) == 11


def test_parameter_consistency(design11, design12):
    # C(m, i) * lambda_i = b * C(k, i) for every verified design
    for d in (design11, design12):
        b = len(d.blocks)
        for i in range(d.strength + 1):
            li = lambda_i(d.strength, d.points, d.block_size, d.lam, i)
            assert comb(d.points, i) * li == b * comb(d.block_size, i)


def test_fisher_symmetric_case(design11):
    # Fisher's inequality b >= v holds with equality: a symmetric design
    assert len(design11.blocks) == design11.points == 11


def test_fisher_rejects_too_few_blocks():
    # eight blocks on eleven points fall below Fisher's bound, and
    # verification refuses them as a 2-design
    with pytest.raises(ValueError):
        Design.verified(list(ksubset_masks(11, 5))[:8], 11, 2)


def test_fisher_complement_design(code11):
    comp = Design.verified(code11.weight_class(6), 11, 2)
    assert (comp.block_size, comp.lam) == (6, 3)
    assert len(comp.blocks) >= comp.points


def test_enumerate_fano_with_brute_force_oracle():
    classes = enumerate_designs(2, 7, 3, 1)
    assert len(classes) == 1

    # oracle: unpruned exhaustive search over descending block sequences,
    # no isomorph rejection, then quotient by pairwise isomorphism
    candidates = list(ksubset_masks(7, 3))[::-1]
    cov = {}
    found = []

    def extend(start, chosen):
        if len(chosen) == 7:
            found.append(tuple(chosen))
            return
        for ci in range(start, len(candidates)):
            block = candidates[ci]
            pairs = [
                (1 << a) | (1 << b)
                for a, b in combinations([i for i in range(7) if block >> i & 1], 2)
            ]
            if any(cov.get(p, 0) >= 1 for p in pairs):
                continue
            for p in pairs:
                cov[p] = cov.get(p, 0) + 1
            chosen.append(block)
            extend(ci + 1, chosen)
            chosen.pop()
            for p in pairs:
                cov[p] -= 1

    extend(0, [])
    assert len(found) == 30  # labeled Fano planes with descending blocks
    reps = []
    for sol in found:
        source = BlockFamily(sol, 7)
        if all(find_family_isomorphism(source, BlockFamily(r, 7)) is None for r in reps):
            reps.append(sol)
    assert len(reps) == 1
    target = BlockFamily(classes[0].blocks, 7)
    found = find_family_isomorphism(BlockFamily(reps[0], 7), target)
    assert found is not None


def test_enumerate_unique_biplane(design11):
    assert (design11.points, design11.block_size, design11.lam) == (11, 5, 2)
    assert len(design11.blocks) == 11


def test_enumerate_unique_3_design(design12):
    assert (design12.points, design12.block_size, design12.lam) == (12, 6, 2)
    assert len(design12.blocks) == 22


def test_enumerate_infeasible_parameters_is_empty():
    # block count 7 * 6 / 4 is not an integer
    assert enumerate_designs(2, 7, 4, 1) == ()
    # each point would need 5 of the 3 pairs through it: no design without
    # repeated blocks, and no coverer list is read past its start
    assert enumerate_designs(1, 4, 2, 5) == ()


def test_representatives_are_canonical(design11, design12):
    assert blocks_are_canonical(
        tuple(sorted(design11.blocks, reverse=True)), 11
    ) is True
    assert blocks_are_canonical(
        tuple(sorted(design12.blocks, reverse=True)), 12
    ) is True


def test_random_relabelings_are_recanonicalized(design11):
    rng = random.Random(31)
    for _ in range(5):
        perm = list(range(11))
        rng.shuffle(perm)
        relabeled = tuple(
            sorted(
                (
                    sum(1 << perm[i] for i in range(11) if (b >> i) & 1)
                    for b in design11.blocks
                ),
                reverse=True,
            )
        )
        # still isomorphic to the representative, and canonical only if equal
        target = BlockFamily(design11.blocks, 11)
        found = find_family_isomorphism(BlockFamily(relabeled, 11), target)
        assert found is not None
        expected = relabeled == tuple(sorted(design11.blocks, reverse=True))
        assert blocks_are_canonical(relabeled, 11) is expected


def extend_design(design):
    """A symmetric 2-design extended by a new point: each block gains the
    point, and each block's complement (in the old points) joins."""
    new_point, full = 1 << design.points, (1 << design.points) - 1
    blocks = [b | new_point for b in design.blocks]
    blocks += [full ^ b for b in design.blocks]
    return Design.verified(blocks, design.points + 1, 3)


def test_extension_of_the_biplane(design11, design12):
    extended = extend_design(design11)
    assert (extended.points, extended.block_size, extended.strength) == (12, 6, 3)
    assert extended.lam == 2
    assert len(extended.blocks) == 22
    # extending the unique biplane gives the unique 3-design
    target = BlockFamily(design12.blocks, 12)
    found = find_family_isomorphism(BlockFamily(extended.blocks, 12), target)
    assert found is not None


def test_extension_restricts_back(design11):
    extended = extend_design(design11)
    new_point = 1 << 11
    through = [b ^ new_point for b in extended.blocks if b & new_point]
    assert sorted(through) == list(design11.blocks)


def test_extension_of_fano_is_a_3_design():
    # the classical small case: the 2-(7,3,1) design extends to 3-(8,4,1)
    fano = enumerate_designs(2, 7, 3, 1)[0]
    extended = extend_design(fano)
    assert (extended.points, extended.block_size, extended.lam) == (8, 4, 1)


def test_extension_rejects_bad_input():
    # symmetric 2-(3,2,1): the complement blocks have the wrong size
    triangle = Design.verified([0b011, 0b101, 0b110], 3, 2)
    with pytest.raises(ValueError, match="unequal sizes"):
        extend_design(triangle)


def test_design_automorphism_orders(design11, design12):
    group = setwise_stabilizer_perms(BlockFamily(design11.blocks, design11.points))
    assert group.order == 660
    group = setwise_stabilizer_perms(BlockFamily(design12.blocks, design12.points))
    assert group.order == 7920
    # 3-transitivity on the 12 points: one orbit on ordered triples is
    # equivalent to one orbit on 3-subsets together with a stabilizer check
    assert len(orbits_on_ksubsets(group, 1)) == 1
    assert len(orbits_on_ksubsets(group, 2)) == 1
    assert len(orbits_on_ksubsets(group, 3)) == 1


def test_all_ksubsets_design_has_symmetric_group():
    blocks = tuple(ksubset_masks(5, 2))
    design = Design.verified(blocks, 5, 2)
    group = setwise_stabilizer_perms(BlockFamily(design.blocks, design.points))
    assert group.order == 120


def test_covered_relation_matches_subset_counting(code11):
    # a weight-t word is covered by a block exactly when its support is a
    # subset (sub & ~b == 0), so direct counting over masks reproduces the
    # design index
    blocks = code11.weight_class(5)
    lam = check_t_design(blocks, 11, 2)[0]
    for sub in ksubset_masks(11, 2):
        covering = sum(1 for b in blocks if sub & ~b == 0)
        assert covering == lam


GOLDEN_DESIGN11 = """points=11 k=5 t=2 lambda=2
2 5 6 7 8
3 4 5 7 9
1 4 6 8 9
1 3 6 7 10
2 3 4 8 10
1 2 5 9 10
1 2 4 7 11
1 3 5 8 11
2 3 6 9 11
4 5 6 10 11
7 8 9 10 11
"""


def test_design_file_roundtrip(design11):
    assert design11.to_text() == GOLDEN_DESIGN11
    # the listed blocks verify back to the same design
    lines = GOLDEN_DESIGN11.splitlines()[1:]
    blocks = [points_to_mask(int(tok) for tok in ln.split()) for ln in lines]
    assert Design.verified(blocks, 11, 2) == design11


def test_verified_rejects_non_designs():
    with pytest.raises(ValueError):
        Design.verified([0b000111, 0b111000], 6, 2)
    # each of points 1 and 2 lies in one block, but the blocks reach past
    # them, so double counting would not give their number
    with pytest.raises(ValueError, match="past the 2 points"):
        Design.verified([0b0101, 0b1010], 2, 1)


def test_design_header_must_name_every_parameter(design11):
    header = design11.to_text().splitlines()[0]
    assert dict(tok.split("=") for tok in header.split()) == {
        "points": "11",
        "k": "5",
        "t": "2",
        "lambda": "2",
    }


def parameter_id(params):
    return "-".join(map(str, params))


def brute_force_canonical(seq, m):
    """No relabeling gives a greater sorted-descending block sequence."""
    for perm in permutations(range(m)):
        image = sorted((permute_mask(perm, b) for b in seq), reverse=True)
        if tuple(image) > seq:
            return False
    return True


@st.composite
def descending_families(draw):
    m = draw(st.integers(2, 6))
    k = draw(st.integers(1, m - 1))
    family = draw(st.sets(st.sampled_from(list(ksubset_masks(m, k))), min_size=1))
    if draw(st.booleans()):  # a union of orbits, so the family has automorphisms
        g = draw(st.permutations(range(m)))
        orbit = list(family)
        for b in orbit:
            image = permute_mask(g, b)
            if image not in family:
                family.add(image)
                orbit.append(image)
    return tuple(sorted(family, reverse=True)), m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(descending_families())
# not canonical, but the greater image lies past two equal leaves, so it is
# found only if each backjump resumes at the right level and is then reset
@example(((56, 52, 42, 37, 35, 19), 6))
def test_canonicity_matches_brute_force(case):
    seq, m = case
    assert blocks_are_canonical(seq, m) is brute_force_canonical(seq, m)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(descending_families(), st.integers(1, 300))
# budget 1 leaves the non-canonical backjump family undecided
@example(((56, 52, 42, 37, 35, 19), 6), 1)
def test_undecided_verdicts_are_sound(case, node_budget):
    seq, m = case
    verdict = blocks_are_canonical(seq, m, node_budget)
    assert verdict is None or verdict is brute_force_canonical(seq, m)


def test_node_budget_is_exact():
    # the backjump family's refutation visits exactly 71 nodes
    seq, m = (56, 52, 42, 37, 35, 19), 6
    assert blocks_are_canonical(seq, m, 71) is False
    assert blocks_are_canonical(seq, m, 70) is None


# small designs, each with its own lower strengths, for the block-count property
SMALL_DESIGNS = [(1, 6, 3, 2), (2, 6, 3, 2), (2, 7, 3, 1), (2, 7, 3, 2), (3, 8, 4, 1)]


@st.composite
def relabeled_families(draw):
    """A design or a random family of k-subsets, at a strength up to k
    (up to the design's own), under a random relabeling."""
    if draw(st.booleans()):
        design = enumerate_designs(*draw(st.sampled_from(SMALL_DESIGNS)))[0]
        m, k, blocks = design.points, design.block_size, design.blocks
        t = draw(st.integers(0, design.strength))
    else:
        m = draw(st.integers(1, 6))
        k = draw(st.integers(1, m))
        blocks = draw(st.sets(st.sampled_from(list(ksubset_masks(m, k))), min_size=1))
        t = draw(st.integers(0, k))
    perm = draw(st.permutations(range(m)))
    return tuple(permute_mask(perm, b) for b in blocks), m, k, t


@settings(max_examples=300, deadline=None, derandomize=True)
@given(relabeled_families())
def test_accepted_families_have_the_parameter_block_count(case):
    # double counting: b * C(k, t) = lam * C(m, t) for every family of
    # distinct blocks inside the point set that check_t_design accepts,
    # which is why Design.verified compares no block count
    blocks, m, k, t = case
    lam, _ = check_t_design(blocks, m, t)
    assert lam is None or block_count(t, m, k, lam) == len(blocks)


@pytest.fixture
def canonicity_log(monkeypatch):
    """Every (blocks, m, verdict) the canonicity test returns, for uncached
    searches: the derived search goes through the uncached one too."""
    log = []
    decide = designs.blocks_are_canonical

    def recording(blocks, m, node_budget=None):
        verdict = decide(blocks, m, node_budget)
        log.append((tuple(blocks), m, verdict))
        return verdict

    monkeypatch.setattr(designs, "blocks_are_canonical", recording)
    monkeypatch.setattr(designs, "enumerate_designs", enumerate_designs.__wrapped__)
    return log


@pytest.fixture
def budgets(monkeypatch):
    """Sets the search budgets for one test, with every search (the
    derived ones too) run uncached; the cache is cleared afterwards."""
    monkeypatch.setattr(designs, "enumerate_designs", enumerate_designs.__wrapped__)

    def set_budgets(**values):
        for name, value in values.items():
            monkeypatch.setattr(designs, name, value)

    yield set_budgets
    enumerate_designs.cache_clear()


def test_canonicity_matches_brute_force_on_orderly_prefixes(canonicity_log, budgets):
    # every prefix the orderly generation asks about; unlike random
    # families these reach the backjump's resume and reset paths.  With
    # no node budget every verdict is decided, so every one is checked.
    budgets(CANON_NODE_BUDGET=None)
    for params, asked in (((2, 6, 3, 2), 16), ((2, 7, 3, 2), 48)):
        canonicity_log.clear()
        enumerate_designs.__wrapped__(*params)
        assert len(canonicity_log) == asked
        mismatches = [
            (seq, verdict)
            for seq, m, verdict in canonicity_log
            if verdict is not brute_force_canonical(seq, m)
        ]
        assert mismatches == []


def test_default_budget_keeps_the_exhaustive_representatives(canonicity_log, budgets):
    # undecided prefixes are kept, so the small default budget changes the
    # work but not the output; the derived search is uncached too, so
    # every check runs and is seen
    search, default = enumerate_designs.__wrapped__, designs.CANON_NODE_BUDGET
    for params, count in (((2, 11, 5, 2), 14), ((3, 12, 6, 2), 25)):
        budgets(CANON_NODE_BUDGET=default)
        canonicity_log.clear()
        bounded = search(*params)
        assert sum(verdict is None for *_, verdict in canonicity_log) == count
        budgets(CANON_NODE_BUDGET=None)
        canonicity_log.clear()
        assert search(*params) == bounded
        assert all(verdict is not None for *_, verdict in canonicity_log)


@pytest.mark.parametrize(
    "params, asked",
    [((2, 8, 4, 3), 475), ((2, 11, 5, 2), 499), ((3, 12, 6, 2), 585)],
    ids=["2-8-4-3", "2-11-5-2", "3-12-6-2"],
)
def test_canonicity_is_asked_only_of_feasible_prefixes(canonicity_log, params, asked):
    # the coverage prunes run first, so canonicity is asked once per
    # feasible prefix: 499 and 585 times for the two designs of the
    # classification (6,103 and 6,843 when canonicity ran first).  A
    # prune that lets an infeasible prefix through asks more, and one
    # that drops a feasible prefix asks fewer; in 2-(8,4,3) such
    # prefixes lead to no design, so only this count shows them
    designs.enumerate_designs(*params)
    assert len(canonicity_log) == asked


@pytest.mark.parametrize("params", [(1, 6, 3, 2), (2, 7, 3, 2), (3, 8, 4, 1)], ids=parameter_id)
def test_complete_solutions_are_decided_at_any_budget(canonicity_log, budgets, params):
    # the node budget bounds prefix tests only: a complete solution is
    # kept only when proved canonical, so no isomorphism pass is needed
    b = int(block_count(*params))
    budgets(CANON_NODE_BUDGET=1)
    enumerate_designs.__wrapped__(*params)
    complete = [verdict for blocks, _, verdict in canonicity_log if len(blocks) == b]
    assert complete and None not in complete


def test_derived_search_shares_the_cache_entry():
    enumerate_designs.cache_clear()
    enumerate_designs(2, 11, 5, 2)
    enumerate_designs(3, 12, 6, 2)  # derived: (2, 11, 5, 2)
    info = enumerate_designs.cache_info()
    assert (info.misses, info.hits) == (2, 1)


@pytest.mark.parametrize(
    "params",
    [(1, 6, 3, 2), (2, 6, 3, 2), (2, 7, 3, 1), (2, 7, 3, 2), (2, 9, 3, 1), (3, 8, 4, 1)],
    ids=parameter_id,
)
def test_representatives_do_not_depend_on_the_node_budget(budgets, params):
    search = enumerate_designs.__wrapped__
    bounded = search(*params)
    budgets(CANON_NODE_BUDGET=None)
    exhaustive = search(*params)
    budgets(CANON_NODE_BUDGET=1)
    assert search(*params) == exhaustive == bounded


def test_enumeration_table_budget_is_exact(budgets):
    # 2-(7,3,1): 2^7 coverage counters and 35 candidates with 3 + 3 subsets
    budgets(TABLE_BUDGET=337)
    with pytest.raises(ResourceBudgetError, match="338 table entries"):
        enumerate_designs.__wrapped__(2, 7, 3, 1)
    budgets(TABLE_BUDGET=338)
    assert len(enumerate_designs.__wrapped__(2, 7, 3, 1)) == 1


def count_labelled_designs(points, k, t, lam):
    """Labelled t-(points, k, lam) designs without repeated blocks, by
    exact cover: the first t-subset still short of lam takes all its
    missing blocks at once, after which no other block through it fits,
    so each design is reached along exactly one path."""
    tsubs = [frozenset(s) for s in combinations(range(points), t)]
    blocks = [frozenset(b) for b in combinations(range(points), k)]
    inside = [[i for i, s in enumerate(tsubs) if s <= b] for b in blocks]
    covers = [[j for j, b in enumerate(blocks) if s <= b] for s in tsubs]
    count = [0] * len(tsubs)
    chosen = [False] * len(blocks)

    def fits(j):
        return not chosen[j] and all(count[i] < lam for i in inside[j])

    def place(j, delta):
        chosen[j] = delta > 0
        for i in inside[j]:
            count[i] += delta

    def search():
        short = next((i for i, c in enumerate(count) if c < lam), None)
        if short is None:
            return 1
        found = 0
        options = [j for j in covers[short] if fits(j)]
        for group in combinations(options, lam - count[short]):
            placed = []
            for j in group:
                if not fits(j):
                    break
                place(j, 1)
                placed.append(j)
            else:
                found += search()
            for j in placed:
                place(j, -1)
        return found

    return search()


LABELLED_DESIGNS = {
    (1, 6, 3, 2): 75,
    (2, 6, 3, 2): 12,
    (2, 7, 3, 1): 30,
    (2, 7, 3, 2): 120,
    (3, 8, 4, 1): 30,
    (3, 8, 4, 2): 120,
}


@pytest.mark.parametrize("params", sorted(LABELLED_DESIGNS), ids=parameter_id)
def test_labelled_count_matches_the_orbit_sum(params):
    # every labelled design lies in exactly one class D, which holds
    # m!/|Aut D| of them; the counter shares nothing with the orderly search
    t, m, k, lam = params
    labelled = count_labelled_designs(m, k, t, lam)
    assert labelled == LABELLED_DESIGNS[params]
    classes = enumerate_designs(*params)
    orders = [
        setwise_stabilizer_perms(BlockFamily(d.blocks, d.points)).order
        for d in classes
    ]
    assert sum(factorial(m) // order for order in orders) == labelled


@pytest.mark.parametrize(
    "params", sorted(p for p in LABELLED_DESIGNS if p[0] <= 2), ids=parameter_id
)
def test_feasibility_prunes_keep_every_completable_prefix(monkeypatch, params):
    # with every canonicity verdict True the search returns each labelled
    # design through the opening (greatest) block, unless a prune drops a
    # prefix that could be completed; each block lies in b / C(m, k) of
    # the labelled designs
    t, m, k, lam = params
    monkeypatch.setattr(designs, "blocks_are_canonical", lambda *args: True)
    found = enumerate_designs.__wrapped__(*params)
    assert len(found) * comb(m, k) == LABELLED_DESIGNS[params] * block_count(*params)


# the representatives the search returned before it opened with stars
PINNED_REPRESENTATIVES = {
    (3, 8, 4, 2): (
        15, 23, 43, 53, 58, 60, 77, 86, 89, 90, 99, 102, 108, 113,
        142, 147, 153, 156, 165, 166, 169, 178, 195, 197, 202, 212, 232, 240,
    ),
    (3, 8, 4, 3): (
        15, 23, 27, 39, 45, 54, 57, 58, 60, 75, 78, 85, 86, 89,
        92, 99, 101, 106, 108, 113, 114, 141, 142, 147, 149, 154, 156, 163,
        166, 169, 170, 177, 180, 195, 197, 198, 201, 210, 216, 228, 232, 240,
    ),
    (3, 10, 4, 1): (
        15, 53, 58, 83, 108, 156, 163, 198, 201, 240, 278, 297, 325, 344, 354,
        394, 401, 420, 537, 550, 586, 596, 609, 645, 658, 680, 771, 780, 816, 960,
    ),
}


@pytest.mark.parametrize("params", sorted(PINNED_REPRESENTATIVES), ids=parameter_id)
def test_pinned_representatives(params):
    assert [d.blocks for d in enumerate_designs(*params)] == [
        PINNED_REPRESENTATIVES[params]
    ]


@pytest.mark.parametrize(
    "params",
    [(3, 8, 4, 1), (3, 8, 4, 2), (3, 8, 4, 3), (3, 10, 4, 1), (3, 12, 6, 2)],
    ids=parameter_id,
)
def test_top_star_is_a_derived_representative(params):
    t, m, k, lam = params
    top = 1 << (m - 1)
    derived = {d.blocks for d in enumerate_designs(t - 1, m - 1, k - 1, lam)}
    for design in enumerate_designs(*params):
        star = tuple(sorted(b ^ top for b in design.blocks if b & top))
        assert star in derived


def test_derived_enumeration_inherits_the_budgets(budgets, monkeypatch):
    calls = []
    search = enumerate_designs.__wrapped__  # uncached, so every recursion is seen

    def counting(*args):
        calls.append((args, designs.BLOCK_BUDGET, designs.TABLE_BUDGET))
        return search(*args)

    monkeypatch.setattr(designs, "enumerate_designs", counting)
    # 3-(12,6,2): 22 blocks and 2^12 + 924 * (6 + 15 + 20) = 41,980 entries
    budgets(BLOCK_BUDGET=21)
    with pytest.raises(ResourceBudgetError, match="22 blocks"):
        search(3, 12, 6, 2)
    budgets(BLOCK_BUDGET=22, TABLE_BUDGET=41979)
    with pytest.raises(ResourceBudgetError, match="41980 table entries"):
        search(3, 12, 6, 2)
    assert calls == []
    budgets(BLOCK_BUDGET=20, CANON_NODE_BUDGET=5000, TABLE_BUDGET=1300)
    assert len(search(3, 8, 4, 1)) == 1
    assert calls == [((2, 7, 3, 1), 20, 1300)]
