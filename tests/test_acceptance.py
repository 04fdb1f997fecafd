"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; every tolerance is exact.
"""

import json
import random
from itertools import combinations
from math import comb

from cregcert.classify import verify_report
from cregcert.cli import main as cli_main
from cregcert.codes import Code
from cregcert.designs import check_t_design, enumerate_designs
from cregcert.regularity import certify_completely_regular
from cregcert.spectral import (
    external_distance,
    krawtchouk,
    krawtchouk_table,
    macwilliams_transform,
)
from cregcert.symmetry import (
    BlockFamily,
    apply_mask,
    compose,
    find_family_isomorphism,
    inverse,
    orbits,
    setwise_stabilizer_perms,
)
from oracles import (
    is_matrix_automorphism,
    ksubset_masks,
    orbits_on_ksubsets,
    theta,
    transfer_from_code_automorphism,
    vertex_stabilizer,
)


def report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_construction(hadamard12, code12, code11):
    for i in range(12):
        for j in range(12):
            dot = sum(a * b for a, b in zip(hadamard12.rows[i], hadamard12.rows[j]))
            assert dot == (12 if i == j else 0)
    assert (code12.length, code12.size, code12.min_distance) == (12, 24, 6)
    assert (code11.length, code11.size, code11.min_distance) == (11, 24, 5)
    report(1, "H H^T = 12I; code (12,24,6); punctured code (11,24,5)")


def test_criterion_02_covering_radii(code12, code11):
    assert code12.covering_radius == 4
    assert code11.covering_radius == 3
    report(2, "covering radii 4 and 3 by exhaustive scan")


def test_criterion_03_complete_regularity(code12, code11):
    assert certify_completely_regular(code12).completely_regular
    assert certify_completely_regular(code11).completely_regular
    for victim in code12.weight_class(6):
        damaged = Code(12, [w for w in code12.words if w != victim])
        cert = certify_completely_regular(damaged)
        assert not cert.completely_regular
        assert cert.counterexample is not None
    report(3, "both codes completely regular; every weight-6 deletion fails")


def test_criterion_04_macwilliams(code12, code11):
    hypothetical = [1, 0, 0, 0, 0, 11, 11, 0, 0, 0, 0, 0]
    assert macwilliams_transform(hypothetical)[2] == -55
    for code in (code12, code11):
        assert all(v >= 0 for v in macwilliams_transform(code.distance_distribution))
    for code, s in ((code12, 4), (code11, 3)):
        assert external_distance(macwilliams_transform(code.distance_distribution)) == s
    report(4, "transform entry -55 for the 23-word distribution; s = 4 and 3")


def test_criterion_05_designs(code12, code11):
    blocks6 = code12.weight_class(6)
    assert len(blocks6) == 22 and check_t_design(blocks6, 12, 3)[0] == 2
    blocks5 = code11.weight_class(5)
    assert len(blocks5) == 11 and check_t_design(blocks5, 11, 2)[0] == 2
    assert check_t_design(code11.weight_class(6), 11, 2)[0] == 3
    report(5, "weight classes verify as 3-(12,6,2), 2-(11,5,2), 2-(11,6,3)")


def test_criterion_06_design_uniqueness():
    assert len(enumerate_designs(2, 11, 5, 2)) == 1
    assert len(enumerate_designs(3, 12, 6, 2)) == 1
    fano_classes = enumerate_designs(2, 7, 3, 1)
    assert len(fano_classes) == 1

    # unpruned brute-force oracle for the calibration case
    candidates = list(ksubset_masks(7, 3))[::-1]
    cov = {}
    labeled = []

    def extend(start, chosen):
        if len(chosen) == 7:
            labeled.append(tuple(chosen))
            return
        for ci in range(start, len(candidates)):
            block = candidates[ci]
            pairs = [
                (1 << a) | (1 << b)
                for a, b in combinations(
                    [i for i in range(7) if block >> i & 1], 2
                )
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
    reps = []
    for sol in labeled:
        source = BlockFamily(sol, 7)
        if all(find_family_isomorphism(source, BlockFamily(r, 7)) is None for r in reps):
            reps.append(sol)
    assert len(reps) == 1
    target = BlockFamily(fano_classes[0].blocks, 7)
    found = find_family_isomorphism(BlockFamily(reps[0], 7), target)
    assert found is not None
    report(6, "unique 2-(11,5,2) and 3-(12,6,2); calibration case matches oracle")


def test_criterion_07_group_orders(aut12, code12):
    assert aut12.order == 190080
    stab = vertex_stabilizer(aut12, 0)
    assert stab.order == 7920
    assert aut12.order // stab.order == 24
    d12 = enumerate_designs(3, 12, 6, 2)[0]
    d11 = enumerate_designs(2, 11, 5, 2)[0]
    assert setwise_stabilizer_perms(BlockFamily(d12.blocks, d12.points)).order == 7920
    assert setwise_stabilizer_perms(BlockFamily(d11.blocks, d11.points)).order == 660
    report(7, "group orders 190080 / 7920 (index 24); design groups 7920 / 660")


def test_criterion_08_orbit_counts(m11_stabilizer, design11):
    assert len(orbits_on_ksubsets(m11_stabilizer, 4)) == 2
    psl = setwise_stabilizer_perms(BlockFamily(design11.blocks, design11.points))
    assert psl.order == 660
    assert len(orbits_on_ksubsets(psl, 3)) == 2
    report(8, "two orbits on 4-subsets (order 7920) and 3-subsets (order 660)")


def test_criterion_09_complete_transitivity(code12, aut12, code11, aut11):
    parts12 = orbits(aut12)
    sizes12 = [len(p) for p in parts12]
    assert sizes12 == [24, 288, 1584, 1760, 440]
    assert sum(sizes12) == 4096
    cells12 = code12.distance_partition().cells
    assert [set(p) for p in parts12] == [set(c) for c in cells12]
    parts11 = orbits(aut11)
    cells11 = code11.distance_partition().cells
    assert len(parts11) == 4
    assert [set(p) for p in parts11] == [set(c) for c in cells11]
    report(9, "orbit partitions equal the distance partitions (5 and 4 cells)")


def test_criterion_10_classification_replay(tmp_path):
    for (m, delta) in ((12, 6), (11, 5)):
        path = tmp_path / f"report-{m}-{delta}.json"
        exit_code = cli_main(
            ["classify", str(m), str(delta), "--report", str(path), "--out",
             str(tmp_path / "stdout.txt")]
        )
        assert exit_code == 0
        loaded = json.loads(path.read_text())
        assert loaded["verdict"] == "PASS"
        for anchor, ok, detail in verify_report(loaded):
            assert ok, f"({m},{delta}) {anchor}: {detail}"

    bad_path = tmp_path / "corrupted.json"
    exit_code = cli_main(
        ["classify", "12", "6", "--size-bound", "22", "--report", str(bad_path),
         "--out", str(tmp_path / "stdout2.txt")]
    )
    assert exit_code == 1
    bad = json.loads(bad_path.read_text())
    assert bad["verdict"] == "FAIL"
    assert bad["steps"][-1]["anchor"] == "classification/antipodality-and-size"
    report(10, "both classification reports replay; corrupted bound fails")


def test_criterion_11_property_suites(hadamard12, aut12):
    for m in (11, 12):
        table = krawtchouk_table(m)
        for k in range(m + 1):
            for l in range(m + 1):
                total = sum(
                    comb(m, x) * table[k][x] * table[l][x] for x in range(m + 1)
                )
                assert total == ((1 << m) * comb(m, k) if k == l else 0)
            for x in range(m + 1):
                assert table[k][m - x] == (-1) ** k * table[k][x]

    rng = random.Random(99)
    for _ in range(1000):
        mm = rng.randint(2, 12)
        perm1 = list(range(mm))
        rng.shuffle(perm1)
        perm2 = list(range(mm))
        rng.shuffle(perm2)
        x = (rng.randrange(1 << mm), tuple(perm1))
        y = (rng.randrange(1 << mm), tuple(perm2))
        from cregcert.symmetry import GraphAutomorphism

        x = GraphAutomorphism(*x)
        y = GraphAutomorphism(*y)
        a, b = rng.randrange(1 << mm), rng.randrange(1 << mm)
        assert apply_mask(compose(x, y), a) == apply_mask(y, apply_mask(x, a))
        assert apply_mask(compose(x, inverse(x)), a) == a
        assert (apply_mask(x, a) ^ apply_mask(x, b)).bit_count() == (
            a ^ b
        ).bit_count()

    for g in aut12.generators:
        pair = transfer_from_code_automorphism(g, hadamard12)
        assert is_matrix_automorphism(pair.left, pair.right, hadamard12)
        assert theta(pair.right) == g
    report(11, "orthogonality/reflection, 1000-sample action laws, transfers")
