from cregcert.codes import Code
from cregcert.designs import check_t_design
from cregcert.spectral import certify_uniformly_packed
from cregcert.regularity import (
    certify_completely_regular,
    certify_completely_transitive,
    outer_distribution,
)
from cregcert.symmetry import closure, orbit_of, orbits
from oracles import transitivity_by_stabilizer, vertex_stabilizer


def test_outer_distribution_rows(code12):
    dist = outer_distribution(code12)
    for w in code12.words:
        row = dist.row(w)
        assert row[0] == 1
        assert row[6] == 22
        assert row[12] == 1
    for mask in range(4096):
        assert sum(dist.row(mask)) == 24
        assert dist.cell_index[mask] == min((mask ^ w).bit_count() for w in code12.words)


def test_one_scan_per_code(code12, aut12, monkeypatch):
    scan = Code.__dict__["outer_distribution"]
    scanned = []
    original = scan.func

    def counting(code):
        scanned.append(code)
        return original(code)

    monkeypatch.setattr(scan, "func", counting)
    code = Code(12, code12.words)  # a fresh instance, nothing cached yet
    assert code.covering_radius == 4
    assert code.distance_partition().cell_sizes() == (24, 288, 1584, 1760, 440)
    assert certify_completely_regular(code).completely_regular
    assert certify_uniformly_packed(code).satisfied
    assert certify_completely_transitive(code, aut12).passed
    assert len(scanned) == 1


def test_both_codes_completely_regular(code12, code11):
    cert12 = certify_completely_regular(code12)
    assert cert12.completely_regular
    assert cert12.covering_radius == 4
    assert len(cert12.intersection_table) == 5
    cert11 = certify_completely_regular(code11)
    assert cert11.completely_regular
    assert cert11.covering_radius == 3


def test_intersection_table_shape(code12):
    cert = certify_completely_regular(code12)
    for row in cert.intersection_table:
        assert len(row) == 13
        assert sum(row) == 24


def test_deleting_a_weight6_word_breaks_regularity(code12):
    for victim in code12.weight_class(6):
        smaller = Code(12, [w for w in code12.words if w != victim])
        cert = certify_completely_regular(smaller)
        assert not cert.completely_regular
        assert cert.counterexample is not None
        cell, v1, v2, k = cert.counterexample
        dist = outer_distribution(smaller)
        assert dist.cell_index[v1] == dist.cell_index[v2] == cell
        assert dist.row(v1)[k] != dist.row(v2)[k]


def test_counterexample_is_deterministic(code12):
    victim = code12.weight_class(6)[0]
    smaller = Code(12, [w for w in code12.words if w != victim])
    first = certify_completely_regular(smaller).counterexample
    second = certify_completely_regular(smaller).counterexample
    assert first == second


def test_weight_classes_of_regular_codes_are_designs(code12, code11):
    # complete regularity forces every weight class to be a design of
    # strength half the minimum distance
    for code in (code12, code11):
        assert certify_completely_regular(code).completely_regular
        t = code.min_distance // 2
        for k in range(1, code.length + 1):
            wc = code.weight_class(k)
            if wc and k >= t:
                assert check_t_design(wc, code.length, t)[0] is not None


def test_completely_transitive_both_codes(code12, aut12, code11, aut11):
    cert12 = certify_completely_transitive(code12, aut12)
    assert cert12.passed
    assert cert12.witness["implies_completely_regular"] is True
    cert11 = certify_completely_transitive(code11, aut11)
    assert cert11.passed
    assert len(orbits(aut11)) == 4


def test_trivial_group_is_not_transitive(code12):
    cert = certify_completely_transitive(code12, closure([], 12))
    assert not cert.passed


def test_stray_generator_is_reported(code12):
    from cregcert.symmetry import GraphAutomorphism, GroupHandle

    perm = list(range(12))
    perm[0], perm[1] = perm[1], perm[0]
    bad = GroupHandle(12, (GraphAutomorphism(0, tuple(perm)),))
    cert = certify_completely_transitive(code12, bad)
    assert not cert.passed
    assert "stray_image" in cert.witness


def test_transitivity_by_stabilizer_cell4(code12, aut12):
    cert = transitivity_by_stabilizer(code12, aut12, 4)
    assert cert.passed
    assert cert.witness["slice_orbit_count"] == 1
    assert cert.witness["stabilizer_order"] == 7920


def test_transitivity_by_stabilizer_cell3_punctured(code11, aut11):
    cert = transitivity_by_stabilizer(code11, aut11, 3)
    assert cert.passed
    assert cert.witness["slice_orbit_count"] == 1


def test_transitivity_by_stabilizer_cell0(code12, aut12):
    assert transitivity_by_stabilizer(code12, aut12, 0).passed


def test_stabilizer_conclusion_matches_direct_orbits(code12, aut12):
    # the shortcut's conclusion agrees with the direct orbit computation
    cells = code12.distance_partition().cells
    for i in range(1, 5):
        cert = transitivity_by_stabilizer(code12, aut12, i)
        direct = orbit_of(min(cells[i]), aut12.generators)
        assert cert.passed == (direct == set(cells[i]))


def test_stabilizer_lemma_precondition(code12):
    not_transitive = closure([], 12)
    cert = transitivity_by_stabilizer(code12, not_transitive, 1)
    assert not cert.passed
    assert cert.witness["orbit_size"] == 1


def test_vertex_stabilizer_orbit_on_code(code12, aut12):
    stab = vertex_stabilizer(aut12, 0)
    assert orbit_of(0, stab.generators) == {0}


def test_complete_transitivity_reads_the_scan_cell_index(
    code12, aut12, code11, aut11, monkeypatch
):
    # the witness is rebuilt on fresh codes with the 2^m-call cell tuples
    # made unreachable; it must not change
    expected = [
        certify_completely_transitive(code, group).witness
        for code, group in ((code12, aut12), (code11, aut11))
    ]

    def unreachable(self):
        raise AssertionError("complete transitivity built the cell tuples")

    monkeypatch.setattr(Code, "_cells", property(unreachable))
    for (code, group), witness in zip(((code12, aut12), (code11, aut11)), expected):
        cert = certify_completely_transitive(Code(code.length, code.words), group)
        assert cert.passed
        assert cert.witness == witness
        # the cells counted by brute force
        vertices = range(1 << code.length)
        dist = [min((v ^ w).bit_count() for w in code.words) for v in vertices]
        assert witness["cell_sizes"] == [dist.count(i) for i in range(max(dist) + 1)]
