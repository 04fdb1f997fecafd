import hashlib
import json
import time

import pytest

from cregcert.certs import FAIL, PASS
from cregcert.hamming import format_mask
from cregcert.symmetry import GENERATOR_BUDGET
from cregcert.classify import (
    build_report,
    certify_theorem,
    classify,
    lambda_bounds,
    reference_code,
    reject_size_23,
    report_json,
    verify_report,
)

EXPECTED_STEPS_12 = [
    "classification/size-bound",
    "classification/minimum-weight-design-index",
    "classification/minimum-weight-block-count",
    "classification/design-uniqueness",
    "classification/antipodality-and-size",
    "classification/code-structure",
    "classification/equivalence-witness",
]

EXPECTED_STEPS_11 = [
    "classification/size-bound",
    "classification/minimum-weight-design-index",
    "classification/minimum-weight-block-count",
    "classification/design-uniqueness",
    "classification/second-weight-class",
    "classification/size-23-rejection",
    "classification/interior-weight-rejection",
    "classification/antipodality",
    "classification/code-structure",
    "classification/equivalence-witness",
]


def test_classification_12_passes(run12):
    assert run12.passed
    assert [s.anchor for s in run12.steps] == EXPECTED_STEPS_12
    assert all(s.verdict == PASS for s in run12.steps)
    assert sorted(run12.sigma) == list(range(1, 13))


def test_classification_11_passes(run11):
    assert run11.passed
    assert [s.anchor for s in run11.steps] == EXPECTED_STEPS_11
    assert all(s.verdict == PASS for s in run11.steps)
    assert sorted(run11.sigma) == list(range(1, 12))


def test_sigma_actually_maps_candidate_to_reference(run12):
    step = next(
        s for s in run12.steps if s.anchor == "classification/equivalence-witness"
    )
    from cregcert.hamming import parse_mask

    candidate = [parse_mask(w)[0] for w in step.witness["candidate_words"]]
    perm = [p - 1 for p in step.witness["sigma"]]
    image = set()
    for w in candidate:
        out = 0
        for i, p in enumerate(perm):
            if (w >> i) & 1:
                out |= 1 << p
        image.add(out)
    assert image == set(reference_code(12, 6).words)


def test_lambda_bounds_values():
    cert12 = lambda_bounds(12, 6)
    assert cert12.passed
    assert cert12.witness["counting_bound"] == 3
    assert cert12.witness["feasible"] == [2]
    cert11 = lambda_bounds(11, 5)
    assert cert11.passed
    assert cert11.witness["feasible"] == [2]


def test_reject_size_23_witness():
    cert = reject_size_23(11, 5)
    assert cert.passed
    assert cert.witness["second_entry"] == "-55"
    assert cert.witness["transform"][0] == "23"
    assert len(cert.witness["transform"]) == 12


def test_corrupted_size_bound_12():
    run = classify(12, 6, size_bound=22)
    assert not run.passed
    assert run.steps[-1].anchor == "classification/antipodality-and-size"
    assert run.steps[-1].verdict == FAIL
    assert run.sigma is None


def test_corrupted_size_bound_11():
    run = classify(11, 5, size_bound=22)
    assert not run.passed
    assert run.steps[-1].anchor == "classification/second-weight-class"
    assert run.steps[-1].verdict == FAIL


def _expected_end(m: int, bound: int) -> tuple[str, str]:
    # 12: complement closure forces exactly 24 words, so only 24 passes.
    # 11: the weight-6 index 3 needs a bound of 23 words or more, and the
    # forced code has 24, so 23 fails at code-structure
    if m == 12 and bound != 24:
        return FAIL, "antipodality-and-size"
    if m == 11 and bound <= 22:
        return FAIL, "second-weight-class"
    if m == 11 and bound == 23:
        return FAIL, "code-structure"
    return PASS, "equivalence-witness"


@pytest.mark.parametrize("m", [12, 11])
def test_size_bound_sweep(m):
    for bound in range(1, 34):
        run = classify(m, m // 2, size_bound=bound)
        end = (run.verdict, run.steps[-1].anchor.removeprefix("classification/"))
        assert end == _expected_end(m, bound), bound
        assert run.passed == (run.sigma is not None)


def test_unsupported_parameters():
    with pytest.raises(ValueError):
        classify(10, 4)


def test_reports_are_deterministic(run12, theorem12):
    again = classify(12, 6)
    assert report_json(build_report(run12)) == report_json(build_report(again))
    # theorem certificates are deterministic too
    assert [c.to_dict() for c in theorem12] == [
        c.to_dict() for c in certify_theorem(12, 6)
    ]


def test_theorem_bundle_12(theorem12):
    by_anchor = {c.anchor: c for c in theorem12}
    assert by_anchor["theorem/complete-regularity"].passed
    aut = by_anchor["theorem/automorphism-group"]
    assert aut.passed
    assert aut.witness["order"] == 190080
    assert aut.witness["zero_stabilizer_order"] == 7920
    assert aut.witness["code_orbit_index"] == 24
    assert by_anchor["theorem/complete-transitivity"].passed
    assert by_anchor["theorem/equivalence-invariance"].passed


def test_theorem_bundle_11(theorem11):
    by_anchor = {c.anchor: c for c in theorem11}
    assert by_anchor["theorem/automorphism-group"].witness["order"] == 15840
    assert all(c.passed for c in theorem11)


def test_replay_verifies_both_reports(report12, report11):
    for report in (report12, report11):
        results = verify_report(report)
        assert results, "no steps replayed"
        for anchor, ok, detail in results:
            assert ok, f"{anchor}: {detail}"


def test_replay_detects_tampering(report12):
    tampered = json.loads(report_json(report12))
    for step in tampered["steps"]:
        if step["anchor"] == "classification/minimum-weight-block-count":
            step["witness"]["blocks"] = "21"
    results = verify_report(tampered)
    bad = [r for r in results if not r[1]]
    assert any(r[0] == "classification/minimum-weight-block-count" for r in bad)


def test_replay_detects_forged_sigma(report11):
    tampered = json.loads(report_json(report11))
    for step in tampered["steps"]:
        if step["anchor"] == "classification/equivalence-witness":
            sigma = step["witness"]["sigma"]
            sigma[0], sigma[1] = sigma[1], sigma[0]
    results = verify_report(tampered)
    bad = [r for r in results if not r[1]]
    assert any(r[0] == "classification/equivalence-witness" for r in bad)


def test_replay_rejects_unknown_schema(report12):
    broken = dict(report12)
    broken["schema"] = "creg-cert/999"
    results = verify_report(broken)
    assert results == [("schema", False, "unknown schema 'creg-cert/999'")]


def _drop_claim(report):
    del report["steps"][0]["claim"]


def _drop_steps(report):
    del report["steps"]


def _string_step(report):
    report["steps"][0] = "classification/size-bound"


@pytest.mark.parametrize(
    "edit, failed",
    [
        (_drop_claim, "classification/size-bound"),
        (_drop_steps, "steps"),
        (_string_step, None),
    ],
    ids=["step-without-claim", "report-without-steps", "string-step"],
)
def test_replay_fails_malformed_input(report11, edit, failed):
    broken = json.loads(report_json(report11))
    edit(broken)
    results = verify_report(broken)
    anchor, ok, detail = results[0]
    assert (anchor, ok) == (failed, False), detail
    assert len(results) == len(broken.get("steps", [None]))


def _group_witness(report):
    anchor = "theorem/automorphism-group"
    return next(s["witness"] for s in report["steps"] if s["anchor"] == anchor)


def test_replay_rejects_generators_of_another_degree(report12, report11):
    # the length-11 group's generators in the length-12 report
    tampered = json.loads(report_json(report12))
    _group_witness(tampered).update(_group_witness(report11))
    results = verify_report(tampered)
    _, ok, detail = next(
        r for r in results if r[0] == "theorem/equivalence-invariance"
    )
    assert not ok
    assert "degree 11 vs code length 12" in detail


@pytest.mark.parametrize(
    "field, value",
    [("length", True), ("length", 12.0), ("length", "12"), ("min_distance", 5)],
)
def test_replay_refuses_unsupported_parameters_before_reading(report12, field, value):
    # (12, 5) has no chain; a bool or a float is no length, even where it
    # compares equal to a supported one
    tampered = json.loads(report_json(report12))
    tampered["parameters"][field] = value
    results = verify_report(tampered)
    assert [a for a, _, _ in results] == [s["anchor"] for s in report12["steps"]]
    assert not any(ok for _, ok, _ in results)
    (detail,) = {detail for _, _, detail in results}
    assert detail.startswith("no classification chain for parameters (")
    assert repr(value) in detail


def test_failed_run_report_still_replays():
    run = classify(12, 6, size_bound=22)
    report = build_report(run)
    for anchor, ok, detail in verify_report(report):
        assert ok, f"{anchor}: {detail}"


# SHA-256 of report_json(build_report(classify(m, d), certify_theorem(m, d))).
# A change to any witness byte needs an explicit schema bump.
PINNED_REPORT_SHA256 = {
    12: "7152d5ab54c39bf57e51fe6929f294360f44c7e30fc3506b0724c456a76c4dc1",
    11: "6c53e74ecb6ba126ce8c99ce0039ea4506b0589d3b06ab071cfc0e99b9abbf56",
}


def test_reports_are_pinned(report12, report11):
    for m, report in ((12, report12), (11, report11)):
        digest = hashlib.sha256(report_json(report).encode()).hexdigest()
        assert digest == PINNED_REPORT_SHA256[m], f"length-{m} report bytes changed"


def _aut_group_result(report, edit):
    tampered = json.loads(report_json(report))
    step = next(
        s for s in tampered["steps"] if s["anchor"] == "theorem/automorphism-group"
    )
    edit(step["witness"])
    results = verify_report(tampered)
    return next(r for r in results if r[0] == "theorem/automorphism-group")


def _double_order(w):
    w["order"] *= 2


def _change_zero_stabilizer(w):
    w["zero_stabilizer_order"] += 1


def _keep_stabilizer_generators(w):
    # the zero-word stabilizer's generators carry no flips; the order is kept
    w["generators"] = [g for g in w["generators"] if "1" not in g.split("|")[0]]
    assert w["generators"]


def _wrong_degree_generator(w):
    w["generators"][0] = "0000000000|" + " ".join(str(i) for i in range(1, 11))


@pytest.mark.parametrize(
    "edit",
    [
        _double_order,
        _change_zero_stabilizer,
        _keep_stabilizer_generators,
        _wrong_degree_generator,
    ],
    ids=["order-doubled", "zero-stabilizer", "stabilizer-generators-only", "wrong-degree"],
)
def test_replay_rejects_tampered_automorphism_group(report11, edit):
    anchor, ok, detail = _aut_group_result(report11, edit)
    assert not ok, detail
    assert not detail.startswith("replay error"), detail


def test_replay_budget_fails_the_group_step(report11, element_budget):
    element_budget(1000)
    anchor, ok, detail = _aut_group_result(report11, lambda w: None)
    assert not ok
    assert "1000" in detail


def test_producer_generators_fit_the_budget(report12, report11):
    for report, count in ((report12, 27), (report11, 26)):
        witness = _witness(report, "theorem/automorphism-group")
        assert len(witness["generators"]) == count < GENERATOR_BUDGET


def test_replay_refuses_too_many_generators_quickly(report11):
    # every generator list repeated 10x: the rebuilt certificates would match
    tampered = json.loads(report_json(report11))
    for step in tampered["steps"]:
        for key in ("generators", "conjugated_generators"):
            if key in step["witness"]:
                step["witness"][key] *= 10
    start = time.perf_counter()
    results = verify_report(tampered)
    assert time.perf_counter() - start < 3.0
    anchors = [anchor for anchor, _, _ in results]
    first = anchors.index("theorem/automorphism-group")
    assert all(ok for _, ok, _ in results[:first])
    assert not any(ok for _, ok, _ in results[first:])
    assert f"260 generators exceed the budget of {GENERATOR_BUDGET}" in results[first][2]


def _witness(report, anchor):
    return next(s for s in report["steps"] if s["anchor"] == anchor)["witness"]


def _reference_words(report):
    m = report["parameters"]["length"]
    return [format_mask(w, m) for w in reference_code(m, m // 2).words]


def _swap_sigma_everywhere(step, report):
    for sigma in (step["witness"]["sigma"], report["sigma"]):
        sigma[0], sigma[1] = sigma[1], sigma[0]


BLOCK_COUNT = "classification/minimum-weight-block-count"
EQUIVALENCE = "classification/equivalence-witness"
TRANSITIVITY = "theorem/complete-transitivity"
INVARIANCE = "theorem/equivalence-invariance"
IDENTITY_11 = "0" * 11 + "|" + " ".join(str(i) for i in range(1, 12))

# (id, step that must fail, edit(step, report)), each on the (11, 5) report
_EDITS = [
    (
        "block-count-claim",
        BLOCK_COUNT,
        lambda s, r: s.update(claim=s["claim"].replace("exactly", "at most")),
    ),
    ("block-count-t", BLOCK_COUNT, lambda s, r: s["witness"].update(t=7)),
    (
        "interior-one-row",
        "classification/interior-weight-rejection",
        lambda s, r: s["witness"].update(weights=s["witness"]["weights"][:1]),
    ),
    (
        "code-structure-reference-words",
        "classification/code-structure",
        lambda s, r: s["witness"].update(words=_reference_words(r)),
    ),
    (
        "equivalence-identity",
        EQUIVALENCE,
        lambda s, r: s["witness"].update(
            candidate_words=_reference_words(r), sigma=list(range(1, 12))
        ),
    ),
    ("sigma-swapped-everywhere", EQUIVALENCE, _swap_sigma_everywhere),
    (
        "orbit-sizes-reversed",
        TRANSITIVITY,
        lambda s, r: s["witness"]["orbit_sizes"].reverse(),
    ),
    (
        "representative-dropped",
        TRANSITIVITY,
        lambda s, r: s["witness"]["orbit_representatives"].pop(0),
    ),
    ("transitivity-claim", TRANSITIVITY, lambda s, r: s.update(claim=s["claim"] + "!")),
    (
        "conjugator-identity",
        INVARIANCE,
        lambda s, r: s["witness"].update(conjugator=IDENTITY_11),
    ),
    (
        "orbit-check-fail",
        INVARIANCE,
        lambda s, r: s["witness"].update(orbit_check="FAIL"),
    ),
]


@pytest.mark.parametrize(
    "anchor, edit", [e[1:] for e in _EDITS], ids=[e[0] for e in _EDITS]
)
def test_replay_rejects_edited_witnesses(report11, anchor, edit):
    tampered = json.loads(report_json(report11))
    edit(next(s for s in tampered["steps"] if s["anchor"] == anchor), tampered)
    assert tampered != json.loads(report_json(report11))
    results = verify_report(tampered)
    assert len(results) == len(tampered["steps"])
    _, ok, detail = next(r for r in results if r[0] == anchor)
    assert not ok, detail


@pytest.mark.parametrize(
    "entry, value, detail",
    [
        (0, "24", "transform entry 0 is 24, not the size 23"),
        (2, "-54", "transform entry 2 is -54, not -55"),
    ],
    ids=["entry-0", "entry-2"],
)
def test_replay_checks_the_transform_by_its_identities(report11, entry, value, detail):
    # the reader, not the rebuild, refuses the entry: its detail names it
    tampered = json.loads(report_json(report11))
    _witness(tampered, "classification/size-23-rejection")["transform"][entry] = value
    results = {anchor: (ok, text) for anchor, ok, text in verify_report(tampered)}
    ok, text = results["classification/size-23-rejection"]
    assert not ok and detail in text


@pytest.mark.parametrize("count", [True, 1.0, "1"])
def test_replay_takes_the_class_count_only_as_an_int(report11, count):
    # the count is the one fact the replay takes as recorded; True and 1.0
    # equal 1 in Python, so rebuilding the step alone would pass them
    tampered = json.loads(report_json(report11))
    anchor = "classification/design-uniqueness"
    step = next(s for s in tampered["steps"] if s["anchor"] == anchor)
    step["witness"]["class_count"] = count
    _, ok, detail = next(r for r in verify_report(tampered) if r[0] == anchor)
    assert not ok and "is not an int" in detail


def _leaf_edits(node, path=()):
    """Every single-node edit of a JSON value: each int bumped, string
    altered, bool flipped and non-empty list shortened, as (path, value)."""
    if isinstance(node, bool):
        yield path, not node
    elif isinstance(node, int):
        yield path, node + 1
    elif isinstance(node, str):
        yield path, node + "x"
    elif isinstance(node, list):
        if node:
            yield path, node[:-1]
        for i, item in enumerate(node):
            yield from _leaf_edits(item, path + (i,))
    elif isinstance(node, dict):
        for key, item in node.items():
            yield from _leaf_edits(item, path + (key,))


_SEARCHED = {
    "classification/design-uniqueness",
    "classification/equivalence-witness",
}


@pytest.mark.parametrize("length", [12, 11])
def test_every_leaf_edit_fails_its_step(run12, run11, length):
    report = json.loads(report_json(build_report(run12 if length == 12 else run11)))
    assert all(ok for _, ok, _ in verify_report(report))
    edited = set()
    for index, step in enumerate(report["steps"]):
        if step["anchor"] in _SEARCHED:
            continue
        for field in ("claim", "witness"):
            for path, value in _leaf_edits(step[field]):
                tampered = json.loads(report_json(report))
                if path:
                    node = tampered["steps"][index][field]
                    for key in path[:-1]:
                        node = node[key]
                    node[path[-1]] = value
                else:
                    tampered["steps"][index][field] = value
                anchor, ok, detail = verify_report(tampered)[index]
                assert anchor == step["anchor"]
                assert not ok, f"{anchor} {field} {path}: {detail}"
                edited.add(anchor)
    assert edited == {s["anchor"] for s in report["steps"]} - _SEARCHED


def _flip_verdict(r):
    r["verdict"] = FAIL


def _reverse_sigma(r):
    r["sigma"].reverse()


def _delete_equivalence(r):
    r["steps"] = [
        s for s in r["steps"] if s["anchor"] != "classification/equivalence-witness"
    ]


def _cut_to_two(r):
    r["steps"] = r["steps"][:2]


@pytest.mark.parametrize(
    "edit, failed",
    [
        (_flip_verdict, "classification/equivalence-witness"),
        (_reverse_sigma, "classification/equivalence-witness"),
        (_delete_equivalence, "theorem/complete-regularity"),
        (_cut_to_two, "classification/minimum-weight-design-index"),
    ],
    ids=["verdict-flipped", "sigma-reversed", "equivalence-deleted", "cut-to-two"],
)
def test_replay_checks_the_chain_structure(report11, edit, failed):
    tampered = json.loads(report_json(report11))
    edit(tampered)
    results = verify_report(tampered)
    assert len(results) == len(tampered["steps"])
    _, ok, detail = next(r for r in results if r[0] == failed)
    assert not ok, detail


def _set_kind(r):
    r["kind"] = "analysis"


def _drop_kind(r):
    del r["kind"]


def _add_field(r):
    r["extra"] = 1


def _relabel_and_extend(r):
    _set_kind(r)
    _add_field(r)


@pytest.mark.parametrize(
    "edit, faults",
    [
        (_set_kind, ["kind is 'analysis'"]),
        (_drop_kind, ["kind is None"]),
        (_add_field, ["unknown report fields ['extra']"]),
        (_relabel_and_extend, ["kind is 'analysis'", "['extra']"]),
    ],
    ids=["kind-analysis", "kind-missing", "extra-field", "both"],
)
def test_replay_checks_the_report_fields(run11, edit, faults):
    report = json.loads(report_json(build_report(run11, runtime_seconds=1.5)))
    assert all(ok for _, ok, _ in verify_report(report))
    edit(report)
    results = verify_report(report)
    assert len(results) == len(report["steps"])
    anchor, ok, detail = results[0]
    assert anchor == "classification/size-bound"
    assert not ok
    assert all(fault in detail for fault in faults), detail
    assert all(ok for _, ok, _ in results[1:])


def test_replay_fails_an_empty_step_list(report11):
    tampered = json.loads(report_json(report11))
    tampered["steps"] = []
    assert [r[:2] for r in verify_report(tampered)] == [("steps", False)]


@pytest.mark.parametrize("length", [12, 11])
def test_failed_and_theorem_free_reports_replay(run12, run11, length):
    failed = classify(length, length // 2, size_bound=22)
    assert not failed.passed
    passed = run12 if length == 12 else run11
    for report in (build_report(failed), build_report(passed)):
        for anchor, ok, detail in verify_report(json.loads(report_json(report))):
            assert ok, f"{anchor}: {detail}"


def test_replay_runs_no_search(report12, report11, monkeypatch):
    import cregcert.classify as module

    def refuse(*args, **kwargs):
        raise AssertionError("the replay ran a search")

    for name in ("enumerate_designs", "find_equivalence", "code_automorphism_group"):
        monkeypatch.setattr(module, name, refuse)
    for report in (report12, report11):
        for anchor, ok, detail in verify_report(report):
            assert ok, f"{anchor}: {detail}"


def test_replay_refuses_a_group_of_another_order(report11):
    tampered = json.loads(report_json(report11))
    _witness(tampered, "theorem/automorphism-group")["order"] *= 2
    details = {anchor: detail for anchor, ok, detail in verify_report(tampered)}
    assert details["theorem/automorphism-group"] == "closure order 15840 != 31680"
    for anchor in ("theorem/complete-transitivity", "theorem/equivalence-invariance"):
        assert details[anchor].startswith("no checked group"), details[anchor]


def _step_results(report) -> dict[str, tuple[bool, str]]:
    return {anchor: (ok, detail) for anchor, ok, detail in verify_report(report)}


def test_replay_checks_where_a_row_opens(report11):
    # one count moved from f_2 to f_1 keeps the row sum, so only the
    # opening check tells this table from the genuine one
    tampered = json.loads(report_json(report11))
    table = _witness(tampered, "theorem/complete-regularity")["intersection_table"]
    table[2][1] += 1
    table[2][2] -= 1
    detail = "row 2 of the intersection table opens with f_1"
    assert _step_results(tampered)["theorem/complete-regularity"] == (False, detail)


@pytest.mark.parametrize("count", [GENERATOR_BUDGET, GENERATOR_BUDGET + 1])
def test_replay_takes_generators_up_to_the_budget(report11, count):
    # repeats change no group, so only the budget tells the two lists apart
    def pad(w):
        w["generators"] = (w["generators"] * 3)[:count]

    anchor, ok, detail = _aut_group_result(report11, pad)
    if count == GENERATOR_BUDGET:
        assert (ok, detail) == (True, "rebuilt certificate matches")
    else:
        assert not ok
        assert f"{count} generators exceed the budget of {GENERATOR_BUDGET}" in detail


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda s: s["witness"]["cell_sizes"].reverse(), "witness.cell_sizes"),
        (lambda s: s.update(claim=s["claim"] + "!"), "claim"),
        (lambda s: s.update(witness=[]), "witness"),
    ],
    ids=["cell-sizes", "claim", "witness-not-a-dict"],
)
def test_replay_names_the_field_a_rebuild_differs_at(report11, edit, field):
    tampered = json.loads(report_json(report11))
    edit(next(s for s in tampered["steps"] if s["anchor"] == TRANSITIVITY))
    detail = f"rebuilt certificate differs at {field}"
    assert _step_results(tampered)[TRANSITIVITY] == (False, detail)


def test_replay_refuses_a_complemented_design_in_its_reader(report11):
    # the complements of the 2-(11,5,2) blocks form a 2-(11,6,3) design
    tampered = json.loads(report_json(report11))
    witness = _witness(tampered, "classification/design-uniqueness")
    blocks = witness["representative_blocks"]
    witness["representative_blocks"] = [
        [q for q in range(1, 12) if q not in b] for b in blocks
    ]
    detail = "the witness design has blocks of size 6 and index 3"
    results = _step_results(tampered)
    assert results["classification/design-uniqueness"] == (False, detail)


def test_replay_takes_a_failed_last_step_as_a_failed_chain(report11):
    # every anchor is there but the last chain step FAILs, so the chain's
    # verdict FAIL is right and the step's rebuild is the only fault
    tampered = json.loads(report_json(report11))
    next(s for s in tampered["steps"] if s["anchor"] == EQUIVALENCE)["verdict"] = FAIL
    tampered["verdict"] = FAIL
    detail = "rebuilt certificate differs at verdict"
    assert _step_results(tampered)[EQUIVALENCE] == (False, detail)
