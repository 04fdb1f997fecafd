"""The uniqueness classification as an executable certificate chain.

For (length, min distance) = (12, 6) and (11, 5), any completely regular
code with those parameters is equivalent to the Hadamard 12 code or its
punctured companion.  ``classify`` replays that argument as an ordered
sequence of certificates: parameter arithmetic pins the minimum-weight
design index, counting and exact-transform contradictions force the code
size and antipodality, exhaustive enumeration shows the design is unique,
and an explicit coordinate permutation carries the forced structure onto
the reference code.  ``verify_report`` re-checks every certificate from
its witness payload alone, without re-running any search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .certs import FAIL, PASS, SCHEMA, Certificate, fraction_str
from .codes import Code
from .designs import (
    Design,
    block_count,
    check_t_design,
    enumerate_designs,
    lambda_i,
)
from .hadamard import code_of, paley_hadamard_12
from .hamming import format_mask, parse_mask, points_to_mask
from .regularity import (
    certify_completely_regular,
    certify_completely_transitive,
)
from .spectral import macwilliams_transform
from .symmetry import (
    GraphAutomorphism,
    GroupHandle,
    apply_mask,
    closure,
    code_automorphism_group,
    compose,
    find_equivalence,
    format_automorphism,
    inverse,
    orbit_of,
    parse_automorphism,
    permute_mask,
)

SUPPORTED = {(12, 6): 24, (11, 5): 24}


class UnsupportedParameters(ValueError):
    pass


def _check_supported(m: int, delta: int) -> None:
    if (m, delta) not in SUPPORTED:
        raise UnsupportedParameters(
            f"classification supports (12, 6) and (11, 5), got ({m}, {delta})"
        )


@lru_cache(maxsize=None)
def reference_code(m: int, delta: int) -> Code:
    """The target of the classification, rebuilt deterministically."""
    _check_supported(m, delta)
    code12 = code_of(paley_hadamard_12())
    return code12 if m == 12 else code12.puncture(1)


@dataclass(frozen=True)
class ClassificationRun:
    length: int
    min_distance: int
    size_bound: int
    steps: tuple[Certificate, ...]
    sigma: tuple[int, ...] | None
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


# ---------------------------------------------------------------------------
# individual steps
# ---------------------------------------------------------------------------


def step_size_bound(m: int, delta: int, size_bound: int) -> Certificate:
    return Certificate(
        "the configured table value bounds the number of codewords",
        "classification/size-bound",
        {"length": m, "min_distance": delta, "size_bound": size_bound},
        PASS if size_bound > 0 else FAIL,
    )


def _lambda_candidate_table(m: int, delta: int) -> tuple[int, list[dict]]:
    t = delta // 2
    max_lam = (m - t) // (delta - t)
    rows = []
    for lam in range(1, max_lam + 1):
        derived = []
        feasible = True
        for i in range(t + 1):
            value = lambda_i(t, m, delta, lam, i)
            integral = value.denominator == 1
            feasible = feasible and integral
            derived.append({"i": i, "value": fraction_str(value), "integral": integral})
        rows.append({"index": lam, "derived": derived, "feasible": feasible})
    return max_lam, rows


def lambda_bounds(m: int, delta: int) -> Certificate:
    """Pin the index of the design formed by the minimum-weight codewords.

    Codewords of weight delta through a fixed t-set have pairwise
    disjoint supports beyond it (minimum distance), so the index is at
    most (m-t)/(delta-t); divisibility of the derived indices removes
    everything but 2.
    """
    _check_supported(m, delta)
    t = delta // 2
    max_lam, rows = _lambda_candidate_table(m, delta)
    feasible = [row["index"] for row in rows if row["feasible"]]
    witness = {
        "t": t,
        "counting_bound": max_lam,
        "candidates": rows,
        "feasible": feasible,
    }
    if feasible == [2]:
        return Certificate(
            "the minimum-weight codewords form a design with index exactly 2",
            "classification/minimum-weight-design-index",
            witness,
            PASS,
        )
    return Certificate(
        "the design-index arithmetic does not single out index 2",
        "classification/minimum-weight-design-index",
        witness,
        FAIL,
    )


def step_block_count(m: int, delta: int) -> Certificate:
    t = delta // 2
    b = block_count(t, m, delta, 2)
    witness = {
        "t": t,
        "block_size": delta,
        "index": 2,
        "blocks": fraction_str(b),
    }
    if b.denominator == 1:
        return Certificate(
            f"the minimum-weight class has exactly {int(b)} codewords",
            "classification/minimum-weight-block-count",
            witness,
            PASS,
        )
    return Certificate(
        "the block count is not an integer",
        "classification/minimum-weight-block-count",
        witness,
        FAIL,
    )


def step_design_uniqueness(m: int, delta: int) -> tuple[Certificate, Design | None]:
    t = delta // 2
    classes = enumerate_designs(t, m, delta, 2)
    witness = {
        "t": t,
        "block_size": delta,
        "index": 2,
        "class_count": len(classes),
        "representative_blocks": classes[0].block_point_lists() if classes else [],
    }
    if len(classes) == 1:
        return (
            Certificate(
                "exhaustive enumeration finds exactly one design up to "
                "isomorphism",
                "classification/design-uniqueness",
                witness,
                PASS,
            ),
            classes[0],
        )
    return (
        Certificate(
            f"enumeration found {len(classes)} isomorphism classes",
            "classification/design-uniqueness",
            witness,
            FAIL,
        ),
        None,
    )


def step_antipodality_and_size(design: Design, size_bound: int) -> Certificate:
    """Length-12 case: the unique design is closed under complements, so
    the code is antipodal and its size is forced to 1 + blocks + 1."""
    full = (1 << design.points) - 1
    block_set = set(design.blocks)
    closed = all((full ^ b) in block_set for b in design.blocks)
    forced = 2 + len(design.blocks)
    witness = {
        "complement_closed": closed,
        "forced_size": forced,
        "size_bound": size_bound,
    }
    if closed and forced == size_bound:
        return Certificate(
            "complement closure of the design forces antipodality and the "
            "exact code size",
            "classification/antipodality-and-size",
            witness,
            PASS,
        )
    return Certificate(
        "the forced code size contradicts the size bound"
        if closed
        else "the design is not complement-closed",
        "classification/antipodality-and-size",
        witness,
        FAIL,
    )


def _mu_candidate_table(size_bound: int) -> list[dict]:
    rows = []
    mu = 0
    while True:
        mu += 1
        b6 = block_count(2, 11, 6, mu)
        minimum = 12 + b6  # zero word + eleven weight-5 words + weight-6 class
        if b6.denominator == 1 and int(minimum) > max(size_bound, 24) and mu > 3:
            break
        rows.append(
            {
                "mu": mu,
                "weight6_blocks": fraction_str(b6),
                "integral": b6.denominator == 1,
                "forced_minimum_size": fraction_str(minimum),
                "within_bound": minimum <= size_bound,
            }
        )
        if mu >= 6:
            break
    return rows


def step_second_weight_class(size_bound: int) -> Certificate:
    """Length-11 case: the weight-6 class is a 2-design whose index must
    be divisible by 3, and the size bound leaves only index 3 with
    eleven blocks."""
    rows = _mu_candidate_table(size_bound)
    feasible = [r["mu"] for r in rows if r["integral"] and r["within_bound"]]
    witness = {
        # two weight-5 codewords share a pair of coordinates; minimum
        # distance 5 forces their supports to overlap in exactly that
        # pair, so their distance is 6 and weight-6 codewords exist
        "support_overlap_of_pair_blocks": 2,
        "distance_between_pair_blocks": 6,
        "mu_candidates": rows,
        "feasible": feasible,
    }
    if feasible == [3]:
        return Certificate(
            "the weight-6 class is a design with index 3 and eleven blocks",
            "classification/second-weight-class",
            witness,
            PASS,
        )
    return Certificate(
        "no admissible index exists for the weight-6 class under the bound",
        "classification/second-weight-class",
        witness,
        FAIL,
    )


def reject_size_23() -> Certificate:
    """Length-11 case: a 23-word code would have distance distribution
    (1, 0, 0, 0, 0, 11, 11, 0, ..., 0), whose exact transform has a
    negative entry, which no code admits."""
    a = [Fraction(0)] * 12
    a[0] = Fraction(1)
    a[5] = Fraction(11)
    a[6] = Fraction(11)
    aprime = macwilliams_transform(a)
    witness = {
        "distribution": [fraction_str(v) for v in a],
        "transform": [fraction_str(v) for v in aprime],
        "second_entry": fraction_str(aprime[2]),
    }
    if aprime[2] < 0:
        return Certificate(
            "a 23-word code is impossible: its transform would be negative",
            "classification/size-23-rejection",
            witness,
            PASS,
        )
    return Certificate(
        "expected a negative transform entry for the hypothetical "
        "23-word distribution",
        "classification/size-23-rejection",
        witness,
        FAIL,
    )


def step_interior_weight_rejection() -> Certificate:
    """Length-11 case: the one remaining codeword cannot have weight
    7..10: its weight class would be a 2-design with a single block,
    impossible on 11 points (the block-count bound asks for eleven)."""
    rows = []
    ok = True
    for i in range(7, 11):
        single = [(1 << i) - 1]
        lam, counterexample = check_t_design(single, 11, 2)
        is_design = lam is not None and lam > 0
        rows.append(
            {
                "weight": i,
                "single_block_is_2_design": is_design,
                "minimum_blocks_required": 11,
            }
        )
        ok = ok and not is_design
    witness = {"weights": rows}
    if ok:
        return Certificate(
            "no interior weight can carry the remaining codeword",
            "classification/interior-weight-rejection",
            witness,
            PASS,
        )
    return Certificate(
        "an interior weight unexpectedly admits a one-block design",
        "classification/interior-weight-rejection",
        witness,
        FAIL,
    )


def step_antipodality_11(design: Design) -> Certificate:
    """Length-11 case: the last codeword has weight 11, so the code is
    antipodal and the weight-6 class is the complement design of the
    weight-5 class, with index 3."""
    full = (1 << 11) - 1
    complements = [full ^ b for b in design.blocks]
    lam, _ = check_t_design(complements, 11, 2)
    witness = {
        "all_ones_weight": 11,
        "complement_design_index": lam,
    }
    if lam == 3:
        return Certificate(
            "antipodality holds and the complements form the index-3 design",
            "classification/antipodality",
            witness,
            PASS,
        )
    return Certificate(
        "the complements of the unique design do not form an index-3 design",
        "classification/antipodality",
        witness,
        FAIL,
    )


def _candidate_code(m: int, design: Design) -> Code:
    full = (1 << m) - 1
    words = [0, full]
    words.extend(design.blocks)
    if m == 11:
        words.extend(full ^ b for b in design.blocks)
    return Code(m, words)


def step_code_structure(m: int, delta: int, design: Design) -> tuple[Certificate, Code]:
    candidate = _candidate_code(m, design)
    witness = {
        "words": [format_mask(w, m) for w in candidate.words],
        "size": candidate.size,
        "min_distance": candidate.min_distance,
    }
    ok = candidate.size == 24 and candidate.min_distance == delta
    return (
        Certificate(
            "the forced codeword set is a code with the classified parameters"
            if ok
            else "the forced codeword set violates the classified parameters",
            "classification/code-structure",
            witness,
            PASS if ok else FAIL,
        ),
        candidate,
    )


def step_equivalence(m: int, delta: int, candidate: Code) -> tuple[Certificate, tuple | None]:
    reference = reference_code(m, delta)
    witness_base = {
        "candidate_words": [format_mask(w, m) for w in candidate.words],
        "reference": "hadamard-12" if m == 12 else "punctured-hadamard-12",
    }
    x = find_equivalence(candidate, reference, perms_only=True)
    if x is None:
        return (
            Certificate(
                "no coordinate permutation maps the forced code onto the "
                "reference code",
                "classification/equivalence-witness",
                witness_base,
                FAIL,
            ),
            None,
        )
    sigma = tuple(p + 1 for p in x.perm)
    witness = dict(witness_base)
    witness["sigma"] = list(sigma)
    return (
        Certificate(
            "an explicit coordinate permutation carries the forced code "
            "onto the reference code",
            "classification/equivalence-witness",
            witness,
            PASS,
        ),
        sigma,
    )


def classify(m: int, delta: int, size_bound: int | None = None) -> ClassificationRun:
    """Run the full chain; halt at the first failing certificate."""
    _check_supported(m, delta)
    if size_bound is None:
        size_bound = SUPPORTED[(m, delta)]
    steps: list[Certificate] = []
    sigma = None

    def run(cert: Certificate) -> bool:
        steps.append(cert)
        return cert.passed

    ok = run(step_size_bound(m, delta, size_bound))
    ok = ok and run(lambda_bounds(m, delta))
    ok = ok and run(step_block_count(m, delta))
    design = None
    if ok:
        cert, design = step_design_uniqueness(m, delta)
        ok = run(cert)
    if ok:
        if m == 12:
            ok = run(step_antipodality_and_size(design, size_bound))
        else:
            ok = run(step_second_weight_class(size_bound))
            ok = ok and run(reject_size_23())
            ok = ok and run(step_interior_weight_rejection())
            ok = ok and run(step_antipodality_11(design))
    candidate = None
    if ok:
        cert, candidate = step_code_structure(m, delta, design)
        ok = run(cert)
    if ok:
        cert, sigma = step_equivalence(m, delta, candidate)
        ok = run(cert)
    return ClassificationRun(
        m, delta, size_bound, tuple(steps), sigma, PASS if ok else FAIL
    )


# ---------------------------------------------------------------------------
# the theorem bundle: regularity, symmetry, and transitivity of the target
# ---------------------------------------------------------------------------


def _conjugator(m: int) -> GraphAutomorphism:
    # fixed, arbitrary nontrivial element: alternating flips + rotation
    flips = sum(1 << i for i in range(0, m, 2))
    perm = tuple((i + 1) % m for i in range(m))
    return GraphAutomorphism(flips, perm)


def certify_theorem(
    m: int, delta: int, element_budget: int = 10**6
) -> list[Certificate]:
    """Certify that the reference code is completely regular and
    completely transitive, with the exact order of its symmetry group
    from a stabilizer chain, and that the properties survive conjugation
    by a graph automorphism."""
    _check_supported(m, delta)
    reference = reference_code(m, delta)
    certs: list[Certificate] = []

    creg = certify_completely_regular(reference)
    creg_cert = creg.to_certificate(reference)
    certs.append(
        Certificate(
            creg_cert.claim,
            "theorem/complete-regularity",
            creg_cert.witness,
            creg_cert.verdict,
        )
    )

    group = code_automorphism_group(reference, element_budget)
    # orbit-stabilizer: |G_0| = |G| / |orbit of 0|
    orbit = orbit_of(0, group.generators)
    zero_stab = group.order // len(orbit)
    transitive = orbit == set(reference.words)
    witness = {
        "generators": [format_automorphism(g) for g in group.generators],
        "order": group.order,
        "zero_stabilizer_order": zero_stab,
        "code_orbit_index": group.order // zero_stab,
        "transitive_on_code": transitive,
    }
    certs.append(
        Certificate(
            # the claim's wording is part of the pinned report bytes
            "the code's symmetry group was fully enumerated and acts "
            "transitively on the code",
            "theorem/automorphism-group",
            witness,
            PASS if transitive and group.order == zero_stab * reference.size else FAIL,
        )
    )

    ct = certify_completely_transitive(reference, group)
    ct_witness = dict(ct.witness)
    ct_witness["generators"] = [format_automorphism(g) for g in group.generators]
    certs.append(Certificate(ct.claim, "theorem/complete-transitivity", ct_witness, ct.verdict))

    x = _conjugator(m)
    x_inv = inverse(x)
    conjugated = Code(m, (apply_mask(x, w) for w in reference.words))
    conj_gens = tuple(compose(compose(x_inv, g), x) for g in group.generators)
    conj_group = GroupHandle(m, conj_gens)
    conj_ct = certify_completely_transitive(conjugated, conj_group)
    certs.append(
        Certificate(
            "complete transitivity is preserved under conjugation by a "
            "graph automorphism",
            "theorem/equivalence-invariance",
            {
                "conjugator": format_automorphism(x),
                "conjugated_generators": [format_automorphism(g) for g in conj_gens],
                "conjugated_words": [format_mask(w, m) for w in conjugated.words],
                "orbit_check": conj_ct.verdict,
            },
            conj_ct.verdict,
        )
    )
    return certs


# ---------------------------------------------------------------------------
# reports and the independent replay verifier
# ---------------------------------------------------------------------------


def build_report(
    run: ClassificationRun,
    theorem_certs: list[Certificate] | None = None,
    runtime_seconds: float | None = None,
) -> dict:
    report = {
        "schema": SCHEMA,
        "kind": "classification",
        "parameters": {
            "length": run.length,
            "min_distance": run.min_distance,
        },
        "size_bound": run.size_bound,
        "steps": [c.to_dict() for c in run.steps],
        "sigma": list(run.sigma) if run.sigma else None,
        "verdict": run.verdict,
    }
    if theorem_certs:
        report["steps"].extend(c.to_dict() for c in theorem_certs)
    if runtime_seconds is not None:
        report["runtime_seconds"] = runtime_seconds
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _replay_design_index(report: dict, cert: Certificate, element_budget: int):
    m = report["parameters"]["length"]
    delta = report["parameters"]["min_distance"]
    max_lam, rows = _lambda_candidate_table(m, delta)
    feasible = [row["index"] for row in rows if row["feasible"]]
    w = cert.witness
    if w["counting_bound"] != max_lam or w["candidates"] != rows:
        return False, "candidate table does not replay"
    expected = PASS if feasible == [2] else FAIL
    return expected == cert.verdict, f"feasible indices {feasible}"


def _replay_block_count(report: dict, cert: Certificate, element_budget: int):
    m = report["parameters"]["length"]
    delta = report["parameters"]["min_distance"]
    b = block_count(delta // 2, m, delta, 2)
    ok = cert.witness["blocks"] == fraction_str(b) and (
        (b.denominator == 1) == cert.passed
    )
    return ok, f"block count {b}"


def _witness_blocks(cert: Certificate, key: str = "representative_blocks"):
    return [points_to_mask(pts) for pts in cert.witness[key]]


def _replay_design_uniqueness(report: dict, cert: Certificate, element_budget: int):
    m = report["parameters"]["length"]
    delta = report["parameters"]["min_distance"]
    t = delta // 2
    if cert.passed:
        blocks = _witness_blocks(cert)
        lam, _ = check_t_design(blocks, m, t)
        if lam != 2:
            return False, "witness blocks are not a design of index 2"
        if len(blocks) != block_count(t, m, delta, 2):
            return False, "witness block count mismatch"
        if cert.witness["class_count"] != 1:
            return False, "class count inconsistent with verdict"
        return True, "witness design verified; count as recorded by the run"
    return cert.witness["class_count"] != 1, "failure verdict consistent"


def _replay_antipodality_and_size(report: dict, cert: Certificate, element_budget: int):
    bound = report["size_bound"]
    uniq = _find_cert(report, "classification/design-uniqueness")
    blocks = _witness_blocks(uniq)
    m = report["parameters"]["length"]
    full = (1 << m) - 1
    closed = all((full ^ b) in set(blocks) for b in blocks)
    forced = 2 + len(blocks)
    if closed != cert.witness["complement_closed"]:
        return False, "complement closure does not replay"
    if forced != cert.witness["forced_size"]:
        return False, "forced size does not replay"
    expected = PASS if closed and forced == bound else FAIL
    return expected == cert.verdict, f"forced size {forced} vs bound {bound}"


def _replay_second_weight_class(report: dict, cert: Certificate, element_budget: int):
    rows = _mu_candidate_table(report["size_bound"])
    feasible = [r["mu"] for r in rows if r["integral"] and r["within_bound"]]
    if cert.witness["mu_candidates"] != rows:
        return False, "index table does not replay"
    expected = PASS if feasible == [3] else FAIL
    return expected == cert.verdict, f"feasible weight-6 indices {feasible}"


def _replay_size_23(report: dict, cert: Certificate, element_budget: int):
    a = [Fraction(v) for v in cert.witness["distribution"]]
    if len(a) != 12 or a[0] != 1 or a[5] != 11 or a[6] != 11 or sum(a) != 23:
        return False, "hypothetical distribution malformed"
    aprime = macwilliams_transform(a)
    if [fraction_str(v) for v in aprime] != cert.witness["transform"]:
        return False, "transform does not replay"
    expected = PASS if aprime[2] < 0 else FAIL
    return expected == cert.verdict, f"second transform entry {aprime[2]}"


def _replay_interior_weights(report: dict, cert: Certificate, element_budget: int):
    for row in cert.witness["weights"]:
        i = row["weight"]
        lam, _ = check_t_design([(1 << i) - 1], 11, 2)
        if (lam is not None and lam > 0) != row["single_block_is_2_design"]:
            return False, f"weight {i} check does not replay"
        if row["single_block_is_2_design"]:
            return cert.verdict == FAIL, "verdict consistent"
    return cert.passed, "all interior weights rejected"


def _replay_antipodality_11(report: dict, cert: Certificate, element_budget: int):
    uniq = _find_cert(report, "classification/design-uniqueness")
    blocks = _witness_blocks(uniq)
    full = (1 << 11) - 1
    lam, _ = check_t_design([full ^ b for b in blocks], 11, 2)
    if lam != cert.witness["complement_design_index"]:
        return False, "complement design index does not replay"
    expected = PASS if lam == 3 else FAIL
    return expected == cert.verdict, f"complement design index {lam}"


def _replay_code_structure(report: dict, cert: Certificate, element_budget: int):
    m = report["parameters"]["length"]
    delta = report["parameters"]["min_distance"]
    words = [parse_mask(w)[0] for w in cert.witness["words"]]
    code = Code(m, words)
    if code.size != cert.witness["size"]:
        return False, "size does not replay"
    if code.min_distance != cert.witness["min_distance"]:
        return False, "minimum distance does not replay"
    expected = PASS if code.size == 24 and code.min_distance == delta else FAIL
    return expected == cert.verdict, f"({m}, {code.size}, {code.min_distance}) code"


def _replay_equivalence(report: dict, cert: Certificate, element_budget: int):
    m = report["parameters"]["length"]
    delta = report["parameters"]["min_distance"]
    if not cert.passed:
        return True, "failure verdict recorded; nothing to replay"
    candidate = [parse_mask(w)[0] for w in cert.witness["candidate_words"]]
    sigma = cert.witness["sigma"]
    perm = tuple(p - 1 for p in sigma)
    if sorted(perm) != list(range(m)):
        return False, "sigma is not a permutation"
    image = {permute_mask(perm, w) for w in candidate}
    reference = set(reference_code(m, delta).words)
    return image == reference, "sigma carries the candidate onto the reference"


def _replay_complete_regularity(report: dict, cert: Certificate, element_budget: int):
    m = report["parameters"]["length"]
    delta = report["parameters"]["min_distance"]
    reference = reference_code(m, delta)
    creg = certify_completely_regular(reference)
    table = [list(r) for r in creg.intersection_table]
    ok = (
        creg.completely_regular == cert.passed
        and cert.witness["intersection_table"] == table
        and cert.witness["covering_radius"] == creg.covering_radius
    )
    return ok, f"covering radius {creg.covering_radius}"


def _parse_generators(cert: Certificate, key: str = "generators"):
    return tuple(parse_automorphism(s) for s in cert.witness[key])


def _replay_automorphism_group(report: dict, cert: Certificate, element_budget: int):
    m = report["parameters"]["length"]
    delta = report["parameters"]["min_distance"]
    reference = reference_code(m, delta)
    gens = _parse_generators(cert)
    if any(g.degree != m for g in gens):
        return False, f"a generator is not of degree {m}"
    words = set(reference.words)
    for g in gens:
        if {apply_mask(g, w) for w in reference.words} != words:
            return False, "a generator does not stabilize the reference code"
    closed = closure(gens, m, budget=element_budget)
    if closed.order != cert.witness["order"]:
        return False, f"closure order {closed.order} != {cert.witness['order']}"
    # orbit-stabilizer: |G_0| = |G| / |orbit of 0|
    orbit = orbit_of(0, gens)
    zero_stab, rest = divmod(closed.order, len(orbit))
    if rest or zero_stab != cert.witness["zero_stabilizer_order"]:
        return False, "zero stabilizer order does not replay"
    if len(orbit) != cert.witness["code_orbit_index"]:
        return False, "orbit index does not replay"
    transitive = orbit == words
    if transitive != cert.witness["transitive_on_code"]:
        return False, "transitivity on the code does not replay"
    return cert.passed and transitive, f"order {closed.order}, stabilizer {zero_stab}"


def _replay_complete_transitivity(report: dict, cert: Certificate, element_budget: int):
    m = report["parameters"]["length"]
    delta = report["parameters"]["min_distance"]
    reference = reference_code(m, delta)
    gens = _parse_generators(cert)
    group = GroupHandle(m, gens)
    replayed = certify_completely_transitive(reference, group)
    return replayed.verdict == cert.verdict, "orbit partition replayed"


def _replay_equivalence_invariance(report: dict, cert: Certificate, element_budget: int):
    m = report["parameters"]["length"]
    words = [parse_mask(w)[0] for w in cert.witness["conjugated_words"]]
    conjugated = Code(m, words)
    gens = _parse_generators(cert, "conjugated_generators")
    replayed = certify_completely_transitive(conjugated, GroupHandle(m, gens))
    return replayed.verdict == cert.verdict, "conjugated orbit partition replayed"


def _find_cert(report: dict, anchor: str) -> Certificate:
    for step in report["steps"]:
        if step["anchor"] == anchor:
            return Certificate.from_dict(step)
    raise KeyError(f"report has no step {anchor}")


def _replay_size_bound(report: dict, cert: Certificate, element_budget: int):
    bound = cert.witness["size_bound"]
    ok = bound == report["size_bound"] and (bound > 0) == cert.passed
    return ok, "configuration recorded"


# every replayer takes (report, cert, element_budget) and returns (ok, detail)
_REPLAYERS = {
    "classification/size-bound": _replay_size_bound,
    "classification/minimum-weight-design-index": _replay_design_index,
    "classification/minimum-weight-block-count": _replay_block_count,
    "classification/design-uniqueness": _replay_design_uniqueness,
    "classification/antipodality-and-size": _replay_antipodality_and_size,
    "classification/second-weight-class": _replay_second_weight_class,
    "classification/size-23-rejection": _replay_size_23,
    "classification/interior-weight-rejection": _replay_interior_weights,
    "classification/antipodality": _replay_antipodality_11,
    "classification/code-structure": _replay_code_structure,
    "classification/equivalence-witness": _replay_equivalence,
    "theorem/complete-regularity": _replay_complete_regularity,
    "theorem/automorphism-group": _replay_automorphism_group,
    "theorem/complete-transitivity": _replay_complete_transitivity,
    "theorem/equivalence-invariance": _replay_equivalence_invariance,
}


def verify_report(report: dict, element_budget: int = 10**6):
    """Re-verify every certificate in a report from its witness payload.

    Returns a list of (anchor, ok, detail) triples; all searches are
    replaced by direct recomputation, a stabilizer chain of the witness
    generators, or witness application.  ``element_budget`` bounds the
    order of any group the replay builds.  Malformed input yields failed
    triples, never an exception.
    """
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema != SCHEMA:
        return [("schema", False, f"unknown schema {schema!r}")]
    steps = report.get("steps")
    if not isinstance(steps, list):
        return [("steps", False, "report has no list of steps")]
    results = []
    for step in steps:
        anchor = step.get("anchor") if isinstance(step, dict) else None
        try:
            cert = Certificate.from_dict(step)
            replay = _REPLAYERS.get(anchor)
            if replay is None:
                ok, detail = False, "unknown step anchor"
            else:
                ok, detail = replay(report, cert, element_budget)
        except Exception as exc:  # a malformed step must fail, not crash
            ok, detail = False, f"replay error: {exc}"
        results.append((anchor, ok, detail))
    return results
