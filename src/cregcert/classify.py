"""The uniqueness classification as an executable certificate chain.

For (length, min distance) = (12, 6) and (11, 5), any completely regular
code with those parameters is equivalent to the Hadamard 12 code or its
punctured companion.  ``classify`` replays that argument as the ordered
steps of ``CHAIN[m]``: parameter arithmetic pins the minimum-weight
design index, counting and exact-transform contradictions force the code
size and antipodality, exhaustive enumeration shows the design is unique,
and an explicit coordinate permutation carries the forced structure onto
the reference code.  ``certify_theorem`` adds the ``THEOREM`` steps.

Every step has one certificate builder, shared by the producer and the
replay.  The producer feeds the builders the outputs of three searches:
the design from ``enumerate_designs``, sigma from ``find_equivalence``
and the code's group from ``code_automorphism_group``.
``verify_report`` reads each of those outputs from the witness that
records it and checks it directly (the design as a t-design of index 2,
sigma as a map onto the reference code, whose words it rebuilds from
the quadratic residues mod 11 with no Hadamard matrix, the generators
by their stabilizer chain).  It then rebuilds each certificate from the
report's parameters and its witnessed search outputs, and compares.
One recorded fact is taken as is: the design class count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from inspect import signature
from math import comb

from .certs import FAIL, PASS, SCHEMA, Certificate, ResourceBudgetError
from .codes import Code
from .designs import Design, block_count, check_t_design, enumerate_designs, lambda_i
from .hadamard import code_of, paley_hadamard_12
from .hamming import format_mask, points_to_mask
from .regularity import (
    certify_completely_regular,
    certify_completely_transitive,
)
from .spectral import macwilliams_transform
from .symmetry import (
    GENERATOR_BUDGET,
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

# The classification chain of each length, in order.  ``classify`` halts
# at the first FAIL; after a chain that ends in PASS a report may carry
# the THEOREM steps.
_OPENING = (
    "classification/size-bound",
    "classification/minimum-weight-design-index",
    "classification/minimum-weight-block-count",
    "classification/design-uniqueness",
)
_CLOSING = ("classification/code-structure", "classification/equivalence-witness")
CHAIN = {
    12: _OPENING + ("classification/antipodality-and-size",) + _CLOSING,
    11: _OPENING
    + (
        "classification/second-weight-class",
        "classification/size-23-rejection",
        "classification/interior-weight-rejection",
        "classification/antipodality",
    )
    + _CLOSING,
}
THEOREM = (
    "theorem/complete-regularity",
    "theorem/automorphism-group",
    "theorem/complete-transitivity",
    "theorem/equivalence-invariance",
)


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


class _Mismatch(Exception):
    """A replayed step disagrees with the report; the message says where."""


class _Inputs:
    """A chain's parameters and the search outputs known so far.

    The producer sets ``class_count``, ``design``, ``sigma`` and ``group``
    from its searches, the replay from witnesses it has checked.  Reading
    an output that was never set fails the step that reads it.
    """

    def __init__(self, m, delta, size_bound):
        self.m, self.delta, self.size_bound = m, delta, size_bound
        self.rejected = ""  # why the last witnessed output was refused

    def __getattr__(self, name: str):
        # reached only for a search output no step has supplied
        why = f" ({self.rejected})" if self.rejected else ""
        raise _Mismatch(f"no checked {name}{why}")

    @property
    def reference(self) -> Code:
        return reference_code(self.m, self.delta)

    @property
    def candidate(self) -> Code:
        """The code the design forces: the zero and all-ones words, the
        blocks and their complements (at length 12 the design is
        complement-closed, so ``Code`` drops the repeats)."""
        full = (1 << self.m) - 1
        blocks = self.design.blocks
        return Code(self.m, [0, full, *blocks, *(full ^ b for b in blocks)])


# ---------------------------------------------------------------------------
# one certificate builder per step
# ---------------------------------------------------------------------------

_STEPS: dict = {}


def _step(anchor: str):
    """Register a step's certificate builder under its anchor.

    The builder returns (claim, witness, passed).  Its parameters name
    the ``_Inputs`` it reads, in the order it reads them: search outputs
    come first, so a step whose output was refused reports that.
    """

    def register(build):
        @wraps(build)
        def certificate(*args, **kwargs) -> Certificate:
            claim, witness, passed = build(*args, **kwargs)
            return Certificate(claim, anchor, witness, PASS if passed else FAIL)

        _STEPS[anchor] = certificate
        return certificate

    return register


def _build(anchor: str, p: _Inputs) -> Certificate:
    build = _STEPS[anchor]
    return build(**{name: getattr(p, name) for name in signature(build).parameters})


@_step("classification/size-bound")
def _size_bound(m: int, delta: int, size_bound: int):
    witness = {"length": m, "min_distance": delta, "size_bound": size_bound}
    claim = "the configured table value bounds the number of codewords"
    return claim, witness, size_bound > 0


@_step("classification/minimum-weight-design-index")
def lambda_bounds(m: int, delta: int):
    """Pin the index of the design formed by the minimum-weight codewords.

    Codewords of weight delta through a fixed t-set have pairwise
    disjoint supports beyond it (minimum distance), so the index is at
    most (m-t)/(delta-t); divisibility of the derived indices removes
    everything but 2.
    """
    _check_supported(m, delta)
    t = delta // 2
    max_lam = (m - t) // (delta - t)
    rows = []
    for lam in range(1, max_lam + 1):
        derived = []
        for i in range(t + 1):
            value = lambda_i(t, m, delta, lam, i)
            integral = value.denominator == 1
            derived.append({"i": i, "value": str(value), "integral": integral})
        feasible = all(d["integral"] for d in derived)
        rows.append({"index": lam, "derived": derived, "feasible": feasible})
    feasible = [row["index"] for row in rows if row["feasible"]]
    witness = {
        "t": t,
        "counting_bound": max_lam,
        "candidates": rows,
        "feasible": feasible,
    }
    if feasible == [2]:
        claim = "the minimum-weight codewords form a design with index exactly 2"
        return claim, witness, True
    return "the design-index arithmetic does not single out index 2", witness, False


@_step("classification/minimum-weight-block-count")
def _minimum_weight_block_count(m: int, delta: int):
    t = delta // 2
    b = block_count(t, m, delta, 2)
    witness = {
        "t": t,
        "block_size": delta,
        "index": 2,
        "blocks": str(b),
    }
    if b.denominator == 1:
        return f"the minimum-weight class has exactly {int(b)} codewords", witness, True
    return "the block count is not an integer", witness, False


@_step("classification/design-uniqueness")
def _design_uniqueness(class_count: int, design: Design | None, delta: int):
    witness = {
        "t": delta // 2,
        "block_size": delta,
        "index": 2,
        "class_count": class_count,
        "representative_blocks": design.block_point_lists() if design else [],
    }
    if class_count == 1 and design is not None:
        claim = "exhaustive enumeration finds exactly one design up to isomorphism"
        return claim, witness, True
    return f"enumeration found {class_count} isomorphism classes", witness, False


@_step("classification/antipodality-and-size")
def _antipodality_and_size(design: Design, size_bound: int):
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
        claim = (
            "complement closure of the design forces antipodality and the "
            "exact code size"
        )
        return claim, witness, True
    if closed:
        return "the forced code size contradicts the size bound", witness, False
    return "the design is not complement-closed", witness, False


def _complement_index(m: int, delta: int) -> Fraction:
    """b - 2r + 2, r blocks through a point: the index of the complement
    of the minimum-weight design when it is a 2-design (length 11)."""
    b, r = (lambda_i(delta // 2, m, delta, 2, i) for i in (0, 1))
    return b - 2 * r + 2


@_step("classification/second-weight-class")
def _second_weight_class(m: int, delta: int, size_bound: int):
    """Length-11 case: the weight-(delta+1) class is a t-design whose index
    mu, at most C(m-t, delta+1-t), must give an integral block count, and
    the size bound leaves only the complement index b - 2r + 2."""
    t, index = delta // 2, _complement_index(m, delta)
    b, stop = block_count(t, m, delta, 2), max(size_bound, SUPPORTED[(m, delta)])
    rows = []
    for mu in range(1, comb(m - t, delta + 1 - t) + 1):
        b_next = block_count(t, m, delta + 1, mu)
        minimum = 1 + b + b_next  # zero word + the two weight classes
        if b_next.denominator == 1 and minimum > stop and mu > index:
            break
        rows.append(
            {
                "mu": mu,
                "weight6_blocks": str(b_next),
                "integral": b_next.denominator == 1,
                "forced_minimum_size": str(minimum),
                "within_bound": minimum <= size_bound,
            }
        )
    feasible = [r["mu"] for r in rows if r["integral"] and r["within_bound"]]
    witness = {
        # two weight-delta codewords share a t-set of coordinates; minimum
        # distance delta forces their supports to overlap in exactly that
        # t-set, so their distance is 2(delta - t) and such codewords exist
        "support_overlap_of_pair_blocks": t,
        "distance_between_pair_blocks": 2 * (delta - t),
        "mu_candidates": rows,
        "feasible": feasible,
    }
    if feasible == [index]:
        claim = "the weight-6 class is a design with index 3 and eleven blocks"
        return claim, witness, True
    claim = "no admissible index exists for the weight-6 class under the bound"
    return claim, witness, False


@_step("classification/size-23-rejection")
def reject_size_23(m: int, delta: int):
    """Length-11 case: a code of the zero word and the two weight classes
    (indices 2 and b - 2r + 2) would have distance distribution (1, 0, 0,
    0, 0, 11, 11, 0, ..., 0), 23 words, and a negative exact transform."""
    a = [Fraction(1)] + [Fraction(0)] * m
    a[delta] = block_count(delta // 2, m, delta, 2)
    a[delta + 1] = block_count(delta // 2, m, delta + 1, _complement_index(m, delta))
    aprime = macwilliams_transform(a)
    witness = {
        "distribution": [str(v) for v in a],
        "transform": [str(v) for v in aprime],
        "second_entry": str(aprime[2]),
    }
    if aprime[2] < 0:
        claim = "a 23-word code is impossible: its transform would be negative"
        return claim, witness, True
    claim = (
        "expected a negative transform entry for the hypothetical "
        "23-word distribution"
    )
    return claim, witness, False


@_step("classification/interior-weight-rejection")
def _interior_weight_rejection(m: int, delta: int):
    """Length-11 case: the one remaining codeword cannot have a weight
    from delta+2 to m-1: its weight class would be a one-block t-design,
    impossible on m points (Fisher's inequality asks for m blocks)."""
    rows = []
    for i in range(delta + 2, m):
        lam, _ = check_t_design([(1 << i) - 1], m, delta // 2)
        rows.append(
            {
                "weight": i,
                "single_block_is_2_design": lam is not None and lam > 0,
                "minimum_blocks_required": m,
            }
        )
    witness = {"weights": rows}
    if not any(row["single_block_is_2_design"] for row in rows):
        return "no interior weight can carry the remaining codeword", witness, True
    return "an interior weight unexpectedly admits a one-block design", witness, False


@_step("classification/antipodality")
def _antipodality(design: Design, m: int, delta: int):
    """Length-11 case: the last codeword has weight m, so the code is
    antipodal and the weight-(delta+1) class is the complement design of
    the weight-delta class, with the complement index b - 2r + 2."""
    full = (1 << m) - 1
    lam, _ = check_t_design([full ^ b for b in design.blocks], m, delta // 2)
    witness = {
        "all_ones_weight": m,
        "complement_design_index": lam,
    }
    if lam == _complement_index(m, delta):
        claim = "antipodality holds and the complements form the index-3 design"
        return claim, witness, True
    claim = "the complements of the unique design do not form an index-3 design"
    return claim, witness, False


@_step("classification/code-structure")
def _code_structure(candidate: Code, m: int, delta: int, size_bound: int):
    """As many forced words as the table bound, within the size bound."""
    witness = {
        "words": [format_mask(w, candidate.length) for w in candidate.words],
        "size": candidate.size,
        "min_distance": candidate.min_distance,
    }
    sized = candidate.size == SUPPORTED[(m, delta)] <= size_bound
    if sized and candidate.min_distance == delta:
        claim = "the forced codeword set is a code with the classified parameters"
        return claim, witness, True
    return "the forced codeword set violates the classified parameters", witness, False


@_step("classification/equivalence-witness")
def _equivalence_witness(sigma: tuple[int, ...] | None, candidate: Code, m: int):
    witness = {
        "candidate_words": [format_mask(w, m) for w in candidate.words],
        "reference": "hadamard-12" if m == 12 else "punctured-hadamard-12",
    }
    if sigma is None:
        claim = "no coordinate permutation maps the forced code onto the reference code"
        return claim, witness, False
    witness["sigma"] = list(sigma)
    claim = (
        "an explicit coordinate permutation carries the forced code "
        "onto the reference code"
    )
    return claim, witness, True


def _conjugator(m: int) -> GraphAutomorphism:
    # fixed, arbitrary nontrivial element: alternating flips + rotation
    flips = sum(1 << i for i in range(0, m, 2))
    perm = tuple((i + 1) % m for i in range(m))
    return GraphAutomorphism(flips, perm)


@_step("theorem/complete-regularity")
def _complete_regularity(reference: Code):
    cert = certify_completely_regular(reference).to_certificate(reference)
    return cert.claim, cert.witness, cert.passed


@_step("theorem/automorphism-group")
def _automorphism_group(group: GroupHandle, reference: Code):
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
    # the claim's wording is part of the pinned report bytes
    claim = (
        "the code's symmetry group was fully enumerated and acts "
        "transitively on the code"
    )
    return claim, witness, transitive and group.order == zero_stab * reference.size


@_step("theorem/complete-transitivity")
def _complete_transitivity(group: GroupHandle, reference: Code):
    ct = certify_completely_transitive(reference, group)
    witness = dict(ct.witness)
    witness["generators"] = [format_automorphism(g) for g in group.generators]
    return ct.claim, witness, ct.passed


@_step("theorem/equivalence-invariance")
def _equivalence_invariance(group: GroupHandle, reference: Code, m: int):
    x = _conjugator(m)
    x_inv = inverse(x)
    conjugated = Code(m, (apply_mask(x, w) for w in reference.words))
    conj_gens = tuple(compose(compose(x_inv, g), x) for g in group.generators)
    conj_ct = certify_completely_transitive(conjugated, GroupHandle(m, conj_gens))
    witness = {
        "conjugator": format_automorphism(x),
        "conjugated_generators": [format_automorphism(g) for g in conj_gens],
        "conjugated_words": [format_mask(w, m) for w in conjugated.words],
        "orbit_check": conj_ct.verdict,
    }
    claim = (
        "complete transitivity is preserved under conjugation by a graph "
        "automorphism"
    )
    return claim, witness, conj_ct.passed


# ---------------------------------------------------------------------------
# the three searches, and how the replay reads and checks their outputs
# ---------------------------------------------------------------------------


def _search_design(p: _Inputs) -> None:
    classes = enumerate_designs(p.delta // 2, p.m, p.delta, 2)
    p.class_count, p.design = len(classes), (classes[0] if classes else None)


def _search_sigma(p: _Inputs) -> None:
    x = find_equivalence(p.candidate, p.reference)
    p.sigma = None if x is None else tuple(q + 1 for q in x.perm)


def _search_group(p: _Inputs) -> None:
    p.group = code_automorphism_group(p.reference)


def _read_design(p: _Inputs, witness: dict) -> None:
    """The representative must be a t-design of index 2 on delta-point
    blocks, which fixes its block count by double counting; the class
    count is the one fact taken as recorded, and it must be an int
    (``True`` equals 1 but counts nothing)."""
    count = witness["class_count"]
    if type(count) is not int:
        raise _Mismatch(f"the class count {count!r} is not an int")
    listed = witness["representative_blocks"]
    # a point is a shift count, so it is checked before it builds a mask
    if any(type(q) is not int or not 1 <= q <= p.m for points in listed for q in points):
        raise _Mismatch(f"a block point is not an int in 1..{p.m}")
    blocks = [points_to_mask(points) for points in listed]
    design = Design.verified(blocks, p.m, p.delta // 2) if blocks else None
    if design is not None and (design.block_size, design.lam) != (p.delta, 2):
        raise _Mismatch(
            f"the witness design has blocks of size {design.block_size} "
            f"and index {design.lam}"
        )
    p.class_count, p.design = count, design


def _residue_words(m: int) -> set[int]:
    """The reference code's words built as bitmasks from the quadratic
    residues R mod 11, sharing no code with ``reference_code``: 0, the
    all-ones word, the words with coordinate 2 + (i + r) mod 11 set for
    r in {0} | R, one per i in 0..10, and their complements.  At m = 11
    coordinate 1 (bit 0) is punctured."""
    residues = {x * x % 11 for x in range(1, 11)}
    rows = [sum(1 << 1 + (i + r) % 11 for r in {0} | residues) for i in range(11)]
    full = (1 << 12) - 1
    return {w >> 12 - m for w in (0, full, *rows, *(full ^ w for w in rows))}


def _read_sigma(p: _Inputs, witness: dict) -> None:
    if set(p.reference.words) != _residue_words(p.m):
        raise _Mismatch("the reference code is not the quadratic-residue code")
    sigma = witness.get("sigma")
    if sigma is not None:
        perm = tuple(q - 1 for q in sigma)
        if sorted(perm) != list(range(p.m)):
            raise _Mismatch("sigma is not a permutation")
        if {permute_mask(perm, w) for w in p.candidate.words} != set(p.reference.words):
            raise _Mismatch("sigma does not carry the forced code onto the reference")
        sigma = tuple(q + 1 for q in perm)
    p.sigma = sigma


def _read_group(p: _Inputs, witness: dict) -> None:
    """At most GENERATOR_BUDGET generators, checked before any is
    parsed; they must stabilize the reference code, and their
    stabilizer chain must have the recorded order."""
    listed = witness["generators"]
    if len(listed) > GENERATOR_BUDGET:
        raise ResourceBudgetError(
            f"{len(listed)} generators exceed the budget of {GENERATOR_BUDGET}"
        )
    gens = tuple(parse_automorphism(s) for s in listed)
    for g in gens:
        if g.degree != p.m:
            raise _Mismatch(f"generator degree {g.degree} vs code length {p.m}")
    words = set(p.reference.words)
    if any({apply_mask(g, w) for w in words} != words for g in gens):
        raise _Mismatch("a generator does not stabilize the reference code")
    group = closure(gens, p.m)
    if group.order != witness["order"]:
        raise _Mismatch(f"closure order {group.order} != {witness['order']}")
    p.group = group


def _read_regularity(p: _Inputs, witness: dict) -> None:
    """Counting identities of the intersection table, with no scan: row i
    counts every codeword once, none nearer than i, and f_0 <= 1."""
    for i, row in enumerate(witness["intersection_table"]):
        if sum(row) != p.reference.size:
            raise _Mismatch(f"row {i} of the intersection table sums to {sum(row)}")
        first = next(j for j, f in enumerate(row) if f)
        if first != i or row[0] > 1:
            raise _Mismatch(f"row {i} of the intersection table opens with f_{first}")


def _read_transform(p: _Inputs, witness: dict) -> None:
    """Two identities of the recorded transform, with no Krawtchouk table:
    a'_0 counts the words, and a'_2 sums a_i K_2(i), where K_2(i) =
    C(m-i, 2) - i(m-i) + C(i, 2)."""
    a = [Fraction(v) for v in witness["distribution"]]
    transform = [Fraction(v) for v in witness["transform"]]
    if transform[0] != sum(a):
        raise _Mismatch(f"transform entry 0 is {transform[0]}, not the size {sum(a)}")
    m = p.m
    second = sum(
        v * (comb(m - i, 2) - i * (m - i) + comb(i, 2)) for i, v in enumerate(a)
    )
    if transform[2] != second:
        raise _Mismatch(f"transform entry 2 is {transform[2]}, not {second}")


_SEARCHES = {
    "classification/design-uniqueness": _search_design,
    "classification/equivalence-witness": _search_sigma,
    "theorem/automorphism-group": _search_group,
}
_READERS = {
    "classification/design-uniqueness": _read_design,
    "classification/size-23-rejection": _read_transform,
    "classification/equivalence-witness": _read_sigma,
    "theorem/complete-regularity": _read_regularity,
    "theorem/automorphism-group": _read_group,
}


# ---------------------------------------------------------------------------
# the producer
# ---------------------------------------------------------------------------


def _produce(p: _Inputs, anchor: str) -> Certificate:
    search = _SEARCHES.get(anchor)
    if search is not None:
        search(p)
    return _build(anchor, p)


def classify(m: int, delta: int, size_bound: int | None = None) -> ClassificationRun:
    """Run the chain ``CHAIN[m]``; halt at the first failing certificate."""
    _check_supported(m, delta)
    if size_bound is None:
        size_bound = SUPPORTED[(m, delta)]
    p = _Inputs(m, delta, size_bound)
    steps: list[Certificate] = []
    for anchor in CHAIN[m]:
        steps.append(_produce(p, anchor))
        if not steps[-1].passed:
            break
    ok = steps[-1].passed
    sigma = p.sigma if ok else None
    return ClassificationRun(
        m, delta, size_bound, tuple(steps), sigma, PASS if ok else FAIL
    )


def certify_theorem(m: int, delta: int) -> list[Certificate]:
    """Certify that the reference code is completely regular and
    completely transitive, with the exact order of its symmetry group
    from a stabilizer chain, and that the properties survive conjugation
    by a graph automorphism."""
    _check_supported(m, delta)
    p = _Inputs(m, delta, None)
    return [_produce(p, anchor) for anchor in THEOREM]


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


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


def _differences(rebuilt: dict, recorded: dict) -> list[str]:
    """The step fields, and the witness keys, where two steps differ."""
    out = []
    for key in sorted(set(rebuilt) | set(recorded)):
        a, b = rebuilt.get(key), recorded.get(key)
        if _canon(a) == _canon(b):
            continue
        if key == "witness" and isinstance(b, dict):
            keys = sorted(set(a) | set(b))
            out += [
                f"witness.{k}" for k in keys if _canon(a.get(k)) != _canon(b.get(k))
            ]
        else:
            out.append(key)
    return out


def _replay(p: _Inputs, anchor, step: dict) -> str:
    if anchor not in _STEPS:
        raise _Mismatch("unknown step anchor")
    read = _READERS.get(anchor)
    if read is not None:
        try:
            read(p, step["witness"])
        except Exception as exc:
            p.rejected = f"{anchor}: {exc}"
            raise
    rebuilt = _build(anchor, p).to_dict()
    if _canon(rebuilt) != _canon(step):
        fields = ", ".join(_differences(rebuilt, step))
        raise _Mismatch(f"rebuilt certificate differs at {fields}")
    return "rebuilt certificate matches"


# the top-level fields build_report writes (runtime_seconds only when timed)
REPORT_FIELDS = frozenset(
    "schema kind parameters size_bound steps sigma verdict runtime_seconds".split()
)


def _field_faults(report: dict) -> list[str]:
    """Faults in the report's own fields: its kind and any unknown key."""
    faults = []
    if report.get("kind") != "classification":
        faults.append(f"kind is {report.get('kind')!r}, not 'classification'")
    unknown = sorted(map(str, set(report) - REPORT_FIELDS))
    if unknown:
        faults.append(f"unknown report fields {unknown}")
    return faults


def _chain_faults(report: dict, steps: list, anchors: list, m: int) -> list[list[str]]:
    """Faults in the chain's structure, each under the step where it shows.

    The anchors must follow ``CHAIN[m]`` up to its first FAIL, then come
    nothing or the ``THEOREM`` steps.  ``verdict`` is PASS iff the whole
    chain is there and passed, and ``sigma`` is the equivalence witness's
    sigma or null; both are checked on the chain's last step.
    """
    chain = CHAIN[m]
    passed = [isinstance(s, dict) and s.get("verdict") == PASS for s in steps]
    stop = next(
        (i + 1 for i in range(min(len(chain), len(steps))) if not passed[i]), len(chain)
    )
    expected = chain[:stop] + (THEOREM if len(steps) > stop else ())
    faults = []
    for i, anchor in enumerate(anchors):
        want = expected[i] if i < len(expected) else "the end of the report"
        faults.append([] if anchor == want else [f"expected {want} here"])
    if len(steps) < len(expected):
        faults[-1].append(f"the report ends before {expected[len(steps)]}")
    last = min(stop, len(steps)) - 1
    n = len(chain)
    complete = anchors[:n] == list(chain) and all(passed[:n])
    verdict = PASS if complete else FAIL
    if report.get("verdict") != verdict:
        faults[last].append(f"the chain's verdict is {verdict}")
    witness = steps[last].get("witness") if anchors[last] == chain[-1] else None
    sigma = witness.get("sigma") if isinstance(witness, dict) else None
    if _canon(report.get("sigma")) != _canon(sigma):
        faults[last].append("sigma differs from the equivalence witness")
    return faults


def verify_report(report: dict):
    """Replay a report: rebuild each certificate from the report's
    parameters and its witnessed search outputs, then compare.

    Returns one (anchor, ok, detail) triple per step.  A step is ok when
    its witnessed search output (if any) checks out, the rebuilt
    certificate equals the recorded step after a JSON round trip, and the
    chain's structure has no fault at that step.  A report whose ``kind``
    is not "classification", or with a top-level field build_report does
    not write, fails on its first step.  Parameters that are not a
    supported (length, min_distance) pair of ints fail every step before
    any witness is read, since readers and builders loop over both.  No
    search is re-run, and every group the replay builds is held to
    ``symmetry.ELEMENT_BUDGET``.  Malformed input yields failed triples,
    never an exception.
    """
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema != SCHEMA:
        return [("schema", False, f"unknown schema {schema!r}")]
    steps = report.get("steps")
    if not isinstance(steps, list) or not steps:
        return [("steps", False, "report has no steps")]
    anchors = [s.get("anchor") if isinstance(s, dict) else None for s in steps]
    params = report.get("parameters")
    params = params if isinstance(params, dict) else {}
    m, delta = params.get("length"), params.get("min_distance")
    # type(...) is int: a bool is no length, and 12.0 would hash as 12
    if type(m) is not int or type(delta) is not int or (m, delta) not in SUPPORTED:
        detail = f"no classification chain for parameters ({m!r}, {delta!r})"
        return [(anchor, False, detail) for anchor in anchors]
    p = _Inputs(m, delta, report.get("size_bound"))
    step_faults = _chain_faults(report, steps, anchors, m)
    step_faults[0][:0] = _field_faults(report)  # report-level faults show on step one
    results = []
    for anchor, step, faults in zip(anchors, steps, step_faults):
        try:
            ok, detail = True, _replay(p, anchor, step)
        except _Mismatch as exc:
            ok, detail = False, str(exc)
        except Exception as exc:  # a malformed step must fail, not crash
            ok, detail = False, f"replay error: {exc}"
        if faults:
            ok, detail = False, "; ".join(faults + [detail])
        results.append((anchor, ok, detail))
    return results
