"""Faults injected into routines the producer and the replay share.

The replay rebuilds certificates with the producer's own builders, so a
bug in a routine both call could pass both.  Each case patches one such
routine at every module that bound it, so that the fault acts on the
producer and on the replay alike, as a real bug would, then builds the
(11, 5) report with ``classify`` and ``certify_theorem`` and replays it.
A fault is caught when the producer stops, the chain or a theorem step
FAILs, or ``verify_report`` rejects a step; a silent fault is one the
README lists under "What the replay trusts".
"""

import dataclasses
import json
import re
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import cregcert.cli  # noqa: F401  (binds the shared routines it imports too)
from cregcert import classify, designs, hadamard, regularity, spectral, symmetry
from cregcert.certs import ResourceBudgetError
from cregcert.classify import build_report, certify_theorem, report_json, verify_report
from cregcert.codes import Code, _block_table

# the caches a faulty result would outlive its test in
_CACHES = (
    designs.enumerate_designs,
    classify.reference_code,
    spectral.krawtchouk_table,
    _block_table,
)


def _raised_f0(original):
    # f_0 of cell 0 reads 2: a codeword at distance 0 from two codewords
    def faulty(code):
        cert = original(code)
        table = [list(row) for row in cert.intersection_table]
        table[0][0] += 1
        return dataclasses.replace(cert, intersection_table=tuple(map(tuple, table)))

    return faulty


def _merged_orbits(original):
    # the two orbits of the least vertices come out as one
    def faulty(group):
        parts = original(group)
        return (tuple(sorted(parts[0] + parts[1])),) + parts[2:]

    return faulty


def _fixed_near_full_words(original):
    # words of weight m - 1 are left where they are
    def faulty(perm, mask):
        if mask.bit_count() == len(perm) - 1:
            return mask
        return original(perm, mask)

    return faulty


def _dropped_greatest_vertex(original):
    # each orbit comes out without its greatest vertex
    def faulty(start, gens):
        orbit = original(start, gens)
        return orbit - {max(orbit)}

    return faulty


def _raised_first_entry(original):
    # a'_0 one too high
    def faulty(a):
        transform = original(a)
        return (transform[0] + 1,) + transform[1:]

    return faulty


def _no_counterexample(original):
    # the index is read off the least t-subset, and no pair is compared
    def faulty(blocks, points, t):
        blocks = tuple(blocks)
        lam, pair = original(blocks, points, t)
        if pair is None:
            return lam, None
        return sum(1 for b in blocks if b & pair[0] == pair[0]), None

    return faulty


def _sift_by_the_element(original):
    # each level composes with the transversal element, not its inverse
    def faulty(self, x, start=0):
        for i in range(start, self.m):
            point = symmetry._literal_image(x, 2 * i)
            if point != 2 * i:
                entry = self.transversal[i].get(point)
                if entry is None:
                    return x, i
                x = symmetry.compose(x, entry[0])
        return None, self.m

    return faulty


def _reversed_bit_order(original):
    # point i lands at bit m - i: a coordinate relabeling of the code
    def faulty(matrix):
        code = original(matrix)
        m = code.length
        return Code(m, [int(format(w, f"0{m}b")[::-1], 2) for w in code.words])

    return faulty


def _unshifted_divisor(original):
    # lam * C(m-i, t-i) / C(k, t-i): the divisor's k not lowered by i,
    # which leaves the block count (i = 0) as it was
    def faulty(t, m, k, lam, i):
        original(t, m, k, lam, i)  # its range check
        return Fraction(lam) * comb(m - i, t - i) / comb(k, t - i)

    return faulty


def _inverted_sigma(original):
    # the permutation carrying c2 onto c1 instead
    def faulty(c1, c2):
        x = original(c1, c2)
        return None if x is None else symmetry.inverse(x)

    return faulty


# routine -> (its owner, the fault, where the fault shows)
CASES = {
    "certify_completely_regular": (regularity, _raised_f0, "replay"),
    "orbits": (symmetry, _merged_orbits, "theorem"),
    "orbit_of": (symmetry, _dropped_greatest_vertex, "producer"),
    "permute_mask": (symmetry, _fixed_near_full_words, "theorem"),
    "macwilliams_transform": (spectral, _raised_first_entry, "replay"),
    "check_t_design": (designs, _no_counterexample, "chain"),
    "code_of": (hadamard, _reversed_bit_order, "replay"),
    "lambda_i": (designs, _unshifted_divisor, "chain"),
    "find_equivalence": (symmetry, _inverted_sigma, "replay"),
    "StabilizerChain.sift": (
        symmetry.StabilizerChain,
        _sift_by_the_element,
        "producer",
    ),
}


def _inject(monkeypatch, name, owner, fault) -> None:
    attr = name.rpartition(".")[2]
    original = getattr(owner, attr)
    faulty = fault(original)
    if isinstance(owner, type):
        monkeypatch.setattr(owner, attr, faulty)
        return
    sites = [
        module
        for key, module in sorted(sys.modules.items())
        if key.startswith("cregcert") and getattr(module, attr, None) is original
    ]
    assert owner in sites
    for module in sites:
        monkeypatch.setattr(module, attr, faulty)


def _report(run, theorem) -> dict:
    return json.loads(report_json(build_report(run, theorem)))


def _where_it_shows(genuine: dict) -> str:
    try:
        run = classify.classify(11, 5)
        if not run.passed:
            return "chain"
        theorem = certify_theorem(11, 5)
    except (AssertionError, ResourceBudgetError):
        return "producer"
    if not all(cert.passed for cert in theorem):
        return "theorem"
    report = _report(run, theorem)
    if not all(ok for _, ok, _ in verify_report(report)):
        return "replay"
    # a fault that leaves the report as it was tests nothing
    return "silent" if report != genuine else "inert"


@pytest.fixture(scope="module")
def genuine():
    return _report(classify.classify(11, 5), certify_theorem(11, 5))


@pytest.fixture
def fresh_caches():
    for cache in _CACHES:
        cache.cache_clear()
    yield
    for cache in _CACHES:
        cache.cache_clear()


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_shared_fault_shows_where_expected(name, genuine, fresh_caches, monkeypatch):
    owner, fault, expected = CASES[name]
    _inject(monkeypatch, name, owner, fault)
    assert _where_it_shows(genuine) == expected


def test_the_readme_lists_exactly_the_silent_faults():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## What the replay trusts", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `([\w.]+)`", section, flags=re.M))
    assert listed == {name for name, case in CASES.items() if case[2] == "silent"}
