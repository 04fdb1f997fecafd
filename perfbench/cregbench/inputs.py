"""Seeded code files for the analyze workload and their independent oracle.

Every code in the batch is an image under a seeded random graph
automorphism (a flip mask, then a coordinate permutation) of a code
drawn from a fixed population.  Half of the population are the two
reference codes, rebuilt here from the Paley construction, not taken
from cregcert.  The other half are random codes of length 11 or 12 with
sizes on a fixed schedule, drawn once from ``POPULATION_SEED``.  Every
quantity the program's work depends on (covering radius, outer
distribution, distinct packing rows) is invariant under graph
automorphisms, so every seed asks for the same work, while the seed
changes every word of every input file.

The oracle is vectorized numpy for the outer distribution and a sympy
rank test for the packing identity: the same facts, computed by a route
that shares no code with the program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

RANDOM_SIZES = (8, 128)
# the random codes' cost varies widely from code to code; drawing them
# from a seed of their own keeps that variation out of the run-to-run spread
POPULATION_SEED = 0


def hadamard12_words() -> list[int]:
    """The (12, 24, 6) code: rows of a Paley Hadamard matrix of order 12
    and their negatives, with -1 read as bit 1."""
    q = 11
    residues = {(x * x) % q for x in range(1, q)}

    def chi(x: int) -> int:
        x %= q
        return 0 if x == 0 else (1 if x in residues else -1)

    # H = I + S with S skew: border row of ones, border column of minus ones
    rows = [[1] * (q + 1)]
    for i in range(q):
        rows.append([-1] + [chi(j - i) + (1 if i == j else 0) for j in range(q)])
    words = []
    for row in rows:
        mask = sum(1 << i for i, v in enumerate(row) if v < 0)
        words.extend((mask, mask ^ ((1 << 12) - 1)))
    return sorted(words)


def punctured(words: list[int]) -> list[int]:
    """Delete coordinate 1 (bit 0)."""
    return sorted({w >> 1 for w in words})


def random_automorphism_image(words, m: int, rng: random.Random) -> list[int]:
    flips = rng.getrandbits(m)
    perm = list(range(m))
    rng.shuffle(perm)
    out = []
    for w in words:
        w ^= flips
        out.append(sum(1 << perm[i] for i in range(m) if (w >> i) & 1))
    return sorted(out)


def format_code(m: int, words) -> str:
    lines = [f"m={m}"]
    lines.extend("".join("1" if (w >> i) & 1 else "0" for i in range(m)) for w in words)
    return "\n".join(lines) + "\n"


def make_codes(seed: int, count: int) -> list[tuple[int, list[int]]]:
    """``count`` (length, words) pairs: seeded automorphism images of a
    fixed population, shuffled by seed."""
    population = random.Random(POPULATION_SEED)
    rng = random.Random(seed)
    code12 = hadamard12_words()
    refs = {12: code12, 11: punctured(code12)}
    images = count // 2
    randoms = count - images
    codes = []
    for k in range(images):
        m = 12 if k % 2 == 0 else 11
        codes.append((m, random_automorphism_image(refs[m], m, rng)))
    lo, hi = RANDOM_SIZES
    for k in range(randoms):
        m = 12 if k % 2 == 0 else 11
        size = lo + round((hi - lo) * k / max(randoms - 1, 1))
        words = population.sample(range(1 << m), size)
        codes.append((m, random_automorphism_image(words, m, rng)))
    rng.shuffle(codes)
    return codes


def _rank(rows: np.ndarray) -> int:
    """Exact rank over the rationals; rank(A) = rank(A^T A) for real A,
    and the Gram matrix is only (rho + 2) square."""
    gram = rows.T @ rows
    entries = [[ZZ(int(v)) for v in row] for row in gram]
    return DomainMatrix(entries, gram.shape, ZZ).rank()


def oracle(m: int, words) -> dict:
    """Expected analysis facts of one code."""
    w = np.asarray(words, dtype=np.int64)
    vertices = np.arange(1 << m, dtype=np.int64)
    dist = np.bitwise_count(vertices[:, None] ^ w[None, :]).astype(np.int64)
    to_code = dist.min(axis=1)
    rho = int(to_code.max())
    # outer distribution: f_k(v) = #codewords at distance k from v
    cells = (vertices[:, None] * (m + 1) + dist).ravel()
    outer = np.bincount(cells, minlength=(1 << m) * (m + 1)).reshape(1 << m, m + 1)
    completely_regular = True
    for i in range(rho + 1):
        rows = outer[to_code == i]
        completely_regular = completely_regular and bool((rows == rows[0]).all())
    pair = np.bitwise_count(w[:, None] ^ w[None, :]).ravel()
    counts = np.bincount(pair, minlength=m + 1)
    # packing identity sum_k lambda_k f_k(v) = 1 for all v: solvable iff
    # appending the all-ones column leaves the rank unchanged
    prefixes = outer[:, : rho + 1]
    augmented = np.hstack([prefixes, np.ones((1 << m, 1), dtype=np.int64)])
    word_set = set(int(x) for x in words)
    full = (1 << m) - 1
    return {
        "covering_radius": rho,
        "cell_sizes": [int(c) for c in np.bincount(to_code, minlength=rho + 1)],
        "distance_distribution": [str(Fraction(int(c), len(words))) for c in counts],
        "antipodal": all((full ^ x) in word_set for x in word_set),
        "completely_regular": completely_regular,
        "uniformly_packed": _rank(prefixes) == _rank(augmented),
    }


ANALYSIS_KEYS = ("covering_radius", "cell_sizes", "distance_distribution", "antipodal", "uniformly_packed")


def analysis_mismatches(report: dict, expected: dict) -> list[str]:
    return [
        f"{key}: program {report.get(key)!r}, oracle {expected[key]!r}"
        for key in ANALYSIS_KEYS
        if report.get(key) != expected[key]
    ]
