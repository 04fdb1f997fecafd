"""t-designs on small point sets: verification, parameter arithmetic
and isomorph-free exhaustive enumeration.

Blocks are bitmasks over the point set (point i at bit i-1), and a
design's canonical labeling is the one whose sorted-descending
block-bitmask sequence is lexicographically greatest over all point
relabelings.  Enumeration is orderly generation: blocks are added in
strictly decreasing bitmask order; a new partial solution gets one
feasibility test, ``horizon``, and only a feasible one asks the one
canonicity function, ``blocks_are_canonical``, and is pruned on a
proven-greater relabeling, since the cheap test discards most prefixes;
a complete solution is kept only when proved canonical, so one
representative per class survives.  For t >= 3 a search opens with the
star of the top point, one per derived (t-1)-design class (Kaski &
Östergård, *Classification Algorithms for Codes and Designs*, 2006).
The search's three budgets are the module constants ``BLOCK_BUDGET``,
``TABLE_BUDGET`` and ``CANON_NODE_BUDGET``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .certs import ResourceBudgetError
from .hamming import check_length


@dataclass(frozen=True)
class Design:
    """A verified t-(points, block_size, lam) design, blocks as bitmasks."""

    points: int
    block_size: int
    strength: int
    lam: int
    blocks: tuple[int, ...]

    @classmethod
    def verified(cls, blocks, points: int, strength: int) -> "Design":
        """The distinct blocks as a design; by double counting, every family
        ``check_t_design`` accepts has b = lam * C(points, t) / C(k, t)."""
        blocks = tuple(sorted({int(b) for b in blocks}))
        if not blocks:
            raise ValueError("a design needs at least one block")
        lam, counterexample = check_t_design(blocks, points, strength)
        k = blocks[0].bit_count()
        if lam is None:
            raise ValueError(
                f"not a {strength}-design: subsets {counterexample} are covered "
                "a different number of times"
            )
        return cls(points, k, strength, lam, blocks)

    def block_point_lists(self) -> list[list[int]]:
        return [
            [i + 1 for i in range(self.points) if (b >> i) & 1] for b in self.blocks
        ]

    def to_text(self) -> str:
        lines = [
            f"points={self.points} k={self.block_size} t={self.strength} "
            f"lambda={self.lam}"
        ]
        for pts in self.block_point_lists():
            lines.append(" ".join(str(p) for p in pts))
        return "\n".join(lines) + "\n"


def check_t_design(blocks, points: int, t: int):
    """Return (lam, None) if every t-subset is covered the same number of
    times, else (None, (a, b)): the least t-subset mask and the least one
    covered otherwise.  Blocks of unequal sizes, or with a point past
    ``points``, raise ValueError."""
    blocks = tuple(blocks)
    sizes = {b.bit_count() for b in blocks}
    if len(sizes) != 1:
        raise ValueError(f"blocks have unequal sizes {sorted(sizes)}")
    if max(blocks) >> points:
        raise ValueError(f"a block has a point past the {points} points")
    k = sizes.pop()
    if not 0 <= t <= k:
        raise ValueError(f"strength {t} out of range 0..{k}")
    counts = Counter(
        sum(sub)
        for b in blocks
        for sub in combinations([1 << i for i in range(points) if (b >> i) & 1], t)
    )
    first, *rest = sorted(map(sum, combinations([1 << i for i in range(points)], t)))
    lam = counts[first]
    for sub in rest:
        if counts[sub] != lam:
            return None, (first, sub)
    return lam, None


def lambda_i(t: int, m: int, k: int, lam, i: int) -> Fraction:
    """The derived index of the induced i-design: lam * C(m-i, t-i) / C(k-i, t-i).

    Exact rational; integrality is the caller's separate feasibility check.
    """
    if not 0 <= i <= t:
        raise ValueError(f"index {i} out of range 0..{t}")
    return Fraction(lam) * comb(m - i, t - i) / comb(k - i, t - i)


def block_count(t: int, m: int, k: int, lam) -> Fraction:
    """b = lam * C(m, t) / C(k, t), the i = 0 case of the index arithmetic."""
    return lambda_i(t, m, k, lam, 0)


# ---------------------------------------------------------------------------
# Canonicity: the sorted-descending block-bitmask sequence is compared
# lexicographically over all point relabelings; the canonical labeling of a
# design is the greatest.  Descending order makes every block through the
# top point rank ahead of all others, so a canonical sequence opens with
# the top point's star: the top bit added to a derived design's blocks.  A
# relabeling of the other points that raised that prefix would raise the
# whole sequence, so the derived design is itself canonical, and
# generation opens with the derived representatives instead of testing
# every prefix of the star.  The orderly search asks about a prefix only
# once it passed the feasibility test.  The search below:
# - keeps label sets runs of bits in descending order (a commitment only
#   splits a run into its top c bits and the rest);
# - tries the newest block first: if the prefix P was accepted, a relabeling
#   beating P+[x] brings x into the image prefix (else sorted(pi(P)) > P);
# - backjumps on the first path: two equal leaves give an automorphism that
#   maps the later one's subtree, at the level where the paths first differ,
#   onto the first one's, already searched.
# ---------------------------------------------------------------------------


def blocks_are_canonical(blocks, m: int, node_budget: int | None = None) -> bool | None:
    """Whether no relabeling gives the block family a greater sequence:
    True/False when decided, None when the node budget ran out.

    Callers must treat an undecided partial solution as possibly
    canonical (and keep it); soundness of pruning only ever relies on
    proven-greater verdicts.  Refuting is cheap and proving is not: with
    no budget, and canonicity tested before feasibility, the 6,843
    tests of the 3-(12,6,2) search (its derived 2-(11,5,2) search
    included) refuted in a median of 8 nodes, 101 at the 99th
    percentile, while 90% of all 2.7M nodes went into proving canonical
    prefixes, 14 of which took 38k to 712k nodes each.

    Prefix-pruned search over which block realizes each image position.
    The partial relabeling is a partition of old points against new-label
    runs, refined on every commitment: a group ``(points, labels, top)``
    holds the labels just below bit ``top``, so a block's maximum image per
    group is ``(1 << top) - (1 << (top - c))``, never a branch, and the scan
    stops at the first group where it and the target disagree.  A spent
    budget unwinds the search as a greater image does, flagged undecided.
    """
    blocks = tuple(blocks)
    r = len(blocks)
    full = (1 << m) - 1
    used = [False] * r
    order = (r - 1, *range(r - 1))  # newest block first
    # any bijection respecting every group realizes the commitments so far
    groups: list[tuple[int, int, int]] = [(full, full, m)]
    path = [0] * r
    first: list[int] | None = None
    back = r  # level to resume at after an equal leaf; r when none
    nodes, undecided = 0, False

    def stage(i: int) -> bool:
        nonlocal nodes, groups, first, back, undecided
        if i == r:  # image equals the sequence: nothing greater here
            if first is None:
                first = path[:]
            else:
                back = next(j for j in range(r) if path[j] != first[j])
            return False
        target = blocks[i]
        gs = groups
        for bi in order:
            if used[bi]:
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                undecided = True
                return True
            block = blocks[bi]
            for pts, labs, top in gs:
                cg = (1 << top) - (1 << (top - (block & pts).bit_count()))
                tg = target & labs
                if cg != tg:
                    break
            if cg > tg:
                return True  # a realizable image beats the target
            if cg < tg:
                continue
            refined = []
            for pts, labs, top in gs:
                hit_p = block & pts
                if hit_p:
                    refined.append((hit_p, target & labs, top))
                if hit_p != pts:
                    low = top - hit_p.bit_count()
                    refined.append((pts ^ hit_p, labs & ~target, low))
            groups = refined
            used[bi] = True
            path[i] = bi
            found = stage(i + 1)
            groups = gs
            used[bi] = False
            if found or back < i:  # unwinding to a backjump's level
                return found
            back = r
        return False

    found = stage(0)
    return None if undecided else not found


# ---------------------------------------------------------------------------
# Orderly enumeration
# ---------------------------------------------------------------------------


# the most blocks a searched design may have
BLOCK_BUDGET = 64
# the most entries the search tables may hold
TABLE_BUDGET = 10**6
# the nodes a canonicity test of a partial solution may visit (None: no limit)
CANON_NODE_BUDGET = 100


@lru_cache(maxsize=None)
def enumerate_designs(t: int, m: int, k: int, lam: int) -> tuple[Design, ...]:
    """All t-(m, k, lam) designs up to isomorphism, one canonical
    representative each (the greatest labeling of its class).

    A prefix is tested for canonicity only after it passed the
    feasibility test, which is cheaper and discards most prefixes:
    2-(11,5,2) asks 499 canonicity questions, and 3-(12,6,2) 585 with
    its derived search (6,103 and 6,843 with canonicity tested first).
    The test only has to refute, since an undecided prefix is kept like
    a proven one, so ``CANON_NODE_BUDGET`` is sized for refutations, not
    proofs; see ``blocks_are_canonical``.  Of the budgets 20 to 30,000,
    100 is the fastest summed over 31 parameter sets, with canonicity
    tested first or last; smaller ones lose refutations and keep more
    prefixes.

    For t >= 3 a sequence opens with the top point added to the blocks
    of one representative from ``enumerate_designs(t-1, m-1, k-1, lam)``,
    which shares its cache entry with a direct call; for t <= 2 the
    greatest block opens (1-design stars measured slower there).

    The node budget bounds the tests of partial solutions only.  A
    complete solution gets an exact test and is kept only when proved
    canonical, so each class yields exactly its greatest labeling and no
    isomorphism pass is needed; an exact test of a design costs less
    than proving two designs non-isomorphic.

    Returns an empty tuple when the parameter arithmetic already rules
    the designs out (a fractional block count or derived index, or a
    derived index above the number of blocks through a subset).  Raises
    ResourceBudgetError when a design would have more than
    ``BLOCK_BUDGET`` blocks or, before building them, when the search
    tables (one coverage counter per point subset, and each candidate
    block's subsets of size 1..t) would hold more than ``TABLE_BUDGET``
    entries; both budget checks run before the derived enumeration.
    The budgets are read at each uncached call; a cached result stays
    as it was computed.
    """
    check_length(m)
    if not 0 < t <= k <= m:
        raise ValueError(f"need 0 < t <= k <= m, got t={t} k={k} m={m}")
    if lam <= 0:
        raise ValueError(f"the design index must be positive, got {lam}")
    b_exact = block_count(t, m, k, lam)
    if b_exact.denominator != 1:
        return ()
    b = int(b_exact)
    if b > BLOCK_BUDGET:
        raise ResourceBudgetError(
            f"{b} blocks exceed the enumeration block budget of {BLOCK_BUDGET}"
        )
    entries = (1 << m) + comb(m, k) * sum(comb(k, s) for s in range(1, t + 1))
    if entries > TABLE_BUDGET:
        raise ResourceBudgetError(
            f"{entries} table entries exceed the enumeration table budget of "
            f"{TABLE_BUDGET}"
        )
    # combinations of the bits from the top down come in descending order
    top_down = [1 << i for i in range(m - 1, -1, -1)]
    # need[sub]: how many more blocks must cover the subset sub of size
    # 1..t (the derived index lambda_s, less the chosen blocks through it)
    need = [0] * (1 << m)
    for s in range(1, t + 1):
        cap = lambda_i(t, m, k, lam, s)
        if cap.denominator != 1 or cap > comb(m - s, k - s):
            return ()  # not integral, or more than the blocks through sub
        for sub in combinations(top_down, s):
            need[sum(sub)] = int(cap)

    candidate_bits = list(combinations(top_down, k))
    candidates = tuple(map(sum, candidate_bits))
    # each candidate's subsets of size 1..t, largest first: those fill up
    # first, so the admission test fails on them early
    cand_subs = [
        tuple(sum(sub) for s in range(t, 0, -1) for sub in combinations(bits[::-1], s))
        for bits in candidate_bits
    ]
    # the ascending indices of the candidates covering each subset, in
    # the order the candidates first reach the subsets: those of the top
    # points come first, and their coverers run out first
    coverers: dict[int, list[int]] = {}
    for ci, subs in enumerate(cand_subs):
        for sub in subs:
            coverers.setdefault(sub, []).append(ci)
    horizon_list = tuple(coverers.items())
    chosen: list[int] = []
    complete: list[tuple[int, ...]] = []

    def can_add(ci: int) -> bool:
        for sub in cand_subs[ci]:
            if not need[sub]:
                return False
        return True

    def bump(ci: int, delta: int) -> None:
        for sub in cand_subs[ci]:
            need[sub] -= delta

    def horizon(start: int) -> int | None:
        """The last candidate the next block may be, or None when a subset
        needs more blocks than remain or than its coverers from ``start``
        on.  A subset needing d more blocks bounds the next by its d-th
        last coverer: past that, fewer coverers are left than it needs,
        whether or not the block covers it.  So the extension loop needs
        no prune of its own: a child missing a subset that needs every
        remaining block gets None, as does one with fewer candidates after
        it than blocks to come (its point deficits exceed their coverings)."""
        remaining = b - len(chosen)
        limit = len(candidates) - 1
        for sub, lst in horizon_list:
            deficit = need[sub]
            if deficit:
                if deficit > remaining:
                    return None
                last = lst[-deficit]
                if last < start:
                    return None
                if last < limit:
                    limit = last
        return limit

    def descend(start: int) -> None:
        """Keep the prefix in ``chosen`` if it passes the feasibility test
        and then canonicity; extend it by each fitting candidate up to the limit."""
        if len(chosen) == b:
            # b admitted blocks cover the t-subsets b * C(k, t) =
            # lam * C(m, t) times, none past lam: a design, kept only when
            # proved canonical, so that it is the one kept of its class
            if blocks_are_canonical(tuple(chosen), m):
                complete.append(tuple(chosen))
            return
        limit = horizon(start)
        if limit is None:
            return
        # a one-block prefix is an opening, the greatest block
        if len(chosen) > 1 and (
            blocks_are_canonical(tuple(chosen), m, CANON_NODE_BUDGET) is False
        ):
            return
        for ci in range(start, limit + 1):
            if not can_add(ci):
                continue
            bump(ci, 1)
            chosen.append(candidates[ci])
            descend(ci + 1)
            chosen.pop()
            bump(ci, -1)

    if t <= 2:
        openings = [(candidates[0],)]  # only the greatest block
    else:
        # the top point's canonical stars: the top bit added to each
        # representative of the derived design
        top = 1 << (m - 1)
        openings = [
            tuple(top | d for d in reversed(derived.blocks))
            for derived in enumerate_designs(t - 1, m - 1, k - 1, lam)
        ]
    for opening in openings:
        opened = [candidates.index(block) for block in opening]
        for ci in opened:
            assert can_add(ci)  # an opening covers nothing past its caps
            bump(ci, 1)
            chosen.append(candidates[ci])
        descend(opened[-1] + 1)
        for ci in opened:
            bump(ci, -1)
        chosen.clear()

    # every class contains its canonical (greatest) labeling, which is
    # never pruned and is the only one of its class proved canonical
    return tuple(Design.verified(sol, m, t) for sol in sorted(complete, reverse=True))
