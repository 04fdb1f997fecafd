"""The automorphism group of H(m, 2) and searches inside it.

An automorphism is a coordinate-flip mask followed by a coordinate
permutation (the full group is the semidirect product of the 2^m flips
with S_m).  This module provides the group arithmetic, stabilizer chains
(Schreier–Sims in Knuth's form, each (orbit point, generator) pair
followed once: exact order and membership, every chain held to
``ELEMENT_BUDGET`` on its order), orbit computations, setwise
stabilizers of block families by base-point backtracking with orbit
pruning (the generators are the search's own picks, less those the
others make redundant), full code automorphism groups, and the search
for a coordinate permutation carrying one code onto another.  Every
search runs on a ``BlockFamily``, indexed and colour-refined once, whose
count holds the searches of one call to ``MATCHER_BUDGET``.  Groups are
generators and a stabilizer chain.

Composition convention, fixed globally: ``compose(x, y)`` means "apply
x first, then y", matching right-action exponent notation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import prod
from typing import Iterable, NamedTuple, Sequence

from .certs import ResourceBudgetError
from .codes import Code
from .hamming import ASCII_SPACE, LengthError, format_mask, parse_mask

# the largest group order any chain may reach; the certificates need
# 190,080 (length 12) and 7,920 (length 11)
ELEMENT_BUDGET = 10**6
# the most generators a replayed group witness may list; the producer
# lists 27 at length 12 and 26 at length 11
GENERATOR_BUDGET = 64
# the most tests the matcher searches of one code_automorphism_group or
# find_equivalence call may make: a containment test of a partial block
# against a destination block counts one, a colour refinement round
# blocks x points; the certificates need 74,840 (length 12), 43,249
# (length 11) and 1,713 (the equivalence)
MATCHER_BUDGET = 10**7


class GraphAutomorphism(NamedTuple):
    """Flip mask applied first, then the coordinate permutation.

    ``perm[i] = j`` moves coordinate i+1 to position j+1 (0-based
    internally, 1-based in the text format).
    """

    flips: int
    perm: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.perm)

    def __str__(self) -> str:
        return format_automorphism(self)


def identity(m: int) -> GraphAutomorphism:
    return GraphAutomorphism(0, tuple(range(m)))


def permute_mask(perm: Sequence[int], mask: int) -> int:
    """Move bit i to bit perm[i].

    Walks the set bits only, so it needs 0 <= mask < 2^len(perm): a
    negative mask never runs out of bits, and a bit at len(perm) or above
    indexes past perm.  Every caller passes a range-checked word.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def permute_mask_inv(perm: Sequence[int], mask: int) -> int:
    """Move bit perm[i] to bit i (the inverse permutation, no lookup table)."""
    out = 0
    for i, p in enumerate(perm):
        if (mask >> p) & 1:
            out |= 1 << i
    return out


def apply_mask(x: GraphAutomorphism, mask: int) -> int:
    return permute_mask(x.perm, mask ^ x.flips)


def compose(x: GraphAutomorphism, y: GraphAutomorphism) -> GraphAutomorphism:
    """apply x first, then y."""
    xp, yp = x.perm, y.perm
    perm = tuple(yp[p] for p in xp)
    # the flips of y pulled back through x's permutation
    flips = x.flips ^ permute_mask_inv(xp, y.flips)
    return GraphAutomorphism(flips, perm)


def inverse(x: GraphAutomorphism) -> GraphAutomorphism:
    perm = [0] * len(x.perm)
    for i, p in enumerate(x.perm):
        perm[p] = i
    return GraphAutomorphism(permute_mask(x.perm, x.flips), tuple(perm))


def format_automorphism(x: GraphAutomorphism) -> str:
    mask = format_mask(x.flips, x.degree)
    images = " ".join(str(p + 1) for p in x.perm)
    return f"{mask}|{images}"


def parse_automorphism(text: str) -> GraphAutomorphism:
    try:
        mask_part, perm_part = text.strip(ASCII_SPACE).split("|")
    except ValueError:
        raise ValueError(f"expected '<mask>|<images>', got {text!r}") from None
    flips, m = parse_mask(mask_part)
    images = []
    # tokens split at ASCII whitespace only, so a non-ASCII space stays
    # inside its token; int() alone would take signs, "_" and non-ASCII digits
    for tok in re.findall(f"[^{ASCII_SPACE}]+", perm_part):
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"invalid image {tok!r} in {perm_part!r}")
        images.append(int(tok) - 1)
    if sorted(images) != list(range(m)):
        raise ValueError(f"not a permutation of 1..{m}: {perm_part!r}")
    return GraphAutomorphism(flips, tuple(images))


@dataclass(frozen=True)
class GroupHandle:
    """A subgroup of the graph automorphism group, given by generators.

    A closed handle (``closure`` and the searches built on it) carries a
    stabilizer chain that certifies the order and answers membership;
    ``order`` reads the chain and raises ValueError on a handle never
    closed.  The chain is derived data, so it takes no part in equality
    or hashing.
    """

    length: int
    generators: tuple[GraphAutomorphism, ...]
    chain: StabilizerChain | None = field(default=None, repr=False, compare=False)

    @property
    def order(self) -> int:
        if self.chain is None:
            raise ValueError("group closure has not been computed")
        return self.chain.order


def _literal_image(x: GraphAutomorphism, literal: int) -> int:
    """Image of literal 2i+b (coordinate i holding bit b): x sends it to
    coordinate perm[i] holding bit b ^ flip_i."""
    i = literal >> 1
    return 2 * x.perm[i] | ((literal ^ (x.flips >> i)) & 1)


class StabilizerChain:
    """A base and strong generating set, built by deterministic Schreier–Sims.

    Level i is the subgroup fixing the literals 0, 2, ..., 2i-2 (coordinates
    1..i holding bit 0).  It keeps its strong generators and the orbit of
    its base literal 2i, each orbit point with a transversal element
    carrying the base literal there and that element's inverse.  An
    automorphism is determined by the images of the m base literals, so the
    base is complete for every subgroup: the order is the product of the
    orbit lengths, and x is a member iff sifting strips it to the identity.
    As in Knuth ("Efficient representation of perm groups", Combinatorica
    11, 1991), each (orbit point, strong generator) pair of a level is
    followed once, when it first exists, and the next level absorbs its
    Schreier generator at once; so every level is complete when ``add``
    returns.  Products go through ``compose`` and ``inverse``.
    """

    def __init__(self, m: int, generators: Iterable[GraphAutomorphism] = ()):
        self.m = m
        e = identity(m)
        self.strong: list[list[GraphAutomorphism]] = [[] for _ in range(m)]
        self.transversal: list[dict[int, tuple[GraphAutomorphism, GraphAutomorphism]]] = [
            {2 * i: (e, e)} for i in range(m)
        ]
        for g in generators:
            self.add(g)

    @property
    def order(self) -> int:
        return prod(len(t) for t in self.transversal)

    def sift(self, x: GraphAutomorphism, start: int) -> tuple[GraphAutomorphism | None, int]:
        """Strip x level by level from ``start``: (None, m) for a member,
        else the residue and the level whose orbit misses its base image."""
        for i in range(start, self.m):
            point = _literal_image(x, 2 * i)
            if point != 2 * i:
                entry = self.transversal[i].get(point)
                if entry is None:
                    return x, i
                x = compose(x, entry[1])
        return None, self.m

    def __contains__(self, x: GraphAutomorphism) -> bool:
        return self.sift(x, 0)[0] is None

    def add(self, x: GraphAutomorphism) -> bool:
        """Extend the group by x; False when x is already a member.
        Raises ResourceBudgetError once the completed order exceeds
        ELEMENT_BUDGET."""
        if x.degree != self.m:
            raise LengthError(f"automorphism degree {x.degree} vs chain length {self.m}")
        added = self._absorb(x, 0)
        if self.order > ELEMENT_BUDGET:
            raise ResourceBudgetError(
                f"group order {self.order} exceeds the element budget "
                f"of {ELEMENT_BUDGET}"
            )
        return added

    def _absorb(self, x: GraphAutomorphism, start: int) -> bool:
        """Sift x from level ``start``; its residue, which fixes the base
        literals of the levels before its own, becomes a strong generator
        of levels start..level, the deepest first.  False for a member."""
        residue, level = self.sift(x, start)
        if residue is None:
            return False
        for i in range(level, start - 1, -1):
            self._extend(i, residue)
        return True

    def _extend(self, i: int, s: GraphAutomorphism) -> None:
        """Append s to level i's strong generators, then follow every new
        (orbit point, generator) pair: a new image joins the orbit, an old
        one closes a Schreier generator, which level i+1 absorbs (so the
        recursion only descends, at most 2m frames deep)."""
        strong, transversal = self.strong[i], self.transversal[i]
        strong.append(s)
        work = [(point, s) for point in transversal]
        # the loop also visits the pairs appended as the orbit grows
        for point, g in work:
            image = _literal_image(g, point)
            u = compose(transversal[point][0], g)
            if image in transversal:
                self._absorb(compose(u, transversal[image][1]), i + 1)
            else:
                transversal[image] = (u, inverse(u))
                work.extend((image, h) for h in strong)


def closure(gens: Iterable[GraphAutomorphism], m: int) -> GroupHandle:
    """The subgroup of length ``m`` generated by the given automorphisms,
    as a stabilizer chain: exact order and membership.  The generators are
    kept as given (the chain skips members); past ELEMENT_BUDGET the chain
    raises ResourceBudgetError.
    """
    gens = tuple(gens)
    return GroupHandle(m, gens, StabilizerChain(m, gens))


def orbit_of(start: int, gens: Sequence[GraphAutomorphism]) -> frozenset[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for mask in frontier:
            for g in gens:
                image = apply_mask(g, mask)
                if image not in seen:
                    seen.add(image)
                    fresh.append(image)
        frontier = fresh
    return frozenset(seen)


def orbits(group: GroupHandle) -> tuple[tuple[int, ...], ...]:
    """Partition of all 2^m vertices into orbits under the generators.

    Deterministic output: orbits are listed by ascending least element
    (which is the representative) and each orbit is sorted.
    """
    seen: set[int] = set()
    result = []
    for start in range(1 << group.length):
        if start in seen:
            continue
        orbit = orbit_of(start, group.generators)
        seen |= orbit
        result.append(tuple(sorted(orbit)))
    return tuple(result)


# ---------------------------------------------------------------------------
# Backtracking over coordinate permutations: family stabilizers and matchings
# ---------------------------------------------------------------------------


class BlockFamily:
    """A block family indexed for the permutation backtracking: its sorted
    distinct blocks, their sizes, the blocks through each point, and the
    point colours refined once from that incidence.

    ``tests`` counts the work of one group or equivalence search, held to
    MATCHER_BUDGET: each refinement round charges blocks x points, each
    containment test of a partial block against a destination block one.
    A ``destination`` family charges its rounds here as they run; a
    search charges the count of any other destination when it starts.
    """

    def __init__(self, blocks: Iterable[int], m: int):
        self._index(blocks, m, self.charge)

    def destination(self, blocks: Iterable[int]) -> BlockFamily:
        """A family on the same points, refined under this family's count."""
        dst = BlockFamily.__new__(BlockFamily)
        dst._index(blocks, self.m, self.charge)
        return dst

    def _index(self, blocks: Iterable[int], m: int, charge) -> None:
        self.m, self.tests = m, 0
        self.blocks = tuple(sorted(set(blocks)))
        self.block_set = frozenset(self.blocks)
        members = [[p for p in range(m) if (b >> p) & 1] for b in self.blocks]
        self.sizes = [len(pts) for pts in members]
        self.by_size: dict[int, list[int]] = {}
        self.through: list[list[int]] = [[] for _ in range(m)]
        for bi, pts in enumerate(members):
            self.by_size.setdefault(len(pts), []).append(self.blocks[bi])
            for p in pts:
                self.through[p].append(bi)
        # to a fixpoint, a point's signature combines its colour with the
        # multiset of the member-colour multisets of the blocks through it
        colors, fresh = None, [0] * m
        while fresh != colors:
            colors = fresh
            block_sigs = [tuple(sorted(colors[p] for p in pts)) for pts in members]
            sigs = [
                (colors[p], tuple(sorted(block_sigs[bi] for bi in self.through[p])))
                for p in range(m)
            ]
            remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
            fresh = [remap[s] for s in sigs]
            charge(len(self.blocks) * m)
        self.colors = colors
        self.cells = {c: [p for p in range(m) if colors[p] == c] for c in set(colors)}

    def charge(self, tests: int) -> None:
        self.tests += tests
        if self.tests > MATCHER_BUDGET:
            raise ResourceBudgetError(
                f"the matcher searches made {self.tests} tests, "
                f"past the matcher budget of {MATCHER_BUDGET}"
            )

    def matches(self, dst: BlockFamily, prefix: Sequence[int]):
        """Yield image tuples, one per permutation mapping this family onto
        ``dst``, in lexicographic order; point i < len(prefix) is pinned
        to prefix[i].

        Points are assigned in ascending order, each to a point of its
        colour; a candidate image survives only while every partially
        mapped block still fits inside some destination block of its size
        (exactly equal once complete).
        """
        if dst is not self:
            self.charge(dst.tests)
        # block sizes, not counts: no feasibility test visits an empty block
        mismatch = sorted(self.sizes) != sorted(dst.sizes)
        if mismatch or sorted(self.colors) != sorted(dst.colors):
            return
        m, sizes, through = self.m, self.sizes, self.through
        image = [0] * m
        partial = [0] * len(self.blocks)
        free = list(sizes)
        used = 0

        def feasible(bi: int) -> bool:
            pmask = partial[bi]
            if free[bi] == 0:
                return pmask in dst.block_set
            targets = dst.by_size.get(sizes[bi], ())
            for n, d in enumerate(targets, 1):
                if pmask & ~d == 0:
                    self.charge(n)
                    return True
            self.charge(len(targets))
            return False

        def extend(p: int):
            nonlocal used
            if p == m:
                yield tuple(image)
                return
            candidates = dst.cells.get(self.colors[p], ())
            if p < len(prefix):
                candidates = (prefix[p],) if prefix[p] in candidates else ()
            for q in candidates:
                bit = 1 << q
                if used & bit:
                    continue
                image[p] = q
                used |= bit
                for bi in through[p]:
                    partial[bi] |= bit
                    free[bi] -= 1
                if all(feasible(bi) for bi in through[p]):
                    yield from extend(p + 1)
                for bi in through[p]:
                    partial[bi] &= ~bit
                    free[bi] += 1
                used &= ~bit

        yield from extend(0)


def find_family_isomorphism(
    src: BlockFamily, dst: BlockFamily
) -> tuple[int, ...] | None:
    """One permutation mapping the source block family onto the
    destination family, or None when the exhausted search proves there
    is none."""
    return next(src.matches(dst, ()), None)


def setwise_stabilizer_perms(family: BlockFamily) -> GroupHandle:
    """The coordinate permutations preserving the block family setwise, as
    a stabilizer chain and reduced generators.

    Base-point backtracking from the last base point down: with the chain
    at the stabilizer of points 0..d, each image of point d outside its
    level-d orbit gets one search for the least element fixing points
    0..d-1 and sending d there.  Every candidate is in the orbit or
    searched exhaustively, so the order is exact, and the chain stops the
    search once the order passes ELEMENT_BUDGET.  Each element a search
    adds is the lexicographically least one outside the group found so
    far; the generators are those picks, less each one, in order, that
    the others do not need.  Each is checked to map the family onto
    itself.
    """
    if not family.blocks:
        raise ValueError("the block family must be nonempty")
    m = family.m
    group = StabilizerChain(m)
    gens: list[GraphAutomorphism] = []
    orbit_lengths = []
    for d in range(m - 1, -1, -1):
        for q in family.cells[family.colors[d]]:
            if 2 * q in group.transversal[d]:
                continue
            perm = next(family.matches(family, tuple(range(d)) + (q,)), None)
            if perm is not None:
                gens.append(GraphAutomorphism(0, perm))
                group.add(gens[-1])
        orbit_lengths.append(len(group.transversal[d]))
    if prod(orbit_lengths) != group.order:
        raise AssertionError("a searched level's orbit grew afterwards")
    for g in list(gens):
        rest = [h for h in gens if h != g]
        if rest and StabilizerChain(m, rest).order == group.order:
            gens = rest
    blocks = family.block_set
    if any({permute_mask(g.perm, b) for b in blocks} != blocks for g in gens):
        raise AssertionError("a generator does not stabilize the family")
    return GroupHandle(m, tuple(gens), group)


def code_automorphism_group(code: Code) -> GroupHandle:
    """The setwise stabilizer of the code in the graph automorphism group.

    Computed as: the permutation stabilizer of the (zero-shifted) word
    family, one transversal element mapping the zero word to each
    reachable codeword, then the stabilizer chain of all of them, as
    ``closure`` builds it for a replayed witness.  The chain order must
    equal the stabilizer order times the orbit length of the least word.
    One indexed source family serves every search, and carries their
    count.
    """
    m = code.length
    base = code.words[0]
    shifted = tuple(w ^ base for w in code.words)
    family = BlockFamily(shifted, m)
    stab = setwise_stabilizer_perms(family)

    transversals: list[GraphAutomorphism] = []
    for beta in shifted[1:]:
        dst = family.destination(w ^ beta for w in shifted)
        perm = find_family_isomorphism(family, dst)
        if perm is None:
            continue
        x = GraphAutomorphism(permute_mask_inv(perm, beta), perm)
        if apply_mask(x, 0) != beta:
            raise AssertionError("transversal does not map 0 to its target")
        transversals.append(x)

    # the pure translation by the least word is an involution carrying
    # the shifted family back onto the original code
    shift = GraphAutomorphism(base, tuple(range(m)))
    gens = stab.generators + tuple(transversals)
    generators = tuple(compose(compose(shift, x), shift) for x in gens)
    closed = closure(generators, m)
    if closed.order != stab.order * len(orbit_of(base, generators)):
        raise AssertionError("closure order is not stabilizer order times orbit length")
    for g in generators:
        image = {apply_mask(g, w) for w in code.words}
        if image != set(code.words):
            raise AssertionError("generator does not stabilize the code")
    return closed


def find_equivalence(c1: Code, c2: Code) -> GraphAutomorphism | None:
    """A coordinate permutation mapping c1 onto c2 (as a flip-free
    automorphism), or a certified absence of one.

    One matcher search, which refuses codes of unequal size or point
    colours before backtracking; the backtracking is exhaustive, so None
    means no permutation maps c1 onto c2.  Equivalences that also flip
    coordinates are not searched: the classification's witness sigma is
    a permutation.
    """
    if c1.length != c2.length:
        raise LengthError(f"length mismatch: {c1.length} vs {c2.length}")
    src = BlockFamily(c1.words, c1.length)
    perm = find_family_isomorphism(src, src.destination(c2.words))
    return None if perm is None else GraphAutomorphism(0, perm)
