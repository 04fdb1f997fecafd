"""The automorphism group of H(m, 2) and searches inside it.

An automorphism is a coordinate-flip mask followed by a coordinate
permutation (the full group is the semidirect product of the 2^m flips
with S_m).  This module provides the group arithmetic, stabilizer
chains (deterministic Schreier–Sims: exact order and membership, every
chain held to ``ELEMENT_BUDGET`` on its order), orbit computations, setwise
stabilizers of block families by base-point backtracking with orbit
pruning, full code automorphism groups, and the search for a
coordinate permutation carrying one code onto another.  Every group is
held as generators and a stabilizer chain.

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
    """Move bit i to bit perm[i]."""
    out = 0
    for i, p in enumerate(perm):
        if (mask >> i) & 1:
            out |= 1 << p
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

    Level i is the subgroup fixing the literals 0, 2, ..., 2i-2
    (coordinates 1..i holding bit 0).  It keeps its strong generators and
    the orbit of its base literal 2i, each orbit point with a transversal
    element carrying the base literal there and that element's inverse.
    An automorphism is determined by the images of the m base literals,
    so the base is complete for every subgroup: the order is the product
    of the orbit lengths, and x is a member iff sifting strips it to the
    identity.  All products go through ``compose`` and ``inverse``.
    """

    def __init__(self, m: int, generators: Iterable[GraphAutomorphism] = ()):
        self.m = m
        e = identity(m)
        self.strong: list[list[GraphAutomorphism]] = [[] for _ in range(m)]
        self.transversal: list[dict[int, tuple[GraphAutomorphism, GraphAutomorphism]]] = [
            {2 * i: (e, e)} for i in range(m)
        ]
        # (orbit point, generator index) pairs whose Schreier generator is
        # known to lie in the next level's group
        self._tested: list[set[tuple[int, int]]] = [set() for _ in range(m)]
        for g in generators:
            self.add(g)

    @property
    def order(self) -> int:
        return self.stabilizer_order(0)

    def stabilizer_order(self, level: int) -> int:
        """Order of level ``level``: the subgroup fixing its earlier base literals."""
        return prod(len(t) for t in self.transversal[level:])

    def sift(
        self, x: GraphAutomorphism, start: int = 0
    ) -> tuple[GraphAutomorphism | None, int]:
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
        return self.sift(x)[0] is None

    def add(self, x: GraphAutomorphism) -> bool:
        """Extend the group by x; False when x is already a member.
        Raises ResourceBudgetError once the completed order exceeds
        ELEMENT_BUDGET."""
        if x.degree != self.m:
            raise LengthError(f"automorphism degree {x.degree} vs chain length {self.m}")
        residue, level = self.sift(x)
        if residue is None:
            return False
        self._insert(residue, 0, level)
        # Schreier–Sims: every level deeper than i is complete whenever
        # level i is checked
        i = level
        while i >= 0:
            found = self._schreier_residue(i)
            if found is None:
                i -= 1
            else:
                residue, level = found
                self._insert(residue, i + 1, level)
                i = level
        if self.order > ELEMENT_BUDGET:
            raise ResourceBudgetError(
                f"group order {self.order} exceeds the element budget "
                f"of {ELEMENT_BUDGET}"
            )
        return True

    def _insert(self, x: GraphAutomorphism, first: int, last: int) -> None:
        """Make x a strong generator of levels first..last (it fixes the
        base literals of every level before ``last``)."""
        for i in range(first, last + 1):
            strong, transversal = self.strong[i], self.transversal[i]
            strong.append(x)
            newest = len(strong) - 1
            fresh = [
                q for p in list(transversal) if (q := self._grow(i, p, newest)) is not None
            ]
            while fresh:
                fresh = [
                    q
                    for p in fresh
                    for b in range(len(strong))
                    if (q := self._grow(i, p, b)) is not None
                ]

    def _grow(self, i: int, point: int, b: int) -> int | None:
        """Follow generator b from an orbit point; the image if it is new."""
        transversal = self.transversal[i]
        s = self.strong[i][b]
        image = _literal_image(s, point)
        if image in transversal:
            return None
        u = compose(transversal[point][0], s)
        transversal[image] = (u, inverse(u))
        # its Schreier generator is the identity
        self._tested[i].add((point, b))
        return image

    def _schreier_residue(self, i: int):
        """The first untested Schreier generator of level i that the deeper
        levels do not contain, sifted, with its level; None if there is none."""
        transversal, tested = self.transversal[i], self._tested[i]
        for point, (u, _) in transversal.items():
            for b, s in enumerate(self.strong[i]):
                if (point, b) in tested:
                    continue
                tested.add((point, b))
                back = transversal[_literal_image(s, point)][1]
                residue, level = self.sift(compose(compose(u, s), back), i + 1)
                if residue is not None:
                    return residue, level
        return None


def closure(gens: Iterable[GraphAutomorphism], m: int) -> GroupHandle:
    """The subgroup of length ``m`` generated by the given automorphisms,
    as a stabilizer chain: exact order and membership.  The chain raises
    ResourceBudgetError past ELEMENT_BUDGET.
    """
    e = identity(m)
    gens = tuple(g for g in dict.fromkeys(gens) if g != e)
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


def _refine_point_colors(family: Sequence[int], m: int) -> tuple[int, ...]:
    """Iterated point coloring from block incidence, to a fixpoint.

    A point's signature combines its current color with the multiset of
    (size, member-color multiset) signatures of the blocks through it.
    """
    blocks_through = [[] for _ in range(m)]
    members = []
    for bi, block in enumerate(family):
        pts = [i for i in range(m) if (block >> i) & 1]
        members.append(pts)
        for p in pts:
            blocks_through[p].append(bi)
    colors = [0] * m
    while True:
        block_sigs = [
            (len(pts), tuple(sorted(colors[p] for p in pts))) for pts in members
        ]
        sigs = [
            (colors[p], tuple(sorted(block_sigs[bi] for bi in blocks_through[p])))
            for p in range(m)
        ]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        fresh = [remap[s] for s in sigs]
        if fresh == colors:
            return tuple(colors)
        colors = fresh


class _FamilyMatcher:
    """Backtracking search for permutations mapping one block family
    onto another (or itself, for setwise stabilizers).

    Points are assigned in ascending order; a candidate image survives
    only while every partially-mapped source block still fits inside
    some destination block of its size (exactly equal once complete).
    """

    def __init__(self, src: Sequence[int], dst: Sequence[int], m: int):
        self.m = m
        self.src = tuple(sorted(set(src)))
        self.dst = tuple(sorted(set(dst)))
        self.dst_set = frozenset(self.dst)
        self.sizes = [b.bit_count() for b in self.src]
        self.dst_by_size: dict[int, list[int]] = {}
        for b in self.dst:
            self.dst_by_size.setdefault(b.bit_count(), []).append(b)
        self.blocks_through = [[] for _ in range(m)]
        for bi, block in enumerate(self.src):
            for i in range(m):
                if (block >> i) & 1:
                    self.blocks_through[i].append(bi)
        src_colors = _refine_point_colors(self.src, m)
        dst_colors = _refine_point_colors(self.dst, m)
        self.compatible = sorted(src_colors) == sorted(dst_colors) and len(
            self.src
        ) == len(self.dst)
        self.candidates = [
            tuple(q for q in range(m) if dst_colors[q] == src_colors[p])
            for p in range(m)
        ]

    def search(self, prefix: Sequence[int] = ()):
        """Yield image tuples (one per matching permutation) in
        lexicographic order; point i < len(prefix) is pinned to prefix[i]."""
        if not self.compatible:
            return
        m = self.m
        image = [-1] * m
        partial = [0] * len(self.src)
        free = list(self.sizes)
        used = 0

        def feasible(bi: int) -> bool:
            pmask = partial[bi]
            if free[bi] == 0:
                return pmask in self.dst_set
            for d in self.dst_by_size.get(self.sizes[bi], ()):
                if pmask & ~d == 0:
                    return True
            return False

        def extend(p: int):
            nonlocal used
            if p == m:
                yield tuple(image)
                return
            candidates = self.candidates[p]
            if p < len(prefix):
                candidates = (prefix[p],) if prefix[p] in candidates else ()
            for q in candidates:
                bit = 1 << q
                if used & bit:
                    continue
                image[p] = q
                used |= bit
                touched = self.blocks_through[p]
                for bi in touched:
                    partial[bi] |= bit
                    free[bi] -= 1
                if all(feasible(bi) for bi in touched):
                    yield from extend(p + 1)
                for bi in touched:
                    partial[bi] &= ~bit
                    free[bi] += 1
                image[p] = -1
                used &= ~bit

        yield from extend(0)


def find_family_isomorphism(
    src: Sequence[int], dst: Sequence[int], m: int
) -> tuple[int, ...] | None:
    """One permutation mapping the source block family onto the
    destination family, or None when the exhausted search proves there
    is none."""
    return next(_FamilyMatcher(src, dst, m).search(), None)


def _family_stabilizer_chain(family: Sequence[int], m: int):
    """The chain of the permutations preserving the family, from the last
    base point down: with the chain at the stabilizer of points 0..d, each
    image of point d outside its level-d orbit gets one search for an
    element fixing points 0..d-1 and sending d there.  Every candidate is
    in the orbit or searched exhaustively, so the order is exact."""
    matcher = _FamilyMatcher(family, family, m)
    chain = StabilizerChain(m)
    orbit_lengths = []
    for d in range(m - 1, -1, -1):
        for q in matcher.candidates[d]:
            if 2 * q in chain.transversal[d]:
                continue
            perm = next(matcher.search(tuple(range(d)) + (q,)), None)
            if perm is not None:
                chain.add(GraphAutomorphism(0, perm))
        orbit_lengths.append(len(chain.transversal[d]))
    if prod(orbit_lengths) != chain.order:
        raise AssertionError("a searched level's orbit grew afterwards")
    return chain


def _greedy_generators(group: StabilizerChain) -> list[GraphAutomorphism]:
    """A small generating set of a flip-free group: each lexicographically
    least element outside the subgroup H chosen so far, then, in order,
    each generator the others do not need dropped.

    The walk splits cosets of G_d, the pointwise stabilizer of points
    0..d-1, by the image of point d in ascending order.  Both chains share
    the base, so where |H_d| = |G_d| the two are equal and the coset lies
    wholly inside or outside H: only its least element is built.
    """
    m = group.m
    chosen = StabilizerChain(m)

    def split(x: GraphAutomorphism, d: int):
        level = group.transversal[d]
        for literal in sorted(level, key=lambda lit: x.perm[lit >> 1]):
            yield compose(level[literal][0], x)

    def least_outside(x: GraphAutomorphism, d: int) -> GraphAutomorphism | None:
        if chosen.stabilizer_order(d) == group.stabilizer_order(d):
            if x in chosen:
                return None
            for e in range(d, m):
                x = next(split(x, e))
            return x
        for y in split(x, d):
            if (found := least_outside(y, d + 1)) is not None:
                return found
        return None

    gens = []
    while chosen.order < group.order:
        gens.append(least_outside(identity(m), 0))
        if not chosen.add(gens[-1]):
            raise AssertionError("the coset walk returned a chosen element")
    for g in list(gens):
        rest = [h for h in gens if h != g]
        if rest and StabilizerChain(m, rest).order == group.order:
            gens = rest
    return gens


def setwise_stabilizer_perms(family: Sequence[int], m: int) -> GroupHandle:
    """The coordinate permutations preserving the block family setwise, as
    the backtracking chain and reduced generators.

    Base-point backtracking gives the chain and its exact order; the
    chain stops the search once the order passes ELEMENT_BUDGET, before
    any generator is chosen.  The generators are chosen greedily
    (``_greedy_generators``), which keeps only sets that reach the
    chain's order; each is checked to map the family onto itself.
    """
    if not family:
        raise ValueError("the block family must be nonempty")
    group = _family_stabilizer_chain(family, m)
    gens = _greedy_generators(group)
    blocks = set(family)
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
    """
    m = code.length
    base = code.words[0]
    family = tuple(w ^ base for w in code.words)
    stab = setwise_stabilizer_perms(family, m)

    transversals: list[GraphAutomorphism] = []
    for beta in family[1:]:
        perm = find_family_isomorphism(family, tuple(w ^ beta for w in family), m)
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
    return GroupHandle(m, generators, closed.chain)


def find_equivalence(c1: Code, c2: Code) -> GraphAutomorphism | None:
    """A coordinate permutation mapping c1 onto c2 (as a flip-free
    automorphism), or a certified absence of one.

    Distance distributions are compared first as an invariant filter;
    the backtracking afterwards is exhaustive, so None means no
    permutation maps c1 onto c2.  Equivalences that also flip
    coordinates are not searched: the classification's witness sigma is
    a permutation.
    """
    if c1.length != c2.length:
        raise LengthError(f"length mismatch: {c1.length} vs {c2.length}")
    if c1.size != c2.size:
        return None
    if c1.size >= 2 and c1.distance_distribution != c2.distance_distribution:
        return None
    perm = find_family_isomorphism(c1.words, c2.words, c1.length)
    return None if perm is None else GraphAutomorphism(0, perm)
