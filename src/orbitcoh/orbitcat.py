"""The orbit category of a group with respect to a family of subgroups.

Objects are coset spaces G/H for H in the family; a morphism G/H -> G/K is a
coset xK with x^-1 H x contained in K, stored by the minimal element of the
coset so that equal morphisms have equal representatives, read off K's
coset table (x |-> the least element of xK, built once per subgroup); and
x^-1 H x lies in K when x^-1 h x does for H's generators h.  Composable
sequences of morphisms ("chains") index the standard free resolution, so
their enumeration order is pinned down exactly: by starting subgroup, then
by each morphism's (target, coset representative) pair.

OrbitCategory is the one place that decides which chains index cochains.
By default it is reduced: its objects are a skeleton, one family member per
conjugacy class inside the family (the first in the family's sorted order
among the members conjugate to it), since G/H and G/xHx^-1 are isomorphic
and an equivalent category has the same functor cohomology; and its chains
are nondegenerate, made of non-identity morphisms only, which is the
normalized bar construction.  Orbit modules are built on the reduced
category, and a complex reads its module's category.  The unreduced
category, OrbitCategory(family, reduced=False), keeps every member and
every morphism, so its chains are the full nerve; a module on it (built in
the tests) gives the full reference complex.

Cochains read chains as integer face tables, each built from the one below.
The order is prefix-major: the extensions of a chain p form one run from
child[p], and a chain's last face is its parent.  For c = p + (m) of length
L + 1, face k < L is child[face_k(p)] + pos[m] (m's place among the
morphisms leaving its source); face L, composing p's last morphism a with m,
is child[parent(p)] + pos[a.m], or -1 when a.m is an identity left out of
chains; face L + 1 is p; and -1 stays -1.

The generating morphisms of a category are, per object y, generators of
the group Aut(y), and for every other object x one morphism from each orbit
of Hom(x, y) under Aut(y) (acting by composing after).  Every morphism is a
word in them: one into another object is an orbit's representative then an
automorphism, and an automorphism is a word in Aut(y)'s generators.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, cycle, groupby, repeat
from math import inf

from .errors import BadParametersError, NotComposableError, SizeLimitError
from .groups import Family, FiniteGroup, Subgroup

DEFAULT_CHAIN_CAP = 200_000


@dataclass(frozen=True)
class OrbitMorphism:
    source: Subgroup
    target: Subgroup
    rep: int            # minimal element of the coset rep*target

    def is_identity(self) -> bool:
        return self.source.members == self.target.members and self.rep == 0


def canonical_rep(group: FiniteGroup, x: int, target: Subgroup) -> int:
    """The least element of the coset x target, read off its coset table."""
    return target.coset_table[x]


def morphisms(source: Subgroup, target: Subgroup) -> list[OrbitMorphism]:
    """All morphisms G/source -> G/target, sorted by coset representative."""
    return _morphisms(source, target, target.left_coset_representatives())


def _morphisms(source: Subgroup, target: Subgroup, coset_reps) -> list[OrbitMorphism]:
    """morphisms(source, target), given target's left coset representatives."""
    g = source.parent
    if target.parent is not g:
        raise NotComposableError("subgroups of different parent groups")
    # x^-1 h x lies in K exactly when h fixes the coset xK, x least in it
    least, gens, t = target.coset_table, source.generators(), g.table
    return [OrbitMorphism(source, target, x) for x in coset_reps
            if all(least[t[h][x]] == x for h in gens)]


def compose(f: OrbitMorphism, g: OrbitMorphism) -> OrbitMorphism:
    """The composite G/H -> G/L of f: G/H -> G/K then g: G/K -> G/L."""
    if f.target.members != g.source.members:
        raise NotComposableError(
            f"target {f.target.members} differs from source {g.source.members}")
    grp = f.source.parent
    x = grp.mul(f.rep, g.rep)
    return OrbitMorphism(f.source, g.target, canonical_rep(grp, x, g.target))


def fixed_coset_count(source: Subgroup, target: Subgroup) -> int:
    """|(G/target)^source| counted directly from the coset action.

    Independent of morphisms(): counts cosets xK with h.xK = xK for all h.
    """
    g = source.parent
    count = 0
    for x in target.left_coset_representatives():
        coset = {g.table[x][k] for k in target.members}
        if all({g.table[h][c] for c in coset} == coset for h in source.members):
            count += 1
    return count


def skeleton(family: Family, reduced: bool = True) -> tuple[tuple, dict]:
    """(reps, rep_of): one member per conjugacy class inside the family, the
    first in the family's sorted order among the members conjugate to it
    (every member when not reduced); and for each member P, rep_of[P.members]
    = (i, a) with a^-1 P a = reps[i], so G/P -> G/reps[i] by a is an iso.

    A normal member is its own class, reached first by x = 0, so it gets
    (i, 0) without the walk over G that finds the others' conjugates."""
    g = family.parent
    members = set(family.member_sets())
    reps: list[Subgroup] = []
    rep_of: dict[tuple[int, ...], tuple[int, int]] = {}
    for s in family.subgroups:
        if s.members not in rep_of:
            if not reduced or s.is_normal():
                rep_of[s.members] = (len(reps), 0)
            else:
                for x in range(g.order):
                    c = s.conjugate_by(x).members      # x^-1 s x
                    if c in members and c not in rep_of:
                        rep_of[c] = (len(reps), g.inverse[x])
            reps.append(s)
    return tuple(reps), rep_of


# The chains of one length in lexicographic order: start objects, first and
# last morphisms (None at length 0), child (each chain's first extension,
# then the next length's count), and faces, flat and column-major:
# faces[k * len(start) + c] is chain c's k-th face in the length below.
ChainTable = namedtuple("ChainTable", "length start first last faces child")


class OrbitCategory:
    """Morphism tables for one (group, family) pair.

    Morphisms get integer ids; chains used by the cochain machinery are
    tuples (start_index, morphism ids...) in the pinned lexicographic order.
    With reduced=True (the default) the objects are skeleton(family) and
    identity morphisms are left out of chains, so chain_count, chain_tuples
    and the size cap all count nondegenerate chains; identities keep their
    ids, since a composite of two chain morphisms may be one.
    """

    def __init__(self, family: Family, reduced: bool = True):
        self.family = family
        self.group = family.parent
        self.subgroups, self.rep_of = skeleton(family, reduced)
        self.sub_index = {s.members: i for i, s in enumerate(self.subgroups)}
        self.morphs: list[OrbitMorphism] = []
        self.out: list[list[int]] = [[] for _ in self.subgroups]
        self.m_src: list[int] = []
        self.m_tgt: list[int] = []
        # in_chains[mid]: whether morphism mid may occur in a chain
        self.in_chains: list[bool] = []
        self._morph_id: dict[tuple[int, int, int], int] = {}
        cosets = [t.left_coset_representatives() for t in self.subgroups]
        for si, s in enumerate(self.subgroups):
            for ti, t in enumerate(self.subgroups):
                for m in _morphisms(s, t, cosets[ti]):
                    mid = len(self.morphs)
                    self.morphs.append(m)
                    self.m_src.append(si)
                    self.m_tgt.append(ti)
                    self.in_chains.append(not (reduced and m.is_identity()))
                    self._morph_id[(si, ti, m.rep)] = mid
                    if self.in_chains[mid]:
                        self.out[si].append(mid)
        self._comp: dict[tuple[int, int], int] = {}
        self._counts: list[list[int]] = [[1] * len(self.subgroups)]
        self._pos = {m: k for o in self.out for k, m in enumerate(o)}
        self._comp_pos: dict[int, list[int]] = {}
        self._base = self._table(0, list(range(len(self.subgroups))), None, None, [])
        self._top = [self._base]        # the last two tables built

    def morphism_id(self, m: OrbitMorphism) -> int:
        mid = self._morph_id.get((self.sub_index.get(m.source.members),
                                  self.sub_index.get(m.target.members), m.rep))
        if mid is None or m.source.parent is not self.group:
            raise BadParametersError(f"{m} is not a morphism of this category")
        return mid

    def compose_ids(self, i: int, j: int) -> int:
        """The id of compose(morphs[i], morphs[j]), read off the ids."""
        key = (i, j)
        got = self._comp.get(key)
        if got is None:
            if self.m_tgt[i] != self.m_src[j]:
                raise NotComposableError(f"morphisms {i} and {j} do not compose")
            t = self.m_tgt[j]
            x = self.group.mul(self.morphs[i].rep, self.morphs[j].rep)
            got = self._comp[key] = self._morph_id[
                (self.m_src[i], t, self.subgroups[t].coset_table[x])]
        return got

    @cached_property
    def generating_morphisms(self) -> list[list[int]]:
        """Per object, the ids of the generating morphisms leaving it (see
        the module docstring), in id order; the identity is never one."""
        blocks = {key: list(ids) for key, ids in groupby(
            range(len(self.morphs)), lambda k: (self.m_src[k], self.m_tgt[k]))}
        gens = [[] for _ in self.subgroups]
        for (s, t), ids in blocks.items():
            autos = blocks[(t, t)]          # the identity first, rep 0
            chosen, reached = [], {autos[0]} if s == t else set()
            for m in ids:
                if m in reached:
                    continue
                chosen.append(m)
                if s != t:                  # m's orbit under Aut(t)
                    reached.update(self.compose_ids(m, a) for a in autos)
                    continue
                # the subgroup of Aut(t) that chosen generates: what is
                # reached, closed under composing after chosen
                grown = list(reached)
                for a in grown:
                    new = {self.compose_ids(a, g) for g in chosen} - reached
                    reached |= new
                    grown += new
            gens[s] += chosen
        return gens

    def chain_count(self, length: int) -> int:
        """The number of chains of the given length.

        _counts[n][t] counts the chains of length n ending at object t; the
        list is extended on demand and stops at the first all-zero vector,
        after which every count is 0.  So a range of lengths costs time
        linear in its largest.
        """
        if length < 0:
            raise BadParametersError("chain length must be >= 0")
        counts = self._counts
        while len(counts) <= length and any(counts[-1]):
            nxt = [0] * len(self.subgroups)
            for si, c in enumerate(counts[-1]):
                if c:
                    for mid in self.out[si]:
                        nxt[self.m_tgt[mid]] += c
            counts.append(nxt)
        return sum(counts[length]) if length < len(counts) else 0

    def chain_tuples(self, length: int, cap: int = DEFAULT_CHAIN_CAP) -> list[tuple]:
        """All (start, mid_1, ..., mid_length) in lexicographic order: each
        chain is its parent (last face) and last morphism in the tables.
        The cap bounds the given length only, as in chains."""
        if length < 0:
            raise BadParametersError("chain length must be >= 0")
        for n in range(length + 1):
            t = self.chains(n, cap if n == length else inf)
            out = ([(s,) for s in t.start] if n == 0 else
                   [out[p] + (m,) for p, m in zip(t.faces[n * len(t.start):], t.last)])
        return out

    def chains(self, length: int, cap: int = DEFAULT_CHAIN_CAP) -> ChainTable:
        """The face table of one length, within the cap (shorter tables are
        built on the way, uncapped); only the last two tables built are
        kept, to build on (else from length 0)."""
        total = self.chain_count(length)
        if total > cap:
            raise SizeLimitError(total, cap)
        if total == 0:
            # past a finite nerve: no table below needs building
            return self._table(length, [], [], [], [])
        top = self._top if length >= self._top[0].length else [self._base]
        while top[-1].length < length:
            top = self._top = [top[-1], self._extend(top[-1], top[0])]
        return top[length - top[0].length]

    def _table(self, length, start, first, last, faces) -> ChainTable:
        ends = start if last is None else map(self.m_tgt.__getitem__, last)
        child = list(accumulate((len(self.out[e]) for e in ends), initial=0))
        return ChainTable(length, start, first, last, faces, child)

    def _composite_pos(self, a: int) -> list[int]:
        """pos[a.m] for each m leaving a's target, -1 for an identity a.m."""
        got = self._comp_pos.get(a)
        if got is None:
            got = self._comp_pos[a] = [
                self._pos[c] if self.in_chains[c] else -1
                for c in (self.compose_ids(a, m) for m in self.out[self.m_tgt[a]])]
        return got

    def _extend(self, prev: ChainTable, below: ChainTable) -> ChainTable:
        """The table one length above prev (see the module docstring)."""
        n, size = prev.length, len(prev.start)
        ends = prev.start if n == 0 else list(map(self.m_tgt.__getitem__, prev.last))
        counts = [len(self.out[e]) for e in ends]

        def runs(values):
            return list(chain.from_iterable(map(repeat, values, counts)))

        last = list(chain.from_iterable(map(self.out.__getitem__, ends)))
        if n == 0:
            return self._table(1, runs(prev.start), last, last,
                               [self.m_tgt[m] for m in last] + runs(prev.start))
        child = below.child
        faces = list(chain.from_iterable(
            range(child[f], child[f] + k) if f >= 0 else repeat(-1, k)
            for f, k in zip(prev.faces[:n * size], cycle(counts))))
        for a, f in zip(prev.last, prev.faces[n * size:]):
            faces += [child[f] + q if q >= 0 else -1 for q in self._composite_pos(a)]
        faces += runs(range(size))
        return self._table(n + 1, runs(prev.start), runs(prev.first), last, faces)
