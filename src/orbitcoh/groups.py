"""Finite groups as Cayley tables, subgroups, and families of subgroups.

Element 0 is always the identity.  Subgroups are sorted index tuples, which
makes set equality and family deduplication O(1) dictionary work.  A lattice
(Subgroup.subgroups) costs one generator closure, O(|<K, x>| * #generators),
per subgroup K and left coset xK: S5's 156 subgroups take about 0.1 s.
Validating a table checks associativity on generators only (Light's test),
in O(n^2 * #generators) steps, and family_close conjugates by them alone.
A subgroup computes its generators, its normality and its coset table
(x |-> the least element of xH) once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .errors import (
    BadParametersError,
    SearchExhaustedError,
    SingletonActionError,
)


class FiniteGroup:
    """Group given by its multiplication table (indices into 0..order-1)."""

    def __init__(self, table, name: str = "G", validate: bool = True):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name
        if validate:
            self._validate()
        inv = [None] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.table[a][b] == 0:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise BadParametersError(f"element {a} has no inverse")
        self.inverse = tuple(inv)

    def _validate(self):
        n = self.order
        if n == 0:
            raise BadParametersError("empty group")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise BadParametersError("table is not square")
            for v in row:
                if not (0 <= v < n):
                    raise BadParametersError(f"table entry {v} out of range")
        for a in range(n):
            if self.table[0][a] != a or self.table[a][0] != a:
                raise BadParametersError("element 0 is not a two-sided identity")
        # Light's test: the c with (ab)c = a(bc) for all a, b are closed
        # under products, so checking the greedy generators is exact
        t = self.table
        gens = self.generating_set
        for a in range(n):
            for b in range(n):
                ab = t[a][b]
                for c in gens:
                    if t[ab][c] != t[a][t[b][c]]:
                        raise BadParametersError(
                            f"associativity fails at ({a},{b},{c})")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, x: int, a: int) -> int:
        """x^-1 a x."""
        return self.mul(self.mul(self.inverse[x], a), x)

    @cached_property
    def generating_set(self) -> tuple[int, ...]:
        """The greedy generators of the whole group, found once."""
        return self.full_subgroup().generators()

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    # -- construction helpers ------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> FiniteGroup:
        if n < 1:
            raise BadParametersError("cyclic group needs order >= 1")
        return cls([[(i + j) % n for j in range(n)] for i in range(n)],
                   name=f"C{n}", validate=False)

    @classmethod
    def direct_product(cls, a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
        nb = b.order
        n = a.order * nb
        table = [[0] * n for _ in range(n)]
        for i in range(a.order):
            for j in range(nb):
                for k in range(a.order):
                    for l in range(nb):
                        table[i * nb + j][k * nb + l] = a.mul(i, k) * nb + b.mul(j, l)
        return cls(table, name=f"{a.name}x{b.name}", validate=False)

    @classmethod
    def dihedral(cls, n: int) -> FiniteGroup:
        """Dihedral group of order 2n: rotations r^i and reflections r^i s."""
        if n < 1:
            raise BadParametersError("dihedral needs n >= 1")
        order = 2 * n

        def mul(p, q):
            i, a = p % n, p // n
            j, b = q % n, q // n
            # (r^i s^a)(r^j s^b): s r^j = r^-j s
            k = (i + j) % n if a == 0 else (i - j) % n
            return k + n * ((a + b) % 2)

        table = [[mul(p, q) for q in range(order)] for p in range(order)]
        return cls(table, name=f"D{n}", validate=False)

    @classmethod
    def dicyclic(cls, n: int) -> FiniteGroup:
        """Dicyclic group of order 4n: a^i b^j with b^2 = a^n, b a = a^-1 b."""
        if n < 1:
            raise BadParametersError("dicyclic needs n >= 1")
        m = 2 * n
        order = 4 * n

        def mul(p, q):
            i, a = p % m, p // m
            j, b = q % m, q // m
            if a == 0:
                k, c = (i + j) % m, b
            elif b == 0:
                k, c = (i - j) % m, 1
            else:
                k, c = (i - j + n) % m, 0
            return k + m * c

        table = [[mul(p, q) for q in range(order)] for p in range(order)]
        return cls(table, name=f"Dic{n}", validate=False)

    @classmethod
    def from_permutations(cls, generators, name: str = "perm") -> FiniteGroup:
        """Group generated by permutations (tuples of images of 0..deg-1)."""
        gens = [tuple(g) for g in generators]
        if not gens:
            raise BadParametersError("need at least one permutation")
        deg = len(gens[0])
        for g in gens:
            if sorted(g) != list(range(deg)):
                raise BadParametersError(f"not a permutation of 0..{deg - 1}: {g}")
        ident = tuple(range(deg))
        elements = [ident]
        seen = {ident}
        for p in elements:
            for g in gens:
                q = tuple(p[g[i]] for i in range(deg))
                if q not in seen:
                    seen.add(q)
                    elements.append(q)
        idx = {p: i for i, p in enumerate(elements)}
        table = [[idx[tuple(p[q[i]] for i in range(deg))] for q in elements]
                 for p in elements]
        return cls(table, name=name, validate=False)

    @classmethod
    def symmetric(cls, n: int) -> FiniteGroup:
        if n == 1:
            return cls.cyclic(1)
        gens = [tuple([1, 0] + list(range(2, n)))]
        if n > 2:
            gens.append(tuple(list(range(1, n)) + [0]))
        return cls.from_permutations(gens, name=f"S{n}")

    @classmethod
    def alternating(cls, n: int) -> FiniteGroup:
        perms = []
        for p in permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
            if inv % 2 == 0 and p != tuple(range(n)):
                perms.append(p)
        return cls.from_permutations(perms, name=f"A{n}")

    # -- subgroup machinery ---------------------------------------------------

    def subgroup_closure(self, seed) -> Subgroup:
        """<seed>: the orbit of 0 under right multiplication by the seed.

        In a finite group that orbit is closed under products and inverses,
        so this takes O(|<seed>| * |seed|) steps and reads the seed once.
        """
        gens = tuple(seed)
        for a in gens:
            if not 0 <= a < self.order:
                raise BadParametersError(f"seed element {a} out of range")
        t = self.table
        reached = [0]
        cur = {0}
        for h in reached:
            for a in gens:
                ha = t[h][a]
                if ha not in cur:
                    cur.add(ha)
                    reached.append(ha)
        return Subgroup(self, tuple(sorted(cur)))

    def subgroup(self, members) -> Subgroup:
        members = set(members)
        if any(not 0 <= a < self.order for a in members):
            raise BadParametersError(f"subgroup member out of range 0..{self.order - 1}")
        s = Subgroup(self, tuple(sorted(members)))
        s.validate()
        return s

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, (0,))

    def full_subgroup(self) -> Subgroup:
        return Subgroup(self, tuple(range(self.order)))

    def all_subgroups(self) -> list[Subgroup]:
        return self.full_subgroup().subgroups()


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members or self.members[0] != 0:
            raise BadParametersError("subgroup must contain the identity 0")

    def validate(self):
        g = self.parent
        mem = set(self.members)
        for a in self.members:
            if g.inverse[a] not in mem:
                raise BadParametersError(f"not inverse-closed at {a}")
            for b in self.members:
                if g.table[a][b] not in mem:
                    raise BadParametersError(f"not product-closed at ({a},{b})")

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return a in set(self.members)

    def sort_key(self):
        return (len(self.members), self.members)

    def is_trivial(self) -> bool:
        return self.members == (0,)

    def conjugate_by(self, x: int) -> Subgroup:
        g = self.parent
        return Subgroup(g, tuple(sorted(g.conj(x, a) for a in self.members)))

    def is_normal(self) -> bool:
        """Whether every conjugate is the subgroup itself, tested on a
        generating set of the parent (which fixes it then fixes all)."""
        return self._normal

    @cached_property
    def _normal(self) -> bool:
        return all(self.conjugate_by(x).members == self.members
                   for x in self.parent.generating_set)

    def generators(self) -> tuple[int, ...]:
        """A small generating set, greedily chosen in index order."""
        return self._generators

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        gens: list[int] = []
        cur = {0}
        for a in self.members:
            if a not in cur:
                gens.append(a)
                cur = set(self.parent.subgroup_closure(gens).members)
                if len(cur) == len(self.members):
                    break
        return tuple(gens)

    @cached_property
    def coset_table(self) -> tuple[int, ...]:
        """x |-> the least element of the left coset xH, for every x in G:
        in ascending order, the first x of a coset not yet met is its least."""
        t, least = self.parent.table, [-1] * self.parent.order
        for x in range(self.parent.order):
            if least[x] < 0:
                for h in self.members:
                    least[t[x][h]] = x
        return tuple(least)

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """The subgroup as its own Cayley-table group, plus the embedding."""
        embed = self.members
        pos = {a: i for i, a in enumerate(embed)}
        g = self.parent
        table = [[pos[g.table[a][b]] for b in embed] for a in embed]
        return FiniteGroup(table, name=f"{g.name}|{embed}", validate=False), embed

    def subgroups(self) -> list[Subgroup]:
        """All subgroups of this subgroup, as subgroups of the parent.

        <K, x> depends only on the left coset xK, so every subgroup K found
        (kept with its generators) is extended by one member x of each left
        coset xK in this subgroup.  x need not normalize K, so perfect
        subgroups such as A5 < S5 are reached too.
        """
        t = self.parent.table
        found = {(0,): ()}
        frontier = [(0,)]
        for members in frontier:
            gens = found[members]
            covered = set(members)
            for x in self.members:
                if x not in covered:
                    covered.update(t[x][k] for k in members)
                    bigger = self.parent.subgroup_closure(gens + (x,)).members
                    if bigger not in found:
                        found[bigger] = gens + (x,)
                        frontier.append(bigger)
        return sorted((Subgroup(self.parent, m) for m in found),
                      key=Subgroup.sort_key)

    def left_coset_representatives(self) -> list[int]:
        """Minimal representative of each left coset xH, ascending."""
        return [x for x, least in enumerate(self.coset_table) if x == least]

    def __repr__(self):
        return f"Subgroup{self.members}"


class Family:
    """A set of subgroups of one group; arbitrary unless closure is requested."""

    def __init__(self, parent: FiniteGroup, subgroups):
        self.parent = parent
        dedup = {}
        for s in subgroups:
            if s.parent is not parent:
                raise BadParametersError("family members must share the parent group")
            dedup[s.members] = s
        self.subgroups = tuple(sorted(dedup.values(), key=lambda s: s.sort_key()))
        if not self.subgroups:
            raise BadParametersError("family must be nonempty")

    def __iter__(self):
        return iter(self.subgroups)

    def __len__(self):
        return len(self.subgroups)

    def __contains__(self, sub: Subgroup) -> bool:
        return any(s.members == sub.members for s in self.subgroups)

    def member_sets(self):
        return tuple(s.members for s in self.subgroups)

    def contains_trivial(self) -> bool:
        return any(s.is_trivial() for s in self.subgroups)

    def is_conjugation_closed(self) -> bool:
        return family_close(self, under_conjugation=True).member_sets() == self.member_sets()

    def is_subgroup_closed(self) -> bool:
        return family_close(self, under_subgroups=True).member_sets() == self.member_sets()

    def __repr__(self):
        return f"Family({[s.members for s in self.subgroups]})"


def family_close(family: Family, under_conjugation: bool = False,
                 under_subgroups: bool = False) -> Family:
    """Smallest superfamily with the requested closure properties."""
    current = {s.members: s for s in family.subgroups}
    todo = list(current.values())
    # closed under conjugation by a generating set is closed under all of G
    gens = family.parent.generating_set if under_conjugation else ()
    for s in todo:
        extra = [s.conjugate_by(x) for x in gens]
        if under_subgroups:
            extra.extend(s.subgroups())
        for t in extra:
            if t.members not in current:
                current[t.members] = t
                todo.append(t)
    return Family(family.parent, current.values())


def full_family(group: FiniteGroup) -> Family:
    return Family(group, group.all_subgroups())


def trivial_family(group: FiniteGroup) -> Family:
    return Family(group, [group.trivial_subgroup()])


def cyclic_family(group: FiniteGroup) -> Family:
    return Family(group, [group.subgroup_closure([a]) for a in range(group.order)])


def closed_families(group: FiniteGroup) -> list[Family]:
    """All nonempty conjugation- and subgroup-closed families.

    Subgroup-closed families are down-sets over conjugacy classes; small
    orders make plain subset enumeration over the classes feasible.
    """
    subs = group.all_subgroups()
    classes: list[tuple] = []
    assigned = {}
    for s in subs:
        if s.members in assigned:
            continue
        orbit = family_close(Family(group, [s]), under_conjugation=True).member_sets()
        for m in orbit:
            assigned[m] = len(classes)
        classes.append(tuple(orbit))
    by_members = {s.members: s for s in subs}
    below = []
    for orbit in classes:
        rep = by_members[orbit[0]]
        below.append({assigned[t.members] for t in rep.subgroups()})
    out = []
    nclasses = len(classes)
    for mask in range(1, 1 << nclasses):
        chosen = {i for i in range(nclasses) if mask >> i & 1}
        if all(below[i] <= chosen for i in chosen):
            members = [by_members[m] for i in chosen for m in classes[i]]
            out.append(Family(group, members))
    return out


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True    # n itself is prime


def fixed_point_free_prime_power_element(group: FiniteGroup, sub: Subgroup) -> int:
    """A prime-power-order element moving every coset of the subgroup.

    The transitive action of the group on the coset space always admits one
    (a classical fact this library checks rather than takes on faith);
    exhausting the search therefore signals broken input.
    """
    if sub.size == group.order:
        raise SingletonActionError("coset space has a single point")
    member_set = set(sub.members)
    reps = sub.left_coset_representatives()
    for g in range(1, group.order):
        if not _is_prime_power(group.element_order(g)):
            continue
        if all(group.conj(x, g) not in member_set for x in reps):
            return g
    raise SearchExhaustedError(
        "no fixed-point-free prime-power element; input violates the hypothesis")


# Shipped catalog of small groups (deterministic constructions).

def _klein_four():
    return FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))


_CATALOG = {
    "c1": lambda: FiniteGroup.cyclic(1),
    "c2": lambda: FiniteGroup.cyclic(2),
    "c3": lambda: FiniteGroup.cyclic(3),
    "c4": lambda: FiniteGroup.cyclic(4),
    "c2xc2": _klein_four,
    "c5": lambda: FiniteGroup.cyclic(5),
    "c6": lambda: FiniteGroup.cyclic(6),
    "s3": lambda: FiniteGroup.symmetric(3),
    "c7": lambda: FiniteGroup.cyclic(7),
    "c8": lambda: FiniteGroup.cyclic(8),
    "c4xc2": lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(4),
                                                FiniteGroup.cyclic(2)),
    "c2xc2xc2": lambda: FiniteGroup.direct_product(
        _klein_four(), FiniteGroup.cyclic(2)),
    "d4": lambda: FiniteGroup.dihedral(4),
    "q8": lambda: FiniteGroup.dicyclic(2),
    "c9": lambda: FiniteGroup.cyclic(9),
    "c3xc3": lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(3),
                                                FiniteGroup.cyclic(3)),
    "c10": lambda: FiniteGroup.cyclic(10),
    "d5": lambda: FiniteGroup.dihedral(5),
    "c11": lambda: FiniteGroup.cyclic(11),
    "c12": lambda: FiniteGroup.cyclic(12),
    "c6xc2": lambda: FiniteGroup.direct_product(FiniteGroup.cyclic(6),
                                                FiniteGroup.cyclic(2)),
    "d6": lambda: FiniteGroup.dihedral(6),
    "a4": lambda: FiniteGroup.alternating(4),
    "dic3": lambda: FiniteGroup.dicyclic(3),
}


def builtin_group(name: str) -> FiniteGroup:
    key = name.lower()
    if key not in _CATALOG:
        raise BadParametersError(f"unknown builtin group {name!r}")
    g = _CATALOG[key]()
    g.name = key
    return g


def builtin_group_names() -> list[str]:
    return list(_CATALOG)


def groups_up_to_order(n: int) -> list[FiniteGroup]:
    out = [builtin_group(name) for name in _CATALOG]
    return [g for g in out if g.order <= n]
