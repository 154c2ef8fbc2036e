"""Low-degree interpretations of orbit-category cohomology.

Degree 0 is a limit of the coefficient diagram, degree 1 classifies
derivations that restrict principally to every family member (equivalently
splittings of the standard split semidirect structure up to conjugation by
the module), and degree 2 classifies extensions of the group by the module
equipped with compatible subgroup lifts.  Each interpretation here is
computed by its own elementary means, never through the cochain complex;
agreement between the two routes is what the test suites check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product

from .coeff import GModule, OrbitModule
from .errors import (
    BadParametersError,
    FamilyMissingTrivialError,
    SizeLimitError,
)
from .groups import Family, Subgroup
from .intlin import (
    AbHom,
    FgAbGroup,
    IntMatrix,
    NormalFormMap,
    block_diag,
    direct_sum_groups,
    kernel_of_hom,
    preimage_generators,
    quotient_presentation,
)

DEFAULT_ENUM_CAP = 1_000_000


def _require_trivial(family: Family):
    if not family.contains_trivial():
        raise FamilyMissingTrivialError(
            "this interpretation needs the trivial subgroup in the family")


# ---------------------------------------------------------------------------
# Degree 0: the limit of the coefficient diagram

def h0_limit(module: OrbitModule) -> FgAbGroup:
    """Families (m_H) compatible with every induced map, in normal form.

    The kernel of one hom from the sum of the values to one copy of each
    morphism's source value, (m_H) |-> (map(m_target) - m_source).
    """
    cat, values = module.cat, module.values
    offs = list(accumulate((v.ngens for v in values), initial=0))
    rows = 0
    entries = {}
    for mat, si, ti in zip(module.maps, cat.m_src, cat.m_tgt):
        for (i, j), v in mat.entries.items():
            entries[(rows + i, offs[ti] + j)] = v
        for i in range(values[si].ngens):
            key = (rows + i, offs[si] + i)
            entries[key] = entries.get(key, 0) - 1
        rows += values[si].ngens
    constraint = AbHom(direct_sum_groups(values),
                       direct_sum_groups(values[si] for si in cat.m_src),
                       IntMatrix(rows, offs[-1], entries))
    return FgAbGroup.from_invariants(*kernel_of_hom(constraint)[0].normal_form)


# ---------------------------------------------------------------------------
# Degree 1 via derivations: the exact linear-algebra route

def f_derivation_quotient(module: GModule, family: Family) -> FgAbGroup:
    """Derivations restricting principally to each member, mod principal.

    Solved as integer linear algebra, so infinite modules (Z with a sign
    action, say) are handled exactly.
    """
    _require_trivial(family)
    g = module.group
    k = module.carrier.ngens
    n = g.order
    subs = list(family)
    unknowns = (n + len(subs)) * k
    ident = IntMatrix.identity(k)

    entries = {}
    slack_blocks = []
    rows = 0

    def put(block_row, block_col, mat, sign=1):
        for (i, j), v in mat.entries.items():
            key = (block_row + i, block_col + j)
            entries[key] = entries.get(key, 0) + sign * v

    # cocycle law D(xy) = x.D(y) + D(x)
    for x in range(n):
        for y in range(n):
            xy = g.mul(x, y)
            put(rows, xy * k, ident)
            put(rows, y * k, module.act(x), sign=-1)
            put(rows, x * k, ident, sign=-1)
            slack_blocks.append(module.carrier.relations)
            rows += k
    # principality on each member: D(h) = (act(h) - 1) m_H
    for hi, sub in enumerate(subs):
        mcol = (n + hi) * k
        for h in sub.members:
            put(rows, h * k, ident)
            put(rows, mcol, module.act(h) - ident, sign=-1)
            slack_blocks.append(module.carrier.relations)
            rows += k

    constraint = IntMatrix(rows, unknowns, entries)
    lattice = preimage_generators(constraint, block_diag(slack_blocks))
    dpart = IntMatrix(n * k, lattice.cols,
                      {(i, j): v for (i, j), v in lattice.entries.items()
                       if i < n * k})

    # principal derivations plus relation shifts
    principal = IntMatrix(0, k)
    for x in range(n):
        principal = principal.vstack(module.act(x) - ident)
    rels = block_diag([module.carrier.relations] * n)
    sub = principal.hstack(rels)
    group = quotient_presentation(dpart, sub)
    return FgAbGroup.from_invariants(*group.normal_form)


# ---------------------------------------------------------------------------
# Finite modules as element tables

class _Memo(dict):
    """A dict that computes a missing value from its key on first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class FiniteModule:
    """Element-level view of a finite G-module in normal form.

    Elements are tuples of residues.  The action and the group law are memo
    tables, act_table[g, v], add_table[a, b], sub_table[a, b] and
    neg_table[a], that compute each entry on first use; a table holds only
    what was asked of this instance; factor_set_classes is kept the same
    way.  GModule.finite_module builds one instance per module, so all of
    this lives exactly as long as that module.
    """

    def __init__(self, module: GModule):
        nf = module.normalized()
        if nf.carrier.rank != 0:
            raise BadParametersError("module must be finite")
        self.module = nf
        self.group = module.group
        self.moduli = moduli = list(nf.carrier.torsion)
        self.k = k = len(self.moduli)
        self.zero = (0,) * self.k
        self.size = 1
        for d in self.moduli:
            self.size *= d

        def act(key):
            g, vec = key
            mat = nf.act(g)
            return tuple(
                sum(mat[(i, j)] * vec[j] for j in range(k)) % moduli[i]
                for i in range(k))

        def add(key):
            a, b = key
            return tuple((x + y) % d for x, y, d in zip(a, b, moduli))

        def sub(key):
            a, b = key
            return tuple((x - y) % d for x, y, d in zip(a, b, moduli))

        def neg(a):
            return tuple((-x) % d for x, d in zip(a, moduli))

        self.act_table = _Memo(act)
        self.add_table = _Memo(add)
        self.sub_table = _Memo(sub)
        self.neg_table = _Memo(neg)

    def elements(self):
        return [tuple(v) for v in product(*[range(d) for d in self.moduli])]

    @cached_property
    def factor_set_classes(self) -> tuple[dict, list[dict]]:
        """(by_class, derivation_etas), which depend on the module alone.

        by_class maps each class of normalized 2-cocycles modulo
        coboundaries, in ascending order, to its representative: the least
        tuple over (x, y) in the class, itself a cocycle of the class, as a
        factor set (x, y) -> element.  derivation_etas are the normalized
        1-cochains with zero coboundary, as x -> element dicts.
        """
        n = self.group.order
        add, zero = self.add_table, self.zero
        coboundaries = []
        derivation_etas = []
        for eta in _normalized_cochains(self, arity_one=True):
            b = _coboundary(self, eta)
            coboundaries.append(b)
            if all(v == zero for v in b.values()):
                derivation_etas.append({0: zero, **eta})
        pair_keys = [(x, y) for x in range(n) for y in range(n)]
        normalized = {k: zero for x in range(n) for k in ((0, x), (x, 0))}
        reps = set()
        for cand in _normalized_cochains(self, arity_one=False):
            c = {**normalized, **cand}
            if _is_cocycle(self, c):
                reps.add(min(tuple(add[c[k], b[k]] for k in pair_keys)
                             for b in coboundaries))
        by_class = {r: dict(zip(pair_keys, r)) for r in sorted(reps)}
        return by_class, derivation_etas

    def index(self, vec) -> int:
        out = 0
        for x, d in zip(vec, self.moduli):
            out = out * d + x
        return out


# ---------------------------------------------------------------------------
# Degree 1 via splittings of the standard split structure (the search route)

@dataclass(frozen=True)
class FDerivation:
    """D: G -> M with D(xy) = x.D(y) + D(x), principal on each member."""

    values: tuple            # per group element, an element tuple of M
    witnesses: tuple         # per family member, the m with D|_H = D_m


def _derivations_by_search(fm: FiniteModule, cap: int) -> list[tuple]:
    g = fm.group
    n = g.order
    gens = g.generating_set
    if not gens:
        return [(fm.zero,) * n]
    if fm.size ** len(gens) > cap:
        raise SizeLimitError(fm.size ** len(gens), cap)
    table = g.table
    act, add = fm.act_table, fm.add_table
    out = []
    elements = fm.elements()
    for assignment in product(elements, repeat=len(gens)):
        vals = {0: fm.zero}
        frontier = [0]
        gen_map = list(zip(gens, assignment))
        ok = True
        for x in frontier:
            row, vx = table[x], vals[x]
            for s, ds in gen_map:
                y = row[s]
                cand = add[act[x, ds], vx]
                if y in vals:
                    if vals[y] != cand:
                        ok = False
                        break
                else:
                    vals[y] = cand
                    frontier.append(y)
            if not ok:
                break
        if not ok or len(vals) != n:
            continue
        full = tuple(vals[x] for x in range(n))
        if all(full[table[x][y]] == add[act[x, full[y]], full[x]]
               for x in range(n) for y in range(n)):
            out.append(full)
    return sorted(set(out))


def _principal_witness(fm: FiniteModule, deriv, sub: Subgroup, elements):
    act, subtract = fm.act_table, fm.sub_table
    for m in elements:
        if all(deriv[h] == subtract[act[h, m], m] for h in sub.members):
            return m
    return None


def splittings_mod_conjugacy(module: GModule, family: Family,
                             cap: int = DEFAULT_ENUM_CAP) -> list[FDerivation]:
    """Splittings of the standard split structure, up to module conjugacy:
    one representative per class, in order of the class key.

    Splittings are found by exhaustive search over homomorphic sections of
    the semidirect product; the class count equals the order of the
    degree-1 orbit-category cohomology group.
    """
    _require_trivial(family)
    fm = module.finite_module
    n = module.group.order
    act, subtract = fm.act_table, fm.sub_table
    elements = fm.elements()
    structure_derivs = []
    for deriv in _derivations_by_search(fm, cap):
        witnesses = []
        for sub in family:
            m = _principal_witness(fm, deriv, sub, elements)
            if m is None:
                break
            witnesses.append(m)
        else:
            structure_derivs.append((deriv, tuple(witnesses)))

    classes: dict[tuple, FDerivation] = {}
    for deriv, wits in structure_derivs:
        canon = min(
            tuple(subtract[deriv[x], subtract[act[x, m], m]] for x in range(n))
            for m in elements)
        if canon not in classes:
            classes[canon] = FDerivation(deriv, wits)
    return [classes[c] for c in sorted(classes)]


# ---------------------------------------------------------------------------
# Degree 2: families of subgroup lifts on extensions (structures)

class FStructureWitness:
    """An extension built from a factor set, plus one lift per family member."""

    def __init__(self, fm: FiniteModule, family: Family, factor_set: dict,
                 lifts: dict):
        self.fm = fm
        self.family = family
        self.factor_set = factor_set      # (x, y) -> element tuple
        self.lifts = dict(lifts)          # subgroup members -> frozenset of (elt, g)

    # extension arithmetic on pairs (module element tuple, group index)
    def mul(self, p, q):
        (a, x), (b, y) = p, q
        fm = self.fm
        add = fm.add_table
        return (add[add[a, fm.act_table[x, b]], self.factor_set[(x, y)]],
                fm.group.table[x][y])

    def inv(self, p):
        a, x = p
        fm = self.fm
        xi = fm.group.inverse[x]
        # left inverse: (b, xi)(a, x) = (0, e)
        b = fm.neg_table[fm.add_table[fm.act_table[xi, a],
                                      self.factor_set[(xi, x)]]]
        return (b, xi)

    def conj(self, p, q):
        """p^-1 q p."""
        return self.mul(self.mul(self.inv(p), q), p)

    def axiom_ii_holds(self) -> bool:
        g = self.fm.group
        elements = self.fm.elements()
        for hs in self.family:
            for ks in self.family:
                kset = set(ks.members)
                lift_h = self.lifts[hs.members]
                lift_k = self.lifts[ks.members]
                for x in range(g.order):
                    if not all(g.conj(x, h) in kset for h in hs.members):
                        continue
                    found = False
                    for b in elements:
                        y = (b, x)
                        if all(self.conj(y, p) in lift_k for p in lift_h):
                            found = True
                            break
                    if not found:
                        return False
        return True

    def lift_key(self):
        return tuple(
            tuple(sorted((self.fm.index(a), x) for (a, x) in self.lifts[s.members]))
            for s in self.family)


@dataclass
class FStructureClass:
    witness: FStructureWitness
    split: bool
    factor_set_class: tuple


def _normalized_cochains(fm: FiniteModule, arity_one: bool):
    """All normalized maps G -> M (arity_one) or (G-e) x (G-e) -> M."""
    g = fm.group
    nontriv = [x for x in range(g.order) if x]
    if arity_one:
        slots = nontriv
    else:
        slots = [(x, y) for x in nontriv for y in nontriv]
    for assignment in product(fm.elements(), repeat=len(slots)):
        yield dict(zip(slots, assignment))


def _coboundary(fm: FiniteModule, eta: dict) -> dict:
    g = fm.group
    table = g.table
    act, add, subtract = fm.act_table, fm.add_table, fm.sub_table
    full = {0: fm.zero, **eta}
    out = {}
    for x in range(g.order):
        for y in range(g.order):
            out[(x, y)] = subtract[add[act[x, full[y]], full[x]],
                                   full[table[x][y]]]
    return out


def _is_cocycle(fm: FiniteModule, c: dict) -> bool:
    n = fm.group.order
    table = fm.group.table
    act, add = fm.act_table, fm.add_table
    for x in range(n):
        row_x = table[x]
        for y in range(n):
            row_y = table[y]
            xy, c_xy = row_x[y], c[(x, y)]
            for z in range(n):
                lhs = add[act[x, c[(y, z)]], c[(x, row_y[z])]]
                if lhs != add[c[(xy, z)], c_xy]:
                    return False
    return True


def _subgroup_lifts(fm: FiniteModule, factor: dict, sub: Subgroup):
    """All subgroups of the extension mapping isomorphically onto sub."""
    table = fm.group.table
    act, add = fm.act_table, fm.add_table
    members = sub.members
    out = []
    nontriv = [h for h in members if h]
    for assignment in product(fm.elements(), repeat=len(nontriv)):
        tau = {0: fm.zero, **dict(zip(nontriv, assignment))}
        ok = True
        for h1 in members:
            row, t1 = table[h1], tau[h1]
            for h2 in members:
                got = add[add[t1, act[h1, tau[h2]]], factor[(h1, h2)]]
                if tau[row[h2]] != got:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset((tau[h], h) for h in members))
    return out


def enumerate_f_structures(module: GModule, family: Family,
                           cap: int = DEFAULT_ENUM_CAP) -> list[FStructureClass]:
    """Equivalence classes of subgroup-lift structures on extensions.

    Groups normalized factor sets into cohomology classes by coboundary
    shifts (once per module, FiniteModule.factor_set_classes), searches
    subgroup lifts over one representative per class, filters by the
    conjugation-lifting axiom, and canonicalizes under the equivalence
    transformations (automorphisms over the identity composed with
    per-member module conjugation).
    """
    _require_trivial(family)
    fm = module.finite_module
    n = module.group.order
    count = fm.size ** ((n - 1) ** 2)
    if count > cap:
        raise SizeLimitError(count, cap)
    by_class, derivation_etas = fm.factor_set_classes

    subs = list(family)
    zero_rep = (fm.zero,) * (n * n)
    classes: list[FStructureClass] = []
    for rep, factor in by_class.items():
        per_sub = [_subgroup_lifts(fm, factor, s) for s in subs]
        if any(not lifts for lifts in per_sub):
            continue
        buckets: dict[tuple, FStructureWitness] = {}
        for choice in product(*per_sub):
            witness = FStructureWitness(
                fm, family, factor,
                {s.members: lift for s, lift in zip(subs, choice)})
            if not witness.axiom_ii_holds():
                continue
            canon = _canonical_structure_key(fm, family, witness,
                                             derivation_etas)
            if canon not in buckets or witness.lift_key() < buckets[canon].lift_key():
                buckets[canon] = witness
        split_key = None
        if rep == zero_rep and buckets:
            std = FStructureWitness(
                fm, family, factor,
                {s.members: frozenset((fm.zero, h) for h in s.members)
                 for s in subs})
            split_key = _canonical_structure_key(fm, family, std,
                                                 derivation_etas)
        for canon in sorted(buckets):
            classes.append(
                FStructureClass(buckets[canon], canon == split_key, rep))
    return classes


def _canonical_structure_key(fm: FiniteModule, family: Family,
                             witness: FStructureWitness, derivation_etas) -> tuple:
    act, add, subtract = fm.act_table, fm.add_table, fm.sub_table
    elements = fm.elements()
    index = {a: fm.index(a) for a in elements}
    best = None
    for eta in derivation_etas:
        per_sub = []
        for s in family:
            lift = witness.lifts[s.members]
            shifted = frozenset((add[a, eta[x]], x) for (a, x) in lift)
            # minimize over conjugation by module elements: since the factor
            # set is normalized, (m,e)^-1 (a,x) (m,e) = (a - m + x.m, x)
            cands = []
            for m in elements:
                conj = frozenset((add[subtract[a, m], act[x, m]], x)
                                 for (a, x) in shifted)
                cands.append(tuple(sorted((index[a], x) for (a, x) in conj)))
            per_sub.append(min(cands))
        key = tuple(per_sub)
        if best is None or key < best:
            best = key
    return best


# ---------------------------------------------------------------------------
# Character groups of families

@dataclass
class CharacterGroup:
    """Characters of a subgroup killing every intersection with the family."""

    subgroup: Subgroup
    family: Family
    group: FgAbGroup
    generators: list[list[tuple[int, int]]]   # per generator: (num, den) on P's gens
    value_table: list[list[tuple[int, int]]]  # per generator: (num, den) on all of P

    def to_json(self):
        return {**self.group.to_json(),
                "generators": [[[n, d] for (n, d) in gen] for gen in self.generators]}


def character_group(p_sub: Subgroup, family: Family) -> CharacterGroup:
    """{f in Hom(P, Q/Z) : f kills H n P for every family member H}.

    Computed by dualizing the finite quotient of Z^P by [a] + [g] - [ag] for
    a in P and g among P's generators, and by [x] for the identity and each
    x in some H n P.  Those relations span every [a] + [b] - [ab], since b
    is a positive word in the generators and [a] + [bg] - [abg] is
    ([a] + [b] - [ab]) + ([ab] + [g] - [abg]) - ([b] + [g] - [bg]).  An
    element-level enumeration oracle lives in the tests.
    """
    if family.parent is not p_sub.parent:
        raise BadParametersError("family belongs to a different group")
    pgroup, embed = p_sub.as_group()
    pos = {e: i for i, e in enumerate(embed)}
    np = pgroup.order
    gens = [pos[x] for x in p_sub.generators()]
    entries = {}
    col = 0
    for a in range(np):
        for g in gens:
            for i, v in ((a, 1), (g, 1), (pgroup.mul(a, g), -1)):
                entries[(i, col)] = entries.get((i, col), 0) + v
            col += 1
    killed = {0} | {pos[x] for h in family for x in h.members if x in pos}
    for i in sorted(killed):
        entries[(i, col)] = 1
        col += 1
    nf = NormalFormMap(FgAbGroup(np, IntMatrix(np, col, entries)))
    if nf.canonical.rank:
        raise BadParametersError("character quotient of a finite group must be finite")
    value_table = [[(nf.to_nf[(k, a)] % d, d) for a in range(np)]
                   for k, d in enumerate(nf.canonical.torsion)]
    generators = [[row[g] for g in gens] for row in value_table]
    return CharacterGroup(p_sub, family, nf.canonical, generators, value_table)
