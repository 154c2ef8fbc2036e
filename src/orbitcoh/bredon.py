"""The standard cochain complex over an orbit category and its cohomology.

Cochains in degree n assign, to every length-n composable chain of orbit
morphisms, an element of the coefficient module at the chain's starting
object.  The differential alternates the face maps: the leading face is
twisted by the module map of the first morphism, inner faces compose two
adjacent morphisms, the last face drops the final morphism.

For every module this package builds, the complex is the reduced one:
chains run through one family member per conjugacy class inside the family
(the skeleton chosen by orbitcat.OrbitCategory), and the cochains are
normalized, i.e. they vanish on degenerate chains, those containing an
identity morphism.  Such cochains are indexed by nondegenerate chains
alone, so an inner face whose composite is an identity contributes nothing
to the differential.  Cohomology is unchanged: the skeleton is an
equivalent category, and the normalized complex is chain-homotopy
equivalent to the full one.  The size cap counts reduced chains, and
cocycle representatives are vectors over the reduced generators.  The
complex reads its module's category: over a module on OrbitCategory(family,
reduced=False), built in the tests, it is the full complex over every
member and every chain, kept as a reference to check against.

The inhomogeneous bar complex for ordinary group cohomology is implemented
here as well, as a deliberately separate assembly: it is the independent
oracle the orbit-category route is checked against (the two coincide for the
family consisting of the trivial subgroup alone, and that agreement is a
test, not a shortcut).

For a cyclic group G = <g>, CyclicComplex is a third, far smaller complex.
G is abelian, so the orbit category is the Grothendieck construction of
H |-> G/H over the family's poset, and the periodic resolutions of the G/H_0
(Brown, Cohomology of Groups, GTM 87, I.6) laid over its strict chains
H_0 < ... < H_p resolve the constant functor: one block M(G/H_0) per chain
in each degree n = p + q, differential d_h + (-1)^p d_v.  d_v is g - 1 for
even q and the norm for odd q; d_h alternates the faces of the chain, face 0
being |H_1/H_0|^(q // 2) times the projection's module map (the comparison
maps of the resolutions, which compose strictly), the others the identity.
A degree has a few blocks where the nerve of the trivial family alone has
(|G| - 1)^n chains; BredonComplex stays the oracle it is checked against.

When every member of the family is normal, NormalFamilyComplex does the
same with resolutions of the quotients.  Hom(G/K, G/H) = G/H for K <= H,
so the orbit category is again the Grothendieck construction of H |-> G/H,
and resolutions of Z over the G/H_0, mapped to each other along the
projections by chain maps that compose strictly, laid over the strict
chains resolve the constant functor (Thomason's homotopy colimit theorem):
one block M(G/H_0) per strict chain H_0 < ... < H_p and per generator of
H_0's resolution in degree q, n = p + q, with d = d_h + (-1)^p d_v.  d_v is
that resolution's differential on M(G/H_0); faces 1..p of d_h are the
identity.  An object keeps the normalized bar resolution of G/H_0 (Brown,
I.5), one generator per cell (g_1, ..., g_q) of non-identity automorphisms,
unless it is a minimal member (no member lies strictly inside it) whose
quotient is abelian.  Such a G/H_0 = <t_1> x ... x <t_r> (_cyclic_factors,
a normal form of its relation lattice) takes the tensor product of the
periodic resolutions of the <t_j> (Brown, I.6 and V.1), one generator e_a
per a in N^r with |a| = q, C(q + r - 1, r - 1) of them against the bar's
(|G/H_0| - 1)^q: d e_a = sum_j (-1)^(a_1 + ... + a_{j-1}) theta_j
e_(a - delta_j), theta_j being t_j - 1 for odd a_j and the norm of <t_j>
for even a_j.  Face 0 of d_h sends a cochain phi on H_1's bar cells to
M(pi) o phi o B(pi) o c: B(pi) maps a cell to its image under G/H_0 ->
G/H_1 (none if an image is the identity), and c is the comparison map from
H_0's resolution to its bar resolution, c_0(e) = [] and c_q(e) =
s(c_{q-1}(d e)) with s(x[g_1|...]) = [x|g_1|...] the bar resolution's
contracting homotopy, so each c_q(e) is an integer combination of cells (on
the bar resolution c is the identity).  The bar construction is a functor
of the group and a minimal member is never the target of a projection, so
B(pi_12) o B(pi_01) o c = B(pi_02) o c and d o d = 0 holds strictly: no
higher homotopies enter d_h.  Precomposition with c maps the complex built
on bar cells alone to this one, inducing H^q(G/H_0; M(G/H_0)) isomorphically
on each column, so by the spectral sequence of the filtration by p the
total cohomology is the same.  The blocks in degree n are far fewer than
the nerve's chains wherever one member lies in another, as a map G/H_0 ->
G/H_1 enters only as the projection.

Its tables (the resolution's d, d_v, B(pi) o c and face 0 of d_h) are keyed
by what each reads, not by object, so objects and pairs that read the same
share one: d by the object's resolution, the automorphism table in place
order or the cyclic rows; d_v by that and the module maps of the
automorphisms; B(pi) o c by the resolution and the image of H_0's
automorphisms in H_1's; face 0 by that and the projection's module map.

cochain_complex picks the complex a command reads: CyclicComplex for a
cyclic group, NormalFamilyComplex for normal members with a strict
inclusion among them or with abelian quotients alone, the nerve otherwise.
On an antichain of normal members the bar cells are the nerve's chains, so
NormalFamilyComplex gains there only where every member is minimal with an
abelian quotient and takes the product resolution.  The two strict-chain
complexes share _StrictChains: the chains, their counts by length and start,
the size cap, which counts the blocks of one degree from those counts before
any chain is listed, and the faces 1..p.

Each complex supplies its layout (the blocks of a degree, under its own size
cap), _values(degree), one group per block in block order, and
_entries(degree, src_off, dst_off), the entries of d^degree given each
block's first generator in C^degree and in C^{degree+1}, then the total.
_CochainComplex builds, caches and hands out every cochain group and
differential, and reads cohomology off them.
"""

from __future__ import annotations

from itertools import accumulate, product, repeat
from math import comb

from .coeff import GModule, OrbitModule
from .errors import BadParametersError, SizeLimitError
from .groups import Family, family_close
from .intlin import (
    AbHom,
    FgAbGroup,
    IntMatrix,
    NormalFormMap,
    SubquotientPresentation,
    direct_sum_groups,
    invariant_factors,
    kernel_of_hom,
    product_vanishes,
    solve_exact,
    stack_homs,
    subquotient,
)
from .orbitcat import DEFAULT_CHAIN_CAP, ChainTable, OrbitMorphism, canonical_rep

DEFAULT_SIZE_CAP = DEFAULT_CHAIN_CAP


class _CochainComplex:
    """Cohomology of a cochain complex from its differentials.

    Subclasses supply their blocks and entries (see the module docstring);
    this class builds and caches every cochain group and differential, and
    the subquotient step is shared.

    Whether d^n @ d^{n-1} vanishes over Z is tested once per degree,
    exactly (intlin.product_vanishes), for the d.d check and subquotient's
    choice of route.  On the invariant-factor route each differential is
    eliminated once per complex: _eliminated keeps, per degree, the
    invariant factors of d^n and its unit pivots (a map from row to
    column).  Clearing: when d^n @ d^{n-1} vanishes over Z and d^{n-1} is
    already eliminated, the columns of d^n at d^{n-1}'s unit-pivot rows T
    are left out of its elimination.  That elimination retires its unit
    pivots, by column operations, before any other step, so d^{n-1}[:, R] =
    S[:, R] U (R the pivot columns, S the pivot columns as retired, U unit
    upper triangular) with S[T, R] unit lower triangular up to sign; the
    pivot minor d^{n-1}[T, R] is square with determinant +-1.  Hence the
    matrix [d^{n-1}[:, R] | e_t for t not in T] is unimodular, d^n maps its
    first block to zero, and d^n and d^n[:, not T] have the same invariant
    factors.
    """

    def __init__(self):
        self._blocks_at: dict[int, tuple[FgAbGroup, list[int]]] = {}
        self._diffs: dict[int, AbHom] = {}
        self._vanishes: dict[int, bool] = {}
        self._eliminated: dict[int, tuple[list[int], dict[int, int]]] = {}

    def _blocks(self, degree: int) -> tuple[FgAbGroup, list[int]]:
        """(C^degree, each block's first generator, then the total)."""
        got = self._blocks_at.get(degree)
        if got is None:
            values = self._values(degree)
            got = self._blocks_at[degree] = (
                direct_sum_groups(values),
                list(accumulate((v.ngens for v in values), initial=0)))
        return got

    def cochain_group(self, degree: int) -> FgAbGroup:
        return self._blocks(degree)[0]

    def differential(self, degree: int) -> AbHom:
        """d^degree: C^degree -> C^{degree+1}, assembled once."""
        got = self._diffs.get(degree)
        if got is None:
            source, src_off = self._blocks(degree)
            target, dst_off = self._blocks(degree + 1)
            got = self._diffs[degree] = AbHom(source, target, IntMatrix._own(
                dst_off[-1], src_off[-1], self._entries(degree, src_off, dst_off)))
        return got

    def _differentials_at(self, degree: int) -> tuple[AbHom, AbHom]:
        """(d^{degree-1}, d^degree), with the zero map into degree 0."""
        if degree < 0:
            raise BadParametersError("degree must be >= 0")
        if degree == 0:
            d_next = self.differential(0)
            return AbHom.zero(FgAbGroup.free(0), d_next.source), d_next
        # the lower one first, so chain tables are built in ascending order
        return self.differential(degree - 1), self.differential(degree)

    def _dd_vanishes(self, degree: int) -> bool:
        """Whether d^degree @ d^{degree-1} is 0 over Z, tested once per degree."""
        got = self._vanishes.get(degree)
        if got is None:
            d_in, d_out = self._differentials_at(degree)
            got = self._vanishes[degree] = product_vanishes(d_out.matrix,
                                                            d_in.matrix)
        return got

    def _factors(self, degree: int) -> list[int]:
        """Invariant factors of d^degree, cleared by d^{degree-1} when it can."""
        if degree < 0:
            return []
        got = self._eliminated.get(degree)
        if got is None:
            below = self._eliminated.get(degree - 1)
            cleared = {}
            if below is not None and self._dd_vanishes(degree):
                cleared = below[1]
            got = invariant_factors(self.differential(degree).matrix, cleared)
            self._eliminated[degree] = got
        return got[0]

    def cohomology_presentation(self, degree: int) -> SubquotientPresentation:
        """H^degree with cocycle representatives: canonical,
        representative(i) and its inverse class_of(vec)."""
        return SubquotientPresentation(*self._differentials_at(degree))

    def cohomology(self, degree: int) -> FgAbGroup:
        """H^degree, canonical (FgAbGroup.from_invariants)."""
        # d^{degree-1} is eliminated first, so d^degree can be cleared
        return subquotient(
            *self._differentials_at(degree), self._dd_vanishes(degree),
            lambda: (self._factors(degree - 1), self._factors(degree)))


class BredonComplex(_CochainComplex):
    """Cochain complex of one (family, orbit module) pair.

    Chain blocks follow the deterministic lexicographic chain order, so the
    assembled matrices are bit-stable across runs.  The chains are those of
    the module's category: the reduced (skeletal, normalized) one for every
    module this package builds.
    """

    def __init__(self, family: Family, module: OrbitModule,
                 size_cap: int = DEFAULT_SIZE_CAP):
        if module.family.parent is not family.parent:
            raise BadParametersError("module and family disagree on the group")
        if module.family.member_sets() != family.member_sets():
            raise BadParametersError("module and family disagree on the members")
        self.family, self.module, self.size_cap = family, module, size_cap
        self.cat = module.cat
        super().__init__()

    def layout(self, degree: int) -> ChainTable:
        """The chains of one degree, within the size cap."""
        return self.cat.chains(degree, self.size_cap)

    def _values(self, degree: int) -> list[FgAbGroup]:
        return list(map(self.module.values.__getitem__, self.layout(degree).start))

    def _entries(self, degree: int, src_off, dst_off) -> dict:
        """d^degree, in one pass over the rows of the face table of degree
        + 1: face 0 is twisted by the first morphism's module map, face k > 0
        adds (-1)^k on its block's diagonal unless degenerate (-1)."""
        dst = self.layout(degree + 1)
        n = len(dst.start)
        signs = [(-1) ** k for k in range(degree + 2)] if n else []
        entries: dict[tuple[int, int], int] = {}
        get, maps = entries.get, self.module.maps
        for r, (a, roff, rend) in enumerate(zip(dst.first, dst_off, dst_off[1:])):
            faces = dst.faces[r::n]
            coff = src_off[faces[0]]
            for (i, j), v in maps[a].entries.items():
                entries[(roff + i, coff + j)] = v
            rows = range(roff, rend)
            for k in range(1, degree + 2):
                f = faces[k]
                if f >= 0:
                    shift = src_off[f] - roff
                    sign = signs[k]
                    for i in rows:
                        key = (i, i + shift)
                        v = get(key, 0) + sign
                        if v:
                            entries[key] = v
                        else:
                            del entries[key]
        return entries


def _cyclic_generator(group) -> int | None:
    """An element of the group's own order, or None when it is not cyclic."""
    return next((a for a in range(group.order)
                 if group.element_order(a) == group.order), None)


class _StrictChains:
    """The strict-chain layer that CyclicComplex and NormalFamilyComplex
    share: the strict chains H_0 < ... < H_p of the module's objects, where
    their blocks start, and the faces 1..p of d_h.

    A chain from object i carries _gens(i, q) blocks M(G/H_0) in degree
    p + q, the generators of i's resolution in degree q.  The size cap
    counts the blocks of one degree, from the counts of chains by length
    and start alone, before any chain is listed.
    """

    def __init__(self, module: OrbitModule, size_cap: int):
        self.module, self.size_cap = module, size_cap
        subs = module.cat.subgroups
        members = [set(h.members) for h in subs]
        # the members strictly above H, each with the projection's module map
        self._above = [
            {j: module.map_matrix(OrbitMorphism(h, k, 0))
             for j, k in enumerate(subs) if members[i] < members[j]}
            for i, h in enumerate(subs)]
        # the number of strict chains of each length from each start, up to
        # the first length with none
        self._counts = [[1] * len(subs)]
        while any(self._counts[-1]):
            self._counts.append([sum(map(self._counts[-1].__getitem__, up))
                                 for up in self._above])
        self._levels = [[(i,) for i in range(len(subs))]]
        super().__init__()

    def layout(self, degree: int) -> list[tuple[int, ...]]:
        """The strict chains of the blocks of one degree, by length, then in
        lexicographic order, within the size cap."""
        total = sum(c * self._gens(i, degree - p)
                    for p, counts in enumerate(self._counts[:degree + 1])
                    for i, c in enumerate(counts))
        if total > self.size_cap:
            raise SizeLimitError(total, self.size_cap)
        levels = self._levels
        while len(levels) <= degree and levels[-1]:
            levels.append(sorted((i,) + c for c in levels[-1]
                                 for i, up in enumerate(self._above) if c[0] in up))
        return [c for level in levels[:degree + 1] for c in level]

    def _offsets(self, degree: int, off: list[int]) -> dict:
        """Each chain of the degree to its first generator, given the blocks'."""
        chains = self.layout(degree)
        firsts = accumulate((self._gens(c[0], degree + 1 - len(c)) for c in chains),
                            initial=0)
        return dict(zip(chains, map(off.__getitem__, firsts)))

    @staticmethod
    def _inner_faces(entries: dict, chain, roff: int, src: dict, size: int):
        """Faces 1..p of d_h into chain's blocks at roff: (-1)^i times the
        identity from the chain without H_i, over its first size generators."""
        rows = range(roff, roff + size)
        for i in range(1, len(chain)):
            coff = src[chain[:i] + chain[i + 1:]]
            entries.update(zip(zip(rows, range(coff, coff + size)),
                               repeat(-1 if i % 2 else 1)))


class CyclicComplex(_StrictChains, _CochainComplex):
    """Cochain complex of an orbit module over a cyclic group on the
    periodic resolution (see the module docstring), for any family.

    In one degree a block is named by its chain alone, q being the degree
    less the chain's length; the blocks follow the chains by length, then
    in lexicographic order.  The size cap counts the blocks of one degree.
    """

    def __init__(self, module: OrbitModule, size_cap: int = DEFAULT_SIZE_CAP):
        cat, group = module.cat, module.cat.group
        gen = _cyclic_generator(group)
        if gen is None:
            raise BadParametersError(f"{group.name} is not cyclic")
        norm = [IntMatrix(v.ngens, v.ngens) for v in module.values]
        for k, (s, t) in enumerate(zip(cat.m_src, cat.m_tgt)):
            if s == t:
                norm[s] = norm[s] + module.maps[k]
        # d_v at H: (g - 1, the norm)
        self._vertical = [(module.map_matrix(OrbitMorphism(
            h, h, canonical_rep(group, gen, h))) - IntMatrix.identity(v.ngens), nm)
            for h, v, nm in zip(cat.subgroups, module.values, norm)]
        super().__init__(module, size_cap)

    @staticmethod
    def _gens(i: int, q: int) -> int:
        return 1

    def _values(self, degree: int) -> list[FgAbGroup]:
        return [self.module.values[c[0]] for c in self.layout(degree)]

    def _entries(self, degree: int, src_off, dst_off) -> dict:
        """d^degree, one target block at a time: (-1)^p d_v from the same
        chain, then the faces of the chain, which are distinct chains."""
        src = self._offsets(degree, src_off)
        subs, values = self.module.cat.subgroups, self.module.values
        entries: dict[tuple[int, int], int] = {}

        def put(roff, coff, mat, c):
            for (i, j), v in mat.entries.items():
                entries[(roff + i, coff + j)] = c * v

        for chain, roff in self._offsets(degree + 1, dst_off).items():
            p, h = len(chain) - 1, chain[0]
            q = degree + 1 - p
            if q:
                put(roff, src[chain], self._vertical[h][(q - 1) % 2], (-1) ** p)
            if p:
                k = chain[1]
                put(roff, src[chain[1:]], self._above[h][k],
                    (subs[k].size // subs[h].size) ** (q // 2))
                self._inner_faces(entries, chain, roff, src, values[h].ngens)
        return entries


def _matrix_key(mat: IntMatrix) -> tuple:
    """A matrix as a key: its shape, then its entries in their order."""
    return mat.rows, mat.cols, tuple(mat.entries.items())


def _cyclic_factors(group, sub) -> list[int] | None:
    """Elements t_1, ..., t_r of the group, each the least of its coset,
    with G/sub = <t_1 sub> x ... x <t_r sub> (sub normal) and every factor
    nontrivial; None when G/sub is not abelian.

    Exact for every finite abelian quotient: G/sub is Z^m over the lattice
    of exponent vectors of G's m generators that land in sub, which the
    Schreier relations v(x) + e_i - v(x g_i) span (v(x) the exponents of
    x's coset along a spanning tree); the t_j are the images of the
    generators of that presentation's normal form."""
    gens, mul = group.generating_set, group.mul
    if any(mul(mul(a, b), group.inverse[mul(b, a)]) not in sub
           for a in gens for b in gens):
        return None
    vec, reached, relations = {0: (0,) * len(gens)}, [0], set()
    for x in reached:
        for i, g in enumerate(gens):
            v = vec[x]
            v = v[:i] + (v[i] + 1,) + v[i + 1:]
            y = canonical_rep(group, mul(x, g), sub)
            if y in vec:
                relations.add(tuple(a - b for a, b in zip(v, vec[y])))
            else:
                vec[y] = v
                reached.append(y)
    relations.discard((0,) * len(gens))
    nf = NormalFormMap(FgAbGroup(len(gens), IntMatrix(len(gens), len(relations), {
        (i, j): v for j, col in enumerate(sorted(relations)) for i, v in enumerate(col) if v})))
    out = []
    for j in range(nf.from_nf.cols):      # G/sub is finite: torsion alone
        t = 0
        for i, g in enumerate(gens):
            for _ in range(nf.from_nf[i, j] % group.order):
                t = mul(t, g)
        out.append(canonical_rep(group, t, sub))
    return out


def _compositions(q: int, r: int) -> list[tuple[int, ...]]:
    """The a in N^r with a_1 + ... + a_r = q, in lexicographic order."""
    if r == 1:
        return [(q,)]
    return [(a,) + rest for a in range(q + 1) for rest in _compositions(q - a, r - 1)]


class NormalFamilyComplex(_StrictChains, _CochainComplex):
    """Cochain complex of an orbit module whose family has normal members
    alone, on resolutions of the G/H laid over the strict chains (see the
    module docstring).

    In one degree the blocks follow the chains as CyclicComplex's do, and a
    chain's blocks follow the generators of its first object's resolution:
    at a minimal member with an abelian quotient the e_a, a in N^r, of the
    product of periodic resolutions, lexicographically; at any other object
    the cells (g_1, ..., g_q) lexicographically, each g_i a non-identity
    automorphism of G/H_0 in the category's order.  The size cap counts the
    blocks of one degree.
    """

    def __init__(self, module: OrbitModule, size_cap: int = DEFAULT_SIZE_CAP):
        cat = module.cat
        group, subs = cat.group, cat.subgroups
        if not all(h.is_normal() for h in subs):
            raise BadParametersError(
                f"a family member is not normal in {group.name}")
        # the automorphisms of each G/H but the identity, and _comp[h][a][b]
        # the place of autos a then b among them, -1 where that is the identity
        self._autos = [[m for m in out if cat.m_tgt[m] == i
                        and not cat.morphs[m].is_identity()]
                       for i, out in enumerate(cat.out)]
        places = [{m: a for a, m in enumerate(autos)} for autos in self._autos]
        self._comp = [[[place.get(cat.compose_ids(x, y), -1) for y in autos]
                       for x in autos] for place, autos in zip(places, self._autos)]
        # at a minimal member with an abelian quotient, the powers 1, t, ...
        # of each cyclic factor <t> by their places (-1 for the identity);
        # None at the objects that keep the bar resolution
        members = [set(h.members) for h in subs]
        self._cyclic = []
        for h, mine, place in zip(subs, members, places):
            rows = []
            if not any(m < mine for m in members):
                for t in _cyclic_factors(group, h) or ():
                    row, x = [-1], t
                    while x:
                        row.append(place[cat.morphism_id(OrbitMorphism(h, h, x))])
                        x = canonical_rep(group, group.mul(x, t), h)
                    rows.append(row)
            self._cyclic.append(rows or None)
        # the ids of what each object's tables read (module docstring): its
        # resolution, and that with its automorphisms' module maps
        self._ids: dict[tuple, int] = {}
        self._resolution = [self._id((rows is None, tuple(map(tuple, rows or comp))))
                            for rows, comp in zip(self._cyclic, self._comp)]
        self._twist = [self._id((res, v.ngens, tuple(_matrix_key(module.maps[m])
                                                     for m in autos)))
                       for res, v, autos in zip(self._resolution, module.values, self._autos)]
        self._pairs: dict[tuple[int, int], tuple] = {}
        self._terms: dict[tuple, dict] = {}
        self._verticals: dict[tuple, list] = {}
        self._compared_at: dict[tuple, list] = {}
        self._projections: dict[tuple, list] = {}
        super().__init__(module, size_cap)

    def _id(self, read: tuple) -> int:
        """A small key for what a table reads, the same for equal reads."""
        return self._ids.setdefault(read, len(self._ids))

    def _gens(self, i: int, q: int) -> int:
        """The generators of object i's resolution in degree q."""
        rows = self._cyclic[i]
        return comb(q + len(rows) - 1, q) if rows else len(self._autos[i]) ** q

    def _values(self, degree: int) -> list[FgAbGroup]:
        values = self.module.values
        return [values[c[0]] for c in self.layout(degree)
                for _ in range(self._gens(c[0], degree + 1 - len(c)))]

    def _entries(self, degree: int, src_off, dst_off) -> dict:
        """d^degree, one target chain at a time: (-1)^p d_v from the same
        chain, face 0 of d_h from the chain without H_0, then faces 1..p;
        d_v and face 0 shift one table each, built once per distinct key."""
        src = self._offsets(degree, src_off)
        values = self.module.values
        entries: dict[tuple[int, int], int] = {}
        for chain, roff in self._offsets(degree + 1, dst_off).items():
            p, h = len(chain) - 1, chain[0]
            q = degree + 1 - p
            if q:
                coff, sign = src[chain], -1 if p % 2 else 1
                entries.update({(roff + i, coff + j): sign * v
                                for i, j, v in self._vertical(h, q)})
            if p:
                coff = src[chain[1:]]
                entries.update({(roff + i, coff + j): v
                                for i, j, v in self._projection(h, chain[1], q)})
                self._inner_faces(entries, chain, roff, src,
                                  self._gens(h, q) * values[h].ngens)
        return entries

    def _boundary(self, h: int, q: int) -> dict[int, dict[tuple[int, int], int]]:
        """The resolution's d from degree q to q - 1 at object h, as {x: {(t,
        s): c}}: d e_t holds c x e_s, x an automorphism of G/H by its place
        (-1 for the identity); some c may be 0.

        Bar: d[g_1|...|g_q] = g_1[g_2|...] + sum (-1)^i [...|g_i g_{i+1}|...]
        (none where g_i g_{i+1} = 1) + (-1)^q [g_1|...|g_{q-1}], cell t being
        sum g_i k^(q - i).  Product of periodic resolutions: d e_a = sum over
        a_j > 0 of (-1)^(a_1 + ... + a_{j-1}) theta_j e_(a - delta_j), theta_j
        being t_j - 1 for odd a_j and the norm of <t_j> for even a_j."""
        at = (self._resolution[h], q)
        got = self._terms.get(at)
        if got is None:
            rows = self._cyclic[h]
            if rows is None:
                k, comp = len(self._autos[h]), self._comp[h]
                below = k ** (q - 1)
                got = {x: {(x * below + r, r): 1 for r in range(below)}
                       for x in range(k)}
                ident = got[-1] = {}
                get = ident.get
                for t in range(k * below):
                    for i in range(1, q):
                        w = k ** (q - i - 1)        # the weight of g_{i+1}
                        head, pair = divmod(t // w, k * k)
                        c = comp[pair // k][pair % k]
                        if c >= 0:
                            key = (t, (head * k + c) * w + t % w)
                            ident[key] = get(key, 0) + (-1 if i % 2 else 1)
                    key = (t, t // k)
                    ident[key] = get(key, 0) + (-1 if q % 2 else 1)
            else:
                got = {x: {} for row in rows for x in row}
                place = {a: s for s, a in enumerate(_compositions(q - 1, len(rows)))}
                for t, a in enumerate(_compositions(q, len(rows))):
                    sign = 1
                    for j, (e, row) in enumerate(zip(a, rows)):
                        if e:
                            s = place[a[:j] + (e - 1,) + a[j + 1:]]
                            if e % 2:
                                got[row[1]][(t, s)], got[-1][(t, s)] = sign, -sign
                                sign = -sign
                            else:
                                for x in row:
                                    got[x][(t, s)] = sign
            self._terms[at] = got
        return got

    def _vertical(self, h: int, q: int) -> list[tuple[int, int, int]]:
        """d_v into the degree-q generators of object h from those of degree
        q - 1, as (row, column, value) in generators of M(G/H): each c x e_s
        in _boundary as c times x's module map."""
        at = (self._twist[h], q)
        got = self._verticals.get(at)
        if got is None:
            n, maps, autos = self.module.values[h].ngens, self.module.maps, self._autos[h]
            terms = self._boundary(h, q)
            acc = {(t * n + e, s * n + e): c
                   for (t, s), c in terms[-1].items() for e in range(n)}
            get = acc.get
            for x, group in terms.items():
                if x >= 0:
                    pairs = list(maps[autos[x]].entries.items())
                    for (t, s), c in group.items():
                        row, col = t * n, s * n
                        for (i, j), v in pairs:
                            key = (row + i, col + j)
                            acc[key] = get(key, 0) + c * v
            got = self._verticals[at] = [(i, j, v) for (i, j), v in acc.items() if v]
        return got

    def _pair(self, h: int, top: int) -> tuple:
        """For pi: G/H -> G/H_top, once per pair: G/H_top's automorphisms
        but the identity, counted; the place among them of the image of each
        of G/H's (-1 for the identity); the id of that and h's resolution
        (B(pi) o c reads it); and the id of that and pi's module map (face 0
        reads it; None for top = h)."""
        got = self._pairs.get((h, top))
        if got is None:
            cat = self.module.cat
            least = cat.subgroups[top].coset_table
            pos = {cat.morphs[m].rep: a for a, m in enumerate(self._autos[top])}
            image = tuple(pos.get(least[cat.morphs[m].rep], -1) for m in self._autos[h])
            compared = self._id((self._resolution[h], len(pos), image))
            proj = self._above[h].get(top)
            got = self._pairs[(h, top)] = (len(pos), image, compared, proj and self._id(
                (compared, _matrix_key(proj))))
        return got

    def _compared(self, h: int, top: int, q: int) -> list[dict[int, int]]:
        """B(pi) o c in degree q, pi: G/H -> G/H_top (the identity for top =
        h): each generator of object h's resolution to {cell of G/H_top's
        normalized bar resolution: coefficient}.

        c is the comparison map to the bar resolution of G/H, c_0(e) = []
        and c_q(e) = s(c_{q-1}(d e)), s(x[g_1|...]) = [x|g_1|...] being its
        contracting homotopy (0 for x = 1), and the identity on the bar
        resolution.  B(pi) commutes with s, so B(pi) c_q(e) is the sum of c
        [pi x|B(pi) c_{q-1}(e_s)] over the terms c x e_s of d e (none where
        pi x = 1)."""
        count, image, compared, _ = self._pair(h, top)
        got = self._compared_at.get((compared, q))
        if got is None:
            got = [{0: 1}]
            if q:
                below, w = self._compared(h, top, q - 1), count ** (q - 1)
                got = [{} for _ in range(self._gens(h, q))]
                for x, group in self._boundary(h, q).items():
                    if x >= 0 and image[x] >= 0:
                        base = image[x] * w
                        for (t, s), c in group.items():
                            acc = got[t]
                            for cell, v in below[s].items():
                                acc[base + cell] = acc.get(base + cell, 0) + c * v
            self._compared_at[(compared, q)] = got
        return got

    def _projection(self, h: int, top: int, q: int) -> list[tuple[int, int, int]]:
        """Face 0 of d_h into the degree-q generators of object h from the
        q-cells of object top, as (row, column, value) in generators: B(pi) o
        c of each generator, times the projection's module map."""
        at = (self._pair(h, top)[3], q)
        got = self._projections.get(at)
        if got is None:
            n, n_top = self.module.values[h].ngens, self.module.values[top].ngens
            proj = list(self._above[h][top].entries.items())
            got = self._projections[at] = [
                (t * n + i, c * n_top + j, v * u)
                for t, cells in enumerate(self._compared(h, top, q))
                for c, v in cells.items() if v for (i, j), u in proj]
        return got


def cochain_complex(module: OrbitModule,
                    size_cap: int = DEFAULT_SIZE_CAP) -> _CochainComplex:
    """The complex the module's cohomology is read off, picked from what the
    input shows (see the module docstring)."""
    cat = module.cat
    if _cyclic_generator(cat.group) is not None:
        return CyclicComplex(module, size_cap)
    members = [set(h.members) for h in cat.subgroups]
    if all(h.is_normal() for h in cat.subgroups) and (
            any(a < b for a in members for b in members)
            or all(_cyclic_factors(cat.group, h) is not None for h in cat.subgroups)):
        return NormalFamilyComplex(module, size_cap)
    return BredonComplex(module.family, module, size_cap)


# ---------------------------------------------------------------------------
# Ordinary group cohomology via the inhomogeneous bar complex (the oracle)

class BarComplex(_CochainComplex):
    """Unnormalized bar cochain complex of a finite group module."""

    def __init__(self, module: GModule, size_cap: int = DEFAULT_SIZE_CAP):
        self.module = module.normalized()
        self.group = module.group
        self.size_cap = size_cap
        self.gens = self.module.carrier.ngens
        self._layout_cache: dict[int, list[tuple]] = {}
        super().__init__()

    def tuples(self, degree: int) -> list[tuple]:
        got = self._layout_cache.get(degree)
        if got is None:
            count = self.group.order ** degree * max(self.gens, 1)
            if count > self.size_cap:
                raise SizeLimitError(count, self.size_cap)
            got = list(product(range(self.group.order), repeat=degree))
            self._layout_cache[degree] = got
        return got

    def _values(self, degree: int) -> list[FgAbGroup]:
        return [self.module.carrier] * len(self.tuples(degree))

    def _entries(self, degree: int, src_off, dst_off) -> dict:
        """d^degree.  Tuples are lexicographic, so the one at index r has
        the base-|G| digits c and each face's index is read off them."""
        g, k, n1, q = self.group, self.gens, degree + 1, self.group.order
        pw = [q ** e for e in range(n1 + 1)]
        entries: dict[tuple[int, int], int] = {}

        def add(i, j, v):
            key = (i, j)
            s = entries.get(key, 0) + v
            if s:
                entries[key] = s
            elif key in entries:
                del entries[key]

        for r, c in enumerate(self.tuples(n1)):
            roff = r * k
            coff = (r - c[0] * pw[degree]) * k
            for (i, j), v in self.module.act(c[0]).entries.items():
                add(roff + i, coff + j, v)
            for i in range(1, n1):
                low = pw[n1 - 1 - i]
                face = ((r // pw[n1 - i + 1] * q + g.mul(c[i - 1], c[i])) * low
                        + r % low)
                sign = -1 if i % 2 else 1
                coff = face * k
                for t in range(k):
                    add(roff + t, coff + t, sign)
            sign = -1 if n1 % 2 else 1
            coff = r // q * k
            for t in range(k):
                add(roff + t, coff + t, sign)
        return entries


# ---------------------------------------------------------------------------
# Kernels of restriction maps on ordinary cohomology

def _bar_restriction_matrix(bar_g: BarComplex, bar_h: BarComplex,
                            embed, degree: int) -> IntMatrix:
    """Matrix of cochain restriction C^degree(G) -> C^degree(H)."""
    k = bar_g.gens
    src_index = {c: i for i, c in enumerate(bar_g.tuples(degree))}
    entries = {}
    for r, c in enumerate(bar_h.tuples(degree)):
        big = tuple(embed[x] for x in c)
        coff = src_index[big] * k
        for t in range(k):
            entries[(r * k + t, coff + t)] = 1
    return IntMatrix(len(bar_h.tuples(degree)) * k,
                     len(bar_g.tuples(degree)) * k, entries)


def restriction_kernel_intersection(module: GModule, family: Family,
                                    degree: int,
                                    size_cap: int = DEFAULT_SIZE_CAP
                                    ) -> tuple[FgAbGroup, bool | None]:
    """Intersection over the family of restriction kernels in H^degree(G, M),
    the classes restricting to zero on every family member.

    Returned with h1_hypothesis: None at degree 1.  At degree 2 the
    comparison with the orbit-category group is only meaningful under the
    vanishing of first cohomology on the conjugation closure of the family;
    h1_hypothesis is the checked outcome.
    """
    if degree not in (1, 2):
        raise BadParametersError("only degrees 1 and 2 are interpreted")
    if family.parent is not module.group:
        raise BadParametersError("family belongs to a different group")
    bar_g = BarComplex(module, size_cap)
    pres_g = bar_g.cohomology_presentation(degree)

    homs, bars = [], {}
    for sub in family:
        msub, embed = module.restrict_to(sub)
        bar_h = bars[sub.members] = BarComplex(msub, size_cap)
        pres_h = bar_h.cohomology_presentation(degree)
        res = _bar_restriction_matrix(bar_g, bar_h, embed, degree)
        sol = solve_exact(pres_h.basis, res @ pres_g.basis)
        if sol is None:
            raise BadParametersError("restricted cocycle failed to be a cocycle")
        induced = AbHom(pres_g.group, pres_h.group, sol)
        if not induced.well_defined():
            raise BadParametersError(
                "induced restriction map failed to respect boundaries")
        homs.append(induced)

    kernel, _ = kernel_of_hom(stack_homs(homs))
    # H^1 on the closure, read off the complexes above where there is one
    hypothesis = None if degree == 1 else all(
        (bars.get(sub.members) or BarComplex(module.restrict_to(sub)[0], size_cap))
        .cohomology(1).is_trivial()
        for sub in family_close(family, under_conjugation=True))
    return FgAbGroup.from_invariants(*kernel.normal_form), hypothesis
