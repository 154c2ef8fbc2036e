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

Each complex supplies its layout (the blocks of a degree, under its own size
cap), _values(degree), one group per block in block order, and
_entries(degree, src_off, dst_off), the entries of d^degree given each
block's first generator in C^degree and in C^{degree+1}, then the total.
_CochainComplex builds, caches and hands out every cochain group and
differential, and reads cohomology off them.
"""

from __future__ import annotations

from itertools import accumulate, product

from .coeff import GModule, OrbitModule
from .errors import BadParametersError, SizeLimitError
from .groups import Family, family_close
from .intlin import (
    AbHom,
    FgAbGroup,
    IntMatrix,
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


class CyclicComplex(_CochainComplex):
    """Cochain complex of an orbit module over a cyclic group on the
    periodic resolution (see the module docstring), for any family.

    In one degree a block is named by its chain alone, q being the degree
    less the chain's length; the blocks follow the chains by length, then
    in lexicographic order.  The size cap counts the blocks of one degree.
    """

    def __init__(self, module: OrbitModule, size_cap: int = DEFAULT_SIZE_CAP):
        cat, group = module.cat, module.cat.group
        gen = next((a for a in range(group.order)
                    if group.element_order(a) == group.order), None)
        if gen is None:
            raise BadParametersError(f"{group.name} is not cyclic")
        self.module, self.size_cap = module, size_cap
        subs = cat.subgroups
        self._ident = [IntMatrix.identity(v.ngens) for v in module.values]
        norm = [IntMatrix(v.ngens, v.ngens) for v in module.values]
        for k, (s, t) in enumerate(zip(cat.m_src, cat.m_tgt)):
            if s == t:
                norm[s] = norm[s] + module.maps[k]
        # d_v at H: (g - 1, the norm)
        self._vertical = [(module.map_matrix(OrbitMorphism(
            h, h, canonical_rep(group, gen, h))) - e, nm)
            for h, e, nm in zip(subs, self._ident, norm)]
        # the members strictly above H, each with (|K/H|, the projection's map)
        members = [set(h.members) for h in subs]
        self._above = [
            {j: (k.size // h.size, module.map_matrix(OrbitMorphism(h, k, 0)))
             for j, k in enumerate(subs) if members[i] < members[j]}
            for i, h in enumerate(subs)]
        # the number of strict chains of each length, up to the first zero
        counts = [1] * len(subs)
        self._level_sizes = [len(subs)]
        while self._level_sizes[-1]:
            counts = [sum(map(counts.__getitem__, up)) for up in self._above]
            self._level_sizes.append(sum(counts))
        self._levels = [[(i,) for i in range(len(subs))]]
        super().__init__()

    def layout(self, degree: int) -> list[tuple[int, ...]]:
        """The strict chains of the blocks of one degree, within the size cap."""
        total = sum(self._level_sizes[:degree + 1])
        if total > self.size_cap:
            raise SizeLimitError(total, self.size_cap)
        levels = self._levels
        while len(levels) <= degree and levels[-1]:
            levels.append(sorted((i,) + c for c in levels[-1]
                                 for i, up in enumerate(self._above) if c[0] in up))
        return [c for level in levels[:degree + 1] for c in level]

    def _values(self, degree: int) -> list[FgAbGroup]:
        return [self.module.values[c[0]] for c in self.layout(degree)]

    def _entries(self, degree: int, src_off, dst_off) -> dict:
        """d^degree, one target block at a time: (-1)^p d_v from the same
        chain, then the faces of the chain, which are distinct chains."""
        src = dict(zip(self.layout(degree), src_off))
        entries: dict[tuple[int, int], int] = {}

        def put(roff, coff, mat, c):
            for (i, j), v in mat.entries.items():
                entries[(roff + i, coff + j)] = c * v

        for chain, roff in zip(self.layout(degree + 1), dst_off):
            p, h = len(chain) - 1, chain[0]
            q = degree + 1 - p
            if q:
                put(roff, src[chain], self._vertical[h][(q - 1) % 2], (-1) ** p)
            if p:
                index, proj = self._above[h][chain[1]]
                put(roff, src[chain[1:]], proj, index ** (q // 2))
                for i in range(1, p + 1):
                    put(roff, src[chain[:i] + chain[i + 1:]], self._ident[h],
                        (-1) ** i)
        return entries


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
