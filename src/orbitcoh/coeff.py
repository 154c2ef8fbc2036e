"""Coefficient systems: G-modules, invariant subgroups, orbit modules.

A G-module stores one action matrix per group element (not per generator);
at the orders this library handles that removes every consistency-derivation
subtlety.  Validation tests the module law A(xs) = A(x)A(s) for every x but
only for the generators s, O(|G| * #generators) products.  That is still
exact: with A(0) the identity and every A(x) respecting the relations,
induction over words in the generators gives A(xy) = A(x)A(y) for all x, y.
Orbit modules are contravariant functors from the orbit category to abelian
groups, checked against the functor laws at construction time.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby

from .errors import BadParametersError, FunctorialityError
from .groups import Family, FiniteGroup, Subgroup
from .intlin import (
    AbHom,
    FgAbGroup,
    IntMatrix,
    NormalFormMap,
    kernel_of_hom,
    lattice_contains,
    quotient_presentation,
    solve_exact,
    stack_homs,
)
from .orbitcat import OrbitCategory, OrbitMorphism, canonical_rep


class GModule:
    """F.g. abelian group with a left action of a finite group by matrices."""

    def __init__(self, group: FiniteGroup, carrier: FgAbGroup, actions,
                 validate: bool = True):
        self.group = group
        self.carrier = carrier
        self.actions = tuple(actions)
        if len(self.actions) != group.order:
            raise BadParametersError("need one action matrix per group element")
        if validate:
            self.validate()

    def validate(self):
        n = self.carrier.ngens
        ident = AbHom.identity(self.carrier)
        for g, m in enumerate(self.actions):
            if m.rows != n or m.cols != n:
                raise BadParametersError(f"action of {g} has wrong shape")
            hom = AbHom(self.carrier, self.carrier, m)
            if not hom.well_defined():
                raise BadParametersError(f"action of {g} does not respect relations")
        if not AbHom(self.carrier, self.carrier, self.actions[0]).equal_hom(ident):
            raise BadParametersError("identity element must act as the identity")
        # on generators only: exact, by induction over words (module docstring)
        gens = self.group.generating_set
        for a in range(self.group.order):
            for b in gens:
                ab = self.group.mul(a, b)
                lhs = AbHom(self.carrier, self.carrier,
                            self.actions[a] @ self.actions[b])
                rhs = AbHom(self.carrier, self.carrier, self.actions[ab])
                if not lhs.equal_hom(rhs):
                    raise BadParametersError(
                        f"action is not multiplicative at ({a},{b})")

    def act(self, g: int) -> IntMatrix:
        return self.actions[g]

    @cached_property
    def finite_module(self):
        """This finite module's interp.FiniteModule, kept as long as it is."""
        from .interp import FiniteModule
        return FiniteModule(self)

    @classmethod
    def trivial(cls, group: FiniteGroup, carrier: FgAbGroup) -> GModule:
        ident = IntMatrix.identity(carrier.ngens)
        return cls(group, carrier, [ident] * group.order, validate=False)

    @classmethod
    def from_generator_action(cls, group: FiniteGroup, carrier: FgAbGroup,
                              generators, matrices) -> GModule:
        """Derive the per-element table from matrices on a generating set."""
        generators = list(generators)
        matrices = [m if isinstance(m, IntMatrix) else IntMatrix.from_rows(m)
                    for m in matrices]
        if len(generators) != len(matrices):
            raise BadParametersError("generators and matrices must pair up")
        if any(not 0 <= s < group.order for s in generators):
            raise BadParametersError(
                f"generators must be elements 0..{group.order - 1}")
        n = carrier.ngens
        acts: dict[int, IntMatrix] = {0: IntMatrix.identity(n)}
        frontier = [0]
        for x in frontier:
            for s, ms in zip(generators, matrices):
                y = group.mul(x, s)
                candidate = acts[x] @ ms
                if y in acts:
                    if not AbHom(carrier, carrier, acts[y]).equal_hom(
                            AbHom(carrier, carrier, candidate)):
                        raise BadParametersError(
                            "generator matrices are inconsistent")
                else:
                    acts[y] = candidate
                    frontier.append(y)
        if len(acts) != group.order:
            raise BadParametersError("given elements do not generate the group")
        return cls(group, carrier, [acts[g] for g in range(group.order)])

    def restrict_to(self, sub: Subgroup) -> tuple[GModule, tuple[int, ...]]:
        """The same carrier as a module over the subgroup's own group."""
        h, embed = sub.as_group()
        return GModule(h, self.carrier, [self.actions[e] for e in embed],
                       validate=False), embed

    def normalized(self) -> GModule:
        """Equivalent module on the canonical diagonal presentation."""
        nf = NormalFormMap(self.carrier)
        acts = [nf.to_nf @ a @ nf.from_nf for a in self.actions]
        return GModule(self.group, nf.canonical, acts, validate=False)

def sign_modules(group: FiniteGroup) -> list[GModule]:
    """Z with each sign action of the group, one per index-2 subgroup."""
    out = []
    for index2 in group.all_subgroups():
        if index2.size * 2 != group.order:
            continue
        mem = set(index2.members)
        mats = [IntMatrix.from_rows([[1 if g in mem else -1]])
                for g in range(group.order)]
        out.append(GModule(group, FgAbGroup.free(1), mats))
    return out


def invariants(module: GModule, sub: Subgroup) -> tuple[FgAbGroup, IntMatrix]:
    """The fixed subgroup {m : h.m = m for all h in sub}: its presentation
    and its generators in the module's coordinates, as kernel_of_hom."""
    if sub.parent is not module.group:
        raise BadParametersError("subgroup of a different group")
    carrier = module.carrier
    ident = IntMatrix.identity(carrier.ngens)
    gens = sub.generators()
    if not gens:
        return quotient_presentation(ident, carrier.relations), ident
    return kernel_of_hom(stack_homs(
        AbHom(carrier, carrier, module.act(h) - ident) for h in gens))


class OrbitModule:
    """Contravariant functor from an orbit category to abelian groups.

    cat is an OrbitCategory of the family, the reduced one (objects on the
    skeleton) wherever this package builds a module: values[i] is the
    presented group at cat.subgroups[i], and maps[k] is the matrix of the
    map value(target) -> value(source) induced by the morphism cat.morphs[k].
    """

    def __init__(self, cat: OrbitCategory, values, maps,
                 source_gmodule: GModule | None = None, validate: bool = True):
        self.cat = cat
        self.family = cat.family
        self.values = list(values)
        self.maps = list(maps)
        self.source_gmodule = source_gmodule
        if validate:
            self.validate()

    def map_matrix(self, m: OrbitMorphism) -> IntMatrix:
        return self.maps[self.cat.morphism_id(m)]

    def validate(self):
        cat, values, maps = self.cat, self.values, self.maps
        if len(values) != len(cat.subgroups) or len(maps) != len(cat.morphs):
            raise FunctorialityError(
                "need one value per object and one map per morphism")
        for m, mat, s, t in zip(cat.morphs, maps, cat.m_src, cat.m_tgt):
            if (mat.rows, mat.cols) != (values[s].ngens, values[t].ngens):
                raise FunctorialityError(f"map at {m} has the wrong shape")
            hom = AbHom(values[t], values[s], mat)
            if not hom.well_defined():
                raise FunctorialityError(f"map at {m} not well defined")
            if m.is_identity() and not hom.equal_hom(AbHom.identity(values[s])):
                raise FunctorialityError(
                    f"identity at {m.source.members} is not identity")
        # contravariance: value(i then j) = value(i) o value(j), for all j
        # leaving i's target in one product
        after = [IntMatrix.hstack_all(v.ngens, [maps[j] for j in out])
                 for v, out in zip(values, cat.out)]
        for i, (mat, s, t) in enumerate(zip(maps, cat.m_src, cat.m_tgt)):
            comp = [cat.compose_ids(i, j) for j in cat.out[t]]
            lhs = mat @ after[t]
            rhs = IntMatrix.hstack_all(mat.rows, [maps[k] for k in comp])
            if lhs == rhs or lattice_contains(values[s].relations, lhs - rhs):
                continue
            for j, k in zip(cat.out[t], comp):
                if not lattice_contains(values[s].relations,
                                        mat @ maps[j] - maps[k]):
                    raise FunctorialityError(
                        f"functoriality fails on {cat.morphs[i]} then "
                        f"{cat.morphs[j]} (composite {cat.morphs[k]})")


def fixed_point_functor(module: GModule, family: Family) -> OrbitModule:
    """H |-> M^H with the morphism x K acting by m |-> x.m, on the skeleton.

    Values are stored in canonical normal form; the induced matrices are
    transported through the normalization.  L_s T = act(rep) L_t is solved
    for all morphisms out of s on one reduction of [L_s | relations].
    """
    if family.parent is not module.group:
        raise BadParametersError("family belongs to a different group")
    cat = OrbitCategory(family)
    relations = module.carrier.relations
    pres, gens = zip(*(invariants(module, s) for s in cat.subgroups))
    nf = [NormalFormMap(p) for p in pres]
    maps = [None] * len(cat.morphs)
    for s, ids in groupby(range(len(cat.morphs)), cat.m_src.__getitem__):
        ids = list(ids)
        rhs = [module.act(cat.morphs[k].rep) @ gens[cat.m_tgt[k]] for k in ids]
        sol = solve_exact(gens[s].hstack(relations),
                          IntMatrix.hstack_all(module.carrier.ngens, rhs))
        if sol is None:
            raise FunctorialityError("image of a fixed vector failed to be fixed")
        for k, x in zip(ids, sol.split_cols([r.cols for r in rhs])):
            maps[k] = (nf[s].to_nf @ x.take_rows(gens[s].cols)
                       @ nf[cat.m_tgt[k]].from_nf)
    return OrbitModule(cat, [n.canonical for n in nf], maps, source_gmodule=module)


def constant_orbit_module(family: Family, carrier: FgAbGroup) -> OrbitModule:
    """All values equal, all induced maps the identity."""
    cat = OrbitCategory(family)
    return OrbitModule(cat, [carrier] * len(cat.subgroups),
                       [IntMatrix.identity(carrier.ngens)] * len(cat.morphs),
                       validate=False)


def restrict_module(module: OrbitModule, sub: Subgroup) -> OrbitModule:
    """Restriction to the subgroup's orbit category over F n S.

    Fixed point functors restrict through their underlying G-module; a
    general orbit module restricts by evaluation, which requires every
    intersection H n S to already belong to the ambient family.  Along the
    isomorphisms G/P -> G/R (rep a, R = a^-1 P a the object of P), P takes
    R's value and a morphism P -> P' with rep y becomes R -> R' by a^-1 y a'.
    """
    g = module.family.parent
    if sub.parent is not g:
        raise BadParametersError("subgroup of a different group")
    sgroup, embed = sub.as_group()
    pos = {e: i for i, e in enumerate(embed)}
    inter = {}
    for h in module.family:
        members = tuple(sorted(pos[a] for a in h.members if a in pos))
        inter[members] = Subgroup(sgroup, members)
    sub_family = Family(sgroup, inter.values())

    if module.source_gmodule is not None:
        src = module.source_gmodule
        # not GModule.restrict_to: the module must live on the same
        # as_group() object as sub_family (fixed_point_functor checks it)
        restricted = GModule(sgroup, src.carrier,
                             [src.actions[e] for e in embed], validate=False)
        return fixed_point_functor(restricted, sub_family)

    cat = OrbitCategory(sub_family)
    big = module.cat
    objs = [big.rep_of.get(tuple(sorted(embed[i] for i in j.members)))
            for j in cat.subgroups]
    if None in objs:
        raise BadParametersError(
            "general restriction needs F n S inside the family")
    maps = []
    for m, s, t in zip(cat.morphs, cat.m_src, cat.m_tgt):
        (rs, a_s), (rt, a_t) = objs[s], objs[t]
        x = g.mul(g.mul(g.inverse[a_s], embed[m.rep]), a_t)
        target = big.subgroups[rt]
        maps.append(module.map_matrix(OrbitMorphism(
            big.subgroups[rs], target, canonical_rep(g, x, target))))
    return OrbitModule(cat, [module.values[r] for r, _ in objs], maps)
