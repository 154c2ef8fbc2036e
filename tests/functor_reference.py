"""The fixed point functor on the unreduced orbit category, and the functor
laws on every composable pair, as references.

coeff.fixed_point_functor builds the functor on the skeleton and solves the
morphisms out of one object together.  This builds it on every family
member and every morphism, one exact solve per morphism, so that the
skeleton functor can be compared with it map by map, and so that
BredonComplex over it gives the full-nerve reference complex.

OrbitModule.validate checks F(i;s) = F(i)F(s) for the generating morphisms
s alone; all_pairs_validate checks it for every composable pair, each
composite found by the least element of its coset, as validate did before.
"""

from orbitcoh.coeff import OrbitModule, invariants
from orbitcoh.errors import FunctorialityError
from orbitcoh.intlin import AbHom, NormalFormMap, lattice_contains, solve_exact
from orbitcoh.orbitcat import OrbitCategory, OrbitMorphism


def unreduced_fixed_point_functor(module, family):
    cat = OrbitCategory(family, reduced=False)
    relations = module.carrier.relations
    pres, gens = zip(*(invariants(module, s) for s in cat.subgroups))
    nf = [NormalFormMap(p) for p in pres]
    maps = []
    for m, s, t in zip(cat.morphs, cat.m_src, cat.m_tgt):
        # solve L_s * T = act(rep) * L_t modulo ambient relations
        sol = solve_exact(gens[s].hstack(relations), module.act(m.rep) @ gens[t])
        if sol is None:
            raise FunctorialityError("image of a fixed vector failed to be fixed")
        maps.append(nf[s].to_nf @ sol.take_rows(gens[s].cols) @ nf[t].from_nf)
    return OrbitModule(cat, [n.canonical for n in nf], maps, source_gmodule=module)


def all_pairs_validate(om):
    """The functor laws on every map and every composable pair of morphisms
    of om's category; raises FunctorialityError where validate must."""
    cat, values, maps = om.cat, om.values, om.maps
    if len(values) != len(cat.subgroups) or len(maps) != len(cat.morphs):
        raise FunctorialityError("need one value per object and one map per morphism")
    for m, mat, s, t in zip(cat.morphs, maps, cat.m_src, cat.m_tgt):
        if (mat.rows, mat.cols) != (values[s].ngens, values[t].ngens):
            raise FunctorialityError(f"map at {m} has the wrong shape")
        hom = AbHom(values[t], values[s], mat)
        if not hom.well_defined():
            raise FunctorialityError(f"map at {m} not well defined")
        if m.is_identity() and not hom.equal_hom(AbHom.identity(values[s])):
            raise FunctorialityError(f"identity at {m.source.members} is not identity")
    g = cat.group
    for i, (mat, s, t) in enumerate(zip(maps, cat.m_src, cat.m_tgt)):
        for j in cat.out[t]:
            target = cat.subgroups[cat.m_tgt[j]]
            x = g.mul(cat.morphs[i].rep, cat.morphs[j].rep)
            k = cat.morphism_id(OrbitMorphism(
                cat.subgroups[s], target, min(g.mul(x, h) for h in target.members)))
            if not lattice_contains(values[s].relations, mat @ maps[j] - maps[k]):
                raise FunctorialityError(
                    f"functoriality fails on {cat.morphs[i]} then {cat.morphs[j]}")
