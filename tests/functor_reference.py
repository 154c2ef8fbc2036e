"""The fixed point functor on the unreduced orbit category, as a reference.

coeff.fixed_point_functor builds the functor on the skeleton and solves the
morphisms out of one object together.  This builds it on every family
member and every morphism, one exact solve per morphism, so that the
skeleton functor can be compared with it map by map, and so that
BredonComplex over it gives the full-nerve reference complex.
"""

from orbitcoh.coeff import OrbitModule, invariants
from orbitcoh.errors import FunctorialityError
from orbitcoh.intlin import NormalFormMap, solve_exact
from orbitcoh.orbitcat import OrbitCategory


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
