from itertools import product

import pytest
from functor_reference import unreduced_fixed_point_functor

from orbitcoh.bredon import BredonComplex
from orbitcoh.coeff import (
    GModule,
    OrbitModule,
    constant_orbit_module,
    fixed_point_functor,
    invariants,
    restrict_module,
    sign_modules,
)
from orbitcoh.errors import BadParametersError, FunctorialityError
from orbitcoh.groups import (
    Family,
    FiniteGroup,
    builtin_group,
    cyclic_family,
    full_family,
    groups_up_to_order,
    trivial_family,
)
from orbitcoh.intlin import (
    AbHom,
    FgAbGroup,
    IntMatrix,
    NormalFormMap,
    kernel_of_hom,
    lattice_contains,
    solve_exact,
    stack_homs,
)
from orbitcoh.interp import h0_limit
from orbitcoh.orbitcat import OrbitCategory, OrbitMorphism, morphisms


def c2():
    return FiniteGroup.cyclic(2)


def fixes_all(module, sub, gens):
    """Exhaustive check that every generator of M^sub (the columns of gens)
    is sub-fixed."""
    ident = IntMatrix.identity(module.carrier.ngens)
    return all(lattice_contains(module.carrier.relations,
                                (module.act(h) - ident) @ gens)
               for h in sub.members)


def value_at(om, sub):
    """The value at a family member: its object's, M^{xHx^-1} = M^H."""
    got = om.cat.rep_of.get(sub.members)
    if got is None or sub.parent is not om.cat.group:
        raise BadParametersError(f"{sub.members} is not a family member")
    return om.values[got[0]]


def map_hom(om, m):
    return AbHom(value_at(om, m.target), value_at(om, m.source),
                 om.map_matrix(m))


def z_sign_c2():
    return sign_modules(c2())[0]


def z3_frobenius():
    # Z/3 with the nonidentity of C2 acting as multiplication by 2
    g = c2()
    carrier = FgAbGroup(1, IntMatrix.from_rows([[3]]))
    return GModule.from_generator_action(g, carrier, [1], [[[2]]])


def brute_force_fixed_elements(module, sub):
    """Oracle: enumerate all elements of a finite module and filter."""
    mods = []
    rank, tors = module.carrier.normal_form
    assert rank == 0
    nf = module.normalized()
    moduli = [d for d in nf.carrier.torsion]
    fixed = []
    for vec in product(*[range(d) for d in moduli]):
        ok = True
        for h in sub.members:
            act = nf.act(h)
            img = tuple(
                sum(act[(i, j)] * vec[j] for j in range(len(vec))) % moduli[i]
                for i in range(len(vec)))
            if img != vec:
                ok = False
                break
        if ok:
            fixed.append(vec)
    return fixed


def test_gmodule_validation_rejects_bad_action():
    g = c2()
    z4 = FgAbGroup(1, IntMatrix.from_rows([[4]]))
    # x -> 2x is not an automorphism of Z/4 and not an involution
    with pytest.raises(BadParametersError):
        GModule(g, z4, [IntMatrix.identity(1), IntMatrix.from_rows([[2]])])


def test_sign_modules():
    assert len(sign_modules(c2())) == 1
    assert len(sign_modules(FiniteGroup.cyclic(3))) == 0
    assert len(sign_modules(builtin_group("c2xc2"))) == 3
    assert len(sign_modules(builtin_group("s3"))) == 1


def test_invariants_trivial_subgroup_is_everything():
    m = z_sign_c2()
    pres, gens = invariants(m, m.group.trivial_subgroup())
    assert pres.normal_form == (1, ())
    assert fixes_all(m, m.group.trivial_subgroup(), gens)


def test_invariants_sign_action_is_zero():
    m = z_sign_c2()
    pres, _ = invariants(m, m.group.full_subgroup())
    assert pres.normal_form == (0, ())


def test_invariants_frobenius_is_zero():
    m = z3_frobenius()
    pres, _ = invariants(m, m.group.full_subgroup())
    assert pres.normal_form == (0, ())


def test_invariants_monotone_under_inclusion():
    g = FiniteGroup.cyclic(4)
    z8 = FgAbGroup(1, IntMatrix.from_rows([[8]]))
    m = GModule.from_generator_action(g, z8, [1], [[[3]]])
    subs = g.all_subgroups()
    for small in subs:
        for big in subs:
            if set(small.members) <= set(big.members):
                _, gens_b = invariants(m, big)
                _, gens_s = invariants(m, small)
                # every generator fixed by the bigger subgroup is in the smaller's lattice
                stacked = gens_s.hstack(m.carrier.relations)
                assert lattice_contains(stacked, gens_b)


def test_invariants_against_brute_force():
    cases = []
    g4 = FiniteGroup.cyclic(4)
    z8 = FgAbGroup(1, IntMatrix.from_rows([[8]]))
    cases.append(GModule.from_generator_action(g4, z8, [1], [[[3]]]))
    cases.append(z3_frobenius())
    k4 = builtin_group("c2xc2")
    z4z4 = FgAbGroup(2, IntMatrix.from_rows([[4, 0], [0, 4]]))
    swap = [[0, 1], [1, 0]]
    neg = [[3, 0], [0, 3]]
    cases.append(GModule.from_generator_action(k4, z4z4, [1, 2], [swap, neg]))
    for module in cases:
        for sub in module.group.all_subgroups():
            pres, gens = invariants(module, sub)
            expected = len(brute_force_fixed_elements(module, sub))
            assert pres.order() == expected
            assert fixes_all(module, sub, gens)


@pytest.mark.parametrize("name", ["c4", "s3", "c2xc2"])
def test_invariants_is_the_kernel_of_the_stacked_actions(name):
    # (presentation, generators), as kernel_of_hom returns them for the
    # stacked act(h) - I over the subgroup's generators
    g = builtin_group(name)
    z8 = FgAbGroup(1, IntMatrix.from_rows([[8]]))
    for m in [GModule.trivial(g, z8)] + sign_modules(g):
        ident = IntMatrix.identity(m.carrier.ngens)
        for sub in g.all_subgroups():
            if sub.size == 1:
                continue
            pres, gens = invariants(m, sub)
            want_pres, want_gens = kernel_of_hom(stack_homs(
                AbHom(m.carrier, m.carrier, m.act(h) - ident)
                for h in sub.generators()))
            assert pres.same_presentation(want_pres) and gens == want_gens


def test_fixed_point_functor_trivial_module():
    g = c2()
    fam = full_family(g)
    om = fixed_point_functor(GModule.trivial(g, FgAbGroup.free(1)), fam)
    for s in fam:
        assert value_at(om, s).normal_form == (1, ())
    for s in fam:
        for t in fam:
            for m in morphisms(s, t):
                hom = map_hom(om, m)
                assert hom.equal_hom(AbHom.identity(value_at(om, s)))


def test_fixed_point_functor_sign():
    module = z_sign_c2()
    fam = full_family(module.group)
    om = fixed_point_functor(module, fam)
    triv, full = fam.subgroups
    assert value_at(om, triv).normal_form == (1, ())
    assert value_at(om, full).normal_form == (0, ())
    into = morphisms(triv, full)[0]
    assert om.map_matrix(into).cols == 0    # zero inclusion from the 0 group


def test_fixed_point_functor_frobenius_endomorphism():
    module = z3_frobenius()
    fam = full_family(module.group)
    om = fixed_point_functor(module, fam)
    triv = fam.subgroups[0]
    sigma = morphisms(triv, triv)[1]
    mat = om.map_matrix(sigma)
    assert mat[(0, 0)] % 3 == 2


def test_fixed_point_functor_functoriality_desk_scale():
    for name in ("c4", "s3"):
        g = builtin_group(name)
        fam = full_family(g)
        for m in sign_modules(g):
            fixed_point_functor(m, fam).validate()


def test_restrict_module_to_whole_group_is_identity():
    g = FiniteGroup.cyclic(4)
    fam = full_family(g)
    om = fixed_point_functor(GModule.trivial(g, FgAbGroup.free(1)), fam)
    res = restrict_module(om, g.full_subgroup())
    assert len(res.family) == len(fam)
    for s_res, s_orig in zip(res.family, fam):
        assert value_at(res, s_res).normal_form == value_at(om, s_orig).normal_form


def test_restrict_module_fixed_point_compatibility():
    # restriction of a fixed point functor is the fixed point functor of the
    # restricted module: check values and maps on C2 inside C4 acting on Z/8
    g = FiniteGroup.cyclic(4)
    z8 = FgAbGroup(1, IntMatrix.from_rows([[8]]))
    m = GModule.from_generator_action(g, z8, [1], [[[3]]])
    fam = full_family(g)
    om = fixed_point_functor(m, fam)
    sub = g.subgroup([0, 2])
    res = restrict_module(om, sub)
    sgroup = res.family.parent
    msub = GModule(sgroup, m.carrier, [m.actions[e] for e in sub.members])
    direct = fixed_point_functor(msub, Family(sgroup, list(res.family)))
    for s in res.family:
        assert value_at(res, s).normal_form == value_at(direct, s).normal_form
    for s in res.family:
        for t in res.family:
            for mor in morphisms(s, t):
                assert map_hom(res, mor).equal_hom(map_hom(direct, mor))


def test_restrict_module_faithful_action_compatibility():
    # Z/5 carries a faithful C4 action (multiplication by 2 has order 4);
    # restriction to C2 must agree with the fixed point functor of the
    # restricted module on values and on induced maps
    g = FiniteGroup.cyclic(4)
    z5 = FgAbGroup(1, IntMatrix.from_rows([[5]]))
    m = GModule.from_generator_action(g, z5, [1], [[[2]]])
    fam = full_family(g)
    om = fixed_point_functor(m, fam)
    sub = g.subgroup([0, 2])
    res = restrict_module(om, sub)
    sgroup = res.family.parent
    msub = GModule(sgroup, m.carrier, [m.actions[e] for e in sub.members])
    direct = fixed_point_functor(msub, Family(sgroup, list(res.family)))
    for s in res.family:
        assert value_at(res, s).normal_form == value_at(direct, s).normal_form
        for t in res.family:
            for mor in morphisms(s, t):
                assert map_hom(res, mor).equal_hom(map_hom(direct, mor))
    # the full C4 fixes nothing in Z/5, its index-2 subgroup fixes nothing either
    assert value_at(om, g.full_subgroup()).normal_form == (0, ())
    assert value_at(om, sub).normal_form == (0, ())


def test_restrict_module_to_trivial_subgroup():
    g = c2()
    fam = full_family(g)
    om = fixed_point_functor(GModule.trivial(g, FgAbGroup.free(1)), fam)
    res = restrict_module(om, g.trivial_subgroup())
    assert len(res.family) == 1
    only = res.family.subgroups[0]
    assert value_at(res, only).normal_form == (1, ())


def test_constant_orbit_module_validates():
    fam = full_family(builtin_group("s3"))
    om = constant_orbit_module(fam, FgAbGroup.free(1))
    om.validate()


def test_restrict_generic_module_by_evaluation():
    # constant module carries no G-module origin; restriction must evaluate
    g = FiniteGroup.cyclic(4)
    fam = full_family(g)
    om = constant_orbit_module(fam, FgAbGroup.free(1))
    res = restrict_module(om, g.subgroup([0, 2]))
    assert len(res.family) == 2
    for s in res.family:
        assert value_at(res, s).normal_form == (1, ())


def test_restrict_generic_module_needs_intersections_in_family():
    g = FiniteGroup.cyclic(4)
    fam = Family(g, [g.trivial_subgroup(), g.full_subgroup()])
    om = constant_orbit_module(fam, FgAbGroup.free(1))
    with pytest.raises(BadParametersError):
        restrict_module(om, g.subgroup([0, 2]))


def test_generic_orbit_module_from_tables_rejects_nonfunctorial():
    g = c2()
    cat = OrbitCategory(full_family(g), reduced=False)
    z = FgAbGroup.free(1)
    values = [z] * len(cat.subgroups)
    maps = [IntMatrix.identity(1)] * len(cat.morphs)
    # break the identity law at the nonidentity endomorphism of G/e
    triv = cat.subgroups[0]
    maps[cat.morphism_id(morphisms(triv, triv)[1])] = IntMatrix.from_rows([[2]])
    with pytest.raises(FunctorialityError):
        OrbitModule(cat, values, maps)


def _zmod(n):
    return FgAbGroup(1, IntMatrix.from_rows([[n]]))


def _table_modules(group):
    out = [("Z", GModule.trivial(group, FgAbGroup.free(1))),
           ("Z/2", GModule.trivial(group, _zmod(2))),
           ("Z/4", GModule.trivial(group, _zmod(4)))]
    out += [(f"sign{i}", m) for i, m in enumerate(sign_modules(group))]
    return out


TABLE_CASES = [(g, label, m, fam_name, fam)
               for g in groups_up_to_order(8)
               for label, m in _table_modules(g)
               for fam_name, fam in (("trivial", trivial_family(g)),
                                     ("cyclic", cyclic_family(g)),
                                     ("full", full_family(g)))]


@pytest.mark.parametrize(
    "group, label, module, fam_name, fam", TABLE_CASES,
    ids=[f"{c[0].name}-{c[1]}-{c[3]}" for c in TABLE_CASES])
def test_fixed_point_tables_read_by_morphism(group, label, module, fam_name, fam):
    # every value is M^H (a member outside the skeleton reads its object's),
    # and every map of the skeleton, read through morphism ids, is the one
    # solved here from the G-module alone: the inclusion of value(s) into M
    # composed with the map equals rep acting on the inclusion of value(t);
    # it is also the unreduced reference's map at the same morphism
    om = fixed_point_functor(module, fam)
    ref = unreduced_fixed_point_functor(module, fam)
    relations = module.carrier.relations
    incl = {}
    for s in fam:
        pres, gens = invariants(module, s)
        assert value_at(om, s).normal_form == pres.normal_form
        nf = NormalFormMap(pres)
        assert nf.canonical.same_presentation(value_at(om, s))
        incl[s.members] = gens @ nf.from_nf
    for m in om.cat.morphs:
        s, t = m.source, m.target
        inc_s = incl[s.members]
        sol = solve_exact(inc_s.hstack(relations),
                          module.act(m.rep) @ incl[t.members])
        solved = AbHom(value_at(om, t), value_at(om, s), sol.take_rows(inc_s.cols))
        assert map_hom(om, m).equal_hom(solved), (s, t, m.rep)
        assert om.map_matrix(m) == ref.map_matrix(m), (s, t, m.rep)
    for m in ref.cat.morphs:
        if m.source.members not in om.cat.sub_index \
                or m.target.members not in om.cat.sub_index:
            with pytest.raises(BadParametersError):
                om.map_matrix(m)


@pytest.mark.parametrize(
    "group, label, module, fam_name, fam", TABLE_CASES,
    ids=[f"{c[0].name}-{c[1]}-{c[3]}" for c in TABLE_CASES])
def test_skeleton_and_unreduced_functors_agree_on_h0_to_h2(
        group, label, module, fam_name, fam):
    # the skeleton is an equivalent full subcategory: the limit and the
    # cohomology of the full nerve over the unreduced functor are the same
    om = fixed_point_functor(module, fam)
    ref = unreduced_fixed_point_functor(module, fam)
    assert h0_limit(om).normal_form == h0_limit(ref).normal_form
    reduced, full = BredonComplex(fam, om), BredonComplex(fam, ref)
    assert reduced.cat is om.cat and full.cat is ref.cat
    for n in range(3):
        assert reduced.cohomology(n).normal_form \
            == full.cohomology(n).normal_form, n


def _constant_tables(group, fam):
    cat = OrbitCategory(fam, reduced=False)
    z = FgAbGroup.free(1)
    return cat, [z] * len(cat.subgroups), [IntMatrix.identity(1)] * len(cat.morphs)


def test_validate_rejects_broken_composite_between_objects():
    # e -> C2 -> C4 composes to the one morphism e -> C4; doubling its map
    # keeps every map well defined and every identity intact
    g = FiniteGroup.cyclic(4)
    cat, values, maps = _constant_tables(g, full_family(g))
    OrbitModule(cat, values, maps)
    triv, full = g.trivial_subgroup(), g.full_subgroup()
    (into,) = morphisms(triv, full)
    maps[cat.morphism_id(into)] = IntMatrix.from_rows([[2]])
    with pytest.raises(FunctorialityError, match="functoriality"):
        OrbitModule(cat, values, maps)


def test_validate_rejects_broken_identity():
    # the zero maps on Z over C2's trivial family compose correctly, but the
    # identity of G/e does not act as the identity
    g = c2()
    cat, values, maps = _constant_tables(g, trivial_family(g))
    zero = [IntMatrix.from_rows([[0]])] * len(maps)
    with pytest.raises(FunctorialityError, match="identity"):
        OrbitModule(cat, values, zero)


def test_validate_rejects_wrong_table_sizes():
    g = c2()
    cat, values, maps = _constant_tables(g, full_family(g))
    with pytest.raises(FunctorialityError):
        OrbitModule(cat, values, maps[:-1])
    with pytest.raises(FunctorialityError):
        OrbitModule(cat, values + values[:1], maps)


def test_validate_rejects_wrong_shape_as_functoriality_error():
    # identity 2x2 maps on Z-valued objects: the shape is wrong before any
    # map can be read as a homomorphism
    g = c2()
    z = FgAbGroup.free(1)
    for reduced in (True, False):
        cat = OrbitCategory(full_family(g), reduced=reduced)
        with pytest.raises(FunctorialityError, match="wrong shape"):
            OrbitModule(cat, [z, z], [IntMatrix.identity(2)] * len(cat.morphs))


def test_validate_names_a_broken_torsion_composite():
    # Z/4 on d4 over the cyclic family: every value is Z/4 and every map
    # the identity; adding 1 (not a multiple of 4) to the map of one
    # composite of two chain morphisms breaks functoriality only there
    g = builtin_group("d4")
    om = fixed_point_functor(GModule.trivial(g, _zmod(4)), cyclic_family(g))
    cat = om.cat
    assert all(v.normal_form == (0, (4,)) for v in om.values)
    i = next(i for i in range(len(cat.morphs))
             if cat.in_chains[i] and cat.out[cat.m_tgt[i]])
    k = cat.compose_ids(i, cat.out[cat.m_tgt[i]][0])
    maps = list(om.maps)
    maps[k] = maps[k] + IntMatrix.identity(1)
    with pytest.raises(FunctorialityError, match="functoriality") as err:
        OrbitModule(cat, om.values, maps)
    assert str(cat.morphs[k]) in str(err.value)


def test_values_outside_the_skeleton_and_bad_lookups():
    g = builtin_group("s3")
    fam = full_family(g)
    om = fixed_point_functor(sign_modules(g)[0], fam)
    order2 = [s for s in fam if s.size == 2]
    assert len(order2) == 3 and len(om.cat.subgroups) == 4
    for s in order2:
        pres, _ = invariants(om.source_gmodule, s)
        assert value_at(om, s) is value_at(om, order2[0])
        assert value_at(om, s).normal_form == pres.normal_form
    outside = morphisms(order2[1], g.full_subgroup())[0]
    with pytest.raises(BadParametersError):
        om.map_matrix(outside)
    with pytest.raises(BadParametersError):
        om.map_matrix(OrbitMorphism(order2[0], order2[0], 5))
    small = trivial_family(g)
    om_small = fixed_point_functor(sign_modules(g)[0], small)
    with pytest.raises(BadParametersError):
        value_at(om_small, g.full_subgroup())
    with pytest.raises(BadParametersError):
        value_at(om, c2().full_subgroup())


def test_bredon_complex_rejects_a_family_with_other_members():
    g = builtin_group("s3")
    om = fixed_point_functor(GModule.trivial(g, FgAbGroup.free(1)), full_family(g))
    assert BredonComplex(full_family(g), om).cat is om.cat
    with pytest.raises(BadParametersError, match="members"):
        BredonComplex(cyclic_family(g), om)


def _permutation_module(group):
    n = group.order
    return GModule(group, FgAbGroup.free(n), [
        IntMatrix(n, n, {(group.mul(x, y), y): 1 for y in range(n)})
        for x in range(n)])


@pytest.mark.parametrize("name", ["s3", "d4"])
def test_restrict_by_evaluation_transports_non_skeleton_intersections(name):
    # a fixed point functor stripped of its G-module restricts by evaluation;
    # intersections conjugate to, but other than, their skeleton object are
    # transported along the conjugating isomorphism, so the result is a
    # functor with the same limit and cohomology as the restricted G-module's
    g = builtin_group(name)
    fam = full_family(g)
    transported = 0
    for module in [_permutation_module(g)] + sign_modules(g):
        om = fixed_point_functor(module, fam)
        bare = OrbitModule(om.cat, om.values, om.maps)
        for sub in g.all_subgroups():
            direct = restrict_module(om, sub)
            evaluated = restrict_module(bare, sub)
            # the members of G that the restricted objects stand for
            transported += sum(
                tuple(sorted(sub.members[i] for i in j.members))
                not in om.cat.sub_index for j in evaluated.cat.subgroups)
            assert h0_limit(evaluated).normal_form == h0_limit(direct).normal_form
            for n in range(3):
                assert BredonComplex(evaluated.family, evaluated).cohomology(n) \
                    .normal_form == BredonComplex(direct.family, direct) \
                    .cohomology(n).normal_form
    assert transported > 0
