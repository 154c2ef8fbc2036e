from fractions import Fraction
from itertools import product

import pytest

from orbitcoh.bredon import BredonComplex
from orbitcoh.coeff import GModule, fixed_point_functor, sign_modules
from orbitcoh.errors import FamilyMissingTrivialError
from orbitcoh.groups import (
    Family,
    FiniteGroup,
    builtin_group,
    closed_families,
    full_family,
    groups_up_to_order,
    trivial_family,
)
from orbitcoh.intlin import FgAbGroup, IntMatrix
from orbitcoh.interp import (
    FiniteModule,
    FStructureWitness,
    _subgroup_lifts,
    character_group,
    enumerate_f_structures,
    f_derivation_quotient,
    h0_limit,
    splittings_mod_conjugacy,
)

# class counts frozen from an independent brute-force classifier;
# families are given by their member sets over the builtin element order
STRUCTURE_COUNTS = {
    ("c2", 2): {((0,),): 2, ((0,), (0, 1)): 1},
    ("c2", 3): {((0,),): 1, ((0,), (0, 1)): 1},
    ("c3", 3): {((0,),): 3, ((0,), (0, 1, 2)): 1},
    ("c2xc2", 2): {
        ((0,),): 8,
        ((0,), (0, 1)): 2, ((0,), (0, 2)): 2, ((0,), (0, 3)): 2,
        ((0,), (0, 1), (0, 2)): 1, ((0,), (0, 1), (0, 3)): 1,
        ((0,), (0, 2), (0, 3)): 1,
        ((0,), (0, 1), (0, 2), (0, 3)): 2,
        ((0,), (0, 1, 2, 3)): 1,
        ((0,), (0, 1), (0, 1, 2, 3)): 1,
        ((0,), (0, 2), (0, 1, 2, 3)): 1,
        ((0,), (0, 3), (0, 1, 2, 3)): 1,
        ((0,), (0, 1), (0, 2), (0, 1, 2, 3)): 1,
        ((0,), (0, 1), (0, 3), (0, 1, 2, 3)): 1,
        ((0,), (0, 2), (0, 3), (0, 1, 2, 3)): 1,
        ((0,), (0, 1), (0, 2), (0, 3), (0, 1, 2, 3)): 1,
    },
}

SPLITTING_COUNTS = {
    ("c2", 2): {((0,),): 2, ((0,), (0, 1)): 1},
    ("c2", 3): {((0,),): 1, ((0,), (0, 1)): 1},
    ("c3", 3): {((0,),): 3, ((0,), (0, 1, 2)): 1},
    ("c2xc2", 2): {
        ((0,),): 4,
        ((0,), (0, 1)): 2, ((0,), (0, 2)): 2, ((0,), (0, 3)): 2,
        ((0,), (0, 1), (0, 2)): 1, ((0,), (0, 1), (0, 3)): 1,
        ((0,), (0, 2), (0, 3)): 1,
        ((0,), (0, 1), (0, 2), (0, 3)): 1,
        ((0,), (0, 1, 2, 3)): 1,
        ((0,), (0, 1), (0, 1, 2, 3)): 1,
        ((0,), (0, 2), (0, 1, 2, 3)): 1,
        ((0,), (0, 3), (0, 1, 2, 3)): 1,
        ((0,), (0, 1), (0, 2), (0, 1, 2, 3)): 1,
        ((0,), (0, 1), (0, 3), (0, 1, 2, 3)): 1,
        ((0,), (0, 2), (0, 3), (0, 1, 2, 3)): 1,
        ((0,), (0, 1), (0, 2), (0, 3), (0, 1, 2, 3)): 1,
    },
}


def axiom_i_holds(witness):
    """Each lift is a subgroup of the extension over its member, exhaustively."""
    for sub in witness.family:
        lift = witness.lifts[sub.members]
        if len(lift) != sub.size or {x for (_, x) in lift} != set(sub.members):
            return False
        if any(witness.mul(p, q) not in lift for p in lift for q in lift):
            return False
    return True


def zmod(group, n):
    return GModule.trivial(group, FgAbGroup(1, IntMatrix.from_rows([[n]])))


def families_containing_trivial(group):
    subs = group.all_subgroups()
    triv = group.trivial_subgroup()
    others = [s for s in subs if not s.is_trivial()]
    out = []
    for k in range(2 ** len(others)):
        chosen = [triv] + [s for i, s in enumerate(others) if k >> i & 1]
        out.append(Family(group, chosen))
    return out


def test_h0_limit_trivial_module_is_z():
    for name in ("c2", "c4", "s3"):
        g = builtin_group(name)
        for fam in (trivial_family(g), full_family(g)):
            om = fixed_point_functor(GModule.trivial(g, FgAbGroup.free(1)), fam)
            assert h0_limit(om).normal_form == (1, ())


def test_h0_limit_sign_with_free_orbit_is_zero():
    g = FiniteGroup.cyclic(2)
    m = sign_modules(g)[0]
    fam = full_family(g)
    om = fixed_point_functor(m, fam)
    assert h0_limit(om).normal_form == (0, ())


def test_h0_limit_one_object_family():
    g = FiniteGroup.cyclic(4)
    m = zmod(g, 8)
    fam = Family(g, [g.full_subgroup()])
    om = fixed_point_functor(m, fam)
    assert [v.normal_form for v in om.values] == [h0_limit(om).normal_form]


def test_h0_limit_matches_cochain_route():
    for name in ("c2", "c4", "c2xc2", "s3"):
        g = builtin_group(name)
        modules = [GModule.trivial(g, FgAbGroup.free(1)), zmod(g, 4)]
        modules.extend(sign_modules(g)[:1])
        for fam in (trivial_family(g), full_family(g)):
            for m in modules:
                om = fixed_point_functor(m, fam)
                assert h0_limit(om).normal_form == \
                    BredonComplex(fam, om).cohomology(0).normal_form


def test_f_derivation_quotient_sign_examples():
    g = FiniteGroup.cyclic(2)
    m = sign_modules(g)[0]
    assert f_derivation_quotient(m, trivial_family(g)).normal_form == (0, (2,))
    assert f_derivation_quotient(m, full_family(g)).normal_form == (0, ())


def test_f_derivation_quotient_trivial_action_is_hom_group():
    g = FiniteGroup.cyclic(4)
    m = zmod(g, 4)
    assert f_derivation_quotient(m, trivial_family(g)).normal_form == (0, (4,))
    k4 = builtin_group("c2xc2")
    assert f_derivation_quotient(zmod(k4, 2), trivial_family(k4)).normal_form == (0, (2, 2))


def test_f_derivation_quotient_requires_trivial_member():
    g = FiniteGroup.cyclic(2)
    fam = Family(g, [g.full_subgroup()])
    with pytest.raises(FamilyMissingTrivialError):
        f_derivation_quotient(zmod(g, 2), fam)


def test_f_derivation_quotient_matches_cochain_route():
    for name in ("c2", "c4", "c2xc2"):
        g = builtin_group(name)
        modules = [zmod(g, 2), zmod(g, 4)] + sign_modules(g)[:1]
        for fam in families_containing_trivial(g):
            for m in modules:
                om = fixed_point_functor(m, fam)
                lhs = f_derivation_quotient(m, fam).normal_form
                rhs = BredonComplex(fam, om).cohomology(1).normal_form
                assert lhs == rhs, (name, fam.member_sets())


@pytest.mark.parametrize("name,mod", sorted(SPLITTING_COUNTS))
def test_splitting_classes_frozen(name, mod):
    g = builtin_group(name)
    m = zmod(g, mod)
    table = SPLITTING_COUNTS[(name, mod)]
    for fam in families_containing_trivial(g):
        key = fam.member_sets()
        got = splittings_mod_conjugacy(m, fam)
        assert len(got) == table[key], (name, mod, key)
        for rep in got:
            fm = FiniteModule(m)
            # representative really is a derivation, principal on each member
            for x in range(g.order):
                for y in range(g.order):
                    assert rep.values[g.mul(x, y)] == fm.add_table[
                        fm.act_table[x, rep.values[y]], rep.values[x]]
            for sub, wit in zip(fam, rep.witnesses):
                for h in sub.members:
                    assert rep.values[h] == fm.sub_table[fm.act_table[h, wit], wit]


def test_splitting_count_equals_h1_order():
    for (name, mod), table in sorted(SPLITTING_COUNTS.items()):
        g = builtin_group(name)
        m = zmod(g, mod)
        for fam in families_containing_trivial(g):
            om = fixed_point_functor(m, fam)
            h1 = BredonComplex(fam, om).cohomology(1)
            assert len(splittings_mod_conjugacy(m, fam)) == h1.order()


@pytest.mark.parametrize("name,mod", sorted(STRUCTURE_COUNTS))
def test_structure_classes_frozen(name, mod):
    g = builtin_group(name)
    m = zmod(g, mod)
    table = STRUCTURE_COUNTS[(name, mod)]
    for fam in families_containing_trivial(g):
        key = fam.member_sets()
        classes = enumerate_f_structures(m, fam)
        assert len(classes) == table[key], (name, mod, key)
        assert sum(1 for c in classes if c.split) == 1
        for c in classes:
            assert axiom_i_holds(c.witness)
            assert c.witness.axiom_ii_holds()


def test_structure_count_equals_h2_order():
    for (name, mod), table in sorted(STRUCTURE_COUNTS.items()):
        g = builtin_group(name)
        m = zmod(g, mod)
        for fam in families_containing_trivial(g):
            om = fixed_point_functor(m, fam)
            h2 = BredonComplex(fam, om).cohomology(2)
            assert len(enumerate_f_structures(m, fam)) == h2.order(), \
                (name, mod, fam.member_sets())


def test_trivial_group_has_single_class():
    g = FiniteGroup.cyclic(1)
    m = zmod(g, 4)
    fam = trivial_family(g)
    assert len(enumerate_f_structures(m, fam)) == 1
    assert len(splittings_mod_conjugacy(m, fam)) == 1


def test_axiom_ii_follows_from_axiom_i_when_h1_vanishes():
    # H^1(H, Z/3) = 0 for every subgroup of C2, so every axiom-(i) system
    # of lifts automatically satisfies the conjugation-lifting axiom
    g = builtin_group("c2")
    m = zmod(g, 3)
    fam = full_family(g)
    fm = FiniteModule(m)
    n = g.order
    pair_keys = [(x, y) for x in range(n) for y in range(n)]
    zero_factor = {k: fm.zero for k in pair_keys}
    per_sub = [_subgroup_lifts(fm, zero_factor, s) for s in fam]
    assert all(per_sub)
    for choice in product(*per_sub):
        witness = FStructureWitness(
            fm, fam, zero_factor,
            {s.members: lift for s, lift in zip(fam, choice)})
        assert axiom_i_holds(witness)
        assert witness.axiom_ii_holds()


def brute_force_characters(p_sub, family):
    """Oracle: enumerate homs P -> (1/N)Z/Z killing each intersection."""
    pgroup, embed = p_sub.as_group()
    pos = {e: i for i, e in enumerate(embed)}
    exponent = 1
    for a in range(pgroup.order):
        o = pgroup.element_order(a)
        exponent = exponent * o // __import__("math").gcd(exponent, o)
    found = []
    for vals in product(range(exponent), repeat=pgroup.order - 1):
        f = [Fraction(0)] + [Fraction(v, exponent) for v in vals]
        if any((f[pgroup.mul(a, b)] - f[a] - f[b]) % 1 != 0
               for a in range(pgroup.order) for b in range(pgroup.order)):
            continue
        killed = True
        for h in family:
            for x in h.members:
                if x in pos and f[pos[x]] % 1 != 0:
                    killed = False
                    break
            if not killed:
                break
        if killed:
            found.append(tuple(v % 1 for v in f))
    return set(found)


def test_character_group_examples():
    c4 = builtin_group("c4")
    fam = Family(c4, [c4.trivial_subgroup(), c4.subgroup([0, 2])])
    cg = character_group(c4.full_subgroup(), fam)
    assert cg.group.normal_form == (0, (2,))

    # family containing P itself kills every character
    fam_full = full_family(c4)
    assert character_group(c4.full_subgroup(), fam_full).group.normal_form == (0, ())

    s3 = builtin_group("s3")
    cg = character_group(s3.full_subgroup(), trivial_family(s3))
    assert cg.group.normal_form == (0, (2,))


def test_character_group_against_enumeration_oracle():
    for name in ("c4", "c2xc2", "s3", "c6"):
        g = builtin_group(name)
        subs = g.all_subgroups()
        for p_sub in subs:
            for fam in (trivial_family(g), full_family(g)):
                cg = character_group(p_sub, fam)
                oracle = brute_force_characters(p_sub, fam)
                assert cg.group.order() == len(oracle), (name, p_sub.members)


def assert_character_basis(cg, p_sub, family):
    """Rows are characters of P killing each H n P, row k of order d_k,
    spanning prod d_k distinct characters."""
    pgroup, embed = p_sub.as_group()
    pos = {e: i for i, e in enumerate(embed)}
    torsion = cg.group.torsion
    rows = [[Fraction(n, d) for n, d in row] for row in cg.value_table]
    assert len(rows) == len(torsion)
    for row, d in zip(rows, torsion):
        assert all((row[pgroup.mul(a, b)] - row[a] - row[b]) % 1 == 0
                   for a in range(pgroup.order) for b in range(pgroup.order))
        assert all(row[pos[x]] % 1 == 0
                   for h in family for x in h.members if x in pos)
        order = next(k for k in range(1, d + 1)
                     if all((k * v) % 1 == 0 for v in row))
        assert order == d
    span = {tuple(sum(c * v for c, v in zip(coeffs, col)) % 1
                  for col in zip(*rows))
            for coeffs in product(*(range(d) for d in torsion))}
    assert len(span) == cg.group.order()


def test_character_group_rows_are_a_basis():
    for g in groups_up_to_order(12):
        for fam in closed_families(g):
            p_sub = g.full_subgroup()
            assert_character_basis(character_group(p_sub, fam), p_sub, fam)
    # a proper P: a Klein four subgroup of D6, one of its C2s in the family
    d6 = builtin_group("d6")
    p_sub = next(s for s in d6.all_subgroups() if s.size == 4)
    h = next(s for s in d6.all_subgroups()
             if s.size == 2 and set(s.members) <= set(p_sub.members))
    fam = Family(d6, [d6.trivial_subgroup(), h])
    cg = character_group(p_sub, fam)
    assert cg.group.normal_form == (0, (2,))
    assert_character_basis(cg, p_sub, fam)


def test_character_generators_kill_intersections():
    g = builtin_group("c12")
    fam = Family(g, [g.trivial_subgroup(), g.subgroup_closure([4])])
    cg = character_group(g.full_subgroup(), fam)
    for values in cg.value_table:
        for h in fam:
            for x in h.members:
                num, den = values[x]
                assert num % den == 0
