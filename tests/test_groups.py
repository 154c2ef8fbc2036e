import pytest

from orbitcoh.errors import BadParametersError, SingletonActionError
from orbitcoh.groups import (
    Family,
    FiniteGroup,
    builtin_group,
    closed_families,
    family_close,
    fixed_point_free_prime_power_element,
    full_family,
    groups_up_to_order,
    trivial_family,
)


def s3():
    return builtin_group("s3")


def test_table_validation():
    with pytest.raises(BadParametersError):
        FiniteGroup([[1, 0], [0, 1]])           # 0 not the identity
    with pytest.raises(BadParametersError):
        FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 1, 0]])   # not associative/latin


def test_cyclic_and_products():
    c6 = FiniteGroup.cyclic(6)
    assert c6.element_order(1) == 6
    assert c6.inverse[2] == 4
    k4 = builtin_group("c2xc2")
    assert sorted(k4.element_order(a) for a in range(4)) == [1, 2, 2, 2]


def test_subgroup_closure_examples():
    g = s3()
    assert g.subgroup_closure([]).members == (0,)
    transposition = next(a for a in range(1, 6) if g.element_order(a) == 2)
    assert g.subgroup_closure([transposition]).size == 2
    assert g.subgroup_closure(range(6)).size == 6
    # closure is idempotent
    s = g.subgroup_closure([transposition])
    assert g.subgroup_closure(s.members).members == s.members


def test_subgroup_validation_and_cosets():
    g = FiniteGroup.cyclic(4)
    s = g.subgroup([0, 2])
    assert s.left_coset_representatives() == [0, 1]
    with pytest.raises(BadParametersError):
        g.subgroup([0, 1])


def test_as_group_roundtrip():
    g = s3()
    rot = next(a for a in range(1, 6) if g.element_order(a) == 3)
    s = g.subgroup_closure([rot])
    h, embed = s.as_group()
    assert h.order == 3
    for a in range(3):
        for b in range(3):
            assert embed[h.mul(a, b)] == g.mul(embed[a], embed[b])


def test_family_close_conjugation_s3():
    g = s3()
    t = next(a for a in range(1, 6) if g.element_order(a) == 2)
    fam = Family(g, [g.subgroup_closure([t])])
    closed = family_close(fam, under_conjugation=True)
    assert len(closed) == 3
    assert closed.is_conjugation_closed()
    # idempotent
    again = family_close(closed, under_conjugation=True)
    assert again.member_sets() == closed.member_sets()


def test_family_close_subgroups_c4():
    g = FiniteGroup.cyclic(4)
    fam = Family(g, [g.subgroup([0, 2])])
    closed = family_close(fam, under_subgroups=True)
    assert closed.member_sets() == ((0,), (0, 2))


def test_family_close_monotone_idempotent():
    for g in (builtin_group("d4"), builtin_group("a4")):
        fam = Family(g, [g.all_subgroups()[1]])
        c1 = family_close(fam, under_conjugation=True, under_subgroups=True)
        assert set(fam.member_sets()) <= set(c1.member_sets())
        c2 = family_close(c1, under_conjugation=True, under_subgroups=True)
        assert c1.member_sets() == c2.member_sets()
        assert c1.is_conjugation_closed() and c1.is_subgroup_closed()


def test_closed_families_counts():
    # chain lattice of C4: {1}, {1,C2}, {1,C2,C4}
    assert len(closed_families(FiniteGroup.cyclic(4))) == 3
    # C2xC2: down-sets of 3 incomparable order-2 subgroups, plus the full one
    assert len(closed_families(builtin_group("c2xc2"))) == 9
    for fam in closed_families(s3()):
        assert fam.contains_trivial()
        assert fam.is_conjugation_closed()
        assert fam.is_subgroup_closed()


def test_fixed_point_free_examples():
    g = s3()
    t = next(a for a in range(1, 6) if g.element_order(a) == 2)
    h = g.subgroup_closure([t])
    elt = fixed_point_free_prime_power_element(g, h)
    assert g.element_order(elt) == 3

    c4 = FiniteGroup.cyclic(4)
    elt = fixed_point_free_prime_power_element(c4, c4.trivial_subgroup())
    assert elt != 0

    c2 = FiniteGroup.cyclic(2)
    with pytest.raises(SingletonActionError):
        fixed_point_free_prime_power_element(c2, c2.full_subgroup())


def test_fixed_point_free_lemma_exhaustive_order_12():
    # every transitive coset action with at least two points admits one
    for g in groups_up_to_order(12):
        for h in g.all_subgroups():
            if h.size == g.order:
                continue
            elt = fixed_point_free_prime_power_element(g, h)
            mem = set(h.members)
            assert all(g.conj(x, elt) not in mem
                       for x in h.left_coset_representatives())


def test_trivial_and_full_families():
    g = builtin_group("q8")
    assert len(trivial_family(g)) == 1
    assert len(full_family(g)) == 6
