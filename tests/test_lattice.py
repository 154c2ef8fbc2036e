"""The coset-extension lattice walk against the element-seed reference.

Every comparison is on member tuples in order, so a lattice that differs
only in its sort order fails too.
"""

import random
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_reference import (
    first_break_conjugation_closed,
    first_break_subgroup_closed,
    pairwise_closure,
    seed_all_subgroups,
    seed_cyclic_family,
    table_subgroups,
)
from orbitcoh.errors import BadParametersError
from orbitcoh.groups import (
    Family,
    FiniteGroup,
    builtin_group,
    builtin_group_names,
    closed_families,
    cyclic_family,
)

_NONTRIVIAL = [n for n in builtin_group_names() if builtin_group(n).order > 1]
_PRODUCTS = [(a, b) for a in _NONTRIVIAL for b in _NONTRIVIAL
             if builtin_group(a).order * builtin_group(b).order <= 24]
GROUPS = builtin_group_names() + [f"{a}*{b}" for a, b in _PRODUCTS] + ["s4"]


@cache
def group(name):
    if name == "s4":
        return FiniteGroup.symmetric(4)
    if "*" in name:
        a, b = name.split("*")
        return FiniteGroup.direct_product(builtin_group(a), builtin_group(b))
    return builtin_group(name)


@cache
def reference_lattice(name):
    return members(seed_all_subgroups(group(name)))


def members(subgroups):
    return [s.members for s in subgroups]


def test_the_comparison_covers_the_catalog_its_products_and_s4():
    assert len(builtin_group_names()) == 24
    assert len(_PRODUCTS) == 84
    assert len(GROUPS) == 109


@pytest.mark.parametrize("name", GROUPS)
def test_lattice_equals_the_element_seed_walk(name):
    g = group(name)
    lattice = g.all_subgroups()
    assert members(lattice) == reference_lattice(name)
    for sub in lattice:
        assert members(sub.subgroups()) == members(table_subgroups(sub))


@pytest.mark.parametrize("name", GROUPS)
def test_closure_of_every_pair_equals_the_pairwise_fixpoint(name):
    g = group(name)
    for a in range(g.order):
        for b in range(a, g.order):
            assert (g.subgroup_closure([a, b]).members
                    == g.subgroup_closure([b, a]).members
                    == pairwise_closure(g, [a, b]).members)


@pytest.mark.parametrize("name", GROUPS)
def test_cyclic_family_equals_the_reference(name):
    g = group(name)
    assert cyclic_family(g).member_sets() == seed_cyclic_family(g).member_sets()


def assert_closedness_agrees(family):
    assert family.is_conjugation_closed() == first_break_conjugation_closed(family)
    assert family.is_subgroup_closed() == first_break_subgroup_closed(family)


@pytest.mark.parametrize("name", builtin_group_names() + ["s4"])
def test_closedness_on_every_closed_family(name):
    for family in closed_families(group(name)):
        assert family.is_conjugation_closed() and family.is_subgroup_closed()
        assert_closedness_agrees(family)


@pytest.mark.parametrize("name", GROUPS)
def test_closedness_on_random_families(name):
    g = group(name)
    lattice = g.all_subgroups()
    rng = random.Random(name)
    verdicts = set()
    for _ in range(8):
        family = Family(g, rng.sample(lattice, rng.randint(1, len(lattice))))
        assert_closedness_agrees(family)
        verdicts.add((family.is_conjugation_closed(), family.is_subgroup_closed()))
    # the draws reach families that fail each test wherever one can fail
    if len(lattice) > 4:
        assert any(not sub_closed for _, sub_closed in verdicts)
    if any(s.conjugate_by(x) != s for s in lattice for x in range(g.order)):
        assert any(not conj_closed for conj_closed, _ in verdicts)


@st.composite
def permutation_groups(draw):
    degree = draw(st.integers(1, 4))
    count = draw(st.integers(1, 3))
    gens = draw(st.lists(st.permutations(range(degree)),
                         min_size=count, max_size=count))
    return FiniteGroup.from_permutations(gens)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(permutation_groups())
def test_random_permutation_groups_match_the_reference(g):
    assert members(g.all_subgroups()) == members(seed_all_subgroups(g))


def test_s5_lattice_by_order():
    counts = Counter(s.size for s in FiniteGroup.symmetric(5).all_subgroups())
    assert dict(counts) == {1: 1, 2: 25, 3: 10, 4: 35, 5: 6, 6: 30, 8: 15, 10: 6,
                            12: 15, 20: 6, 24: 5, 60: 1, 120: 1}


def test_a5_in_s5_is_found_though_it_is_no_cyclic_extension():
    s5 = FiniteGroup.symmetric(5)
    (a5,) = [s for s in s5.all_subgroups() if s.size == 60]
    assert all(len(t.members) in (1, 2, 3, 4, 5, 6, 10, 12, 60)
               for t in a5.subgroups())
    assert len(a5.subgroups()) == 59


def test_seed_is_read_once():
    s3 = builtin_group("s3")
    assert s3.subgroup_closure(iter([1, 3])).members == (0, 1, 2, 3, 4, 5)
    with pytest.raises(BadParametersError):
        s3.subgroup_closure(iter([99]))
    with pytest.raises(BadParametersError):
        s3.subgroup_closure(iter([1, -1]))
