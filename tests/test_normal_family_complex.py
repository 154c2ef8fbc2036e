"""The bar-cell complex of a family of normal subgroups against the nerve.

NormalFamilyComplex must give the groups of BredonComplex (the nerve of
the orbit category) on every family whose members are all normal, closed or
not, and those of the bar complex on the trivial family.  The coefficients
are trivial Z, Z/2 and Z/4 and every sign module.  The nerve grows fastest,
so the degrees fall as the groups grow: H^0..H^3 on c2, c4, c2xc2 and q8,
H^0..H^2 on a systematic sample of c2xc2xc2's closed families and of d6's
normal-member families, and on all those of d4 and a4.  Every d.d = 0 is the scaffold's
exact test over Z.
"""

from itertools import combinations

import pytest

from orbitcoh.bredon import BarComplex, BredonComplex, NormalFamilyComplex
from orbitcoh.coeff import GModule, fixed_point_functor, sign_modules
from orbitcoh.errors import BadParametersError, SizeLimitError
from orbitcoh.groups import (
    Family,
    builtin_group,
    closed_families,
    cyclic_family,
    trivial_family,
)
from orbitcoh.intlin import FgAbGroup, IntMatrix


def _modules(group):
    out = [("Z", GModule.trivial(group, FgAbGroup.free(1)))]
    out += [(f"Z/{m}", GModule.trivial(group, FgAbGroup(1, IntMatrix.from_rows([[m]]))))
            for m in (2, 4)]
    return out + [(f"sign{i}", m) for i, m in enumerate(sign_modules(group))]


def _normal_families(group):
    """Every nonempty family of normal subgroups."""
    normal = [s for s in group.all_subgroups() if s.is_normal()]
    return [Family(group, chosen) for r in range(1, len(normal) + 1)
            for chosen in combinations(normal, r)]


def _agree(family, top):
    for label, module in _modules(family.parent):
        om = fixed_point_functor(module, family)
        route, nerve = NormalFamilyComplex(om), BredonComplex(family, om)
        for n in range(top + 1):
            assert route.cohomology(n) == nerve.cohomology(n), \
                (label, family.member_sets(), n)
            assert route._dd_vanishes(n), (label, family.member_sets(), n)


@pytest.mark.parametrize("name", ["c2", "c4", "c2xc2", "q8"])
def test_route_equals_the_nerve_to_degree_3(name):
    for family in _normal_families(builtin_group(name)):
        _agree(family, 3)


def test_route_equals_the_nerve_on_closed_families_of_c2xc2xc2():
    families = closed_families(builtin_group("c2xc2xc2"))
    assert len(families) == 459
    for family in families[::46]:       # 10 families, from every size
        _agree(family, 2)


@pytest.mark.parametrize("name, step", [("d4", 1), ("d6", 2), ("a4", 1)])
def test_route_equals_the_nerve_on_normal_members_of(name, step):
    # every family of d4 and a4, every other one of d6's 127
    for family in _normal_families(builtin_group(name))[::step]:
        _agree(family, 2)


@pytest.mark.parametrize("name", ["c2xc2", "q8", "c2xc2xc2"])
def test_route_equals_the_bar_complex_on_the_trivial_family(name):
    group = builtin_group(name)
    family = trivial_family(group)
    for label, module in _modules(group):
        route = NormalFamilyComplex(fixed_point_functor(module, family))
        bar = BarComplex(module)
        for n in range(4 if group.order < 8 else 3):
            assert route.cohomology(n) == bar.cohomology(n), (label, n)


def test_a_member_that_is_not_normal_is_refused():
    group = builtin_group("d4")
    module = GModule.trivial(group, FgAbGroup.free(1))
    with pytest.raises(BadParametersError, match="not normal"):
        NormalFamilyComplex(fixed_point_functor(module, cyclic_family(group)))


def test_the_size_cap_counts_the_blocks_of_one_degree():
    # c2xc2 with {1, <a>}: G/1 has 3 non-identity automorphisms, G/<a> one,
    # and 1 < <a> is the one strict pair, so degree n has 3^n + 1 blocks on
    # the members and 3^(n-1) on the pair: 2, 5 and 13 in degrees 0, 1, 2
    group = builtin_group("c2xc2")
    family = Family(group, [group.trivial_subgroup(), group.all_subgroups()[1]])
    module = GModule.trivial(group, FgAbGroup.free(1))
    route = NormalFamilyComplex(fixed_point_functor(module, family), 5)
    assert [route.cochain_group(n).ngens for n in range(2)] == [2, 5]
    assert route.cohomology(0).normal_form == (1, ())
    with pytest.raises(SizeLimitError, match="needs 13 items, cap is 5"):
        route.cohomology(1)
