"""The strict-chain complex of a cyclic group against the nerve.

For a cyclic group every object of NormalFamilyComplex takes the periodic
resolution, so it must give the groups of BredonComplex (the nerve of the
orbit category) on every family of C_k, closed or not, and those of the bar
complex on the trivial family.  The coefficients are trivial Z and Z/4, the
sign module when k is even, and the Galois unit modules Z/(2^k - 1) and
Z/(3^k - 1) under Frobenius.  The nerve grows as (k - 1)^n, so the degrees
fall as k rises (C8 in degree 3 alone would take 11 s), and C12 is checked
on its closed families only.
"""

from itertools import combinations

import pytest

from orbitcoh.bredon import BarComplex, BredonComplex, NormalFamilyComplex
from orbitcoh.coeff import GModule, fixed_point_functor, sign_modules
from orbitcoh.errors import SizeLimitError
from orbitcoh.galoisff import units_gmodule
from orbitcoh.groups import (
    Family,
    closed_families,
    full_family,
    trivial_family,
)
from orbitcoh.intlin import FgAbGroup, IntMatrix

GRID = ([(k, 4) for k in range(1, 6)] + [(6, 3), (7, 3)]
        + [(k, 2) for k in range(8, 13)])


def _modules(k):
    """C_k and its coefficient modules, all over one group object."""
    group = units_gmodule(2, k, 1).group
    out = [("Z", GModule.trivial(group, FgAbGroup.free(1))),
           ("Z/4", GModule.trivial(group, FgAbGroup(1, IntMatrix.from_rows([[4]]))))]
    out += [("sign", m) for m in sign_modules(group)]
    for p in (2, 3):
        units = units_gmodule(p, k, 1)
        out.append((f"units({p},{k},1)",
                    GModule(group, units.carrier, units.actions, validate=False)))
    return group, out


def _families(group):
    if group.order == 12:
        return closed_families(group)
    subs = group.all_subgroups()
    return [Family(group, chosen) for r in range(1, len(subs) + 1)
            for chosen in combinations(subs, r)]


@pytest.mark.parametrize("k, top", GRID, ids=[f"C{k}-deg0..{t}" for k, t in GRID])
def test_route_equals_the_nerve_on_every_family(k, top):
    group, modules = _modules(k)
    for label, module in modules:
        for family in _families(group):
            om = fixed_point_functor(module, family)
            route, nerve = NormalFamilyComplex(om), BredonComplex(family, om)
            for n in range(top + 1):
                assert route.cohomology(n) == nerve.cohomology(n), \
                    (label, family.member_sets(), n)


@pytest.mark.parametrize("k", range(1, 7))
def test_route_equals_the_bar_complex_on_the_trivial_family(k):
    group, modules = _modules(k)
    family = trivial_family(group)
    for label, module in modules:
        route = NormalFamilyComplex(fixed_point_functor(module, family))
        bar = BarComplex(module)
        for n in range(4):
            assert route.cohomology(n) == bar.cohomology(n), (label, n)


def test_terminal_member_leaves_degree_zero_alone():
    # with G in the family, H^0 = M^G (here GF(3)^*) and every higher
    # degree vanishes
    module = units_gmodule(3, 4, 1)
    route = NormalFamilyComplex(fixed_point_functor(module, full_family(module.group)))
    assert route.cohomology(0).normal_form == (0, (2,))
    assert all(route.cohomology(n).is_trivial() for n in range(1, 8))


def test_the_size_cap_counts_the_blocks_of_one_degree():
    # C4's full family has 3 members, 3 strict pairs and one triple, so
    # degrees 0, 1, 2 have 3, 6 and 7 blocks; degree 2 is refused on every
    # call, as nothing past the cap is kept
    group = units_gmodule(2, 4, 1).group
    module = GModule.trivial(group, FgAbGroup.free(1))
    route = NormalFamilyComplex(fixed_point_functor(module, full_family(group)), 6)
    assert [len(route.layout(n)) for n in range(2)] == [3, 6]
    assert route.cohomology(0).normal_form == (1, ())
    for _ in range(2):
        with pytest.raises(SizeLimitError, match="needs 7 items, cap is 6"):
            route.cohomology(1)


def test_face_zero_between_periodic_resolutions_is_a_scalar():
    # C4's full family with trivial Z: from the chain 1 < C2, face 0 of d^q
    # is |C2/1|^(q // 2) times the projection's map (here 1), from the chain
    # map of C4/1's periodic resolution to C4/C2's
    group = units_gmodule(2, 4, 1).group
    module = GModule.trivial(group, FgAbGroup.free(1))
    route = NormalFamilyComplex(fixed_point_functor(module, full_family(group)))
    size = [h.size for h in route.module.cat.subgroups]
    one, c2 = size.index(1), size.index(2)
    for q in range(5):
        row = route._offsets(q + 1, route._blocks(q + 1)[1])[(one, c2)]
        col = route._offsets(q, route._blocks(q)[1])[(c2,)]
        assert route.differential(q).matrix[row, col] == 2 ** (q // 2), q
