"""The complex of a family of normal subgroups against the nerve.

NormalFamilyComplex must give the groups of BredonComplex (the nerve of
the orbit category) on every family whose members are all normal, closed or
not, and those of the bar complex on the trivial family.  The coefficients
are trivial Z, Z/2 and Z/4 and every sign module.  The nerve grows fastest,
so the degrees fall as the groups grow: H^0..H^3 on c2, c4, c2xc2 and q8,
H^0..H^2 on a systematic sample of c2xc2xc2's closed families, of the
normal-member families of d6, c4xc2, c3xc3 and c6xc2, and on all those of
d4 and a4.  Every d.d = 0 is the scaffold's exact test over Z.

A minimal member with an abelian quotient Q is resolved by the product of
the periodic resolutions of a cyclic decomposition of Q.  Its own tests
work in the group ring: d.d = 0 and d_B c = c d_P for the comparison map
c to the bar resolution, to degree 4, and the decomposition is checked to
be exact on every abelian quotient of every catalog group and of a few
larger abelian groups.

The complex keys its tables by what each reads, so objects that read the
same share one; on every case here its differentials equal those of
PerObjectComplex, whose tables are each object's own, entry for entry.
"""

from itertools import combinations

import pytest
from normal_family_reference import same_differentials

from orbitcoh.bredon import (
    BarComplex,
    BredonComplex,
    NormalFamilyComplex,
    _cyclic_factors,
)
from orbitcoh.coeff import GModule, fixed_point_functor, sign_modules
from orbitcoh.errors import BadParametersError, SizeLimitError
from orbitcoh.groups import (
    Family,
    FiniteGroup,
    builtin_group,
    builtin_group_names,
    closed_families,
    cyclic_family,
    full_family,
    trivial_family,
)
from orbitcoh.intlin import FgAbGroup, IntMatrix
from orbitcoh.orbitcat import canonical_rep


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
        assert same_differentials(route, top), (label, family.member_sets())


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


@pytest.mark.parametrize("name, step", [("c4xc2", 5), ("c3xc3", 1), ("c6xc2", 29)])
def test_route_equals_the_nerve_on_abelian_families_of(name, step):
    families = _normal_families(builtin_group(name))[::step]
    minimal = [sum(not any(set(a.members) < set(b.members) for a in f) for b in f)
               for f in families]
    assert max(minimal) >= 3 and len(families) >= 36
    for family in families:
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
        assert same_differentials(route, 3 if group.order < 8 else 2), label


def test_each_table_is_built_once_per_key_not_per_object(monkeypatch):
    # c2xc2xc2's full family: the seven objects G/H with |G/H| = 2 (and the
    # seven with |G/H| = 4) have one automorphism table in place order and
    # the same module maps under trivial Z, so they share one d_v a degree
    group = builtin_group("c2xc2xc2")
    module = GModule.trivial(group, FgAbGroup.free(1))
    route = NormalFamilyComplex(fixed_point_functor(module, full_family(group)))
    read = set()
    vertical = NormalFamilyComplex._vertical

    def counted(self, h, q):
        read.add((h, q))
        return vertical(self, h, q)

    monkeypatch.setattr(NormalFamilyComplex, "_vertical", counted)
    for n in range(4):
        route.cohomology(n)
    keys = {(route._twist[h], q) for h, q in read}
    assert len(route._verticals) == len(keys)
    assert len(keys) == len({(len(route._autos[h]), q) for h, q in read}) < len(read)


def test_a_member_that_is_not_normal_is_refused():
    group = builtin_group("d4")
    module = GModule.trivial(group, FgAbGroup.free(1))
    with pytest.raises(BadParametersError, match="not normal"):
        NormalFamilyComplex(fixed_point_functor(module, cyclic_family(group)))


def test_the_size_cap_counts_the_blocks_of_one_degree():
    # c2xc2 with {1, <a>}: the minimal member 1 takes the product of two
    # periodic resolutions, n + 1 generators in degree n; G/<a> keeps its
    # bar cells, one per degree; and 1 < <a> is the one strict pair, so
    # degree n has (n + 1) + 1 blocks on the members and n on the pair: 2,
    # 4 and 6 in degrees 0, 1, 2
    group = builtin_group("c2xc2")
    family = Family(group, [group.trivial_subgroup(), group.all_subgroups()[1]])
    module = GModule.trivial(group, FgAbGroup.free(1))
    route = NormalFamilyComplex(fixed_point_functor(module, family), 5)
    assert [route.cochain_group(n).ngens for n in range(2)] == [2, 4]
    assert route.cohomology(0).normal_form == (1, ())
    with pytest.raises(SizeLimitError, match="needs 6 items, cap is 5"):
        route.cohomology(1)


def _ring(route):
    """The minimal object 1's quotient G/1 = G: each automorphism place to
    its group element (-1, the identity, to 0), and the group's product."""
    cat = route.module.cat
    rep = {x: cat.morphs[m].rep for x, m in enumerate(route._autos[0])}
    rep[-1] = 0
    return rep, cat.group.mul


@pytest.mark.parametrize("name", ["c2xc2", "c4xc2", "c2xc2xc2", "c3xc3", "c6xc2"])
def test_the_product_resolution_and_its_comparison_map(name):
    group = builtin_group(name)
    module = GModule.trivial(group, FgAbGroup.free(1))
    route = NormalFamilyComplex(fixed_point_functor(module, trivial_family(group)))
    assert route._cyclic[0] is not None
    rep, mul = _ring(route)
    k = len(route._autos[0])

    def cells(q, t):
        """c_q(e_t) as {(x, (g_1, ..., g_q)): coefficient}, x = 1."""
        out = {}
        for cell, v in route._compared(0, 0, q)[t].items():
            digits = []
            for _ in range(q):
                cell, g = divmod(cell, k)
                digits.append(rep[g])
            out[(0, tuple(reversed(digits)))] = v
        return out

    def d(q, t):
        """d e_t as [(x, s, c)]: c x e_s."""
        return [(rep[x], s, c) for x, group in route._boundary(0, q).items()
                for (t1, s), c in group.items() if t1 == t]

    def add(acc, key, v):
        acc[key] = acc.get(key, 0) + v

    for q in range(1, 5):
        for t in range(route._gens(0, q)):
            # d d e_t = 0 in the group ring
            if q > 1:
                dd = {}
                for x, s, c in d(q, t):
                    for y, u, c2 in d(q - 1, s):
                        add(dd, (u, mul(x, y)), c * c2)
                assert not any(dd.values()), (name, q, t)
            # c d e_t = d_B c e_t, on normalized bar cells
            lhs = {}
            for x, s, c in d(q, t):
                for (_, cell), v in cells(q - 1, s).items():
                    add(lhs, (x, cell), c * v)
            rhs = {}
            for (_, g), v in cells(q, t).items():
                faces = [(g[0], g[1:])]
                faces += [(0, g[:i - 1] + (mul(g[i - 1], g[i]),) + g[i + 1:])
                          for i in range(1, q)]
                faces.append((0, g[:-1]))
                for i, (x, face) in enumerate(faces):
                    if 0 not in face:
                        add(rhs, (x, face), v * (-1) ** i)
            assert {a: v for a, v in lhs.items() if v} \
                == {a: v for a, v in rhs.items() if v}, (name, q, t)


def _abelian_quotients(group):
    """Every normal subgroup N with G/N abelian, and the others."""
    normal = [n for n in group.all_subgroups() if n.is_normal()]
    mul, inv = group.mul, group.inverse
    abelian = [all(mul(mul(a, b), inv[mul(b, a)]) in n
                   for a in range(group.order) for b in range(group.order))
               for n in normal]
    return ([n for n, a in zip(normal, abelian) if a],
            [n for n, a in zip(normal, abelian) if not a])


@pytest.mark.parametrize("group", [builtin_group(n) for n in builtin_group_names()] + [
    FiniteGroup.direct_product(FiniteGroup.cyclic(4), FiniteGroup.cyclic(4)),
    FiniteGroup.direct_product(FiniteGroup.cyclic(8), FiniteGroup.cyclic(2)),
    FiniteGroup.direct_product(*[FiniteGroup.direct_product(
        FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))] * 2)],
    ids=lambda g: g.name)
def test_the_cyclic_decomposition_is_exact(group):
    abelian, other = _abelian_quotients(group)
    for n in other:
        assert _cyclic_factors(group, n) is None
    for n in abelian:
        factors = _cyclic_factors(group, n)
        orders = []
        for t in factors:
            assert t == canonical_rep(group, t, n)
            x, order = t, 1
            while x not in n:
                x, order = group.mul(x, t), order + 1
            orders.append(order)
        assert min(orders, default=2) > 1
        product = 1
        for order in orders:
            product *= order
        assert product * n.size == group.order, (group.name, n.members)
        assert group.subgroup_closure(list(factors) + list(n.members)).size \
            == group.order
