"""The one scaffold of the cochain complexes (_CochainComplex).

Each complex supplies its blocks (_values) and the entries of its
differentials (_entries); the scaffold builds the cochain groups and the
differentials from them, once per degree, and hands out the same objects
on every later call.
"""

import pytest
from normal_family_reference import same_differentials

from orbitcoh.bredon import BarComplex, BredonComplex, NormalFamilyComplex
from orbitcoh.coeff import GModule, fixed_point_functor, sign_modules
from orbitcoh.groups import FiniteGroup, builtin_group, cyclic_family, full_family
from orbitcoh.intlin import FgAbGroup, IntMatrix


def _cyclic(n):
    return FgAbGroup(1, IntMatrix.from_rows([[n]]))


def bredon_d4_cyclic_z():
    group = builtin_group("d4")
    family = cyclic_family(group)
    module = GModule.trivial(group, FgAbGroup.free(1))
    return BredonComplex(family, fixed_point_functor(module, family))


def cyclic_c6_full_z4():
    group = FiniteGroup.cyclic(6)
    family = full_family(group)
    return NormalFamilyComplex(fixed_point_functor(GModule.trivial(group, _cyclic(4)), family))


def normal_q8_cyclic_sign():
    group = builtin_group("q8")
    family = cyclic_family(group)
    module = sign_modules(group)[0]
    return NormalFamilyComplex(fixed_point_functor(module, family))


def bar_s3_z2():
    return BarComplex(GModule.trivial(builtin_group("s3"), _cyclic(2)))


COMPLEXES = [bredon_d4_cyclic_z, cyclic_c6_full_z4, normal_q8_cyclic_sign, bar_s3_z2]


@pytest.mark.parametrize("make", COMPLEXES, ids=lambda f: f.__name__)
def test_differentials_run_between_the_cached_cochain_groups(make):
    cx = make()
    for n in range(3):
        d = cx.differential(n)
        assert d.source is cx.cochain_group(n)
        assert d.target is cx.cochain_group(n + 1)
        assert cx.differential(n) is d
        assert (d.matrix.rows, d.matrix.cols) == (d.target.ngens, d.source.ngens)


@pytest.mark.parametrize("make", COMPLEXES, ids=lambda f: f.__name__)
def test_each_degree_is_assembled_once(make, monkeypatch):
    cx = make()
    calls = {"_values": [], "_entries": []}
    for name, seen in calls.items():
        inner = getattr(type(cx), name)

        def counted(self, degree, *rest, inner=inner, seen=seen):
            seen.append(degree)
            return inner(self, degree, *rest)

        monkeypatch.setattr(type(cx), name, counted)
    for n in range(4):
        cx.cohomology(n)
    for _ in range(2):
        for n in range(4):
            cx.differential(n)
            cx.cochain_group(n)
    assert calls == {"_values": [0, 1, 2, 3, 4], "_entries": [0, 1, 2, 3]}


def test_shared_tables_give_the_per_object_differentials():
    # NormalFamilyComplex shares a table among objects that read the same;
    # the per-object reference builds each object's own, on bar cells and
    # product resolutions (q8) and on periodic resolutions alone (C6)
    assert same_differentials(normal_q8_cyclic_sign(), 2)
    assert same_differentials(cyclic_c6_full_z4(), 3)
