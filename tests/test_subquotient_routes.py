"""The two routes of intlin.subquotient give the presentation's answer.

With uniform relations m*I and d_out @ d_in = 0 over Z, subquotient reads
the answer off the invariant factors of the two differentials (universal
coefficient theorem); every other complex goes through
SubquotientPresentation.  Both routes must agree with the presented
quotient's normal form.
"""

from unittest import mock

import pytest

from orbitcoh import intlin
from orbitcoh.bredon import BredonComplex
from orbitcoh.coeff import GModule, fixed_point_functor
from orbitcoh.galoisff import units_gmodule
from orbitcoh.groups import (
    builtin_group,
    builtin_group_names,
    cyclic_family,
    full_family,
    trivial_family,
)
from orbitcoh.intlin import (
    AbHom,
    FgAbGroup,
    IntMatrix,
    SubquotientPresentation,
    lattice_contains,
    subquotient,
)
from orbitcoh.orbitcat import OrbitCategory

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

GROUPS = sorted(n for n in builtin_group_names() if builtin_group(n).order <= 8)
FAMILIES = {"trivial-only": trivial_family, "cyclic": cyclic_family,
            "full": full_family}
MODULI = {"z": 0, "z2": 2, "z4": 4, "z6": 6, "z12": 12}
TOP_DEGREE = 2
CHAIN_LIMIT = 3000


def trivial_module(group, m):
    carrier = FgAbGroup(1, IntMatrix.from_rows([[m]])) if m else FgAbGroup.free(1)
    return GModule.trivial(group, carrier)


def differentials(cx, n):
    d_out = cx.differential(n)
    if n == 0:
        return AbHom.zero(FgAbGroup.free(0), d_out.source), d_out
    return cx.differential(n - 1), d_out


def presentation_calls(d_in, d_out):
    """(subquotient's answer, how often it built a SubquotientPresentation)."""
    with mock.patch.object(intlin, "SubquotientPresentation",
                           wraps=SubquotientPresentation) as spy:
        group = subquotient(d_in, d_out)
    return group, spy.call_count


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(GROUPS), st.sampled_from(sorted(FAMILIES)),
       st.sampled_from(sorted(MODULI)))
def test_invariant_factor_route_matches_presentation(name, family_name, label):
    group = builtin_group(name)
    family = FAMILIES[family_name](group)
    cx = BredonComplex(family, fixed_point_functor(
        trivial_module(group, MODULI[label]), family))
    cat = OrbitCategory(family)
    for n in range(TOP_DEGREE + 1):
        if cat.chain_count(n + 1) > CHAIN_LIMIT:
            break
        d_in, d_out = differentials(cx, n)
        group_nf, calls = presentation_calls(d_in, d_out)
        assert calls == 0, (name, family_name, label, n)
        expected = SubquotientPresentation(d_in, d_out).group.normal_form
        assert group_nf.normal_form == expected, (name, family_name, label, n)


def test_nonuniform_relations_take_presentation_route():
    # Z/4 with a sign action: the fixed points are Z/2 on some orbits and
    # Z/4 on others, so the relation lattices are not one m*I
    group = builtin_group("s3")
    index2 = next(s for s in group.all_subgroups() if s.size * 2 == group.order)
    mats = [IntMatrix.from_rows([[1 if g in index2.members else -1]])
            for g in range(group.order)]
    module = GModule(group, FgAbGroup(1, IntMatrix.from_rows([[4]])), mats)
    family = full_family(group)
    cx = BredonComplex(family, fixed_point_functor(module, family))
    for n in range(3):
        d_in, d_out = differentials(cx, n)
        group_nf, calls = presentation_calls(d_in, d_out)
        assert calls == 1
        assert group_nf.normal_form == \
            SubquotientPresentation(d_in, d_out).group.normal_form


def test_galois_units_take_presentation_route():
    # F_16^* = Z/15 under Frobenius x -> 2x: sigma^4 acts as 16, the
    # identity only modulo 15, so d^1 @ d^0 is nonzero over Z
    module = units_gmodule(2, 4, 1)
    family = trivial_family(module.group)
    cx = BredonComplex(family, fixed_point_functor(module, family))
    d_in, d_out = differentials(cx, 1)
    comp = d_out.matrix @ d_in.matrix
    assert not comp.is_zero()
    assert lattice_contains(d_out.target.relations, comp)
    group_nf, calls = presentation_calls(d_in, d_out)
    assert calls == 1
    assert group_nf.normal_form == \
        SubquotientPresentation(d_in, d_out).group.normal_form == (0, ())
