"""The reduced (skeletal, normalized) cochain complex against the full one.

Random shipped groups of order at most 8, random families (arbitrary, or
closed under conjugation and subgroups) and random coefficient modules: the
reduced complex must give the same cohomology as the full reference
complex (over the unreduced functor of functor_reference), satisfy d.d = 0, and hand out cocycle representatives whose
classes are the canonical generators.
"""

import pytest
from functor_reference import unreduced_fixed_point_functor

from orbitcoh.bredon import BredonComplex
from orbitcoh.coeff import GModule, fixed_point_functor, sign_modules
from orbitcoh.groups import Family, builtin_group, builtin_group_names, family_close
from orbitcoh.intlin import FgAbGroup, IntMatrix, lattice_contains

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

GROUPS = sorted(n for n in builtin_group_names() if builtin_group(n).order <= 8)
TOP_DEGREE = 3
# the full reference complex is assembled only up to the degree whose next
# cochain group has at most this many chains
REFERENCE_CHAINS = 2500


def modules_for(group):
    out = [("z", GModule.trivial(group, FgAbGroup.free(1)))]
    for n in (2, 4):
        out.append((f"z{n}", GModule.trivial(
            group, FgAbGroup(1, IntMatrix.from_rows([[n]])))))
    signs = sign_modules(group)
    if signs:
        out.append(("sign", signs[0]))
    return out


@st.composite
def cases(draw):
    group = builtin_group(draw(st.sampled_from(GROUPS)))
    subs = group.all_subgroups()
    picked = draw(st.lists(st.sampled_from(subs), min_size=1,
                           max_size=len(subs), unique_by=lambda s: s.members))
    family = Family(group, picked)
    if draw(st.booleans()):
        family = family_close(family, under_conjugation=True,
                              under_subgroups=True)
    label, module = draw(st.sampled_from(modules_for(group)))
    return group.name, family, label, module


def unit(i, n):
    return tuple(int(k == i) for k in range(n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
def test_reduced_complex_matches_full_reference(case):
    name, family, label, module = case
    om = fixed_point_functor(module, family)
    reduced = BredonComplex(family, om)
    full = BredonComplex(family, unreduced_fixed_point_functor(module, family))
    full_cat = full.cat
    top = max(n for n in range(TOP_DEGREE + 1)
              if n == 0 or full_cat.chain_count(n + 1) <= REFERENCE_CHAINS)
    where = (name, family.member_sets(), label)
    for n in range(top + 1):
        assert reduced.cohomology(n).normal_form \
            == full.cohomology(n).normal_form, (where, n)
        if n:
            comp = reduced.differential(n).matrix @ reduced.differential(n - 1).matrix
            assert comp.is_zero() or lattice_contains(
                reduced.cochain_group(n + 1).relations, comp), (where, n)
        pres = reduced.cohomology_presentation(n)
        ngens = pres.canonical.ngens
        for i in range(ngens):
            assert pres.class_of(pres.representative(i)) == unit(i, ngens), \
                (where, n, i)
