import pytest
from functor_reference import unreduced_fixed_point_functor

from orbitcoh.bredon import (
    BarComplex,
    BredonComplex,
    restriction_kernel_intersection,
)
from orbitcoh.coeff import GModule, fixed_point_functor, sign_modules
from orbitcoh.errors import SizeLimitError
from orbitcoh.groups import Family, FiniteGroup, builtin_group, full_family, trivial_family
from orbitcoh.intlin import FgAbGroup, IntMatrix, lattice_contains

# Expected bar cohomology in degrees 0..3, frozen from an independent
# brute-force implementation (and matching the classical values).
BAR_EXPECTED = {
    ("c2", "z"): [(1, ()), (0, ()), (0, (2,)), (0, ())],
    ("c3", "z"): [(1, ()), (0, ()), (0, (3,)), (0, ())],
    ("c4", "z"): [(1, ()), (0, ()), (0, (4,)), (0, ())],
    ("c2xc2", "z"): [(1, ()), (0, ()), (0, (2, 2)), (0, (2,))],
    ("s3", "z"): [(1, ()), (0, ()), (0, (2,)), (0, ())],
    ("c2", "z2"): [(0, (2,)), (0, (2,)), (0, (2,)), (0, (2,))],
    ("c3", "z2"): [(0, (2,)), (0, ()), (0, ()), (0, ())],
    ("c2xc2", "z2"): [(0, (2,)), (0, (2, 2)), (0, (2, 2, 2)), (0, (2, 2, 2, 2))],
    ("c2", "z4"): [(0, (4,)), (0, (2,)), (0, (2,)), (0, (2,))],
    ("c4", "z4"): [(0, (4,)), (0, (4,)), (0, (4,)), (0, (4,))],
    ("s3", "z4"): [(0, (4,)), (0, (2,)), (0, (2,)), (0, (2,))],
    ("c2", "sign"): [(0, ()), (0, (2,)), (0, ()), (0, (2,))],
    ("c4", "sign"): [(0, ()), (0, (2,)), (0, ()), (0, (2,))],
    ("s3", "sign"): [(0, ()), (0, (2,)), (0, (3,)), (0, (2,))],
}


def module_for(group, kind):
    if kind == "z":
        return GModule.trivial(group, FgAbGroup.free(1))
    if kind.startswith("z") and kind[1:].isdigit():
        n = int(kind[1:])
        return GModule.trivial(group, FgAbGroup(1, IntMatrix.from_rows([[n]])))
    if kind == "sign":
        return sign_modules(group)[0]
    raise ValueError(kind)


@pytest.mark.parametrize("name,kind", sorted(BAR_EXPECTED))
def test_bar_cohomology_frozen_values(name, kind):
    g = builtin_group(name)
    m = module_for(g, kind)
    expected = BAR_EXPECTED[(name, kind)]
    for deg in range(4):
        got = BarComplex(m).cohomology(deg)
        assert got.normal_form == expected[deg], (name, kind, deg)


def test_bar_degree_zero_is_invariants():
    from orbitcoh.coeff import invariants

    for name in ("c4", "s3", "q8"):
        g = builtin_group(name)
        mods = [module_for(g, "z"), module_for(g, "z4")] + sign_modules(g)
        for m in mods:
            fixed, _ = invariants(m, g.full_subgroup())
            assert BarComplex(m).cohomology(0).normal_form == fixed.normal_form


def test_bredon_h0_is_z_for_trivial_coefficients():
    for name in ("c2", "c4", "s3", "c2xc2"):
        g = builtin_group(name)
        m = GModule.trivial(g, FgAbGroup.free(1))
        for fam in (trivial_family(g), full_family(g)):
            om = fixed_point_functor(m, fam)
            assert BredonComplex(fam, om).cohomology(0).normal_form == (1, ())


def test_bredon_matches_bar_for_trivial_family():
    combos = []
    for name in ("c2", "c3", "c4", "c2xc2", "s3"):
        g = builtin_group(name)
        mods = [module_for(g, "z"), module_for(g, "z2"), module_for(g, "z4")]
        mods.extend(sign_modules(g))
        combos.append((g, mods))
    for g, mods in combos:
        fam = trivial_family(g)
        for m in mods:
            om = fixed_point_functor(m, fam)
            for deg in range(3):
                ours = BredonComplex(fam, om).cohomology(deg)
                oracle = BarComplex(m).cohomology(deg)
                assert ours.normal_form == oracle.normal_form, (g.name, deg)


def test_bredon_d0_shape_and_kernel_for_c2():
    g = FiniteGroup.cyclic(2)
    fam = full_family(g)
    m = GModule.trivial(g, FgAbGroup.free(1))
    om = fixed_point_functor(m, fam)
    from orbitcoh.intlin import kernel_basis

    # full reference: one row per chain of length 1, identities included
    d0 = BredonComplex(fam, unreduced_fixed_point_functor(m, fam)).differential(0)
    assert d0.matrix.rows == 4 and d0.matrix.cols == 2
    assert kernel_basis(d0.matrix).cols == 1
    # reduced: the two non-identity morphisms C2/1 -> C2/1 and C2/1 -> C2/C2
    d0 = BredonComplex(fam, om).differential(0)
    assert d0.matrix.rows == 2 and d0.matrix.cols == 2
    assert kernel_basis(d0.matrix).cols == 1


def test_bredon_full_family_c2_trivial():
    g = FiniteGroup.cyclic(2)
    fam = full_family(g)
    om = fixed_point_functor(GModule.trivial(g, FgAbGroup.free(1)), fam)
    values = [BredonComplex(fam, om).cohomology(n).normal_form for n in range(3)]
    assert values == [(1, ()), (0, ()), (0, ())]


def test_bredon_sign_degree_one():
    g = FiniteGroup.cyclic(2)
    m = sign_modules(g)[0]
    fam = trivial_family(g)
    om = fixed_point_functor(m, fam)
    assert BredonComplex(fam, om).cohomology(1).normal_form == (0, (2,))


def test_d_after_d_is_zero_across_matrix():
    for name in ("c2", "c4", "s3"):
        g = builtin_group(name)
        for fam in (trivial_family(g), full_family(g)):
            for m in [module_for(g, "z"), module_for(g, "z4")] + sign_modules(g):
                om = fixed_point_functor(m, fam)
                cx = BredonComplex(fam, om)
                for n in range(2):
                    comp = cx.differential(n + 1).matrix @ cx.differential(n).matrix
                    target = cx.cochain_group(n + 2)
                    if not comp.is_zero():
                        assert lattice_contains(target.relations, comp)


def test_size_cap_raises():
    g = builtin_group("c2xc2")
    fam = full_family(g)
    om = fixed_point_functor(GModule.trivial(g, FgAbGroup.free(1)), fam)
    with pytest.raises(SizeLimitError):
        BredonComplex(fam, om, size_cap=50).cohomology(3)
    with pytest.raises(SizeLimitError):
        BarComplex(GModule.trivial(g, FgAbGroup.free(1)), size_cap=10).cohomology(3)


def test_representatives_are_cocycles_with_right_classes():
    g = FiniteGroup.cyclic(2)
    fam = trivial_family(g)
    m = module_for(g, "z")
    om = fixed_point_functor(m, fam)
    cx = BredonComplex(fam, om)
    pres = cx.cohomology_presentation(2)
    assert pres.canonical.normal_form == (0, (2,))
    assert pres.canonical.ngens == 1
    vec = pres.representative(0)
    image = cx.differential(2).matrix @ vec
    target = cx.cochain_group(3)
    assert image.is_zero() or lattice_contains(target.relations, image)
    # the representative's class is the nonzero element of Z/2
    assert pres.class_of(vec) == (1,)


def test_restriction_kernel_trivial_family_gives_everything():
    g = builtin_group("c4")
    m = module_for(g, "z")
    fam = trivial_family(g)
    for deg in (1, 2):
        got, _ = restriction_kernel_intersection(m, fam, deg)
        assert got.normal_form == BarComplex(m).cohomology(deg).normal_form


def test_restriction_kernel_c4_z_degree_two():
    # ker(H^2(C4, Z) = Z/4 -> H^2(C2, Z) = Z/2) is Z/2
    g = builtin_group("c4")
    m = module_for(g, "z")
    fam = Family(g, [g.trivial_subgroup(), g.subgroup([0, 2])])
    got, h1_hypothesis = restriction_kernel_intersection(m, fam, 2)
    assert got.normal_form == (0, (2,))
    assert h1_hypothesis is True


def test_restriction_kernel_whole_group_in_family():
    g = FiniteGroup.cyclic(2)
    m = sign_modules(g)[0]
    fam = full_family(g)
    got, _ = restriction_kernel_intersection(m, fam, 1)
    assert got.normal_form == (0, ())


def test_restriction_kernel_flags_failed_hypothesis():
    # H^1(C2, Z/2) is nonzero, so the degree-2 comparison flag must trip
    g = builtin_group("c2")
    m = module_for(g, "z2")
    _, h1_hypothesis = restriction_kernel_intersection(m, full_family(g), 2)
    assert h1_hypothesis is False


def _is_canonical(group):
    return isinstance(group, FgAbGroup) and group.same_presentation(
        FgAbGroup.from_invariants(*group.normal_form))


@pytest.mark.parametrize("name", ["c2", "c4", "s3", "c2xc2"])
def test_computed_groups_are_canonical_fg_ab_groups(name):
    g = builtin_group(name)
    for m in [module_for(g, "z"), module_for(g, "z4")] + sign_modules(g)[:1]:
        for fam in (trivial_family(g), full_family(g)):
            om = fixed_point_functor(m, fam)
            cx, bar = BredonComplex(fam, om), BarComplex(m)
            for deg in range(3):
                for got in (cx.cohomology(deg), bar.cohomology(deg),
                            BredonComplex(fam, om).cohomology(deg),
                            BarComplex(m).cohomology(deg)):
                    assert _is_canonical(got), (name, deg)


@pytest.mark.parametrize("name", ["c2", "c4", "s3"])
def test_restriction_kernel_returns_group_and_hypothesis(name):
    g = builtin_group(name)
    for m in (module_for(g, "z"), module_for(g, "z2")):
        for fam in (trivial_family(g), full_family(g)):
            got, h1_hypothesis = restriction_kernel_intersection(m, fam, 1)
            assert _is_canonical(got) and h1_hypothesis is None
            got, h1_hypothesis = restriction_kernel_intersection(m, fam, 2)
            assert _is_canonical(got) and isinstance(h1_hypothesis, bool)
