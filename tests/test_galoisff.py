import pytest

from orbitcoh.bredon import bredon_cohomology
from orbitcoh.coeff import fixed_point_functor
from orbitcoh.errors import BadParametersError, FamilyMissingTrivialError
from orbitcoh.galoisff import (
    PRIME_BOUND,
    _is_prime,
    bredon_hilbert90,
    brauer_intersection,
    closed_unit_families,
    odd_vanishing_check,
    primary_parts,
    units_gmodule,
)
from orbitcoh.groups import Family, full_family, trivial_family
from orbitcoh.intlin import FgAbGroup


def _trial_division(n):
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20_000) if _is_prime(n)] == \
        [n for n in range(20_000) if _trial_division(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the prime bases up to 7 and up to 23
    assert not _is_prime(3215031751)
    assert not _is_prime(3825123056546413051)
    assert _is_prime(2305843009213693951)


def test_is_prime_gives_no_answer_past_its_bound():
    with pytest.raises(BadParametersError, match=str(PRIME_BOUND)):
        _is_prime(PRIME_BOUND)
    assert not _is_prime(PRIME_BOUND - 1)


def test_units_gmodule_gf4():
    m = units_gmodule(2, 2, 1)
    assert m.carrier.normal_form == (0, (3,))
    assert m.act(1)[(0, 0)] % 3 == 2


def test_units_gmodule_gf9():
    m = units_gmodule(3, 2, 1)
    assert m.carrier.normal_form == (0, (8,))
    assert m.act(1)[(0, 0)] % 8 == 3


def test_units_gmodule_trivial_extension():
    m = units_gmodule(5, 3, 3)
    assert m.group.order == 1
    assert m.carrier.normal_form == (0, (124,))


def test_units_gmodule_rejects_bad_parameters():
    with pytest.raises(BadParametersError):
        units_gmodule(4, 2, 1)
    with pytest.raises(BadParametersError):
        units_gmodule(2, 3, 2)


def test_fixed_subfield_units_match_galois_theory():
    # degree-zero cohomology of the unit functor is the base-field unit group
    for (p, n, d, expect) in [(2, 4, 2, 3), (3, 2, 1, 2), (3, 4, 2, 8)]:
        module = units_gmodule(p, n, d)
        fam = full_family(module.group)
        om = fixed_point_functor(module, fam)
        h0 = bredon_cohomology(fam, om, 0)
        assert h0.order() == expect == p ** d - 1


def test_hilbert90_requires_trivial_member():
    module = units_gmodule(2, 2, 1)
    fam = Family(module.group, [module.group.full_subgroup()])
    with pytest.raises(FamilyMissingTrivialError):
        bredon_hilbert90(2, 2, 1, fam)


def test_hilbert90_examples():
    module = units_gmodule(2, 2, 1)
    assert bredon_hilbert90(2, 2, 1, full_family(module.group)).is_trivial()
    module = units_gmodule(3, 2, 1)
    assert bredon_hilbert90(3, 2, 1, trivial_family(module.group)).is_trivial()
    module, fams = closed_unit_families(2, 4, 1)
    for fam in fams:
        assert bredon_hilbert90(2, 4, 1, fam).is_trivial()


def test_brauer_intersection_examples():
    module = units_gmodule(2, 2, 1)
    assert brauer_intersection(2, 2, 1, trivial_family(module.group)).is_trivial()
    module = units_gmodule(2, 4, 1)
    assert brauer_intersection(2, 4, 1, full_family(module.group)).is_trivial()
    module = units_gmodule(7, 2, 2)
    assert brauer_intersection(7, 2, 2, full_family(module.group)).is_trivial()


def test_odd_vanishing_examples():
    module = units_gmodule(2, 4, 1)
    res = odd_vanishing_check(2, 4, 1, full_family(module.group))
    assert res.is_trivial()
    module = units_gmodule(2, 2, 1)
    res = odd_vanishing_check(2, 2, 1, trivial_family(module.group))
    assert res.is_trivial()


def test_odd_vanishing_requires_closed_family():
    module = units_gmodule(2, 4, 1)
    g = module.group
    fam = Family(g, [g.trivial_subgroup(), g.full_subgroup()])  # missing C2
    with pytest.raises(BadParametersError):
        odd_vanishing_check(2, 4, 1, fam)


def test_full_grid_h1_h2_h3_vanish():
    # p in {2, 3}, n <= 4, every d | n, every closed family
    for p in (2, 3):
        for n in range(1, 5):
            for d in range(1, n + 1):
                if n % d:
                    continue
                module, fams = closed_unit_families(p, n, d)
                for fam in fams:
                    assert bredon_hilbert90(p, n, d, fam).is_trivial()
                    assert brauer_intersection(p, n, d, fam).is_trivial()
                    assert odd_vanishing_check(p, n, d, fam).is_trivial()


def test_primary_parts_recombine():
    pp = primary_parts(FgAbGroup.from_invariants(0, (2, 12, 60)))
    assert pp.parts == {2: (2, 4, 4), 3: (3, 3), 5: (5,)}
    assert pp.recombined() == (2, 12, 60)


@pytest.mark.parametrize("p, n, d", [(2, 2, 1), (2, 4, 1), (3, 4, 2)])
def test_unit_groups_are_canonical_fg_ab_groups(p, n, d):
    _, fams = closed_unit_families(p, n, d)
    for fam in fams:
        for fn in (bredon_hilbert90, brauer_intersection, odd_vanishing_check):
            got = fn(p, n, d, fam)
            assert isinstance(got, FgAbGroup)
            assert got.same_presentation(FgAbGroup.from_invariants(*got.normal_form))
