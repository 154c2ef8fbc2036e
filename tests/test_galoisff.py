import pytest

from orbitcoh.bredon import BredonComplex, cochain_complex
from orbitcoh.coeff import fixed_point_functor
from orbitcoh.errors import BadParametersError
from orbitcoh.galoisff import PRIME_BOUND, _is_prime, primary_parts, units_gmodule
from orbitcoh.groups import closed_families, full_family, trivial_family
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
        h0 = BredonComplex(fam, om).cohomology(0)
        assert h0.order() == expect == p ** d - 1


def _unit_complex(p, n, d, make_family=full_family):
    """The one complex of the unit functor over make_family(Galois group)."""
    module = units_gmodule(p, n, d)
    return cochain_complex(fixed_point_functor(module, make_family(module.group)))


def _closed_unit_complexes(p, n, d):
    module = units_gmodule(p, n, d)
    return [cochain_complex(fixed_point_functor(module, fam))
            for fam in closed_families(module.group)]


def test_hilbert90_examples():
    assert _unit_complex(2, 2, 1).cohomology(1).is_trivial()
    assert _unit_complex(3, 2, 1, trivial_family).cohomology(1).is_trivial()
    for cx in _closed_unit_complexes(2, 4, 1):
        assert cx.cohomology(1).is_trivial()


def test_brauer_intersection_examples():
    assert _unit_complex(2, 2, 1, trivial_family).cohomology(2).is_trivial()
    assert _unit_complex(2, 4, 1).cohomology(2).is_trivial()
    assert _unit_complex(7, 2, 2).cohomology(2).is_trivial()


def test_odd_vanishing_examples():
    assert _unit_complex(2, 4, 1).cohomology(3).is_trivial()
    assert _unit_complex(2, 2, 1, trivial_family).cohomology(3).is_trivial()


def test_full_grid_h1_h2_h3_vanish():
    # p in {2, 3}, n <= 4, every d | n, every closed family
    for p in (2, 3):
        for n in range(1, 5):
            for d in range(1, n + 1):
                if n % d:
                    continue
                for cx in _closed_unit_complexes(p, n, d):
                    assert cx.cohomology(1).is_trivial()
                    assert cx.cohomology(2).is_trivial()
                    assert cx.cohomology(3).is_trivial()


def test_primary_parts_recombine():
    pp = primary_parts(FgAbGroup.from_invariants(0, (2, 12, 60)))
    assert pp.parts == {2: (2, 4, 4), 3: (3, 3), 5: (5,)}
    assert pp.recombined() == (2, 12, 60)


@pytest.mark.parametrize("p, n, d", [(2, 2, 1), (2, 4, 1), (3, 4, 2)])
def test_unit_groups_are_canonical_fg_ab_groups(p, n, d):
    for cx in _closed_unit_complexes(p, n, d):
        for degree in (1, 2, 3):
            got = cx.cohomology(degree)
            assert isinstance(got, FgAbGroup)
            assert got.same_presentation(FgAbGroup.from_invariants(*got.normal_form))
