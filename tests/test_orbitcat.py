import pytest

from orbitcoh.errors import BadParametersError, NotComposableError, SizeLimitError
from orbitcoh.groups import (
    Family,
    FiniteGroup,
    builtin_group,
    builtin_group_names,
    full_family,
)
from orbitcoh.orbitcat import (
    OrbitCategory,
    OrbitMorphism,
    compose,
    fixed_coset_count,
    morphisms,
    skeleton,
)


def c2_family():
    g = FiniteGroup.cyclic(2)
    return g, Family(g, [g.trivial_subgroup(), g.full_subgroup()])


def test_terminal_object_c2():
    g, fam = c2_family()
    triv, full = fam.subgroups
    assert len(morphisms(triv, full)) == 1          # G/G is terminal
    assert morphisms(full, triv) == []              # order obstruction
    assert len(morphisms(triv, triv)) == 2
    assert len(morphisms(full, full)) == 1


def test_s3_self_morphisms_of_order_two_point_stabilizer():
    g = builtin_group("s3")
    t = next(a for a in range(1, 6) if g.element_order(a) == 2)
    h = g.subgroup_closure([t])
    ms = morphisms(h, h)
    assert len(ms) == 1
    assert ms[0].is_identity()


def test_morphism_count_matches_fixed_cosets():
    for name in ("c4", "c2xc2", "s3", "d4", "q8"):
        g = builtin_group(name)
        subs = g.all_subgroups()
        for h in subs:
            for k in subs:
                assert len(morphisms(h, k)) == fixed_coset_count(h, k)


def test_category_morphisms_are_those_of_morphisms():
    # the category computes each target's coset representatives once
    for name in ("c4", "c2xc2", "s3", "d4", "q8"):
        for reduced in (True, False):
            cat = OrbitCategory(full_family(builtin_group(name)), reduced=reduced)
            listed = [m for s in cat.subgroups for t in cat.subgroups
                      for m in morphisms(s, t)]
            assert cat.morphs == listed


def test_identity_law_and_composition():
    g, fam = c2_family()
    triv, full = fam.subgroups
    for h in (triv, full):
        for k in (triv, full):
            for m in morphisms(h, k):
                assert compose(OrbitMorphism(h, h, 0), m) == m
                assert compose(m, OrbitMorphism(k, k, 0)) == m
    # nonidentity endomorphism of G/{e} followed by the map to G/G
    sigma = morphisms(triv, triv)[1]
    into = morphisms(triv, full)[0]
    assert compose(sigma, into) == into


def test_associativity_exhaustive_c4_full():
    g = FiniteGroup.cyclic(4)
    fam = full_family(g)
    all_m = [m for h in fam for k in fam for m in morphisms(h, k)]
    for f in all_m:
        for s in all_m:
            if f.target.members != s.source.members:
                continue
            for t in all_m:
                if s.target.members != t.source.members:
                    continue
                assert compose(compose(f, s), t) == compose(f, compose(s, t))


def test_compose_rejects_mismatch():
    g, fam = c2_family()
    triv, full = fam.subgroups
    into = morphisms(triv, full)[0]
    with pytest.raises(NotComposableError):
        compose(into, morphisms(triv, triv)[0])


def test_chain_counts_c2():
    g, fam = c2_family()
    full = OrbitCategory(fam, reduced=False)
    assert full.chain_count(0) == 2           # one chain per subgroup
    assert full.chain_count(1) == 4
    # independently enumerated: 4 + 2 + 1 + 1 composable pairs
    assert full.chain_count(2) == 8


def test_chain_recurrence():
    for name in ("c4", "s3"):
        fam = full_family(builtin_group(name))
        full = OrbitCategory(fam, reduced=False)
        for n in (1, 2, 3):
            total = 0
            for c in full.chain_tuples(n - 1):
                end = full.m_tgt[c[-1]] if len(c) > 1 else c[0]
                for k in fam:
                    total += len(morphisms(full.subgroups[end], k))
            assert total == full.chain_count(n)


@pytest.mark.parametrize("reduced", [True, False])
def test_chain_counts_in_any_order_match_enumeration(reduced):
    for name in ("c1", "c2", "c4", "s3"):
        cat = OrbitCategory(full_family(builtin_group(name)), reduced=reduced)
        for n in (3, 0, 4, 1, 2):
            assert cat.chain_count(n) == len(cat.chain_tuples(n))


def test_chain_counts_stop_at_the_first_empty_length():
    cat = OrbitCategory(full_family(builtin_group("c1")))
    assert cat.chain_count(0) == 1
    assert cat.chain_count(10 ** 9) == 0
    assert len(cat._counts) == 2


def test_chain_order_is_lexicographic():
    g, fam = c2_family()
    cat = OrbitCategory(fam)
    tuples = cat.chain_tuples(2)
    assert tuples == sorted(tuples)
    full = OrbitCategory(fam, reduced=False)
    objs = [(full.subgroups[s], full.morphs[m])
            for s, m in full.chain_tuples(1)]
    assert [(s.members, m.target.members, m.rep) for s, m in objs] == [
        ((0,), (0,), 0), ((0,), (0,), 1), ((0,), (0, 1), 0), ((0, 1), (0, 1), 0)]


def test_chain_cap():
    fam = full_family(builtin_group("c2xc2"))
    with pytest.raises(SizeLimitError):
        OrbitCategory(fam, reduced=False).chain_tuples(3, cap=10)


@pytest.mark.parametrize("reduced", [True, False])
def test_negative_chain_length_is_rejected(reduced):
    cat = OrbitCategory(full_family(builtin_group("c2")), reduced=reduced)
    with pytest.raises(BadParametersError):
        cat.chain_count(-1)
    with pytest.raises(BadParametersError):
        cat.chain_tuples(-1)


def test_canonical_representatives_are_coset_minima():
    g = builtin_group("d4")
    subs = g.all_subgroups()
    for h in subs:
        for k in subs:
            for m in morphisms(h, k):
                coset = {g.mul(m.rep, x) for x in k.members}
                assert m.rep == min(coset)


@pytest.mark.parametrize("name", builtin_group_names())
def test_coset_tables_and_the_generator_test_match_their_references(name):
    # the coset table against the least element of each coset, and
    # morphisms(), which conjugates the source's generators alone, against
    # the test on every member of the source
    g = builtin_group(name)
    subs = g.all_subgroups()
    for k in subs:
        assert k.coset_table == tuple(min(g.mul(x, h) for h in k.members)
                                      for x in range(g.order))
    for h in subs:
        for k in subs:
            inside = set(k.members)
            assert [m.rep for m in morphisms(h, k)] == [
                x for x in k.left_coset_representatives()
                if all(g.conj(x, a) in inside for a in h.members)]


def test_reduced_category_is_skeletal_and_normalized():
    fam = full_family(builtin_group("s3"))
    cat = OrbitCategory(fam)
    # one of the three conjugate subgroups of order 2, the first in order
    assert [s.members for s in cat.subgroups] == [
        (0,), (0, 1), (0, 2, 5), (0, 1, 2, 3, 4, 5)]
    assert all(not cat.morphs[mid].is_identity()
               for out in cat.out for mid in out)
    assert all(cat.in_chains[mid] != cat.morphs[mid].is_identity()
               for mid in range(len(cat.morphs)))
    g, fam = c2_family()
    cat = OrbitCategory(fam)
    assert [cat.chain_count(n) for n in range(4)] == [2, 2, 2, 2]
    assert cat.chain_tuples(2) == sorted(cat.chain_tuples(2))
    assert len(cat.chain_tuples(3, cap=2)) == 2


def test_every_member_has_an_object_and_a_conjugating_iso():
    # rep_of[P] = (i, a): a^-1 P a is the object, and the morphism P -> R
    # with rep a and the one R -> P with rep a^-1 compose to identities
    for name in ("s3", "d4", "q8", "a4"):
        g = builtin_group(name)
        fam = full_family(g)
        for reduced in (True, False):
            cat = OrbitCategory(fam, reduced=reduced)
            assert set(cat.rep_of) == set(fam.member_sets())
            for p in fam:
                i, a = cat.rep_of[p.members]
                r = cat.subgroups[i]
                assert p.conjugate_by(a).members == r.members
                assert i == cat.sub_index.get(p.members, i)
                there = OrbitMorphism(p, r, min(g.mul(a, k) for k in r.members))
                back = OrbitMorphism(r, p, min(g.mul(g.inverse[a], k)
                                               for k in p.members))
                assert there in morphisms(p, r) and back in morphisms(r, p)
                assert compose(there, back).is_identity()
                assert compose(back, there).is_identity()


def _skeleton_by_walk(family):
    """skeleton as it was before normal members skipped the walk: every
    new representative is conjugated by each element of G in turn."""
    g = family.parent
    members = set(family.member_sets())
    reps, rep_of = [], {}
    for s in family.subgroups:
        if s.members not in rep_of:
            for x in range(g.order):
                c = s.conjugate_by(x).members
                if c in members and c not in rep_of:
                    rep_of[c] = (len(reps), g.inverse[x])
            reps.append(s)
    return tuple(reps), rep_of


@pytest.mark.parametrize("name", builtin_group_names())
def test_skeleton_equals_the_walk_over_the_group(name):
    # a normal member keeps (i, 0) without the walk; every other member
    # keeps the isomorphism the walk chose, so cocycle coordinates stay put
    family = full_family(builtin_group(name))
    assert skeleton(family) == _skeleton_by_walk(family)
