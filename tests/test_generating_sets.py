"""Checks on a generating set against their all-elements references.

FiniteGroup._validate tests associativity (ab)c = a(bc) for c among the
greedy generators only (Light's test), and family_close conjugates by those
generators only.  Both are exact: the c for which the law holds for all a
and b are closed under products, and a set of subgroups closed under
conjugation by generators is closed under conjugation by every product of
them.  The all-triples check and the all-elements closure are kept here as
the references they are compared with.

OrbitModule.validate checks the functor law F(i;s) = F(i)F(s) for the
generating morphisms s of the orbit category alone (orbitcat): generators
of each Aut(y) and one morphism per Aut(y)-orbit of each Hom(x, y), x != y.
Here those generate every morphism, in reduced and unreduced categories,
and validate judges corrupted functors as the all-pairs check
(functor_reference.all_pairs_validate) does.
"""

from functools import cache

import pytest
from functor_reference import all_pairs_validate, unreduced_fixed_point_functor

from orbitcoh.coeff import GModule, OrbitModule, fixed_point_functor, sign_modules
from orbitcoh.errors import BadParametersError, FunctorialityError
from orbitcoh.groups import (
    Family,
    FiniteGroup,
    builtin_group,
    builtin_group_names,
    closed_families,
    cyclic_family,
    family_close,
    full_family,
    trivial_family,
)
from orbitcoh.intlin import AbHom, FgAbGroup, IntMatrix
from orbitcoh.orbitcat import OrbitCategory

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

SMALL = [n for n in builtin_group_names() if builtin_group(n).order <= 12]


def reference_accepts(table) -> bool:
    """Whether a table is a group's: square, in range, 0 a two-sided
    identity, (ab)c = a(bc) for every triple, and every row holding 0."""
    n = len(table)
    if n == 0 or any(len(row) != n or not all(0 <= v < n for v in row)
                     for row in table):
        return False
    if any(table[0][a] != a or table[a][0] != a for a in range(n)):
        return False
    if any(table[table[a][b]][c] != table[a][table[b][c]]
           for a in range(n) for b in range(n) for c in range(n)):
        return False
    return all(0 in row for row in table)


def accepts(table) -> bool:
    try:
        FiniteGroup(table)
    except BadParametersError:
        return False
    return True


def reference_close(family, under_conjugation=False, under_subgroups=False):
    """family_close, conjugating by every element of the group."""
    current = {s.members: s for s in family.subgroups}
    todo = list(current.values())
    for s in todo:
        extra = []
        if under_conjugation:
            extra.extend(s.conjugate_by(x) for x in range(family.parent.order))
        if under_subgroups:
            extra.extend(s.subgroups())
        for t in extra:
            if t.members not in current:
                current[t.members] = t
                todo.append(t)
    return Family(family.parent, current.values())


def reference_closed_families(group):
    """closed_families, reading each class off all conjugates."""
    subs = group.all_subgroups()
    classes, assigned = [], {}
    for s in subs:
        if s.members in assigned:
            continue
        orbit = sorted({s.conjugate_by(x).members for x in range(group.order)})
        for m in orbit:
            assigned[m] = len(classes)
        classes.append(tuple(orbit))
    by_members = {s.members: s for s in subs}
    below = [{assigned[t.members] for t in by_members[orbit[0]].subgroups()}
             for orbit in classes]
    out = []
    for mask in range(1, 1 << len(classes)):
        chosen = {i for i in range(len(classes)) if mask >> i & 1}
        if all(below[i] <= chosen for i in chosen):
            out.append(Family(group, [by_members[m] for i in chosen
                                      for m in classes[i]]))
    return out


@st.composite
def relabelled_tables(draw):
    """A catalog table with its non-identity elements relabelled."""
    group = builtin_group(draw(st.sampled_from(SMALL)))
    n = group.order
    perm = [0] + draw(st.permutations(range(1, n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[group.mul(a, b)]
    return table


@settings(max_examples=150, deadline=None, derandomize=True)
@given(relabelled_tables())
def test_relabelled_catalog_tables_are_accepted(table):
    assert reference_accepts(table)
    assert accepts(table)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(relabelled_tables(), st.data())
def test_one_changed_entry_is_judged_as_the_reference_judges(table, data):
    n = len(table)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    table[a][b] = data.draw(st.integers(0, n - 1))
    assert accepts(table) == reference_accepts(table)


# a loop of order 5 (every row and column a permutation) that is no group
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_a_non_associative_latin_square_is_rejected():
    assert not reference_accepts(LOOP5)
    with pytest.raises(BadParametersError, match="associativity fails"):
        FiniteGroup(LOOP5)


def test_every_generator_is_tried():
    # C2 x LOOP5, element 2l + i for (l, i): the first generator, 1, spans
    # C2, and (ab)c = a(bc) holds for every c in C2, so only a later
    # generator can expose the loop
    table = [[LOOP5[x // 2][y // 2] * 2 + (x + y) % 2 for y in range(10)]
             for x in range(10)]
    assert not reference_accepts(table)
    with pytest.raises(BadParametersError, match="associativity fails"):
        FiniteGroup(table)


@st.composite
def families(draw):
    group = builtin_group(draw(st.sampled_from(SMALL)))
    subs = group.all_subgroups()
    chosen = draw(st.sets(st.integers(0, len(subs) - 1), min_size=1))
    return Family(group, [subs[i] for i in sorted(chosen)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(families())
def test_closure_by_generators_equals_closure_by_all_elements(family):
    for conj, down in ((True, False), (False, True), (True, True)):
        got = family_close(family, under_conjugation=conj, under_subgroups=down)
        want = reference_close(family, under_conjugation=conj,
                               under_subgroups=down)
        assert got.member_sets() == want.member_sets(), (conj, down)


@pytest.mark.parametrize("name", builtin_group_names())
def test_closed_families_are_those_of_the_reference_in_order(name):
    group = builtin_group(name)
    assert ([f.member_sets() for f in closed_families(group)]
            == [f.member_sets() for f in reference_closed_families(group)])


FAMILIES = {"trivial": trivial_family, "cyclic": cyclic_family, "full": full_family}


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", SMALL)
def test_the_generating_morphisms_generate_every_morphism(name, family, reduced):
    # closing the identities under composing after a generating morphism
    # reaches every morphism of the category
    cat = OrbitCategory(FAMILIES[family](builtin_group(name)), reduced)
    gens = cat.generating_morphisms
    assert not any(cat.morphs[m].is_identity() for out in gens for m in out)
    reached = [m for m, f in enumerate(cat.morphs) if f.is_identity()]
    seen = set(reached)
    for a in reached:
        for c in (cat.compose_ids(a, s) for s in gens[cat.m_tgt[a]]):
            if c not in seen:
                seen.add(c)
                reached.append(c)
    assert seen == set(range(len(cat.morphs)))


def _zmod(n):
    return FgAbGroup(1, IntMatrix.from_rows([[n]]))


@cache
def _functor(name, label, family, reduced):
    group = builtin_group(name)
    modules = {"Z": GModule.trivial(group, FgAbGroup.free(1)),
               "Z/2": GModule.trivial(group, _zmod(2)),
               "Z/4": GModule.trivial(group, _zmod(4))}
    modules.update((f"sign{i}", m) for i, m in enumerate(sign_modules(group)))
    build = fixed_point_functor if reduced else unreduced_fixed_point_functor
    return build(modules[label], FAMILIES[family](group))


def _judgement(check):
    try:
        check()
    except FunctorialityError:
        return False
    return True


@st.composite
def corrupted_functors(draw):
    """A fixed point functor over Z, Z/2, Z/4 or a sign module with one
    entry of one map changed, the map still well defined."""
    group = builtin_group(draw(st.sampled_from(SMALL)))
    labels = ["Z", "Z/2", "Z/4"] + [f"sign{i}" for i in range(len(sign_modules(group)))]
    om = _functor(group.name, draw(st.sampled_from(labels)),
                  draw(st.sampled_from(sorted(FAMILIES))), draw(st.booleans()))
    maps = list(om.maps)
    k = draw(st.sampled_from([k for k, m in enumerate(maps) if m.rows and m.cols]))
    i, j = draw(st.integers(0, maps[k].rows - 1)), draw(st.integers(0, maps[k].cols - 1))
    maps[k] = maps[k] + IntMatrix(maps[k].rows, maps[k].cols,
                                  {(i, j): draw(st.sampled_from([-2, -1, 1, 2, 4]))})
    cat = om.cat
    assume(AbHom(om.values[cat.m_tgt[k]], om.values[cat.m_src[k]], maps[k]).well_defined())
    return OrbitModule(cat, om.values, maps, validate=False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(corrupted_functors())
def test_validate_judges_one_changed_map_as_all_pairs_does(om):
    assert _judgement(om.validate) == _judgement(lambda: all_pairs_validate(om))
