"""GModule.validate tests the module law on generators only.

The reference below is the check it replaced, A(a)A(b) = A(ab) over all
|G|^2 pairs, kept here only as an oracle: on permutation modules Z[G/H] and
(Z/m)[G/H], twisted by a sign character, on the same tables with one
element's matrix perturbed, and on tables negated on one right coset of a
generator's cyclic subgroup, validation accepts exactly what it accepts.
"""

import pytest

from orbitcoh.coeff import GModule, sign_modules
from orbitcoh.errors import BadParametersError
from orbitcoh.groups import groups_up_to_order
from orbitcoh.intlin import AbHom, FgAbGroup, IntMatrix

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

GROUPS = groups_up_to_order(8)


def all_pairs_accepts(group, carrier, actions) -> bool:
    """The former GModule.validate: shapes, relations, identity, all pairs."""
    n = carrier.ngens

    def hom(m):
        return AbHom(carrier, carrier, m)

    if any(m.rows != n or m.cols != n or not hom(m).well_defined()
           for m in actions):
        return False
    if not hom(actions[0]).equal_hom(AbHom.identity(carrier)):
        return False
    return all(hom(actions[a] @ actions[b]).equal_hom(hom(actions[group.mul(a, b)]))
               for a in range(group.order) for b in range(group.order))


def accepts(group, carrier, actions) -> bool:
    try:
        GModule(group, carrier, actions)
    except BadParametersError:
        return False
    return True


@st.composite
def permutation_tables(draw):
    """(group, carrier, actions): g e_j = sign(g) e_{g.j} on the cosets of H."""
    group = draw(st.sampled_from(GROUPS))
    sub = draw(st.sampled_from(group.all_subgroups()))
    cosets = sorted({tuple(sorted(group.mul(x, h) for h in sub.members))
                     for x in range(group.order)})
    index = {x: i for i, c in enumerate(cosets) for x in c}
    signs = [[1] * group.order] + [[s.act(g)[(0, 0)] for g in range(group.order)]
                                   for s in sign_modules(group)]
    sign = draw(st.sampled_from(signs))
    m = draw(st.sampled_from([0, 2, 3, 4, 6]))
    k = len(cosets)
    carrier = FgAbGroup.free(k) if m == 0 else FgAbGroup.from_invariants(0, [m] * k)
    actions = [IntMatrix(k, k, {(index[group.mul(g, c[0])], j): sign[g]
                                for j, c in enumerate(cosets)})
               for g in range(group.order)]
    return group, carrier, actions


@st.composite
def perturbed_tables(draw):
    """A permutation table with one element's matrix changed: by one entry,
    or by another element's matrix."""
    group, carrier, actions = draw(permutation_tables())
    x = draw(st.integers(0, group.order - 1))
    k = carrier.ngens
    if draw(st.booleans()):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        delta = draw(st.sampled_from([-2, -1, 1, 2, 3, 4, 6]))
        actions[x] = actions[x] + IntMatrix(k, k, {(i, j): delta})
    else:
        actions[x] = actions[draw(st.integers(0, group.order - 1))]
    return group, carrier, actions


@st.composite
def coset_twisted_tables(draw):
    """A permutation table negated on one right coset x<s> != <s> of a
    generator s: the law still holds at s, so only the other generators
    can reject it."""
    group, carrier, actions = draw(permutation_tables())
    gens = group.full_subgroup().generators()
    s = draw(st.sampled_from(gens)) if gens else 0
    x = draw(st.integers(0, group.order - 1))
    power = [0]
    while (y := group.mul(power[-1], s)) != 0:
        power.append(y)
    if x not in power:
        for p in power:
            xp = group.mul(x, p)
            actions[xp] = -actions[xp]
    return group, carrier, actions


@settings(max_examples=150, deadline=None, derandomize=True)
@given(permutation_tables())
def test_valid_tables_are_accepted_as_the_reference_accepts_them(table):
    assert all_pairs_accepts(*table)
    assert accepts(*table)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(perturbed_tables())
def test_perturbed_tables_are_decided_as_the_reference_decides(table):
    assert accepts(*table) == all_pairs_accepts(*table)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coset_twisted_tables())
def test_coset_twisted_tables_are_decided_as_the_reference_decides(table):
    assert accepts(*table) == all_pairs_accepts(*table)


def test_perturbed_tables_include_rejected_ones():
    # a perturbation at a non-generator, non-identity element is caught
    group = next(g for g in GROUPS if g.name == "c4")
    carrier = FgAbGroup.free(1)
    actions = [IntMatrix.identity(1)] * 4
    actions[2] = IntMatrix.from_rows([[-1]])
    assert group.full_subgroup().generators() == (1,)
    assert not all_pairs_accepts(group, carrier, actions)
    with pytest.raises(BadParametersError, match="not multiplicative"):
        GModule(group, carrier, actions)
