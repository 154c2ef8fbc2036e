"""NormalFormMap on random presentations.

to_nf and from_nf are otherwise read only through cohomology answers
(class_of, representative) and module restrictions.  from_nf is solved
from the tracked transform U, so to_nf @ from_nf must be exactly the
identity, and to_nf must carry the presented relations into the canonical
relation lattice.
"""

import pytest

from orbitcoh.intlin import FgAbGroup, IntMatrix, NormalFormMap, lattice_contains

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def presentations(draw):
    ngens = draw(st.integers(0, 5))
    nrels = draw(st.integers(0, 5))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, 4, -6, 12])
    data = [[draw(entry) for _ in range(nrels)] for _ in range(ngens)]
    return FgAbGroup(ngens, IntMatrix(ngens, nrels, {
        (i, j): v for i, row in enumerate(data) for j, v in enumerate(row)}))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(presentations())
def test_normal_form_map_is_an_isomorphism_onto_the_canonical_form(group):
    nf = NormalFormMap(group)
    k = nf.canonical.ngens
    assert nf.canonical == group
    assert (nf.to_nf @ nf.from_nf) == IntMatrix.identity(k)
    image = nf.to_nf @ group.relations
    assert lattice_contains(nf.canonical.relations, image)
