"""invariant_factors against its two-pass reference, pivots included.

Clearing leaves out of d^n the columns at d^{n-1}'s unit-pivot rows, so the
pivot dict is as much a result as the factors: both must equal those of
elimination_reference.reference_invariant_factors exactly, on random sparse
matrices (with and without cleared columns) and on assembled differentials
cleared as a cochain complex clears them.
"""

import pytest

from elimination_reference import reference_invariant_factors
from orbitcoh.bredon import BredonComplex
from orbitcoh.coeff import GModule, fixed_point_functor
from orbitcoh.groups import builtin_group, cyclic_family
from orbitcoh.intlin import FgAbGroup, IntMatrix, invariant_factors, product_vanishes

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def unit_heavy_matrices(draw):
    """Sparse matrices, mostly of unit entries, so that several unit rows
    of a column often meet equally many active columns."""
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12))
    density = draw(st.integers(1, 3))       # in eighths
    values = st.sampled_from([1, -1, 1, -1, 1, -1, 2, -2, 3, 6])
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.integers(0, 7)) < density:
                entries[(i, j)] = draw(values)
    return IntMatrix(rows, cols, entries)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(unit_heavy_matrices())
def test_factors_and_pivots_match_reference(a):
    assert invariant_factors(a) == reference_invariant_factors(a)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(unit_heavy_matrices(), st.data())
def test_cleared_factors_and_pivots_match_reference(a, data):
    cleared = data.draw(st.sets(st.integers(0, max(a.cols - 1, 0)))) if a.cols else set()
    got = invariant_factors(a, cleared)
    assert got == reference_invariant_factors(a, cleared)
    # the same as a dict {row: column}, as _CochainComplex passes it
    assert invariant_factors(a, dict.fromkeys(cleared)) == got


@pytest.mark.parametrize("name", ["d4", "q8", "c4xc2"])
def test_cleared_differentials_match_reference(name):
    group = builtin_group(name)
    family = cyclic_family(group)
    module = GModule.trivial(group, FgAbGroup.free(1))
    cx = BredonComplex(family, fixed_point_functor(module, family))
    below, cleared_columns = None, 0
    for n in range(4):
        d = cx.differential(n).matrix
        cleared = {}
        if below is not None and product_vanishes(d, cx.differential(n - 1).matrix):
            cleared = below[1]
        want = reference_invariant_factors(d, cleared)
        assert invariant_factors(d, cleared) == want
        cx._factors(n)
        assert cx._eliminated[n] == want
        below = want
        cleared_columns += len(cleared)
    assert cleared_columns, "clearing took place"
