"""invariant_factors against its set-indexed reference, pivots included.

Clearing leaves out of d^n the columns at d^{n-1}'s unit-pivot rows, so the
pivot dict is as much a result as the factors: both must equal those of
elimination_reference.reference_invariant_factors exactly, pivot order
included, on random sparse matrices (with and without cleared columns), on
dense +-1 matrices whose updates cancel entries and fill them in again (so
the library's row lists hold repeats and stale columns), and on assembled
differentials cleared as a cochain complex clears them.  The row lists
must also take less memory than the reference's row sets.
"""

import tracemalloc
from unittest import mock

import pytest

from elimination_reference import reference_invariant_factors
from orbitcoh import intlin
from orbitcoh.bredon import BredonComplex
from orbitcoh.coeff import GModule, fixed_point_functor
from orbitcoh.groups import builtin_group, cyclic_family
from orbitcoh.intlin import FgAbGroup, IntMatrix, invariant_factors, product_vanishes

pytest.importorskip("hypothesis")
from hypothesis import Phase, find, given, settings, strategies as st  # noqa: E402


def _in_order(result):
    """(factors, pivots) with the pivots as (row, column) in retirement order."""
    factors, pivots = result
    return factors, list(pivots.items())


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


@st.composite
def dense_sign_matrices(draw):
    """+-1 matrices with three entries in four filled, dense enough that
    column updates cancel entries and fill them in again."""
    rows = draw(st.integers(2, 10))
    cols = draw(st.integers(2, 10))
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.integers(0, 3)):
                entries[(i, j)] = draw(st.sampled_from([1, -1]))
    return IntMatrix(rows, cols, entries)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dense_sign_matrices(), st.data())
def test_refilled_rows_match_reference(a, data):
    cleared = data.draw(st.sets(st.integers(0, a.cols - 1), max_size=a.cols // 2))
    for skip in (frozenset(), cleared):
        assert _in_order(invariant_factors(a, skip)) \
            == _in_order(reference_invariant_factors(a, skip))


def _leaves_repeats_and_stale_columns(a):
    """Whether eliminating a leaves, in some row's list, a column twice and
    a live column listed at a row where its entry has cancelled."""
    built, indexed = [], intlin._indexed_columns

    def indexed_columns(*args):
        built.append(indexed(*args))
        return built[-1]

    with mock.patch.object(intlin, "_indexed_columns", indexed_columns):
        invariant_factors(a)
    work, at, _ = built[0]
    repeats = any(len(set(listed)) < len(listed) for listed in at)
    stale = any(work[j] is not None and r not in work[j]
                for r, listed in enumerate(at) for j in listed)
    return repeats and stale


def test_dense_sign_matrices_leave_repeats_and_stale_columns():
    a = find(dense_sign_matrices(), _leaves_repeats_and_stale_columns,
             settings=settings(database=None, derandomize=True,
                               phases=[Phase.generate]))
    assert _in_order(invariant_factors(a)) == _in_order(reference_invariant_factors(a))


def _cyclic_z_complex(name):
    group = builtin_group(name)
    family = cyclic_family(group)
    module = GModule.trivial(group, FgAbGroup.free(1))
    return BredonComplex(family, fixed_point_functor(module, family))


@pytest.mark.parametrize("name", ["d4", "q8", "c4xc2"])
def test_cleared_differentials_match_reference(name):
    cx = _cyclic_z_complex(name)
    below, cleared_columns = None, 0
    for n in range(4):
        d = cx.differential(n).matrix
        cleared = {}
        if below is not None and product_vanishes(d, cx.differential(n - 1).matrix):
            cleared = below[1]
        want = reference_invariant_factors(d, cleared)
        assert _in_order(invariant_factors(d, cleared)) == _in_order(want)
        cx._factors(n)
        assert _in_order(cx._eliminated[n]) == _in_order(want)
        below = want
        cleared_columns += len(cleared)
    assert cleared_columns, "clearing took place"


def _traced_peak(fn, *args):
    """Peak bytes traced while fn(*args) runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_lists_take_less_memory_than_row_sets():
    # d^3 of c4xc2 with the cyclic family (12,806 x 1,830), cleared by d^2
    cx = _cyclic_z_complex("c4xc2")
    for n in range(3):
        cx._factors(n)
    d = cx.differential(3).matrix
    cleared = cx._eliminated[2][1] if cx._dd_vanishes(3) else {}
    assert cleared
    peak = _traced_peak(invariant_factors, d, cleared)
    assert peak <= 0.6 * _traced_peak(reference_invariant_factors, d, cleared)
