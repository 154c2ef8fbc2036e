"""Independent references for the sparse engines of intlin.

ColumnReduction finds each row's pivot through an index of the active
columns per row; the reference below is the plain scan over every active
column that it replaced, kept here only as an oracle.  With row moduli it is
checked against elimination_reference.ReferenceColumnReduction, which keeps
its row index exact as sets, on random matrices and on the [A | R] inputs
of the Galois unit cohomology.  invariant_factors is checked against
sympy's Smith normal form (skipped without sympy).
"""

import importlib.util

import pytest

from elimination_reference import ReferenceColumnReduction
from orbitcoh import intlin
from orbitcoh.bredon import BredonComplex, NormalFamilyComplex
from orbitcoh.coeff import fixed_point_functor
from orbitcoh.galoisff import units_gmodule
from orbitcoh.groups import trivial_family
from orbitcoh.intlin import ColumnReduction, IntMatrix, invariant_factors

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def _centered_quotient(a, b):
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def _reference_eliminate(work, v, p, j, r):
    while work[j].get(r):
        q = _centered_quotient(work[j][r], work[p][r])
        if q:
            wj, wp = work[j], work[p]
            for rr, vv in wp.items():
                nv = wj.get(rr, 0) - q * vv
                if nv:
                    wj[rr] = nv
                elif rr in wj:
                    del wj[rr]
            vj, vp = v[j], v[p]
            for rr, vv in vp.items():
                nv = vj.get(rr, 0) - q * vv
                if nv:
                    vj[rr] = nv
                elif rr in vj:
                    del vj[rr]
        if work[j].get(r):
            work[p], work[j] = work[j], work[p]
            v[p], v[j] = v[j], v[p]


def reference_reduction(columns):
    """(pivots, free, work, v) by scanning every active column per row."""
    work = [dict(c) for c in columns]
    v = [{j: 1} for j in range(len(columns))]
    pivots = []
    active = set(range(len(columns)))
    for r in sorted({r for c in work for r in c}):
        cand = sorted((j for j in active if r in work[j]),
                      key=lambda j: (abs(work[j][r]), len(work[j]), j))
        if not cand:
            continue
        p = cand[0]
        for j in cand[1:]:
            _reference_eliminate(work, v, p, j, r)
        pivots.append((r, p))
        active.discard(p)
    return pivots, sorted(active), work, v


@st.composite
def sparse_matrices(draw):
    """A sparse integer matrix, sometimes hstacked with a block m*I."""
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(0, 9))
    density = draw(st.integers(1, 3))       # in quarters
    values = st.sampled_from([-7, -5, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7])
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.integers(0, 3)) < density:
                entries[(i, j)] = draw(values)
    a = IntMatrix(rows, cols, entries)
    if draw(st.booleans()):
        m = draw(st.sampled_from([2, 3, 4, 6, 12]))
        a = a.hstack(IntMatrix.diagonal([m] * rows))
    if draw(st.booleans()):
        a = a.hstack(IntMatrix(rows, draw(st.integers(1, 3))))
    return a


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_matrices())
def test_indexed_pivot_search_matches_reference_scan(a):
    red = ColumnReduction(a)
    pivots, free, work, v = reference_reduction(a.columns_as_dicts())
    assert red.pivots == pivots
    assert red.free == free
    assert red.work == work
    assert red.v == v


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sparse_matrices(), st.integers(0, 9),
       st.sampled_from([None, {}, {0: 4, 2: 3, 5: 6}]))
def test_a_matrix_reduces_as_its_column_dicts(a, tracked, moduli):
    """ColumnReduction(a), read in one pass over a's entries, is in the
    same state as a reduction of a with its entries stored column by
    column, and changes neither."""
    columns = a.columns_as_dicts()
    entries = dict(a.entries)
    by_columns = IntMatrix(a.rows, a.cols, {
        (r, j): v for j, c in enumerate(columns) for r, v in c.items()})
    tracked = min(tracked, a.cols)
    got = ColumnReduction(a, moduli=moduli, tracked=tracked)
    want = ColumnReduction(by_columns, moduli=moduli, tracked=tracked)
    assert (got.ncols, got.pivots, got.free, got.work, got.v) \
        == (want.ncols, want.pivots, want.free, want.work, want.v)
    assert [list(c.items()) for c in got.work] \
        == [list(c.items()) for c in want.work]
    assert a.entries == entries == by_columns.entries


def _assert_reduces_as_reference(a, moduli, tracked):
    got = ColumnReduction(a, moduli=moduli, tracked=tracked)
    want = ReferenceColumnReduction(a, moduli=moduli, tracked=tracked)
    assert (got.pivots, got.free) == (want.pivots, want.free)
    for mine, theirs in ((got.work, want.work), (got.v, want.v)):
        assert [list(c.items()) for c in mine] \
            == [list(c.items()) for c in theirs]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sparse_matrices(), st.integers(0, 9),
       st.sampled_from([None, {}, {0: 4, 2: 3, 5: 6}]))
# the Euclid at row 0 swaps the pivot into row 1, which it keeps once folded
@example(IntMatrix.from_rows([[2, 3], [0, 1]]), 2, {0: 7})
def test_reduction_with_moduli_matches_set_indexed_reference(a, tracked, moduli):
    _assert_reduces_as_reference(a, moduli, min(tracked, a.cols))


@pytest.mark.parametrize("p", [2, 3])
def test_galois_preimages_reduce_as_set_indexed_reference(p, monkeypatch):
    # the [A | R] inputs of preimage_generators, the only caller that
    # passes tracked, for galois --p p --n 4 --family trivial-only: its
    # periodic route's are 1 x 1, so the nerve's (81 x 27 at H^3) too
    seen = []

    class Recording(ColumnReduction):
        def __init__(self, a, moduli=None, tracked=None):
            if tracked is not None:
                seen.append((a, moduli, tracked))
            super().__init__(a, moduli, tracked)

    monkeypatch.setattr(intlin, "ColumnReduction", Recording)
    module = units_gmodule(p, 4, 1)
    family = trivial_family(module.group)
    functor = fixed_point_functor(module, family)
    route, nerve = NormalFamilyComplex(functor), BredonComplex(family, functor)
    for degree in (1, 2, 3):
        route.cohomology(degree)
        nerve.cohomology(degree)
    monkeypatch.undo()
    assert any(moduli for _, moduli, _ in seen)
    for a, moduli, tracked in seen:
        _assert_reduces_as_reference(a, moduli, tracked)


def test_indexed_pivot_search_matches_reference_scan_at_scale():
    # a differential-like block: many columns, each meeting few rows,
    # next to the diagonal relation block of Z/4 coefficients
    entries = {}
    for j in range(60):
        for k, r in enumerate((j % 17, (3 * j + 5) % 17, (7 * j + 2) % 17)):
            entries[(r, j)] = (1, -1, 2)[k] * (1 + j % 3)
    a = IntMatrix(17, 60, entries).hstack(IntMatrix.diagonal([4] * 17))
    red = ColumnReduction(a)
    assert (red.pivots, red.free, red.work, red.v) \
        == reference_reduction(a.columns_as_dicts())


@st.composite
def small_matrices(draw):
    """Small dense matrices; without unit entries half the time, so the
    dense residual of invariant_factors does the work."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    if draw(st.booleans()):
        entry = st.integers(-6, 6)
    else:
        entry = st.sampled_from([0, 0, 2, -2, 3, 4, -6, 8, 9])
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return IntMatrix.from_rows(data)


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None,
                    reason="sympy is not installed")
@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_matrices())
def test_invariant_factors_match_sympy_smith_form(a):
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(sympy.Matrix(a.to_rows()), domain=sympy.ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(a.rows, a.cols))]
    assert invariant_factors(a)[0] == [d for d in diag if d]
