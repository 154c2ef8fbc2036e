"""preimage_generators against the plain kernel of [A | relations].

preimage_generators folds the singleton relation columns into row moduli
and tracks transforms on A's columns only; the reference stacks every
relation column next to A, takes kernel_basis and keeps the heads (the
coordinates on A's columns).  The two generating sets must span the same
lattice.  lattice_contains decides a lattice of singleton columns by
divisibility; it is checked against solve_exact.
"""

import pytest

from orbitcoh.intlin import (
    IntMatrix,
    kernel_basis,
    lattice_contains,
    preimage_generators,
    solve_exact,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

VALUES = st.sampled_from([-9, -6, -4, -3, -2, -1, 1, 2, 3, 4, 5, 8, 12, 30])
MODULI = st.sampled_from([-12, -4, -2, -1, 1, 2, 3, 4, 6, 9, 12, 255])


def reference(a: IntMatrix, rel: IntMatrix) -> IntMatrix:
    kernel = kernel_basis(a.hstack(rel))
    heads = [{i: v for (i, j), v in kernel.entries.items() if j == k and i < a.cols}
             for k in range(kernel.cols)]
    heads = [h for h in heads if h]
    return IntMatrix(a.cols, len(heads),
                     {(i, k): v for k, h in enumerate(heads) for i, v in h.items()})


@st.composite
def matrices(draw, rows, cols):
    entries = {}
    density = draw(st.integers(1, 3))       # in quarters
    for i in range(rows):
        for j in range(cols):
            if draw(st.integers(0, 3)) < density:
                entries[(i, j)] = draw(VALUES)
    return IntMatrix(rows, cols, entries)


@st.composite
def singletons(draw, rows):
    """Singleton columns, several on one row, with zero columns mixed in."""
    cols = []
    for _ in range(draw(st.integers(0, 2 * rows + 1))):
        if draw(st.integers(0, 5)) == 0:
            cols.append({})
        else:
            cols.append({draw(st.integers(0, rows - 1)): draw(MODULI)})
    return cols


@st.composite
def relation_lattices(draw, rows):
    kind = draw(st.sampled_from(["diagonal", "mixed", "singletons", "zero"]))
    if rows == 0 or kind == "zero":
        return IntMatrix(rows, draw(st.integers(0, 2)))
    if kind == "diagonal":
        return IntMatrix.diagonal([draw(MODULI) for _ in range(rows)])
    cols = draw(singletons(rows))
    if kind == "mixed":
        explicit = draw(matrices(rows, draw(st.integers(1, 3))))
        cols += explicit.columns_as_dicts()
        cols = draw(st.permutations(cols))
    return IntMatrix(rows, len(cols),
                     {(i, j): v for j, c in enumerate(cols) for i, v in c.items()})


@st.composite
def preimage_inputs(draw):
    rows = draw(st.integers(0, 7))
    a = draw(matrices(rows, draw(st.integers(0, 6))))
    return a, draw(relation_lattices(rows))


def _spans_same(x: IntMatrix, y: IntMatrix) -> bool:
    return lattice_contains(x, y) and lattice_contains(y, x)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(preimage_inputs())
def test_preimage_spans_the_heads_of_the_stacked_kernel(inputs):
    a, rel = inputs
    gens = preimage_generators(a, rel)
    assert gens.rows == a.cols
    assert _spans_same(gens, reference(a, rel))
    # and every generator lands in the relation lattice, by a plain solve
    assert solve_exact(rel, a @ gens) is not None


def test_preimage_of_a_matrix_without_columns():
    rel = IntMatrix.diagonal([4, 4])
    assert preimage_generators(IntMatrix(2, 0), rel) == IntMatrix(0, 0)


def test_preimage_folds_several_singletons_on_one_row():
    # 6 e_0 and -4 e_0 fold to the modulus 2; 3 e_1 and 1 e_1 to 1
    a = IntMatrix.from_rows([[1, 3], [5, 7]])
    rel = IntMatrix.from_rows([[6, -4, 0, 0], [0, 0, 3, 1]])
    gens = preimage_generators(a, rel)
    assert _spans_same(gens, reference(a, rel))
    assert _spans_same(gens, IntMatrix.from_rows([[2, 1], [0, 1]]))


@st.composite
def containment_inputs(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(singletons(rows))
    lattice = IntMatrix(rows, len(cols),
                        {(i, j): v for j, c in enumerate(cols) for i, v in c.items()})
    # vectors built from lattice columns are inside; a random shift may not be
    vec = lattice @ draw(matrices(lattice.cols, draw(st.integers(1, 3))))
    if draw(st.booleans()):
        vec = vec + draw(matrices(rows, vec.cols))
    return lattice, vec


@settings(max_examples=300, deadline=None, derandomize=True)
@given(containment_inputs())
def test_singleton_lattice_containment_matches_solve_exact(inputs):
    lattice, vec = inputs
    assert lattice_contains(lattice, vec) == (solve_exact(lattice, vec) is not None)
