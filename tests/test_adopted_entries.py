"""Matrices built on adopted entries keep the IntMatrix invariant.

IntMatrix(rows, cols, entries) copies its entries, drops zeros and rejects a
key outside the shape.  The operations below build a fresh dict and hand it
over with IntMatrix._own, unchecked; each result must still be what the
checking constructor makes of its entries, store no zero, keep every key in
its shape, and share its entries dict with no operand.
"""

import pytest

from orbitcoh.bredon import BarComplex, BredonComplex
from orbitcoh.coeff import GModule, fixed_point_functor, sign_modules
from orbitcoh.groups import builtin_group, cyclic_family, full_family, trivial_family
from orbitcoh.intlin import (
    AbHom,
    FgAbGroup,
    IntMatrix,
    block_diag,
    kernel_basis,
    preimage_generators,
    solve_exact,
    stack_homs,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def assert_valid(result, *operands):
    assert result == IntMatrix(result.rows, result.cols, dict(result.entries))
    assert all(result.entries.values()), "a zero is stored"
    assert all(0 <= i < result.rows and 0 <= j < result.cols
               for i, j in result.entries), "a key lies outside the shape"
    for m in operands:
        assert result.entries is not m.entries


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    values = st.integers(-4, 4)
    return IntMatrix(rows, cols, {(i, j): draw(values)
                                  for i in range(rows) for j in range(cols)
                                  if draw(st.booleans())})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_matrix_operations_adopt_valid_entries(data):
    a = data.draw(matrices())
    b = data.draw(matrices(a.rows, a.cols))
    c = data.draw(matrices(a.cols))
    d = data.draw(matrices(cols=a.cols))
    assert_valid(-a, a)
    assert_valid(a + b, a, b)
    assert_valid(a + (-a), a)              # every entry cancels
    assert_valid(a - b, a, b)
    assert_valid(a @ c, a, c)
    assert_valid(IntMatrix.hstack_all(a.rows, [a, b, a]), a, b)
    assert_valid(a.hstack(b), a, b)
    for part in IntMatrix.hstack_all(a.rows, [a, b]).split_cols([a.cols, b.cols]):
        assert_valid(part, a, b)
    widths = data.draw(st.lists(st.integers(0, 3), max_size=4))
    if a.rows:
        e = IntMatrix(a.rows, sum(widths), {(i, j): 1 for i in range(a.rows)
                                            for j in range(sum(widths))})
        for part in e.split_cols(widths):
            assert_valid(part, e)
    assert_valid(a.vstack(d), a, d)
    for count in range(a.rows + 1):
        assert_valid(a.take_rows(count), a)
    assert_valid(block_diag([a, c, d]), a, c, d)
    assert_valid(block_diag([]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_solves_and_kernels_adopt_valid_entries(data):
    a = data.draw(matrices())
    x = data.draw(matrices(a.cols))
    b = a @ x
    kernel = kernel_basis(a)
    assert_valid(kernel, a)
    assert (a @ kernel).is_zero()
    sol = solve_exact(a, b)
    assert sol is not None
    assert_valid(sol, a, b)
    assert a @ sol == b
    relations = data.draw(matrices(a.rows))
    assert_valid(preimage_generators(a, relations), a, relations)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_stacked_homs_adopt_valid_entries(data):
    source = FgAbGroup.free(data.draw(st.integers(0, 4)))
    homs = []
    for _ in range(data.draw(st.integers(1, 3))):
        m = data.draw(matrices(cols=source.ngens))
        homs.append(AbHom(source, FgAbGroup.free(m.rows), m))
    stacked = stack_homs(homs).matrix
    assert_valid(stacked, *(h.matrix for h in homs))
    want = IntMatrix(0, source.ngens)
    for h in homs:
        want = want.vstack(h.matrix)
    assert stacked == want


@pytest.mark.parametrize("name", ["c2", "c4", "s3", "c2xc2", "q8"])
def test_assembled_differentials_adopt_valid_entries(name):
    group = builtin_group(name)
    modules = [GModule.trivial(group, FgAbGroup.free(1)),
               GModule.trivial(group, FgAbGroup(1, IntMatrix.from_rows([[4]])))]
    modules += sign_modules(group)[:1]
    for module in modules:
        for family in (trivial_family(group), cyclic_family(group), full_family(group)):
            cx = BredonComplex(family, fixed_point_functor(module, family))
            for n in range(3):
                assert_valid(cx.differential(n).matrix)
        bar = BarComplex(module)
        for n in range(3 if group.order <= 4 else 2):
            assert_valid(bar.differential(n).matrix)


def test_constructor_rejects_keys_outside_the_shape():
    for key in [(2, 0), (0, 3), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            IntMatrix(2, 3, {key: 1})


def test_constructor_rejects_negative_dimensions():
    for shape in [(-1, 0), (0, -1), (-2, -2)]:
        with pytest.raises(ValueError):
            IntMatrix(*shape)


def test_constructor_drops_zeros_and_copies():
    given_entries = {(0, 0): 0, (0, 1): 5, (1, 2): 0}
    m = IntMatrix(2, 3, given_entries)
    assert m.entries == {(0, 1): 5}
    assert m.entries is not given_entries
    given_entries[(1, 1)] = 7
    assert m.entries == {(0, 1): 5}
    assert m == IntMatrix.from_rows([[0, 5, 0], [0, 0, 0]])
