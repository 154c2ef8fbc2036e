"""The packed d.d check, intlin.product_vanishes, against the full product.

product_vanishes(a, b) decides a @ b == 0 from the one packed product
a (b w), w_j = 2^(s*j), with 2^s above every entry of a @ b in absolute
value.  Here it is compared with (a @ b).is_zero() on random matrices with
negative and large entries and empty shapes, on products that vanish, on
products that are nonzero in one column (one base-2^s digit) only, and on
pairs where the bound is tight: with s one bit smaller, a digit of 2^(s-1)
carries into the next one and cancels it.  A wide, sparse b takes the sparse
product instead; both sides of that switch are tested.
"""

import pytest

from orbitcoh.intlin import IntMatrix, kernel_basis, product_vanishes

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SMALL = st.integers(-3, 3)
LARGE = st.integers(-2 ** 70, 2 ** 70)


@st.composite
def matrices(draw, rows, cols, values):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if draw(st.booleans()):
                entries[(i, j)] = draw(values)
    return IntMatrix(rows, cols, entries)


@st.composite
def pairs(draw):
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    values = draw(st.sampled_from([SMALL, LARGE]))
    return draw(matrices(m, k, values)), draw(matrices(k, n, values))


@st.composite
def vanishing_pairs(draw):
    """(a, b) with a @ b == 0: b's columns span a's integer kernel."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    a = draw(matrices(m, k, draw(st.sampled_from([SMALL, LARGE]))))
    kernel = kernel_basis(a)
    # a few integer combinations of the kernel vectors
    n = draw(st.integers(0, 4))
    comb = draw(matrices(kernel.cols, n, SMALL))
    return a, kernel @ comb


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs())
def test_packed_check_matches_full_product(pair):
    a, b = pair
    assert product_vanishes(a, b) == (a @ b).is_zero()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(vanishing_pairs(), st.data())
def test_vanishing_products_and_one_digit_changes(pair, data):
    a, b = pair
    assert (a @ b).is_zero()
    assert product_vanishes(a, b)
    if not b.rows or not b.cols:
        return
    # change one entry of b: a @ b changes in that one column only
    k = data.draw(st.integers(0, b.rows - 1))
    j = data.draw(st.integers(0, b.cols - 1))
    delta = data.draw(st.sampled_from([-1, 1, 2 ** 40]))
    entries = dict(b.entries)
    entries[(k, j)] = entries.get((k, j), 0) + delta
    changed = IntMatrix(b.rows, b.cols, entries)
    product = a @ changed
    assert {col for (_, col) in product.entries} <= {j}
    assert product_vanishes(a, changed) == product.is_zero()


@pytest.mark.parametrize("t", [0, 1, 2, 5, 31, 64, 100])
@pytest.mark.parametrize("width", [2, 3])
def test_tight_bound_is_not_undercut(t, width):
    # a @ b = [2^t, -1] (or [0, 2^t, -1]); packed with s - 1 = t bits, the
    # digits 2^t and -1 would cancel: 2^t - 2^t = 0
    a = IntMatrix.from_rows([[1]])
    row = [2 ** t, -1] if width == 2 else [0, 2 ** t, -1]
    b = IntMatrix.from_rows([row])
    assert not product_vanishes(a, b)
    assert not product_vanishes(IntMatrix.from_rows([[1, -1]]),
                                IntMatrix.from_rows([row, [0] * width]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 80), st.integers(1, 3), st.integers(1, 4))
def test_carry_into_the_next_digit(t, copies, scale):
    # rows of a summing `copies` equal rows of b: every entry of a @ b is
    # copies * scale * (2^t or -1), the largest the bound allows
    a = IntMatrix(1, copies, {(0, i): scale for i in range(copies)})
    b = IntMatrix(copies, 2, {key: v for i in range(copies)
                              for key, v in (((i, 0), 2 ** t), ((i, 1), -1))})
    assert not product_vanishes(a, b)
    assert (a @ b).entries == {(0, 0): copies * scale * 2 ** t,
                               (0, 1): -copies * scale}


def test_empty_and_mismatched_shapes():
    assert product_vanishes(IntMatrix(0, 3), IntMatrix(3, 2))
    assert product_vanishes(IntMatrix(2, 0), IntMatrix(0, 2))
    assert product_vanishes(IntMatrix(2, 3), IntMatrix(3, 0))
    with pytest.raises(ValueError):
        product_vanishes(IntMatrix(2, 3), IntMatrix(2, 3))


@pytest.mark.parametrize("cols, sparse", [(2048, False), (2049, True)])
def test_wide_sparse_factors_take_the_sparse_product(monkeypatch, cols, sparse):
    # b has 4 nonzeros in 2 rows and s = 2 (|a @ b| <= 2), so the packed
    # rows are 2 * cols bits: 2048 bits per nonzero of b at cols = 2048
    formed = []
    matmul = IntMatrix.__matmul__
    monkeypatch.setattr(IntMatrix, "__matmul__",
                        lambda x, y: formed.append(1) or matmul(x, y))
    b = IntMatrix(2, cols, {(0, 0): 1, (0, cols - 1): -1,
                            (1, 0): 1, (1, cols - 1): -1})
    assert product_vanishes(IntMatrix.from_rows([[1, -1]]), b)
    assert not product_vanishes(IntMatrix.from_rows([[1, 1], [0, 1]]), b)
    assert len(formed) == (2 if sparse else 0)


def test_rows_met_again_in_a_later_run():
    # a's entries out of row order: row 0's partial sums (+w and -w) come
    # in two runs and cancel, row 1's do not
    a = IntMatrix(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): -1})
    b = IntMatrix.from_rows([[3, 1], [3, 1]])
    assert (a @ b).entries == {(1, 0): 3, (1, 1): 1}
    assert not product_vanishes(a, b)
    a = IntMatrix(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1})
    assert product_vanishes(a, b)
