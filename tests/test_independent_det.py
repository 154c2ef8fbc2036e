"""checks._independent_det, the Bareiss determinant of the Smith-identity
check, against a Fraction-elimination reference and against sympy (skipped
without sympy)."""

import importlib.util
import random
from fractions import Fraction

import pytest

from orbitcoh.checks import _independent_det
from orbitcoh.intlin import IntMatrix


def _fraction_det(rows):
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    sign = 1
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            sign = -sign
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return int(out)


def _matrices():
    rng = random.Random(1968)
    out = []
    for n in range(8):
        for _ in range(30):
            out.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        for _ in range(10):
            # singular: the last row is a combination of two others
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if n >= 3:
                rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[1])]
            out.append(rows)
        for _ in range(10):
            # zero leading pivots: a sparse matrix with its rows permuted
            rows = [[rng.choice((0, 0, 0, rng.randint(-4, 4))) for _ in range(n)]
                    for _ in range(n)]
            for i in range(n):
                rows[i][(i + 1) % n] = rng.choice((-3, -1, 1, 2))
                rows[i][i] = 0
            rng.shuffle(rows)
            out.append(rows)
    return out


MATRICES = _matrices()


def test_cases_cover_swaps_and_singular_matrices():
    dets = [_fraction_det(rows) for rows in MATRICES]
    assert sum(1 for d in dets if d == 0) >= 40
    assert sum(1 for rows, d in zip(MATRICES, dets)
               if rows and rows[0][0] == 0 and d < 0) >= 10
    assert {len(rows) for rows in MATRICES} == set(range(8))


def test_permutation_signs():
    swap = [[0, 1], [1, 0]]
    cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert _independent_det(IntMatrix.from_rows(swap)) == -1
    assert _independent_det(IntMatrix.from_rows(cycle)) == 1
    assert _independent_det(IntMatrix(0, 0)) == 1


def test_matches_fraction_reference():
    for rows in MATRICES:
        mat = IntMatrix(len(rows), len(rows),
                        {(i, j): v for i, row in enumerate(rows)
                         for j, v in enumerate(row) if v})
        assert _independent_det(mat) == _fraction_det(rows), rows


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None,
                    reason="sympy is not installed")
def test_matches_sympy():
    from sympy import Matrix

    for rows in MATRICES:
        if not rows:
            continue
        mat = IntMatrix.from_rows(rows)
        assert _independent_det(mat) == int(Matrix(rows).det()), rows
