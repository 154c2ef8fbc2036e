import random
from fractions import Fraction

import pytest

from orbitcoh.errors import ChainMismatchError, CompositionNonzeroError
from orbitcoh.intlin import (
    AbHom,
    FgAbGroup,
    IntMatrix,
    block_diag,
    invariant_factors,
    kernel_basis,
    kernel_of_hom,
    lattice_contains,
    quotient_presentation,
    smith_normal_form,
    solve_exact,
    subquotient,
)


def det(m: IntMatrix) -> int:
    """Independent exact determinant (fraction-based Gaussian elimination)."""
    n = m.rows
    assert n == m.cols
    a = [[Fraction(v) for v in row] for row in m.to_rows()]
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
    assert out.denominator == 1
    return int(out)


def mat(rows):
    return IntMatrix.from_rows(rows)


def test_matrix_basic_ops():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert (a + b).to_rows() == [[1, 3], [4, 4]]
    assert (a - a).is_zero()
    assert a.hstack(b).cols == 4
    assert a.vstack(b).rows == 4
    assert block_diag([a, b]).to_rows() == [
        [1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def test_snf_zero_1x1():
    u, d, v = smith_normal_form(mat([[0]]))
    assert u.to_rows() == [[1]]
    assert d.to_rows() == [[0]]
    assert v.to_rows() == [[1]]


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_snf_empty_shapes(rows, cols):
    # the transforms are square on the matrix's own shape even without rows
    a = IntMatrix(rows, cols)
    u, d, v = smith_normal_form(a)
    assert (u.rows, u.cols, v.rows, v.cols) == (rows, rows, cols, cols)
    assert u == IntMatrix.identity(rows) and v == IntMatrix.identity(cols)
    assert (u @ a @ v) == d == a


def test_snf_identity_3x3():
    a = IntMatrix.identity(3)
    u, d, v = smith_normal_form(a)
    assert d == IntMatrix.identity(3)
    assert (u @ a @ v) == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_snf_derived_2x2():
    # gcd of entries is 2 and |det| = 8, so the invariant factors are 2, 4
    a = mat([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(a)
    assert d.to_rows() == [[2, 0], [0, 4]]
    assert (u @ a @ v) == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_snf_random_small():
    rng = random.Random(20240813)
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = mat([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        u, d, v = smith_normal_form(a)
        assert (u @ a @ v) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [d[(i, i)] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if y:
                assert x != 0 and y % x == 0
        for (i, j), val in d.entries.items():
            assert i == j and val
        # sparse invariant factors agree with the dense transform route
        assert invariant_factors(a)[0] == [x for x in diag if x]


def test_kernel_and_solve():
    rng = random.Random(99)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = mat([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        assert k.cols == cols - len(invariant_factors(a)[0])
        # exact solve round trip on a known-solvable system
        x = mat([[rng.randint(-4, 4)] for _ in range(cols)])
        b = a @ x
        sol = solve_exact(a, b)
        assert sol is not None
        assert (a @ sol) == b


def test_solve_unsolvable():
    a = mat([[2]])
    assert solve_exact(a, mat([[1]])) is None
    assert lattice_contains(a, mat([[4]]))
    assert not lattice_contains(a, mat([[3]]))


def test_fgab_normal_form_basics():
    assert FgAbGroup.free(2).normal_form == (2, ())
    assert FgAbGroup.from_invariants(1, (2, 4)).normal_form == (1, (2, 4))
    assert FgAbGroup(1, mat([[3]])).normal_form == (0, (3,))
    assert FgAbGroup(1, mat([[1]])).is_trivial()
    assert FgAbGroup.from_invariants(0, (2, 4)).order() == 8
    assert FgAbGroup.free(1).order() is None


def test_presentation_independence():
    rng = random.Random(7)
    for _ in range(100):
        ngens = rng.randint(1, 4)
        nrels = rng.randint(0, 4)
        rel = mat([[rng.randint(-5, 5) for _ in range(nrels)] for _ in range(ngens)]) \
            if nrels else IntMatrix(ngens, 0)
        g = FgAbGroup(ngens, rel)
        # permute generators
        perm = list(range(ngens))
        rng.shuffle(perm)
        p = IntMatrix(ngens, ngens, {(i, perm[i]): 1 for i in range(ngens)})
        g2 = FgAbGroup(ngens, p @ rel)
        assert g2.normal_form == g.normal_form
        # adjoin a redundant relator (an integer combination of existing ones)
        if nrels:
            coeffs = mat([[rng.randint(-3, 3)] for _ in range(nrels)])
            extra = rel @ coeffs
            g3 = FgAbGroup(ngens, rel.hstack(extra))
            assert g3.normal_form == g.normal_form


def test_hom_well_defined_examples():
    z2 = FgAbGroup(1, mat([[2]]))
    z4 = FgAbGroup(1, mat([[4]]))
    assert AbHom.identity(z2).well_defined()
    double = AbHom(z2, z4, mat([[2]]))
    assert double.well_defined()
    bad = AbHom(z2, z4, mat([[1]]))
    assert not bad.well_defined()


def test_subquotient_trivial_cases():
    z2free = FgAbGroup.free(2)
    zero_in = AbHom.zero(FgAbGroup.free(0), z2free)
    zero_out = AbHom.zero(z2free, FgAbGroup.free(0))
    assert subquotient(zero_in, zero_out).normal_form == (2, ())

    z = FgAbGroup.free(1)
    doubling = AbHom(z, z, mat([[2]]))
    assert subquotient(doubling, AbHom.zero(z, FgAbGroup.free(0))).normal_form == (0, (2,))


def test_subquotient_resolution_position():
    # complex 0 -> A -> 0 for a torsion presentation returns A itself
    a = FgAbGroup(2, mat([[2, 0], [0, 6]]))
    h = subquotient(AbHom.zero(FgAbGroup.free(0), a), AbHom.zero(a, FgAbGroup.free(0)))
    assert h.normal_form == (0, (2, 6))


def test_subquotient_bar_degree_two_of_order_two_group():
    # bar complex of C2 with trivial Z coefficients, assembled by hand;
    # cochain spots indexed by tuples over {e, s} in lex order.
    c1 = FgAbGroup.free(2)     # f(e), f(s)
    c2 = FgAbGroup.free(4)     # F(e,e), F(e,s), F(s,e), F(s,s)
    c3 = FgAbGroup.free(8)
    d1 = AbHom(c1, c2, mat([
        [1, 0],    # (e,e): f(e) - f(e) + f(e)
        [1, 0],    # (e,s): f(s) - f(s) + f(e)
        [1, 0],    # (s,e): f(e) - f(s) + f(s)
        [-1, 2],   # (s,s): f(s) - f(e) + f(s)
    ]))
    mul = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    trip = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    pairs = [(a, b) for a in (0, 1) for b in (0, 1)]
    idx = {p: i for i, p in enumerate(pairs)}
    rows = []
    for (x, y, z) in trip:
        row = [0] * 4
        row[idx[(y, z)]] += 1
        row[idx[(mul[(x, y)], z)]] -= 1
        row[idx[(x, mul[(y, z)])]] += 1
        row[idx[(x, y)]] -= 1
        rows.append(row)
    d2 = AbHom(c2, c3, mat(rows))
    assert subquotient(d1, d2).normal_form == (0, (2,))


def test_subquotient_rejects_bad_chains():
    z = FgAbGroup.free(1)
    w = FgAbGroup.free(2)
    with pytest.raises(ChainMismatchError):
        subquotient(AbHom.zero(z, z), AbHom.zero(w, z))
    ident = AbHom.identity(z)
    with pytest.raises(CompositionNonzeroError):
        subquotient(ident, ident)


def test_sparse_engines_agree_at_scale():
    # the cochain differentials are larger and sparser than anything the
    # small-matrix tests touch; cross-check the two sparse engines against
    # each other (rank via column reduction vs. Smith factor count) and
    # verify kernel/solve identities exactly
    rng = random.Random(46368)
    for _ in range(30):
        rows = rng.randint(10, 60)
        cols = rng.randint(6, 30)
        density = rng.uniform(0.04, 0.2)
        entries = {}
        for i in range(rows):
            for j in range(cols):
                if rng.random() < density:
                    entries[(i, j)] = rng.choice([-2, -1, -1, 1, 1, 1, 2, 3])
        a = IntMatrix(rows, cols, entries)
        factors, _ = invariant_factors(a)
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        assert k.cols == cols - len(factors)
        x = mat([[rng.randint(-3, 3)] for _ in range(cols)])
        sol = solve_exact(a, a @ x)
        assert sol is not None and (a @ sol) == (a @ x)
        # torsion of the cokernel is invariant under transposing
        transposed = IntMatrix(cols, rows, {(j, i): v for (i, j), v in entries.items()})
        assert [f for f in invariant_factors(transposed)[0] if f > 1] == \
            [f for f in factors if f > 1]


def test_quotient_presentation_and_kernel_of_hom():
    # <(2,0),(0,3)> / <(2,0)> inside Z^2 is Z (generated by (0,3))
    gens = mat([[2, 0], [0, 3]])
    sub = mat([[2], [0]])
    q = quotient_presentation(gens, sub)
    assert q.normal_form == (1, ())

    # kernel of Z/4 --x2--> Z/4 is 2Z/4 = Z/2
    z4 = FgAbGroup(1, mat([[4]]))
    f = AbHom(z4, z4, mat([[2]]))
    ker, gens = kernel_of_hom(f)
    assert ker.normal_form == (0, (2,))
    # generator of the kernel maps to zero
    assert lattice_contains(z4.relations, f.matrix @ gens)
