"""Exact integer linear algebra.

Everything downstream (cochain complexes, invariants, character groups)
reduces to three primitives over Z: Smith normal form, integer kernels, and
exact linear solves.  Matrices are stored sparsely because the cochain
differentials are huge and almost empty.  Sparse matrices are eliminated on
one column layout with two pivot orders: invariant_factors retires unit
pivots first, as Dumas, Saunders and Villard (2001) do, and ColumnReduction
runs a Euclid per row in ascending row order for kernels and solves.  The
layout is column dicts, one column update, and a compact row index: a list
per row of every column that has held a nonzero there, repeats and columns
since cancelled or retired included, which readers filter against the
columns, and an exact count per row of the live columns nonzero in it.
The dense Smith routine is only ever fed small matrices (the residual
without unit entries, presentations, random test inputs); SmithForm reads
its transforms off a border of the matrix.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import accumulate
from math import gcd
from operator import itemgetter

from .errors import ChainMismatchError, CompositionNonzeroError


def _axpy(dst: dict, src: dict, q: int):
    """dst -= q * src, for sparse vectors as dicts without zeros."""
    for k, vv in src.items():
        nv = dst.get(k, 0) - q * vv
        if nv:
            dst[k] = nv
        elif k in dst:
            del dst[k]


class IntMatrix:
    """Rectangular matrix of exact (arbitrary precision) integers.

    Entries are kept in a dict keyed by (row, col); zeros are never stored.
    Instances are treated as immutable: all operations return new matrices.
    The constructor copies its entries, drops zeros and rejects a key outside
    the shape; _own adopts a dict, unchecked, that no one else holds, with
    every key in range and no zero value.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                if v:
                    clean[(i, j)] = v
        self.entries = clean

    @classmethod
    def _own(cls, rows: int, cols: int, entries: dict) -> IntMatrix:
        m = object.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, entries
        return m

    @classmethod
    def from_rows(cls, data) -> IntMatrix:
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged row data")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def diagonal(cls, values, rows=None, cols=None) -> IntMatrix:
        values = list(values)
        n = len(values)
        return cls(rows if rows is not None else n,
                   cols if cols is not None else n,
                   {(i, i): v for i, v in enumerate(values) if v})

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    __hash__ = None

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    def to_rows(self):
        data = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            data[i][j] = v
        return data

    def is_zero(self) -> bool:
        return not self.entries

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def __neg__(self):
        return IntMatrix._own(self.rows, self.cols,
                              {k: -v for k, v in self.entries.items()})

    def __add__(self, other):
        self._same_shape(other)
        out = dict(self.entries)
        _axpy(out, other.entries, -1)
        return IntMatrix._own(self.rows, self.cols, out)

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_row = {}
        for (k, j), v in other.entries.items():
            by_row.setdefault(k, []).append((j, v))
        out = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                s = out.get(key, 0) + a * b
                if s:
                    out[key] = s
                else:
                    del out[key]
        return IntMatrix._own(self.rows, other.cols, out)

    def hstack(self, other: IntMatrix) -> IntMatrix:
        return IntMatrix.hstack_all(self.rows, (self, other))

    @classmethod
    def hstack_all(cls, rows: int, mats) -> IntMatrix:
        """The matrices, each with the given number of rows, side by side."""
        out, off = {}, 0
        for m in mats:
            if m.rows != rows:
                raise ValueError("row mismatch in hstack")
            for (i, j), v in m.entries.items():
                out[(i, j + off)] = v
            off += m.cols
        return cls._own(rows, off, out)

    def split_cols(self, widths) -> list[IntMatrix]:
        """The blocks of hstack_all, given their widths, entry order kept."""
        block = [(b, off) for b, (w, off) in
                 enumerate(zip(widths, accumulate(widths, initial=0)))
                 for _ in range(w)]
        parts = [{} for _ in widths]
        for (i, j), v in self.entries.items():
            b, off = block[j]
            parts[b][(i, j - off)] = v
        return [IntMatrix._own(self.rows, w, p) for w, p in zip(widths, parts)]

    def vstack(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        out = dict(self.entries)
        for (i, j), v in other.entries.items():
            out[(i + self.rows, j)] = v
        return IntMatrix._own(self.rows + other.rows, self.cols, out)

    def take_rows(self, count: int) -> IntMatrix:
        return IntMatrix._own(count, self.cols, {k: v for k, v in self.entries.items()
                                                 if k[0] < count})

    def columns_as_dicts(self):
        out = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            out[j][i] = v
        return out

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def product_vanishes(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether a @ b == 0, exactly, from one packed product a (b w).

    2^s > max|a| * (most nonzeros in a row of a) * max|b| >= every |a @ b|
    entry, so with w_j = 2^(s*j) row i of a @ b is the base-2^s digit
    vector of u_i = (a (b w))_i: if c, at j, is the lowest nonzero digit,
    u_i = 2^(s*j) (c + 2^s y) is not 0, as 2^s does not divide c.  Only
    nonzero partial sums of the u_i are kept.

    Each entry of a costs a multiply-add of s * b.cols bits here, and steps
    over the nonzeros of a row of b in a @ b; past 2048 bits per such
    nonzero (the two break even near 3000 on CPython 3.11) a @ b is formed
    instead."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    most = max(Counter(map(itemgetter(0), a.entries)).values(), default=0)
    s = (most * max(map(abs, a.entries.values()), default=0)
         * max(map(abs, b.entries.values()), default=0)).bit_length()
    if s * b.cols * b.rows > 2048 * len(b.entries):
        return (a @ b).is_zero()
    packed = [0] * b.rows
    for (k, j), v in b.entries.items():
        packed[k] += v << (s * j)
    u: dict[int, int] = {}
    for (i, k), v in a.entries.items():
        x = u.pop(i, 0) + v * packed[k]
        if x:
            u[i] = x
    return not u


def block_diag(mats) -> IntMatrix:
    entries = {}
    r = c = 0
    for m in mats:
        for (i, j), v in m.entries.items():
            entries[(r + i, c + j)] = v
        r += m.rows
        c += m.cols
    return IntMatrix._own(r, c, entries)


# ---------------------------------------------------------------------------
# Smith normal form (dense, with transforms)

def _centered_quotient(a: int, b: int) -> int:
    # quotient q with |a - q b| <= |b| / 2
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def _snf_dense(a, m: int, n: int) -> list[int]:
    """Diagonalize the leading m x n block of the row list a, in place.

    Row operations act on the first m rows across their whole width and
    column operations on the first n columns down their whole height, so a
    caller that borders the block as [[A, I], [I, 0]] reads U from the top
    right and V from the bottom left, with U @ A @ V the diagonal.  Returns
    that diagonal's nonzero entries, d1 | d2 | ..., all positive.  Pivots
    are chosen with minimal absolute value, which keeps intermediate entries
    small at the scale this library works at.
    """

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        if c == 0:
            return
        ra = a[dst]
        for k, x in enumerate(a[src]):
            if x:
                ra[k] += c * x

    def add_col(src, dst, c):
        if c == 0:
            return
        for row in a:
            if row[src]:
                row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                val = row[j]
                if val and (best is None or abs(val) < best[0]):
                    best = (abs(val), i, j)
                    if abs(val) == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        dirty = True
        while dirty:
            dirty = False
            for i in range(m):
                if i != t and a[i][t]:
                    q = _centered_quotient(a[i][t], a[t][t])
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(n):
                if j != t and a[t][j]:
                    q = _centered_quotient(a[t][j], a[t][t])
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    rank = t
    # enforce the divisibility chain d1 | d2 | ... via 2x2 gcd/lcm fixes
    changed = True
    while changed:
        changed = False
        for i in range(rank):
            for j in range(i + 1, rank):
                di, dj = a[i][i], a[j][j]
                if dj % di == 0:
                    continue
                changed = True
                add_col(j, i, 1)          # (i,i)=di, (j,i)=dj
                while a[j][i]:
                    q = _centered_quotient(a[j][i], a[i][i])
                    add_row(i, j, -q)
                    if a[j][i]:
                        swap_rows(i, j)
                # clear the fill at (i, j); gcd divides it exactly
                add_col(i, j, -(a[i][j] // a[i][i]))
                if a[i][i] < 0:
                    negate_row(i)
                if a[j][j] < 0:
                    negate_row(j)
    # ascending order within the chain
    for i in range(rank):
        for j in range(i + 1, rank):
            if a[j][j] < a[i][i]:
                swap_rows(i, j)
                swap_cols(i, j)
    return [a[i][i] for i in range(rank)]


class SmithForm:
    """U @ A @ V == D with U, V unimodular and D diagonal (d1 | d2 | ...)."""

    __slots__ = ("u", "d", "v", "diag")

    def __init__(self, a: IntMatrix):
        m, n = a.rows, a.cols
        aug = [row + [int(i == k) for k in range(m)]
               for i, row in enumerate(a.to_rows())]
        aug += [[int(i == k) for k in range(n)] + [0] * m for i in range(n)]
        self.diag = _snf_dense(aug, m, n)
        self.u = IntMatrix.from_rows([row[n:] for row in aug[:m]])
        self.v = IntMatrix.from_rows([row[:n] for row in aug[m:]])
        self.d = IntMatrix.diagonal(self.diag, rows=m, cols=n)


def smith_normal_form(a: IntMatrix):
    """Return (U, D, V) with U*A*V = D diagonal, d1 | d2 | ..., all >= 0."""
    sf = SmithForm(a)
    return sf.u, sf.d, sf.v


# ---------------------------------------------------------------------------
# Sparse elimination by column operations: invariant factors and kernels

def _indexed_columns(cells, nrows: int, ncols: int, skip=()):
    """(work, at, count) in one pass over cells, ((row, col), nonzero) pairs:
    work[j] maps row to value, in cell order, except for columns in skip,
    left empty.  The list at[r] names every column that has held a nonzero
    in row r: it may repeat a column or name one whose entry has since
    cancelled or that has retired, so readers check each listed column
    against work.  count[r] is the number of columns with a nonzero in
    row r: _column_update keeps it exact, and invariant_factors takes each
    retired pivot off it, so there it counts the live columns exactly."""
    work = [{} for _ in range(ncols)]
    at = [[] for _ in range(nrows)]
    for (i, j), v in cells:
        if j not in skip:
            work[j][i] = v
            at[i].append(j)
    return work, at, [len(listed) for listed in at]


def _column_update(work, at, count, v, j, p, q):
    """work[j] -= q * work[p]; an entry filled in appends j to at[rr] and
    adds one to count[rr], one that cancels takes one off count[rr], and
    nothing is removed from at.  The same on the tracked transform v unless
    it is None."""
    wj = work[j]
    for rr, vv in work[p].items():
        old = wj.get(rr)
        if old is None:
            wj[rr] = -q * vv
            at[rr].append(j)
            count[rr] += 1
        else:
            nv = old - q * vv
            if nv:
                wj[rr] = nv
            else:
                del wj[rr]
                count[rr] -= 1
    if v is not None:
        _axpy(v[j], v[p], q)


def invariant_factors(a: IntMatrix, cleared=frozenset()):
    """(factors, pivots): the nonzero diagonal of the Smith form (so
    len(factors) == rank), sparse-friendly, and each unit-pivot row mapped
    to its column.

    Unit pivots are eliminated first, by column operations, sparsest column
    first and, in it, the unit row meeting the fewest active columns (the
    lowest such row), read off count; the columns updated are those that
    at lists for the pivot row, kept when live and nonzero there.  A
    retired pivot column is cleared by row operations that touch no other
    column, so it is dropped and taken off count.  The (typically tiny)
    residual without unit entries reaches the dense routine, transposed.
    Columns in cleared are left out of the elimination: that is exact when
    they are the unit-pivot rows, as found here, of a matrix b with
    a @ b == 0 (see bredon._CochainComplex).
    """
    work, at, count = _indexed_columns(a.entries.items(), a.rows, a.cols, cleared)
    pivots: dict[int, int] = {}
    heap = [(len(c), j) for j, c in enumerate(work) if c]
    heapq.heapify(heap)
    parked: set[int] = set()
    while heap:
        nnz, p = heapq.heappop(heap)
        col = work[p]
        if not col or len(col) != nnz:
            continue                      # stale heap entry
        r = least = -1
        for rr, v in col.items():
            if v == 1 or v == -1:
                n = count[rr]
                if r < 0 or n < least or (n == least and rr < r):
                    r, least, pv = rr, n, v
        if r < 0:
            parked.add(p)
            continue
        if count[r] > 1:
            for j in sorted({j for j in at[r] if j != p and work[j] is not None
                             and r in work[j]}):
                _column_update(work, at, count, None, j, p, work[j][r] // pv)
                parked.discard(j)
                if work[j]:
                    heapq.heappush(heap, (len(work[j]), j))
        for rr in col:
            count[rr] -= 1
        work[p] = None
        pivots[r] = p
    factors = [1] * len(pivots)
    live = sorted(j for j in parked if work[j])
    if live:
        row_ids = sorted({r for j in live for r in work[j]})
        dense = [[work[j].get(r, 0) for r in row_ids] for j in live]
        factors.extend(_snf_dense(dense, len(live), len(row_ids)))
    # 1s divide everything, residual chain is already consistent
    return factors, pivots


class ColumnReduction:
    """Unimodular column reduction of an integer matrix, tracking V.

    It runs on the column layout of invariant_factors (the column dicts and
    row lists of _indexed_columns and the update of _column_update) with
    another pivot order: rows are processed in ascending order, and each
    row's active columns, the columns listed for it that are still active
    and nonzero there, are combined by a centered Euclid on that row into
    one pivot, whatever its value.  A swap in the Euclid lists each column
    at the rows it gains; reducing modulo m_r and retiring leave the lists
    as they are, and the per-row counts are not read.  The row lists live
    only while the constructor runs.  After construction the retired pivot
    columns form a staircase (each has the unique nonzero entry among pivots
    at its pivot row, and zeros at all earlier pivot rows), and every
    non-retired column has been reduced to zero.  That gives the kernel
    lattice and forced back-solves.  The input matrix is copied into that
    layout in one pass over its cells.

    moduli maps rows r to m_r > 0 and stands for one more column m_r e_r
    per row, never stored.  Until row r is processed its entries are kept
    centered modulo m_r (adding multiples of m_r e_r).  At row r the Euclid
    pivot p, with g at row r, and m_r e_r are replaced by s p + t m_r e_r
    (s g + t m_r = g1 = gcd(g, m_r)), which retires and is dropped, and by
    (m_r/g1) p - (g/g1) m_r e_r, that is p times m_r/g1 with row r cleared,
    which stays active in p's place.  The 2x2 step has determinant -1, so
    the kernel stays exact; only the kernel is kept, and solve_column is for
    reductions without moduli.  V is tracked for the first tracked columns
    (all by default); the others start from an empty transform, so kernel
    vectors list coordinates among the tracked columns only.
    """

    __slots__ = ("ncols", "work", "v", "pivots", "free", "moduli")

    def __init__(self, a: IntMatrix, moduli=None, tracked=None):
        self.ncols = ncols = a.cols
        if tracked is None:
            tracked = ncols
        self.v = [{j: 1} if j < tracked else {} for j in range(ncols)]
        self.moduli = moduli or {}
        self.pivots: list[tuple[int, int]] = []   # (row, col) in retirement order
        active = set(range(ncols))
        # work copies the columns; processed rows are zero in every active
        # column, and at lists every active column nonzero in a later row
        self.work, at, count = _indexed_columns(a.entries.items(), a.rows, ncols)
        work = self.work
        if self.moduli:
            for j, c in enumerate(work):
                self._reduce(j, list(c))
        for r, listed in enumerate(at):
            cand = sorted({j for j in listed if j in active and work[j].get(r)},
                          key=lambda j: (abs(work[j][r]), len(work[j]), j))
            if cand:
                p = cand[0]
                for j in cand[1:]:
                    self._eliminate(p, j, r, at, count)
                if r in self.moduli:
                    self._fold(p, r)
                else:
                    self.pivots.append((r, p))
                    active.discard(p)
        self.free = sorted(active)

    def _reduce(self, j, rows):
        """Center column j's entries at rows modulo their moduli, deleting
        zeros."""
        col, mod = self.work[j], self.moduli
        for rr in rows:
            m = mod.get(rr)
            if m is None:
                continue
            x = col.get(rr)
            if x is None or -m < 2 * x <= m:
                continue
            x %= m
            if 2 * x > m:
                x -= m
            if x:
                col[rr] = x
            else:
                del col[rr]

    def _fold(self, p, r):
        m = self.moduli[r]
        col = self.work[p]
        k = m // gcd(col.pop(r), m)
        for rr in col:
            col[rr] *= k
        self._reduce(p, list(col))
        vp = self.v[p]
        for i in vp:
            vp[i] *= k

    def _eliminate(self, p, j, r, at, count):
        work, v = self.work, self.v
        while work[j].get(r):
            q = _centered_quotient(work[j][r], work[p][r])
            if q:
                _column_update(work, at, count, v, j, p, q)
                if self.moduli:
                    self._reduce(j, work[p])
            if work[j].get(r):
                work[p], work[j] = work[j], work[p]
                v[p], v[j] = v[j], v[p]
                for rr in work[p].keys() ^ work[j].keys():
                    at[rr].append(p if rr in work[p] else j)

    def kernel_vectors(self) -> list[dict]:
        return [self.v[j] for j in self.free]

    def kernel_matrix(self) -> IntMatrix:
        return _from_columns(self.ncols, self.kernel_vectors())

    def solve_column(self, b: dict):
        """x with A x = b over Z (as a dict), or None when unsolvable."""
        bb = dict(b)
        coeffs = {}
        for r, p in self.pivots:
            val = bb.get(r, 0)
            if val:
                pv = self.work[p][r]
                if val % pv:
                    return None
                q = coeffs[p] = val // pv
                _axpy(bb, self.work[p], q)
        if bb:
            return None
        x: dict[int, int] = {}
        for p, q in coeffs.items():
            _axpy(x, self.v[p], -q)
        return x


def _from_columns(rows: int, columns: list[dict]) -> IntMatrix:
    """The matrix with the given column dicts, keys below rows, no zeros."""
    return IntMatrix._own(rows, len(columns), {
        (i, k): v for k, c in enumerate(columns) for i, v in c.items()})


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of {x in Z^cols : A x = 0}, as matrix columns."""
    return ColumnReduction(a).kernel_matrix()


def solve_exact(a: IntMatrix, b: IntMatrix):
    """X with A @ X = B over the integers, or None when no solution exists."""
    red = ColumnReduction(a)
    xs = []
    for col in b.columns_as_dicts():
        xs.append(red.solve_column(col))
        if xs[-1] is None:
            return None
    return _from_columns(a.cols, xs)


def _row_moduli(relations: IntMatrix) -> tuple[dict[int, int], list[dict]]:
    """(moduli, explicit): each singleton column c e_r of relations folded
    into moduli[r], the gcd of |c| over row r, and the other nonzero
    columns as dicts.  Both span the lattice of relations."""
    moduli: dict[int, int] = {}
    explicit = []
    for c in relations.columns_as_dicts():
        if len(c) == 1:
            (r, v), = c.items()
            moduli[r] = gcd(moduli.get(r, 0), v)
        elif c:
            explicit.append(c)
    return moduli, explicit


def lattice_contains(lattice: IntMatrix, vec: IntMatrix) -> bool:
    """Whether every column of vec lies in the column span of lattice over Z.

    A lattice of singleton columns is the sum of m_r Z e_r over its row
    moduli, so membership is entrywise divisibility."""
    moduli, explicit = _row_moduli(lattice)
    if explicit:
        return solve_exact(lattice, vec) is not None
    return all(i in moduli and v % moduli[i] == 0
               for (i, _), v in vec.entries.items())


def preimage_generators(a: IntMatrix, target_relations: IntMatrix) -> IntMatrix:
    """Generators of the lattice {x : A x lies in the target relation lattice}.

    Columns of the result generate (not necessarily freely) the preimage:
    the kernel of [A | relations], read on A's coordinates.  Singleton
    relation columns are row moduli of the reduction (ColumnReduction), and
    only A's columns carry a transform.
    """
    if a.cols == 0:
        return IntMatrix(0, 0)
    moduli, explicit = _row_moduli(target_relations)
    entries = dict(a.entries)
    for k, c in enumerate(explicit, a.cols):
        entries.update(((r, k), v) for r, v in c.items())
    both = IntMatrix._own(a.rows, a.cols + len(explicit), entries)
    red = ColumnReduction(both, moduli=moduli, tracked=a.cols)
    return _from_columns(a.cols, [vec for vec in red.kernel_vectors() if vec])


# ---------------------------------------------------------------------------
# Finitely generated abelian groups and their homomorphisms

class FgAbGroup:
    """F.g. abelian group presented by ngens generators and relation columns."""

    __slots__ = ("ngens", "relations", "_nf")

    def __init__(self, ngens: int, relations: IntMatrix | None = None):
        if relations is None:
            relations = IntMatrix(ngens, 0)
        if relations.rows != ngens:
            raise ValueError("relation matrix must have one row per generator")
        self.ngens = ngens
        self.relations = relations
        self._nf = None

    @classmethod
    def free(cls, rank: int) -> FgAbGroup:
        return cls(rank)

    @classmethod
    def from_invariants(cls, rank: int, torsion) -> FgAbGroup:
        """Canonical diagonal presentation: torsion generators first."""
        torsion = tuple(torsion)
        for i, d in enumerate(torsion):
            if d < 2:
                raise ValueError("torsion invariants must be >= 2")
            if i and torsion[i] % torsion[i - 1]:
                raise ValueError("torsion invariants must form a divisibility chain")
        n = len(torsion) + rank
        rel = IntMatrix(n, len(torsion),
                        {(i, i): d for i, d in enumerate(torsion)})
        return cls(n, rel)

    @property
    def normal_form(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion invariant factors d1 | d2 | ..., each >= 2)."""
        if self._nf is None:
            facs, _ = invariant_factors(self.relations)
            rank = self.ngens - len(facs)
            self._nf = (rank, tuple(sorted(f for f in facs if f > 1)))
        return self._nf

    @property
    def rank(self) -> int:
        return self.normal_form[0]

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.normal_form[1]

    def is_trivial(self) -> bool:
        return self.normal_form == (0, ())

    def is_finite(self) -> bool:
        return self.rank == 0

    def order(self):
        """Group order, or None when infinite."""
        rank, tors = self.normal_form
        if rank:
            return None
        n = 1
        for d in tors:
            n *= d
        return n

    def same_presentation(self, other: FgAbGroup) -> bool:
        return self.ngens == other.ngens and self.relations == other.relations

    def __eq__(self, other):
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.normal_form == other.normal_form

    __hash__ = None

    def __repr__(self):
        return f"FgAbGroup{self.normal_form}"

    def __str__(self):
        rank, tors = self.normal_form
        parts = ["Z"] * rank + [f"Z/{d}" for d in tors]
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        rank, tors = self.normal_form
        return {"rank": rank, "torsion": list(tors)}


class NormalFormMap:
    """Isomorphism from a presented group onto its canonical diagonal form.

    to_nf maps generator coordinates to normal-form coordinates (torsion
    generators first, ascending, then free); from_nf is a section of it.
    """

    __slots__ = ("group", "canonical", "to_nf", "from_nf")

    def __init__(self, group: FgAbGroup):
        sf = SmithForm(group.relations)
        diag = sf.diag
        tor_rows = [i for i, d in enumerate(diag) if d > 1]
        free_rows = list(range(len(diag), group.ngens))
        keep = tor_rows + free_rows
        torsion = tuple(diag[i] for i in tor_rows)
        self.group = group
        self.canonical = FgAbGroup.from_invariants(len(free_rows), torsion)
        proj = IntMatrix(len(keep), group.ngens,
                         {(k, i): 1 for k, i in enumerate(keep)})
        emb = IntMatrix(group.ngens, len(keep),
                        {(i, k): 1 for k, i in enumerate(keep)})
        self.to_nf = proj @ sf.u
        # U is unimodular, so the one solution is U^-1 @ emb
        self.from_nf = solve_exact(sf.u, emb)


class AbHom:
    """Homomorphism of presented groups, as a matrix on generators."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix):
        if matrix.rows != target.ngens or matrix.cols != source.ngens:
            raise ValueError("matrix shape must be target.ngens x source.ngens")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, group: FgAbGroup) -> AbHom:
        return cls(group, group, IntMatrix.identity(group.ngens))

    @classmethod
    def zero(cls, source: FgAbGroup, target: FgAbGroup) -> AbHom:
        return cls(source, target, IntMatrix(target.ngens, source.ngens))

    def well_defined(self) -> bool:
        """Every source relator must map into the target relation lattice."""
        if self.source.relations.cols == 0:
            return True
        image = self.matrix @ self.source.relations
        if image.is_zero():
            return True
        return lattice_contains(self.target.relations, image)

    def equal_hom(self, other: AbHom) -> bool:
        """Equality as maps (difference lands in the target relations)."""
        diff = self.matrix - other.matrix
        if diff.is_zero():
            return True
        return lattice_contains(self.target.relations, diff)

    def __repr__(self):
        return f"AbHom({self.source!r} -> {self.target!r})"


def direct_sum_groups(groups) -> FgAbGroup:
    groups = list(groups)
    ngens = sum(g.ngens for g in groups)
    return FgAbGroup(ngens, block_diag([g.relations for g in groups]))


def stack_homs(homs) -> AbHom:
    """Combine homs with a common source into one hom to the direct sum."""
    homs = list(homs)
    src = homs[0].source
    for h in homs[1:]:
        if not h.source.same_presentation(src):
            raise ChainMismatchError("stack_homs: sources differ")
    target = direct_sum_groups(h.target for h in homs)
    entries = {}
    off = 0
    for h in homs:
        for (i, j), v in h.matrix.entries.items():
            entries[(off + i, j)] = v
        off += h.target.ngens
    return AbHom(src, target, IntMatrix._own(target.ngens, src.ngens, entries))


def quotient_presentation(generators: IntMatrix, subgens: IntMatrix) -> FgAbGroup:
    """The group <columns of generators> / <columns of subgens>.

    Requires the sub lattice to sit inside the generated lattice; the
    relations are the full preimage {w : generators*w in <subgens>}.
    """
    return FgAbGroup(generators.cols, preimage_generators(generators, subgens))


class SubquotientPresentation:
    """ker(d_out)/im(d_in) with access to representative vectors.

    basis columns generate the cocycle lattice inside the middle group's
    generator coordinates; the presented quotient divides out boundaries
    and middle relations.
    """

    __slots__ = ("basis", "group", "_nf_map")

    def __init__(self, d_in: AbHom, d_out: AbHom):
        middle = d_out.source
        self.basis = preimage_generators(d_out.matrix, d_out.target.relations)
        sub = d_in.matrix.hstack(middle.relations)
        self.group = quotient_presentation(self.basis, sub)
        self._nf_map = None

    @property
    def nf_map(self) -> NormalFormMap:
        """The tracked normal form of group, built when first read."""
        if self._nf_map is None:
            self._nf_map = NormalFormMap(self.group)
        return self._nf_map

    @property
    def canonical(self) -> FgAbGroup:
        return self.nf_map.canonical

    def class_of(self, vec: IntMatrix) -> tuple[int, ...]:
        """Canonical coordinates of a cocycle's cohomology class.

        vec is a column over the middle group's generators; it must satisfy
        the cocycle condition.
        """
        coords = solve_exact(self.basis, vec)
        if coords is None:
            raise ValueError("vector is not a cocycle for this position")
        nf = self.nf_map.to_nf @ coords
        rank, tors = self.canonical.normal_form
        out = []
        for i in range(self.canonical.ngens):
            v = nf[(i, 0)]
            out.append(v % tors[i] if i < len(tors) else v)
        return tuple(out)

    def representative(self, index: int) -> IntMatrix:
        """A cocycle representing the index-th canonical generator."""
        e = IntMatrix(self.canonical.ngens, 1, {(index, 0): 1})
        return self.basis @ (self.nf_map.from_nf @ e)


def _uniform_modulus(groups) -> int | None:
    """m >= 0 when each group's relation lattice is m*I (no relations: m = 0).

    None when the groups differ or a lattice is not of that form.  A group
    without generators fits every m.
    """
    found = set()
    for g in groups:
        rel = g.relations
        if g.ngens == 0:
            continue
        if rel.cols == 0:
            found.add(0)
            continue
        if rel.cols != g.ngens or len(rel.entries) != g.ngens:
            return None
        for (i, j), v in rel.entries.items():
            if i != j:
                return None
            found.add(abs(v))
    if len(found) > 1:
        return None
    return found.pop() if found else 0


def _torsion_chain(orders: list[int]) -> list[int]:
    """Invariant factors (each >= 2, ascending) of the sum of Z/a, a in orders.

    Each order is split over a coprime base of the orders (a set of pairwise
    coprime numbers each order is a product of), so nothing is factored
    into primes.  Per base element b the exponents are sorted, and the k-th
    largest invariant factor is the product of each b to its k-th largest
    exponent.
    """
    counts = Counter(a for a in orders if a > 1)
    base = set(counts)
    while True:
        pair = next(((x, y) for x in base for y in base
                     if x < y and gcd(x, y) > 1), None)
        if pair is None:
            break
        x, y = pair
        g = gcd(x, y)
        base -= {x, y}
        base |= {z for z in (x // g, y // g, g) if z > 1}
    exponents = []
    for b in base:
        per_b = []
        for a, k in counts.items():
            e = 0
            while a % b == 0:
                a //= b
                e += 1
            per_b += [e] * k
        exponents.append((b, sorted(per_b, reverse=True)))
    chain = []
    for k in range(counts.total()):
        d = 1
        for b, per_b in exponents:
            d *= b ** per_b[k]
        if d == 1:
            break
        chain.append(d)
    return chain[::-1]


def subquotient(d_in: AbHom, d_out: AbHom, exact: bool | None = None,
                factors=None) -> FgAbGroup:
    """Homology at the middle of d_in, d_out, in canonical normal form.

    Invariant-factor route: when the middle and target relation lattices are
    m*I for one m >= 0 and d_out @ d_in vanishes over Z, the complex is a
    complex of free groups reduced mod m.  Splitting it over Z into pieces
    Z and Z --e--> Z, the universal coefficient theorem gives, with e_i and
    f_j the invariant factors of d_in and d_out and c the middle rank,
    (Z/m)^(c - r_in - r_out) + sum Z/gcd(e_i, m) + sum Z/gcd(f_j, m); the
    last sum is Tor(Z/f_j, Z/m), which vanishes for m = 0.  Every other
    complex (other relations, or a composite that vanishes only modulo the
    relations) takes the presentation route, SubquotientPresentation.

    exact is product_vanishes(d_out.matrix, d_in.matrix) if known (the
    product is formed only when nonzero); factors, when given, is called on
    the invariant-factor route only and returns d_in's and d_out's factors.
    """
    if not d_in.target.same_presentation(d_out.source):
        raise ChainMismatchError("subquotient: d_in.target differs from d_out.source")
    middle = d_out.source
    if exact is None:
        exact = product_vanishes(d_out.matrix, d_in.matrix)
    if not exact and not lattice_contains(d_out.target.relations,
                                          d_out.matrix @ d_in.matrix):
        raise CompositionNonzeroError("d_out . d_in is not zero")
    m = _uniform_modulus((middle, d_out.target)) if exact else None
    if m is None:
        rank, torsion = SubquotientPresentation(d_in, d_out).group.normal_form
        return FgAbGroup.from_invariants(rank, torsion)
    if factors is None:
        fin, fout = (invariant_factors(d.matrix)[0] for d in (d_in, d_out))
    else:
        fin, fout = factors()
    copies = middle.ngens - len(fin) - len(fout)
    if m == 0:
        return FgAbGroup.from_invariants(copies, [e for e in fin if e > 1])
    orders = [gcd(e, m) for e in fin] + [gcd(f, m) for f in fout] + [m] * copies
    return FgAbGroup.from_invariants(0, _torsion_chain(orders))


def kernel_of_hom(f: AbHom) -> tuple[FgAbGroup, IntMatrix]:
    """Kernel subgroup of f, with generators in source coordinates."""
    gens = preimage_generators(f.matrix, f.target.relations)
    group = quotient_presentation(gens, f.source.relations)
    return group, gens
