"""The two sparse eliminations of intlin on a row index of sets, as references.

reference_invariant_factors builds the column dicts and the row index in two
passes (columns_as_dicts, then one set of the active columns per row) and
picks each unit pivot with min over the unit rows, keyed by (active columns
in the row, row).  ReferenceColumnReduction is ColumnReduction on the same
kind of index, kept exact through every update, fold and swap.  The library
lists columns per row without removing any and filters them when it reads
a row; the two must agree on every factor, pivot, kernel vector and column,
in order, which is what clearing and the lattice routines read.
"""

import heapq
from math import gcd

from orbitcoh.intlin import _axpy, _centered_quotient, _snf_dense


def _row_index(work):
    at = {}
    for j, c in enumerate(work):
        for r in c:
            at.setdefault(r, set()).add(j)
    return at


def _column_update(work, at, j, p, q, v=None):
    wj = work[j]
    for rr, vv in work[p].items():
        old = wj.get(rr)
        if old is None:
            wj[rr] = -q * vv
            at[rr].add(j)
        else:
            nv = old - q * vv
            if nv:
                wj[rr] = nv
            else:
                del wj[rr]
                at[rr].discard(j)
    if v is not None:
        _axpy(v[j], v[p], q)


def reference_invariant_factors(a, cleared=frozenset()):
    """(factors, pivots), as invariant_factors(a, cleared)."""
    work = a.columns_as_dicts()
    for j in cleared:
        work[j] = {}
    at = _row_index(work)
    pivots = {}
    heap = [(len(c), j) for j, c in enumerate(work) if c]
    heapq.heapify(heap)
    parked = set()
    while heap:
        nnz, p = heapq.heappop(heap)
        col = work[p]
        if not col or len(col) != nnz:
            continue
        unit_rows = [r for r, v in col.items() if v in (1, -1)]
        if not unit_rows:
            parked.add(p)
            continue
        r = min(unit_rows, key=lambda rr: (len(at[rr]), rr))
        pv = col[r]
        for j in sorted(at[r] - {p}):
            _column_update(work, at, j, p, work[j][r] // pv)
            parked.discard(j)
            if work[j]:
                heapq.heappush(heap, (len(work[j]), j))
        for rr in col:
            at[rr].discard(p)
        work[p] = None
        pivots[r] = p
    factors = [1] * len(pivots)
    live = sorted(j for j in parked if work[j])
    if live:
        row_ids = sorted({r for j in live for r in work[j]})
        dense = [[work[j].get(r, 0) for r in row_ids] for j in live]
        factors.extend(_snf_dense(dense, len(live), len(row_ids)))
    return factors, pivots


class ReferenceColumnReduction:
    """ColumnReduction(a, moduli, tracked) on a row index of sets: at[r]
    holds exactly the active columns with a nonzero in row r."""

    def __init__(self, a, moduli=None, tracked=None):
        self.ncols = count = a.cols
        if tracked is None:
            tracked = count
        self.v = [{j: 1} if j < tracked else {} for j in range(count)]
        self.moduli = moduli or {}
        self.pivots = []
        active = set(range(count))
        self.work = [{} for _ in range(count)]
        at = {}
        for (i, j), x in a.entries.items():
            self.work[j][i] = x
            at.setdefault(i, set()).add(j)
        if self.moduli:
            for j, c in enumerate(self.work):
                self._reduce(j, list(c), at)
        for r in sorted(at):
            cand = sorted(at[r],
                          key=lambda j: (abs(self.work[j][r]), len(self.work[j]), j))
            if cand:
                p = cand[0]
                for j in cand[1:]:
                    self._eliminate(p, j, r, at)
                if r in self.moduli:
                    self._fold(p, r, at)
                else:
                    for rr in self.work[p]:
                        at[rr].discard(p)
                    self.pivots.append((r, p))
                    active.discard(p)
            del at[r]
        self.free = sorted(active)

    def _reduce(self, j, rows, at):
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
                at[rr].discard(j)

    def _fold(self, p, r, at):
        m = self.moduli[r]
        col = self.work[p]
        k = m // gcd(col.pop(r), m)
        for rr in col:
            col[rr] *= k
        self._reduce(p, list(col), at)
        vp = self.v[p]
        for i in vp:
            vp[i] *= k

    def _eliminate(self, p, j, r, at):
        work, v = self.work, self.v
        while work[j].get(r):
            q = _centered_quotient(work[j][r], work[p][r])
            if q:
                _column_update(work, at, j, p, q, v)
                if self.moduli:
                    self._reduce(j, work[p], at)
            if work[j].get(r):
                work[p], work[j] = work[j], work[p]
                v[p], v[j] = v[j], v[p]
                for rr in work[p].keys() ^ work[j].keys():
                    if rr in work[p]:
                        at[rr].discard(j)
                        at[rr].add(p)
                    else:
                        at[rr].discard(p)
                        at[rr].add(j)
