"""invariant_factors as it was before its set-up was fused, as a reference.

This version builds the column dicts and the row index in two passes
(columns_as_dicts, then a row index of sets) and picks each unit pivot with
min over the unit rows, keyed by (active columns in the row, row).  The
library builds both in one pass and picks the pivot in one loop; the two
must agree on every factor and on every pivot, which is what clearing reads.
"""

import heapq

from orbitcoh.intlin import _snf_dense


def _row_index(work):
    at = {}
    for j, c in enumerate(work):
        for r in c:
            at.setdefault(r, set()).add(j)
    return at


def _column_update(work, at, j, p, q):
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
