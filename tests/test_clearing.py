"""Clearing: a differential eliminated without the columns at the unit-pivot
rows of the differential below it keeps its invariant factors.

A cochain complex eliminates each d^n once and, when d^n @ d^{n-1} = 0 over
Z and d^{n-1} is already eliminated, leaves out of d^n the columns at
d^{n-1}'s unit-pivot rows T.  That is exact because the pivot minor
d^{n-1}[T, R] is square and unimodular.  These tests check the cleared
factors against the uncleared invariant_factors and against sympy's Smith
normal form (skipped without sympy), and check the pivot minor itself.
"""

import importlib.util

import pytest

from orbitcoh.bredon import BarComplex, BredonComplex
from orbitcoh.coeff import GModule, fixed_point_functor, sign_modules
from orbitcoh.groups import (
    builtin_group,
    builtin_group_names,
    cyclic_family,
    full_family,
    trivial_family,
)
from orbitcoh.intlin import FgAbGroup, IntMatrix, invariant_factors

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

GROUPS = sorted(n for n in builtin_group_names() if builtin_group(n).order <= 8)
FAMILIES = {"trivial-only": trivial_family, "cyclic": cyclic_family,
            "full": full_family}
MODULES = ("z", "z2", "z4", "sign")
TOP_DEGREE = 3
CHAIN_LIMIT = 2000


def module_of(group, label):
    """The module named by label, or None (a group without a sign action)."""
    if label == "sign":
        signs = sign_modules(group)
        return signs[0] if signs else None
    m = {"z": 0, "z2": 2, "z4": 4}[label]
    carrier = FgAbGroup(1, IntMatrix.from_rows([[m]])) if m else FgAbGroup.free(1)
    return GModule.trivial(group, carrier)


def pivot_minor(d, pivots):
    """d[T, R] for the unit pivots {row: column}, rows and columns in T's
    order, or None when two pivots share a column (not square)."""
    rows = sorted(pivots)
    cols = [pivots[r] for r in rows]
    if len(set(cols)) != len(cols):
        return None
    at_row = {r: k for k, r in enumerate(rows)}
    at_col = {c: k for k, c in enumerate(cols)}
    return IntMatrix(len(rows), len(cols), {
        (at_row[i], at_col[j]): v for (i, j), v in d.entries.items()
        if i in at_row and j in at_col})


def without_columns(d, dropped):
    keep = [j for j in range(d.cols) if j not in dropped]
    at = {j: k for k, j in enumerate(keep)}
    return IntMatrix(d.rows, len(keep), {
        (i, at[j]): v for (i, j), v in d.entries.items() if j in at})


def cleared_records(cx, top, fits):
    """(n, d^n, pivots of d^{n-1} that cleared it or None, record of d^n)
    for n = 0..top while fits(n), computing cohomology in degree order."""
    out = []
    for n in range(top + 1):
        if not fits(n):
            break
        cx.cohomology(n)
        below = cx._eliminated.get(n - 1)
        cleared = below[1] if below and cx._dd_vanishes(n) else None
        out.append((n, cx.differential(n).matrix, cleared, cx._eliminated[n]))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(GROUPS), st.sampled_from(sorted(FAMILIES)),
       st.sampled_from(MODULES))
def test_cleared_factors_equal_uncleared(name, family_name, label):
    group = builtin_group(name)
    module = module_of(group, label)
    assume(module is not None)
    family = FAMILIES[family_name](group)
    cx = BredonComplex(family, fixed_point_functor(module, family))
    records = cleared_records(
        cx, TOP_DEGREE, lambda n: cx.cat.chain_count(n + 1) <= CHAIN_LIMIT)
    for n, d, cleared, (factors, pivots) in records:
        where = (name, family_name, label, n)
        # every complex here vanishes over Z, and degrees run in order, so
        # each differential above degree 0 is cleared by the one below
        assert n == 0 or cleared is not None, where
        assert factors == invariant_factors(d)[0], where
        minor = pivot_minor(d, pivots)
        assert minor is not None, where
        assert invariant_factors(minor)[0] == [1] * len(pivots), where
        assert not set(pivots.values()) & set(cleared or ()), where


def test_clearing_drops_columns():
    # d^2 of q8 with the cyclic family: d^1's unit pivots clear some of
    # its columns, and the answer is still the whole matrix's
    group = builtin_group("q8")
    family = cyclic_family(group)
    cx = BredonComplex(family, fixed_point_functor(module_of(group, "z"), family))
    n, d, cleared, (factors, _) = cleared_records(cx, 2, lambda n: True)[-1]
    hit = {j for (_, j) in d.entries if j in cleared}
    assert hit
    assert factors == invariant_factors(d)[0]
    assert factors == invariant_factors(without_columns(d, cleared))[0]


def small_differentials(limit=60):
    """(label, d^n, cleared pivots or None) for assembled Bredon and bar
    differentials with at most limit rows and columns."""
    out = []
    for name in GROUPS:
        group = builtin_group(name)
        for label in MODULES:
            module = module_of(group, label)
            if module is None:
                continue
            complexes = [(f"bar {name} {label}", BarComplex(module))]
            for family_name, make in sorted(FAMILIES.items()):
                family = make(group)
                complexes.append((f"{name} {family_name} {label}", BredonComplex(
                    family, fixed_point_functor(module, family))))
            for where, cx in complexes:
                def fits(n, cx=cx):
                    return (cx.cochain_group(n).ngens <= limit
                            and cx.cochain_group(n + 1).ngens <= limit)
                for n, d, cleared, _ in cleared_records(cx, TOP_DEGREE, fits):
                    out.append((f"{where} d^{n}", d, cleared))
    return out


@pytest.mark.skipif(importlib.util.find_spec("sympy") is None,
                    reason="sympy is not installed")
def test_assembled_differentials_match_sympy_smith_form():
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    def sympy_factors(a):
        if not a.rows or not a.cols:
            return []
        snf = smith_normal_form(sympy.Matrix(a.to_rows()), domain=sympy.ZZ)
        diag = [abs(int(snf[i, i])) for i in range(min(a.rows, a.cols))]
        return [x for x in diag if x]

    cases = small_differentials()
    cleared_cases = 0
    for where, d, cleared in cases:
        expected = sympy_factors(d)
        assert invariant_factors(d)[0] == expected, where
        if cleared:
            cleared_cases += 1
            assert invariant_factors(d, cleared)[0] == expected, where
            assert sympy_factors(without_columns(d, cleared)) == expected, where
    assert cleared_cases >= 50, (len(cases), cleared_cases)
