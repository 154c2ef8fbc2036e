"""FiniteModule's memo tables against the direct Z/m formulas.

The formulas below are the reference: act multiplies by the action matrix
of the normalized module and reduces each coordinate by its modulus; add,
sub and neg work coordinatewise modulo the moduli.
"""

import pytest

from orbitcoh.coeff import GModule, sign_modules
from orbitcoh.groups import groups_up_to_order
from orbitcoh.interp import FiniteModule
from orbitcoh.intlin import FgAbGroup, IntMatrix


def _zmod(n):
    return FgAbGroup(1, IntMatrix.from_rows([[n]]))


def _modules(group):
    out = [(f"Z/{n}", GModule.trivial(group, _zmod(n))) for n in (2, 3, 4)]
    for i, sign in enumerate(sign_modules(group)):
        out.append((f"Z/4-sign{i}", GModule(group, _zmod(4), sign.actions)))
    return out


CASES = [(g, label, m) for g in groups_up_to_order(8) for label, m in _modules(g)]


def _ref_act(fm, g, v):
    mat = fm.module.act(g)
    return tuple(sum(mat[(i, j)] * v[j] for j in range(fm.k)) % d
                 for i, d in enumerate(fm.moduli))


def _ref_add(fm, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, fm.moduli))


def _ref_sub(fm, a, b):
    return tuple((x - y) % d for x, y, d in zip(a, b, fm.moduli))


def _ref_neg(fm, a):
    return tuple(-x % d for x, d in zip(a, fm.moduli))


def test_cases_include_sign_actions():
    labels = {label for _, label, _ in CASES}
    assert {"Z/2", "Z/3", "Z/4", "Z/4-sign0"} <= labels


@pytest.mark.parametrize("group, label, module", CASES,
                         ids=[f"{g.name}-{label}" for g, label, _ in CASES])
def test_tables_equal_direct_formulas(group, label, module):
    fm = FiniteModule(module)
    elements = fm.elements()
    assert len(elements) == fm.size
    for g in range(group.order):
        for v in elements:
            assert fm.act_table[g, v] == _ref_act(fm, g, v)
    for a in elements:
        assert fm.neg_table[a] == _ref_neg(fm, a)
        for b in elements:
            assert fm.add_table[a, b] == _ref_add(fm, a, b)
            assert fm.sub_table[a, b] == _ref_sub(fm, a, b)
    # a second read comes from the table and is the same tuple
    assert fm.act_table[group.order - 1, elements[-1]] \
        == _ref_act(fm, group.order - 1, elements[-1])
    assert len(fm.act_table) == group.order * fm.size
    assert len(fm.add_table) == len(fm.sub_table) == fm.size ** 2
    assert len(fm.neg_table) == fm.size


def test_sign_action_is_not_trivial():
    group = next(g for g in groups_up_to_order(8) if g.name == "c2")
    fm = FiniteModule(GModule(group, _zmod(4), sign_modules(group)[0].actions))
    assert fm.act_table[1, (1,)] == (3,)


def test_fresh_tables_are_empty_and_not_shared():
    group = next(g for g in groups_up_to_order(8) if g.name == "s3")
    module = GModule.trivial(group, _zmod(3))
    first, second = FiniteModule(module), FiniteModule(module)
    tables = ("act_table", "add_table", "sub_table", "neg_table")
    for name in tables:
        assert len(getattr(first, name)) == 0
        assert getattr(first, name) is not getattr(second, name)
    first.act_table[1, (2,)]
    first.add_table[(1,), (2,)]
    first.sub_table[(1,), (2,)]
    first.neg_table[(1,)]
    for name in tables:
        assert len(getattr(first, name)) == 1
        assert len(getattr(second, name)) == 0
