"""Module-only data computed once per GModule and shared by every family.

The factor-set classes and derivation shifts of enumerate_f_structures and
the element tables of splittings_mod_conjugacy live on the module's one
FiniteModule (GModule.finite_module).  Results on one shared module must
equal those on a fresh module per family; each suite run must redo its
enumeration; the size cap must hold on every call; and one bar complex
asked for several degrees must agree with a fresh one per degree.
"""

import gc
import weakref

import pytest

from orbitcoh import interp
from orbitcoh.bredon import BarComplex
from orbitcoh.checks import (
    ORACLE_GROUPS,
    STRUCTURE_MATRIX,
    _families_with_trivial,
    _modules_for,
    _zmod,
    structures_suite,
)
from orbitcoh.errors import SizeLimitError
from orbitcoh.groups import builtin_group
from orbitcoh.interp import enumerate_f_structures, splittings_mod_conjugacy

MATRIX_IDS = [f"{name}-Z{mod}" for name, mod in STRUCTURE_MATRIX]


def _structure_key(classes):
    return [(c.factor_set_class, c.split, c.witness.lifts) for c in classes]


@pytest.mark.parametrize("name, mod", STRUCTURE_MATRIX, ids=MATRIX_IDS)
def test_shared_module_enumerates_as_fresh_modules_do(name, mod):
    group = builtin_group(name)
    shared = _zmod(group, mod)
    for fam in _families_with_trivial(group):
        got = enumerate_f_structures(shared, fam)
        want = enumerate_f_structures(_zmod(group, mod), fam)
        assert _structure_key(got) == _structure_key(want), fam.member_sets()
        assert all(c.witness.fm is shared.finite_module for c in got)

        got = splittings_mod_conjugacy(shared, fam)
        want = splittings_mod_conjugacy(_zmod(group, mod), fam)
        assert got == want


def test_each_suite_run_redoes_its_enumeration(monkeypatch):
    calls = []
    is_cocycle = interp._is_cocycle

    def counted(fm, c):
        calls.append(None)
        return is_cocycle(fm, c)

    monkeypatch.setattr(interp, "_is_cocycle", counted)
    for _ in range(2):
        calls.clear()
        assert structures_suite().passed
        assert len(calls) == 598


@pytest.mark.parametrize("name, mod", STRUCTURE_MATRIX, ids=MATRIX_IDS)
def test_the_cap_holds_after_the_classes_are_kept(name, mod):
    group = builtin_group(name)
    module = _zmod(group, mod)
    fam = _families_with_trivial(group)[-1]
    enumerate_f_structures(module, fam)
    fm = module.finite_module
    assert "factor_set_classes" in vars(fm)
    need = fm.size ** ((group.order - 1) ** 2)
    with pytest.raises(SizeLimitError):
        enumerate_f_structures(module, fam, cap=need - 1)
    assert enumerate_f_structures(module, fam, cap=need)


def test_kept_data_lives_as_long_as_its_module():
    group = builtin_group("c2xc2")
    module, other = _zmod(group, 2), _zmod(group, 2)
    fm = module.finite_module
    assert module.finite_module is fm
    assert other.finite_module is not fm
    fm.factor_set_classes
    ref = weakref.ref(fm)
    del module, fm
    gc.collect()
    assert ref() is None


ORACLE_MODULES = [(name, label, module) for name in ORACLE_GROUPS
                  for label, module in _modules_for(builtin_group(name))]


@pytest.mark.parametrize("name, label, module", ORACLE_MODULES,
                         ids=[f"{n}-{lab}" for n, lab, _ in ORACLE_MODULES])
def test_one_bar_complex_agrees_with_one_per_degree(name, label, module):
    bar = BarComplex(module)
    for deg in range(4):
        assert bar.cohomology(deg).normal_form \
            == BarComplex(module).cohomology(deg).normal_form
