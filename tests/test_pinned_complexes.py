"""Cochain groups and differentials of the strict-chain complex, frozen.

Each case is one complex and a top degree; its digest hashes the relations
of C^0..C^(top+1) and the entries of d^0..d^top, in block and dict order.
A refactor of NormalFamilyComplex that keeps every digest in
tests/pinned/complexes.json builds the same matrices entry for entry.  The
cases: the four complexes of the scaffold's tests; all (module, family)
cases of the cyclic grid in test_cyclic_complex.py, each to its top degree;
every tenth (module, family) case of the nerve agreement in
test_normal_family_complex.py, in the order its tests list them; and the
trivial families its bar agreement checks.

Run this file as a script, with src and tests on PYTHONPATH, to write the
digests afresh; do so only where a change is meant to alter the matrices.
"""

import hashlib
import json
from pathlib import Path

import pytest
import test_cochain_scaffold as scaffold
import test_cyclic_complex as cyclic
import test_normal_family_complex as normal

from orbitcoh.bredon import NormalFamilyComplex
from orbitcoh.coeff import fixed_point_functor
from orbitcoh.groups import builtin_group, closed_families, trivial_family

PINNED = Path(__file__).parent / "pinned" / "complexes.json"

# the nerve agreement's tests in order: group, step through its families
# (None: its closed families, every 46th), top degree
AGREE = ([(n, 1, 3) for n in ("c2", "c4", "c2xc2", "q8")] + [("c2xc2xc2", None, 2)]
         + [("d4", 1, 2), ("d6", 2, 2), ("a4", 1, 2)]
         + [("c4xc2", 5, 2), ("c3xc3", 1, 2), ("c6xc2", 29, 2)])


def digest(cx, top):
    h = hashlib.sha256()
    for n in range(top + 2):
        group = cx.cochain_group(n)
        h.update(repr((group.ngens, list(group.relations.entries.items()))).encode())
    for n in range(top + 1):
        h.update(repr(list(cx.differential(n).matrix.entries.items())).encode())
    return h.hexdigest()[:20]


def _cyclic_cases(k, top):
    group, modules = cyclic._modules(k)
    for label, module in modules:
        for f, family in enumerate(cyclic._families(group)):
            yield f"C{k}/{label}/{f}", fixed_point_functor(module, family), top


def _agree_cases():
    seen = 0
    for name, step, top in AGREE:
        group = builtin_group(name)
        families = (closed_families(group)[::46] if step is None
                    else normal._normal_families(group)[::step])
        for f, family in enumerate(families):
            for label, module in normal._modules(group):
                if seen % 10 == 0:
                    yield f"{name}/{f}/{label}", fixed_point_functor(module, family), top
                seen += 1


def _trivial_cases():
    for name in ("c2xc2", "q8", "c2xc2xc2"):
        group = builtin_group(name)
        for label, module in normal._modules(group):
            yield (f"{name}/trivial/{label}",
                   fixed_point_functor(module, trivial_family(group)),
                   3 if group.order < 8 else 2)


SETS = {f"cyclic-C{k}": lambda k=k, top=top: _cyclic_cases(k, top)
        for k, top in cyclic.GRID}
SETS["agree"] = _agree_cases
SETS["trivial"] = _trivial_cases


def _digests(name):
    if name == "scaffold":
        return {make.__name__: digest(make(), 3) for make in scaffold.COMPLEXES}
    return {case: digest(NormalFamilyComplex(om), top) for case, om, top in SETS[name]()}


@pytest.mark.parametrize("name", ["scaffold", *SETS])
def test_complexes_match_their_pinned_digests(name):
    assert _digests(name) == json.loads(PINNED.read_text())[name]


if __name__ == "__main__":
    PINNED.write_text(json.dumps({name: _digests(name) for name in ["scaffold", *SETS]},
                                 indent=1) + "\n")
