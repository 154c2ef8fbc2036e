"""Chain face tables and one-pass assembly against the tuple-hash reference.

OrbitCategory.chains builds each length's face table from the one below;
here every face is recomputed by slicing and hashing chain tuples that are
enumerated independently (and chain_tuples, which reads the tables, is
checked against them).  BredonComplex.differential reads those tables in one pass;
here it is compared, entry order included, with the tuple-hash assembly it
replaced (kept below as reference_differential).  BarComplex.differential
reads face indices off base-|G| digits; it is compared the same way with
the tuple-slicing bar assembly (reference_bar_differential).
"""

import pytest
from functor_reference import unreduced_fixed_point_functor

from orbitcoh.bredon import BarComplex, BredonComplex
from orbitcoh.coeff import GModule, fixed_point_functor, sign_modules
from orbitcoh.errors import SizeLimitError
from orbitcoh.groups import (
    Family,
    builtin_group,
    builtin_group_names,
    cyclic_family,
    family_close,
    full_family,
    trivial_family,
)
from orbitcoh.intlin import FgAbGroup, IntMatrix
from orbitcoh.orbitcat import OrbitCategory

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

GROUPS = sorted(n for n in builtin_group_names() if builtin_group(n).order <= 8)
FAMILIES = {"trivial-only": trivial_family, "cyclic": cyclic_family,
            "full": full_family}
TOP_DEGREE = 3
# differentials are compared while the larger cochain group has at most
# this many generators
GENERATOR_LIMIT = 1500


def permutation_module(group, modulus=0):
    """Z[G] (or (Z/modulus)[G]) with G permuting the basis by left
    multiplication."""
    n = group.order
    carrier = (FgAbGroup(n, IntMatrix.diagonal([modulus] * n)) if modulus
               else FgAbGroup.free(n))
    return GModule(group, carrier, [
        IntMatrix(n, n, {(group.mul(x, y), y): 1 for y in range(n)})
        for x in range(n)])


def modules_for(group):
    out = [("z", GModule.trivial(group, FgAbGroup.free(1)))]
    for m in (2, 4):
        out.append((f"z{m}", GModule.trivial(
            group, FgAbGroup(1, IntMatrix.from_rows([[m]])))))
    signs = sign_modules(group)
    if signs:
        out.append(("sign", signs[0]))
    out.append(("z[G]", permutation_module(group)))
    out.append(("z4[G]", permutation_module(group, 4)))
    return out


def enumerated_tuples(cat, length):
    """The chains of one length as tuples, each extended by every morphism
    leaving its end, in order: the lexicographic order, independently of
    the face tables (which chain_tuples reads)."""
    chains = [(s,) for s in range(len(cat.subgroups))]
    for _ in range(length):
        chains = [c + (m,) for c in chains
                  for m in cat.out[cat.m_tgt[c[-1]] if len(c) > 1 else c[0]]]
    return chains


def sliced_faces(cat, chain):
    """The faces of a chain tuple as tuples (None for a degenerate one)."""
    n1 = len(chain) - 1
    faces = [(cat.m_tgt[chain[1]],) + chain[2:]]
    for i in range(1, n1):
        comp = cat.compose_ids(chain[i], chain[i + 1])
        faces.append(chain[:i] + (comp,) + chain[i + 2:]
                     if cat.in_chains[comp] else None)
    faces.append(chain[:-1])
    return faces


def reference_differential(cx, degree):
    """The tuple-hash assembly of d^degree: each face is sliced out of its
    chain tuple and looked up by hash, then the entries are merged."""
    cat = cx.cat
    size = [v.ngens for v in cx.module.values]

    def layout(n):
        chains = cat.chain_tuples(n)
        offsets, total = [], 0
        for c in chains:
            offsets.append(total)
            total += size[c[0]]
        return chains, {c: i for i, c in enumerate(chains)}, offsets, total

    _, src_index, src_off, src_total = layout(degree)
    dst, dst_index, dst_off, dst_total = layout(degree + 1)
    triples = []
    for c in dst:
        roff = dst_off[dst_index[c]]
        n1 = len(c) - 1
        first = c[1]
        coff = src_off[src_index[(cat.m_tgt[first],) + c[2:]]]
        for (i, j), v in cx.module.map_matrix(cat.morphs[first]).entries.items():
            triples.append((roff + i, coff + j, v))
        for i in range(1, n1):
            comp = cat.compose_ids(c[i], c[i + 1])
            if not cat.in_chains[comp]:
                continue
            coff = src_off[src_index[c[:i] + (comp,) + c[i + 2:]]]
            sign = -1 if i % 2 else 1
            for t in range(size[c[0]]):
                triples.append((roff + t, coff + t, sign))
        coff = src_off[src_index[c[:-1]]]
        sign = -1 if n1 % 2 else 1
        for t in range(size[c[0]]):
            triples.append((roff + t, coff + t, sign))
    entries = {}
    for i, j, v in triples:
        key = (i, j)
        s = entries.get(key, 0) + v
        if s:
            entries[key] = s
        elif key in entries:
            del entries[key]
    return IntMatrix(dst_total, src_total, entries)


def reference_bar_differential(bar, degree):
    """The tuple-slicing bar assembly of d^degree."""
    g = bar.group
    k = bar.gens
    src = bar.tuples(degree)
    dst = bar.tuples(degree + 1)
    src_index = {c: i for i, c in enumerate(src)}
    entries = {}

    def add(i, j, v):
        key = (i, j)
        s = entries.get(key, 0) + v
        if s:
            entries[key] = s
        elif key in entries:
            del entries[key]

    for r, c in enumerate(dst):
        roff = r * k
        coff = src_index[c[1:]] * k
        for (i, j), v in bar.module.act(c[0]).entries.items():
            add(roff + i, coff + j, v)
        for i in range(1, degree + 1):
            fc = c[:i - 1] + (g.mul(c[i - 1], c[i]),) + c[i + 1:]
            sign = -1 if i % 2 else 1
            coff = src_index[fc] * k
            for t in range(k):
                add(roff + t, coff + t, sign)
        sign = -1 if (degree + 1) % 2 else 1
        coff = src_index[c[:-1]] * k
        for t in range(k):
            add(roff + t, coff + t, sign)
    return IntMatrix(len(dst) * k, len(src) * k, entries)


def same_entries(a, b):
    return ((a.rows, a.cols, list(a.entries.items()))
            == (b.rows, b.cols, list(b.entries.items())))


@st.composite
def categories(draw):
    group = builtin_group(draw(st.sampled_from(GROUPS)))
    subs = group.all_subgroups()
    picked = draw(st.lists(st.sampled_from(subs), min_size=1,
                           max_size=len(subs), unique_by=lambda s: s.members))
    family = Family(group, picked)
    if draw(st.booleans()):
        family = family_close(family, under_conjugation=True,
                              under_subgroups=True)
    return OrbitCategory(family, reduced=draw(st.booleans()))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(categories(), st.integers(1, 4))
def test_face_tables_match_sliced_chain_tuples(cat, length):
    if cat.chain_count(length) > 3000:
        length = 1
    # in ascending order, then again from length 0 for a shorter one
    for n in [*range(length + 1), 1]:
        table = cat.chains(n)
        tuples = enumerated_tuples(cat, n)
        assert cat.chain_tuples(n) == tuples
        assert table.start == [c[0] for c in tuples]
        if n == 0:
            continue
        below = {c: i for i, c in enumerate(enumerated_tuples(cat, n - 1))}
        assert table.first == [c[1] for c in tuples]
        assert table.last == [c[-1] for c in tuples]
        count = len(tuples)
        for r, c in enumerate(tuples):
            expected = [below[f] if f is not None else -1
                        for f in sliced_faces(cat, c)]
            assert table.faces[r::count] == expected, (c, n)


def test_chain_tables_keep_the_size_cap():
    cat = OrbitCategory(full_family(builtin_group("c2xc2")), reduced=False)
    with pytest.raises(SizeLimitError):
        cat.chains(3, cap=10)
    assert len(cat.chains(0, cap=10).start) == cat.chain_count(0)


def test_the_cap_bounds_the_requested_length_only():
    # s3 with its subgroups of order 2 and itself: both Weyl groups are
    # trivial, so the nerve is finite and the counts fall, 2, 1, 0
    group = builtin_group("s3")
    family = family_close(
        Family(group, [s for s in group.all_subgroups() if s.size in (2, 6)]),
        under_conjugation=True)
    cat = OrbitCategory(family)
    assert [cat.chain_count(n) for n in range(4)] == [2, 1, 0, 0]
    assert cat.chain_tuples(1, cap=1) == enumerated_tuples(cat, 1)
    assert len(cat.chains(1, cap=1).start) == 1
    assert cat.chain_tuples(3, cap=0) == []
    with pytest.raises(SizeLimitError):
        cat.chain_tuples(0, cap=1)
    with pytest.raises(SizeLimitError):
        cat.chains(0, cap=1)


def test_long_single_extension_chains():
    # c2 with the trivial family: one non-identity morphism, so one chain
    # per length, and every inner face composes to the identity
    cat = OrbitCategory(trivial_family(builtin_group("c2")))
    table = cat.chains(40)
    assert len(table.start) == 1
    assert table.faces == [0] + [-1] * 39 + [0]


def assembled_cases():
    for name in GROUPS:
        group = builtin_group(name)
        for label, module in modules_for(group):
            for family_name, make in sorted(FAMILIES.items()):
                family = make(group)
                for build in (fixed_point_functor, unreduced_fixed_point_functor):
                    yield (f"{name} {family_name} {label} {build.__name__}",
                           BredonComplex(family, build(module, family)))


def test_assembly_matches_tuple_hash_reference():
    compared = 0
    for where, cx in assembled_cases():
        for n in range(TOP_DEGREE + 1):
            if max(cx.cochain_group(n).ngens,
                   cx.cochain_group(n + 1).ngens) > GENERATOR_LIMIT:
                break
            assert same_entries(cx.differential(n).matrix,
                                reference_differential(cx, n)), (where, n)
            compared += 1
    assert compared >= 500, compared


def test_bar_assembly_matches_tuple_slicing_reference():
    compared = 0
    for name in GROUPS:
        group = builtin_group(name)
        for label, module in modules_for(group):
            bar = BarComplex(module)
            for n in range(TOP_DEGREE + 1):
                if group.order ** (n + 1) * bar.gens > GENERATOR_LIMIT:
                    break
                assert same_entries(bar.differential(n).matrix,
                                    reference_bar_differential(bar, n)), (
                    name, label, n)
                compared += 1
    assert compared >= 50, compared
