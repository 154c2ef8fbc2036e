"""Built-in verification suites.

Each suite bundles the exactly-checkable claims the library rests on, so a
single command can re-establish them on any machine: agreement of the
orbit-category route with the bar-resolution oracle, the character-group
formula for second cohomology with constant integer coefficients, the
structure/splitting classifications against cohomology orders, the
finite-field vanishing grid, and the structural property checks (complex
law, morphism counts, functor laws, Smith identities, the fixed-point-free
element search).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

from .bredon import (
    BarComplex,
    BredonComplex,
    CyclicComplex,
    restriction_kernel_intersection,
)
from .coeff import GModule, fixed_point_functor, sign_modules
from .errors import OrbitcohError
from .groups import (
    Family,
    builtin_group,
    closed_families,
    fixed_point_free_prime_power_element,
    full_family,
    groups_up_to_order,
    trivial_family,
)
from .galoisff import primary_parts, units_gmodule
from .interp import (
    character_group,
    enumerate_f_structures,
    f_derivation_quotient,
    h0_limit,
    splittings_mod_conjugacy,
)
from .intlin import FgAbGroup, IntMatrix, lattice_contains, smith_normal_form
from .orbitcat import fixed_coset_count, morphisms


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def to_json(self):
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail, "seconds": round(self.seconds, 3)}


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {"suite": self.suite, "passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}


def worker_count(threads: int, checks: int) -> int:
    """Workers for ``checks`` checks under ``--threads threads``: at most one
    per check and one per CPU this process may run on, and one where the
    platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(threads, checks, cpus))


# bytes per check index in the task queue; a suite's queue (at most a few
# dozen indices) fits in a pipe's buffer, so filling it never blocks
_RECORD = 2


def _work(checks, queue: int) -> dict:
    """Run the checks whose indices this worker pulls from the queue pipe.

    A check's outcome is its ``CheckResult``, or the exception other than
    ``AssertionError`` that it raised.  After such an exception the worker
    empties the queue, so the run ends once the checks already started end.
    """
    outcomes = {}
    while record := os.read(queue, _RECORD):
        index = int.from_bytes(record, "little")
        name, fn = checks[index]
        start = time.perf_counter()
        try:
            passed, detail = True, fn() or "ok"
        except AssertionError as exc:
            passed, detail = False, str(exc) or "assertion failed"
        except Exception as exc:
            outcomes[index] = exc
            while os.read(queue, 4096):
                pass
            break
        outcomes[index] = CheckResult(name, passed, detail,
                                      time.perf_counter() - start)
    return outcomes


def _fork_worker(checks, queue: int) -> tuple[int, int]:
    """Fork a child that runs ``_work`` and sends its outcomes back pickled;
    return the child's pid and the read end of its result pipe."""
    import pickle

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        # the child never returns into the caller's stack
        code = 1
        try:
            os.close(read)
            payload = pickle.dumps(_work(checks, queue))
            with open(write, "wb") as fh:
                fh.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _receive(read: int) -> dict:
    """A child's outcomes; none if it ended before sending all of them, or
    sent what cannot be rebuilt here."""
    import pickle

    with open(read, "rb", closefd=False) as fh:
        try:
            return pickle.load(fh)
        except Exception:
            return {}


def run_checks(suite: str, checks: list, threads: int) -> SuiteReport:
    """Run the ``(name, fn)`` checks on ``worker_count(threads, len(checks))``
    workers and merge their outcomes in list order.

    The calling process is one worker and the others are forked children;
    fork shares the checks, which are closures, without pickling them, and
    assumes that the caller runs no other thread, as the CLI does.  All
    workers pull check indices from one queue pipe filled up front, so a
    long check does not hold up a fixed share.  The report equals that of a
    sequential run but for the seconds per check: the first check in list
    order that raised anything other than ``AssertionError`` raises again
    here, and a check whose worker ended without reporting it raises
    ``OrbitcohError``.  Every child is reaped before this returns.
    """
    queue, fill = os.pipe()
    children = []                       # (pid, read end of its result pipe)
    done = False
    try:
        with open(fill, "wb") as fh:
            fh.write(b"".join(i.to_bytes(_RECORD, "little")
                              for i in range(len(checks))))
        for _ in range(worker_count(threads, len(checks)) - 1):
            try:
                children.append(_fork_worker(checks, queue))
            except OSError:             # fewer workers share the queue
                break
        outcomes = _work(checks, queue)
        for _, read in children:
            outcomes.update(_receive(read))
        done = True
    finally:
        os.close(queue)
        if not done:                    # interrupted: stop the children
            import signal
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        for pid, read in children:
            os.waitpid(pid, 0)
            os.close(read)
    report = SuiteReport(suite)
    for index, (name, _) in enumerate(checks):
        if index not in outcomes:
            raise OrbitcohError(
                f"the worker running check {name!r} ended without reporting it")
        if isinstance(outcomes[index], Exception):
            raise outcomes[index]
        report.checks.append(outcomes[index])
    return report


def _zmod(group, n):
    return GModule.trivial(group, FgAbGroup(1, IntMatrix.from_rows([[n]])))


def _zfree(group):
    return GModule.trivial(group, FgAbGroup.free(1))


def _modules_for(group):
    mods = [("Z", _zfree(group)), ("Z/2", _zmod(group, 2)), ("Z/4", _zmod(group, 4))]
    for i, m in enumerate(sign_modules(group)):
        mods.append((f"Z-sign{i if i else ''}", m))
    return mods


ORACLE_GROUPS = ("c2", "c3", "c4", "c2xc2", "s3")

STRUCTURE_MATRIX = (("c2", 2), ("c2", 3), ("c3", 3), ("c2xc2", 2))

SHIPPED_ORDER_8 = ("c1", "c2", "c3", "c4", "c2xc2", "c5", "c6", "s3",
                   "c7", "c8", "c4xc2", "c2xc2xc2", "d4", "q8")


def _families_with_trivial(group):
    subs = group.all_subgroups()
    triv = group.trivial_subgroup()
    others = [s for s in subs if not s.is_trivial()]
    out = []
    for k in range(2 ** len(others)):
        out.append(Family(group, [triv] + [s for i, s in enumerate(others)
                                           if k >> i & 1]))
    return out


def oracle_suite(threads: int = 1) -> SuiteReport:
    """Cochain route versus the bar oracle, and restriction-kernel formulas."""
    checks = []
    for name in ORACLE_GROUPS:
        group = builtin_group(name)
        for label, module in _modules_for(group):
            def check(group=group, module=module, label=label):
                fam = trivial_family(group)
                om = fixed_point_functor(module, fam)
                cx = BredonComplex(fam, om)
                bar = BarComplex(module)
                for deg in range(4):
                    ours = cx.cohomology(deg).normal_form
                    oracle = bar.cohomology(deg).normal_form
                    assert ours == oracle, \
                        f"degree {deg}: {ours} != oracle {oracle}"
                return "degrees 0..3 agree"
            checks.append((f"bar-agreement/{name}/{label}", check))

    for name in ORACLE_GROUPS:
        group = builtin_group(name)
        def check_limit(group=group):
            for _, module in _modules_for(group):
                for fam in (trivial_family(group), full_family(group)):
                    om = fixed_point_functor(module, fam)
                    direct = h0_limit(om).normal_form
                    routed = BredonComplex(fam, om).cohomology(0).normal_form
                    assert direct == routed, \
                        f"limit {direct} != cochain route {routed}"
            return "degree-0 limit agrees on trivial and full families"
        checks.append((f"h0-limit/{name}", check_limit))

    for name, mod in STRUCTURE_MATRIX:
        group = builtin_group(name)
        module = _zmod(group, mod)
        def check(group=group, module=module):
            for fam in _families_with_trivial(group):
                cx = BredonComplex(fam, fixed_point_functor(module, fam))
                h1 = cx.cohomology(1)
                inter1, _ = restriction_kernel_intersection(module, fam, 1)
                assert h1.normal_form == inter1.normal_form, \
                    f"H1 mismatch at {fam.member_sets()}"
                inter2, h1_hypothesis = restriction_kernel_intersection(module, fam, 2)
                if h1_hypothesis:
                    h2 = cx.cohomology(2)
                    assert h2.normal_form == inter2.normal_form, \
                        f"H2 mismatch at {fam.member_sets()}"
            return "kernel intersections agree on every family"
        checks.append((f"restriction-kernels/{name}/Z{mod}", check))
    return run_checks("oracle", checks, threads)


def characters_suite(threads: int = 1) -> SuiteReport:
    """Second cohomology with constant Z versus the character group."""
    checks = []
    for name in SHIPPED_ORDER_8:
        group = builtin_group(name)
        module = _zfree(group)
        def check(group=group, module=module):
            fams = closed_families(group)
            for fam in fams:
                om = fixed_point_functor(module, fam)
                h2 = BredonComplex(fam, om).cohomology(2)
                cg = character_group(group.full_subgroup(), fam)
                assert h2.normal_form == cg.group.normal_form, \
                    f"mismatch at {fam.member_sets()}"
            return f"{len(fams)} closed families agree"
        checks.append((f"character-formula/{name}", check))
    return run_checks("characters", checks, threads)


def structures_suite(threads: int = 1) -> SuiteReport:
    """Structure classes against H^2, splitting classes against H^1."""
    checks = []
    for name, mod in STRUCTURE_MATRIX:
        group = builtin_group(name)
        module = _zmod(group, mod)

        def check_h2(group=group, module=module):
            for fam in _families_with_trivial(group):
                om = fixed_point_functor(module, fam)
                h2 = BredonComplex(fam, om).cohomology(2)
                classes = enumerate_f_structures(module, fam)
                assert len(classes) == h2.order(), \
                    f"class count {len(classes)} != |H2| {h2.order()} at {fam.member_sets()}"
                split = [c for c in classes if c.split]
                assert len(split) == 1, "the split class must be unique"
                zero_fs = all(v == split[0].witness.fm.zero
                              for v in split[0].witness.factor_set.values())
                assert zero_fs, "split class must sit over the trivial extension"
            return "class counts equal |H2|, split class unique over zero"
        checks.append((f"str-bijection/{name}/Z{mod}", check_h2))

        def check_h1(group=group, module=module):
            for fam in _families_with_trivial(group):
                om = fixed_point_functor(module, fam)
                h1 = BredonComplex(fam, om).cohomology(1)
                got = len(splittings_mod_conjugacy(module, fam))
                assert got == h1.order(), \
                    f"splitting count {got} != |H1| {h1.order()} at {fam.member_sets()}"
            return "splitting class counts equal |H1|"
        checks.append((f"splitting-classes/{name}/Z{mod}", check_h1))

    for name in ("c2", "c4", "c2xc2"):
        group = builtin_group(name)
        def check_derivations(group=group):
            for label, module in _modules_for(group):
                for fam in _families_with_trivial(group):
                    om = fixed_point_functor(module, fam)
                    lhs = f_derivation_quotient(module, fam).normal_form
                    rhs = BredonComplex(fam, om).cohomology(1).normal_form
                    assert lhs == rhs, \
                        f"{label}: derivations {lhs} != cochain {rhs}"
            return "derivation quotients equal degree-1 cohomology"
        checks.append((f"derivation-quotient/{name}", check_derivations))
    return run_checks("structures", checks, threads)


def galois_suite(threads: int = 1) -> SuiteReport:
    """Unit-module cohomology on the finite-field grid vanishes as predicted."""
    checks = []
    for p in (2, 3):
        for n in range(1, 5):
            for d in range(1, n + 1):
                if n % d:
                    continue
                def check(p=p, n=n, d=d):
                    module = units_gmodule(p, n, d)
                    fams = closed_families(module.group)
                    for fam in fams:
                        # the galois layer's periodic route, the nerve its oracle
                        om = fixed_point_functor(module, fam)
                        route, nerve = CyclicComplex(om), BredonComplex(fam, om)
                        groups = [route.cohomology(k) for k in range(4)]
                        for k, got in enumerate(groups):
                            want = nerve.cohomology(k)
                            assert k == 0 or got.is_trivial(), \
                                f"H{k} = {got} at {fam.member_sets()}"
                            assert got == want, f"H{k}: route {got} != nerve " \
                                f"{want} at {fam.member_sets()}"
                        pp = primary_parts(groups[0])
                        assert pp.recombined() == groups[0].torsion, \
                            "primary parts must recombine"
                    return f"{len(fams)} families, degrees 1..3 all zero"
                checks.append((f"finite-field/p{p}/n{n}/d{d}", check))
    return run_checks("galois", checks, threads)


def _independent_det(mat: IntMatrix) -> int:
    """Determinant by Bareiss's fraction-free elimination over the integers.

    After step i every entry below row i is a minor of order i + 1 of the
    row-swapped matrix, so each division by the previous pivot is exact.
    """
    n = mat.rows
    a = mat.to_rows()
    sign = 1
    prev = 1
    for i in range(n):
        piv = next((r for r in range(i, n) if a[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            sign = -sign
        top = a[i]
        p = top[i]
        for r in range(i + 1, n):
            row = a[r]
            f = row[i]
            for c in range(i + 1, n):
                row[c] = (p * row[c] - f * top[c]) // prev
        prev = p
    return sign * prev


def properties_suite(threads: int = 1) -> SuiteReport:
    """Complex law, morphism counts, functor laws, Smith identities, search."""
    checks = []

    def check_d_after_d():
        for name in ("c2", "c4", "s3"):
            group = builtin_group(name)
            for fam in (trivial_family(group), full_family(group)):
                for label, module in _modules_for(group):
                    om = fixed_point_functor(module, fam)
                    cx = BredonComplex(fam, om)
                    for deg in range(3):
                        comp = cx.differential(deg + 1).matrix \
                            @ cx.differential(deg).matrix
                        if comp.is_zero():
                            continue
                        target = cx.cochain_group(deg + 2)
                        assert lattice_contains(target.relations, comp), \
                            f"d.d != 0 for {name}/{label} at degree {deg}"
        return "d.d = 0 through degree 3 on the whole matrix"
    checks.append(("complex-law", check_d_after_d))

    def check_mor_counts():
        total = 0
        for name in SHIPPED_ORDER_8:
            group = builtin_group(name)
            subs = group.all_subgroups()
            for h in subs:
                for k in subs:
                    assert len(morphisms(h, k)) == fixed_coset_count(h, k), \
                        f"morphism count mismatch in {name}"
                    total += 1
        return f"{total} morphism sets match fixed-coset counts"
    checks.append(("morphism-counts", check_mor_counts))

    def check_functoriality():
        count = 0
        for name in ("c2", "c3", "c4", "c2xc2", "s3"):
            group = builtin_group(name)
            for _, module in _modules_for(group):
                for fam in (trivial_family(group), full_family(group)):
                    fixed_point_functor(module, fam).validate()
                    count += 1
        return f"{count} fixed point functors validated"
    checks.append(("fixed-point-functoriality", check_functoriality))

    def check_snf():
        rng = random.Random(271828)
        for _ in range(1000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            a = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
            u, d, v = smith_normal_form(a)
            assert (u @ a @ v) == d, "U A V != D"
            assert abs(_independent_det(u)) == 1, "U not unimodular"
            assert abs(_independent_det(v)) == 1, "V not unimodular"
            diag = [d[(i, i)] for i in range(min(rows, cols))]
            for x, y in zip(diag, diag[1:]):
                if y:
                    assert x and y % x == 0, "divisibility chain broken"
        return "1000 random Smith forms verified"
    checks.append(("smith-identities", check_snf))

    def check_fixed_point_free():
        count = 0
        for group in groups_up_to_order(12):
            for sub in group.all_subgroups():
                if sub.size == group.order:
                    continue
                elt = fixed_point_free_prime_power_element(group, sub)
                mem = set(sub.members)
                assert all(group.conj(x, elt) not in mem
                           for x in sub.left_coset_representatives()), \
                    f"claimed element fixes a coset in {group.name}"
                count += 1
        return f"{count} coset actions admit a fixed-point-free prime-power element"
    checks.append(("fixed-point-free-search", check_fixed_point_free))
    return run_checks("properties", checks, threads)


SUITES = {
    "oracle": oracle_suite,
    "characters": characters_suite,
    "structures": structures_suite,
    "galois": galois_suite,
    "properties": properties_suite,
}


def available_suites() -> list[str]:
    return sorted(SUITES) + ["all"]


def run_suites(name: str, threads: int = 1) -> list[SuiteReport]:
    if name == "all":
        return [SUITES[key](threads=threads) for key in sorted(SUITES)]
    if name not in SUITES:
        raise KeyError(name)
    return [SUITES[name](threads=threads)]
