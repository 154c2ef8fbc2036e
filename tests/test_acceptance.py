"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints a single `[criterion N] ...: PASS/FAIL` line; run with
`pytest tests/test_acceptance.py -s` to see them stream.  Runtime budgets
are asserted where stated.
"""

import time

import pytest

from orbitcoh.bredon import cochain_complex
from orbitcoh.checks import (
    characters_suite,
    oracle_suite,
    properties_suite,
    structures_suite,
)
from orbitcoh.cli import main as cli_main
from orbitcoh.coeff import fixed_point_functor
from orbitcoh.galoisff import units_gmodule
from orbitcoh.groups import closed_families


def _report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _subset(report, prefix):
    checks = [c for c in report.checks if c.name.startswith(prefix)]
    assert checks, f"no checks with prefix {prefix}"
    ok = all(c.passed for c in checks)
    seconds = sum(c.seconds for c in checks)
    failed = [c.name for c in checks if not c.passed]
    return ok, seconds, failed


@pytest.fixture(scope="module")
def oracle_report():
    return oracle_suite()


@pytest.fixture(scope="module")
def structures_report():
    return structures_suite()


@pytest.fixture(scope="module")
def properties_report():
    return properties_suite()


def test_criterion_1_oracle_agreement(oracle_report):
    ok, seconds, failed = _subset(oracle_report, "bar-agreement/")
    ok = ok and seconds < 60
    _report(1, "oracle agreement degrees 0..3", ok,
            f"{seconds:.1f}s" + (f"; failed: {failed}" if failed else ""))


def test_criterion_2_character_formula():
    start = time.perf_counter()
    report = characters_suite()
    seconds = time.perf_counter() - start
    failed = [c.name for c in report.checks if not c.passed]
    ok = report.passed and seconds < 300
    _report(2, "H^2 with constant Z equals the character group", ok,
            f"{seconds:.1f}s" + (f"; failed: {failed}" if failed else ""))


def test_criterion_3_structure_bijection(structures_report):
    ok, seconds, failed = _subset(structures_report, "str-bijection/")
    ok = ok and seconds < 300
    _report(3, "structure classes biject with H^2", ok,
            f"{seconds:.1f}s" + (f"; failed: {failed}" if failed else ""))


def test_criterion_4_splitting_classes(structures_report):
    ok, _, failed = _subset(structures_report, "splitting-classes/")
    _report(4, "splitting classes count H^1", ok,
            f"failed: {failed}" if failed else "exact")


def test_criterion_5_kernel_intersections(oracle_report):
    ok, _, failed = _subset(oracle_report, "restriction-kernels/")
    _report(5, "restriction-kernel formulas in degrees 1 and 2", ok,
            f"failed: {failed}" if failed else "exact")


def _unit_complexes(p, n, d):
    """(family, the unit functor's one complex) per closed family."""
    module = units_gmodule(p, n, d)
    return [(fam, cochain_complex(fixed_point_functor(module, fam)))
            for fam in closed_families(module.group)]


def test_criterion_6_hilbert_90():
    start = time.perf_counter()
    bad = []
    for p in (2, 3):
        for n in range(1, 5):
            for d in range(1, n + 1):
                if n % d:
                    continue
                for fam, cx in _unit_complexes(p, n, d):
                    if not cx.cohomology(1).is_trivial():
                        bad.append((p, n, d, fam.member_sets()))
    seconds = time.perf_counter() - start
    ok = not bad and seconds < 120
    _report(6, "degree-1 unit cohomology vanishes on the grid", ok,
            f"{seconds:.1f}s" + (f"; nonzero at {bad}" if bad else ""))


def test_criterion_7_brauer_and_odd_vanishing():
    bad = []
    for p in (2, 3):
        for n in range(1, 5):
            for d in range(1, n + 1):
                if n % d:
                    continue
                for fam, cx in _unit_complexes(p, n, d):
                    if not cx.cohomology(2).is_trivial():
                        bad.append(("H2", p, n, d, fam.member_sets()))
                    if not cx.cohomology(3).is_trivial():
                        bad.append(("H3", p, n, d, fam.member_sets()))
    _report(7, "degree-2 and degree-3 unit cohomology vanish", not bad,
            f"nonzero at {bad}" if bad else "exact")


def test_criterion_8_property_suites(properties_report):
    names = ("complex-law", "morphism-counts", "fixed-point-functoriality",
             "smith-identities")
    checks = [c for c in properties_report.checks if c.name in names]
    assert len(checks) == len(names)
    seconds = sum(c.seconds for c in checks)
    failed = [c.name for c in checks if not c.passed]
    ok = not failed and seconds < 120
    _report(8, "structural property suites", ok,
            f"{seconds:.1f}s" + (f"; failed: {failed}" if failed else ""))


def test_criterion_9_fixed_point_free(properties_report):
    ok, _, failed = _subset(properties_report, "fixed-point-free-search")
    _report(9, "fixed-point-free prime-power element up to order 12", ok,
            f"failed: {failed}" if failed else "exact")


def test_criterion_10_determinism(tmp_path):
    jobs = [
        ["cohomology", "--group", "s3", "--family", "full",
         "--module", "z-trivial", "--degrees", "0..2"],
        ["cohomology", "--group", "c2xc2", "--family", "full",
         "--module", "z2-trivial", "--degrees", "0..2"],
        ["structures", "--group", "c2", "--family", "trivial-only",
         "--module", "z2-trivial", "--check", "--witnesses"],
        ["derivations", "--group", "c2xc2", "--family", "full",
         "--module", "z2-trivial", "--check"],
        ["characters", "--group", "c4xc2", "--family", "cyclic"],
        ["galois", "--p", "3", "--n", "4", "--d", "1", "--family", "full"],
    ]
    mismatches = []
    for jid, job in enumerate(jobs):
        outputs = []
        for run, threads in ((0, "1"), (1, "4"), (2, "1")):
            path = tmp_path / f"job{jid}-run{run}.json"
            code = cli_main(["--threads", threads, "--output", str(path)] + job)
            assert code == 0, job
            outputs.append(path.read_bytes())
        if not (outputs[0] == outputs[1] == outputs[2]):
            mismatches.append(job[0])
    _report(10, "byte-identical outputs across runs and thread counts",
            not mismatches,
            f"mismatched: {mismatches}" if mismatches else
            f"{len(jobs)} jobs x 3 runs")
