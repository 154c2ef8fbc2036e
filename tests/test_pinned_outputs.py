"""stdout of the interpretation commands, frozen byte for byte.

The structures and derivations files under tests/pinned/ are the outputs of
the plain element-by-element search routes; the memoized tables must leave
every byte unchanged.  The characters files print rows of the tracked Smith
transform U as generators, so they pin the dense Smith routine's choice of
U, and the relation columns character_group hands it, as well as the
groups.  The oracle file pins the bar complex's groups with their degrees.
The galois and cohomology files come from the presentation route of
subquotient (coefficients whose d o d vanishes only modulo the relations,
and a module file with mixed torsion), so they pin preimage_generators'
results through every later normal form.  The family-close files pin
closure under conjugation, which conjugates by the group's generators, and
the S4 table file goes through table validation, which checks associativity
on those generators.  The c2xc2xc2, c4xc2 and q8 cohomology files come from
normal-member families, so they pin NormalFamilyComplex in degrees 0..3:
the first two on the product of periodic resolutions at their trivial
member, q8's on the bar resolution, as its quotient by 1 is not abelian.
"""

from pathlib import Path

import pytest

from orbitcoh.cli import main

PINNED = Path(__file__).parent / "pinned"

CASES = [
    ("structures_c2xc2_full_z2.json",
     ["structures", "--group", "c2xc2", "--family", "full",
      "--module", "z2-trivial", "--witnesses", "--check"]),
    ("structures_c3_trivial_z3.json",
     ["structures", "--group", "c3", "--family", "trivial-only",
      "--module", "z3-trivial", "--witnesses", "--check"]),
    ("derivations_c4_full_z4.json",
     ["derivations", "--group", "c4", "--family", "full",
      "--module", "z4-trivial", "--check"]),
    ("characters_s3_trivial.json",
     ["characters", "--group", "s3", "--family", "trivial-only"]),
    ("characters_d4_trivial.json",
     ["characters", "--group", "d4", "--family", "trivial-only"]),
    ("characters_c6xc2_trivial.json",
     ["characters", "--group", "c6xc2", "--family", "trivial-only"]),
    ("characters_q8_trivial_sub0123.json",
     ["characters", "--group", "q8", "--family", "trivial-only",
      "--subgroup", "0,1,2,3"]),
    ("oracle_s3_z3.json",
     ["oracle", "--group", "s3", "--module", "z3-trivial", "--degrees", "0..3"]),
    ("galois_p2_n8_trivial.json",
     ["galois", "--p", "2", "--n", "8", "--family", "trivial-only", "--check"]),
    ("cohomology_c4_trivial_z2_z4_z.json",
     ["cohomology", "--group", "c4", "--family", "trivial-only",
      "--module", str(PINNED / "module_c4_z2_z4_z.json"),
      "--degrees", "0..4", "--check"]),
    ("cohomology_s4_table_cyclic_z.json",
     ["cohomology", "--group", str(PINNED / "group_s4_table.json"),
      "--family", "cyclic", "--module", "z-trivial", "--degrees", "0..2",
      "--check"]),
    ("cohomology_c2xc2xc2_closed_z.json",
     ["cohomology", "--group", "c2xc2xc2",
      "--family", str(PINNED / "family_c2xc2xc2_closed.json"),
      "--module", "z-trivial", "--degrees", "0..3", "--check"]),
    ("cohomology_c4xc2_cyclic_z.json",
     ["cohomology", "--group", "c4xc2", "--family", "cyclic",
      "--module", "z-trivial", "--degrees", "0..3", "--check"]),
    ("cohomology_q8_full_z.json",
     ["cohomology", "--group", "q8", "--family", "full",
      "--module", "z-trivial", "--degrees", "0..3", "--check"]),
]
for _group in ("a4", "d4", "q8", "dic3"):
    for _suffix, _flags in (("conj", ["--conjugation"]),
                            ("conj_sub", ["--conjugation", "--subgroups"])):
        CASES.append((f"family_close_{_group}_{_suffix}.json",
                      ["family-close", "--group", _group, "--family",
                       str(PINNED / f"family_{_group}_one.json"), *_flags]))


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_is_byte_identical(capsys, name, argv):
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    assert out.encode("utf-8") == (PINNED / name).read_bytes()
