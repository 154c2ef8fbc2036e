"""stdout of the interpretation-search commands, frozen byte for byte.

The files under tests/pinned/ are the outputs of the plain element-by-element
search routes; the memoized tables must leave every byte unchanged.
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
]


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_stdout_is_byte_identical(capsys, name, argv):
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    assert out.encode("utf-8") == (PINNED / name).read_bytes()
