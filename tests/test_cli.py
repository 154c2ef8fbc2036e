import json
import sys
import time
from pathlib import Path

import pytest

from orbitcoh import bredon, cli
from orbitcoh.cli import main
from orbitcoh.galoisff import PRIME_BOUND


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def c2_file(tmp_path):
    return write_json(tmp_path, "c2.json", {"order": 2, "table": [[0, 1], [1, 0]]})


@pytest.fixture
def z_trivial_file(tmp_path):
    return write_json(tmp_path, "z-trivial.json", {"rank": 1, "torsion": []})


def test_cohomology_full_family(capsys, c2_file, z_trivial_file):
    code, out, _ = run_cli(capsys, "cohomology", "--group", c2_file,
                           "--family", "full", "--module", z_trivial_file,
                           "--degrees", "0..2")
    assert code == 0
    doc = json.loads(out)
    assert [r["rank"] for r in doc["results"]] == [1, 0, 0]
    assert [r["torsion"] for r in doc["results"]] == [[], [], []]


def test_cohomology_trivial_family(capsys, c2_file, z_trivial_file):
    code, out, _ = run_cli(capsys, "cohomology", "--group", c2_file,
                           "--family", "trivial-only",
                           "--module", z_trivial_file, "--degrees", "0..2")
    assert code == 0
    doc = json.loads(out)
    shapes = [(r["rank"], r["torsion"]) for r in doc["results"]]
    assert shapes == [(1, []), (0, []), (0, [2])]


def test_cohomology_single_degree_and_builtins(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--group", "c4",
                           "--family", "full", "--module", "z-trivial",
                           "--degrees", "2", "--check")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == [{"degree": 2, "rank": 0, "torsion": []}]
    assert doc["checks"][0]["method"] == "characters"
    assert doc["checks"][0]["passed"] is True


def test_cohomology_check_degree_zero_and_one(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--group", "c2",
                           "--family", "trivial-only", "--module", "z-sign",
                           "--degrees", "0..1", "--check")
    assert code == 0
    doc = json.loads(out)
    assert [c["method"] for c in doc["checks"]] == ["limit", "derivations"]
    assert all(c["passed"] for c in doc["checks"])
    assert doc["results"][1]["torsion"] == [2]


def test_family_file_with_closure(capsys, tmp_path):
    fam = write_json(tmp_path, "fam.json",
                     {"subgroups": [[0, 1]], "close_conjugation": True,
                      "close_subgroups": True})
    code, out, _ = run_cli(capsys, "family-close", "--group", "s3",
                           "--family", fam)
    assert code == 0
    doc = json.loads(out)
    # one transposition subgroup closes to all three plus the trivial one
    assert len(doc["subgroups"]) == 4


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--group", "c4",
                           "--module", "z-trivial", "--degrees", "0..3")
    assert code == 0
    doc = json.loads(out)
    assert [(r["rank"], r["torsion"]) for r in doc["results"]] == [
        (1, []), (0, []), (0, [4]), (0, [])]


def test_structures_command(capsys):
    code, out, _ = run_cli(capsys, "structures", "--group", "c2",
                           "--family", "trivial-only", "--module", "z2-trivial",
                           "--check")
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == 2
    assert doc["h2_order"] == 2
    assert doc["witnesses"][doc["split_index"]]["split"] is True

    code, out, _ = run_cli(capsys, "structures", "--group", "c2",
                           "--family", "full", "--module", "z2-trivial",
                           "--check")
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == 1
    assert doc["split_index"] == 0


def test_derivations_command(capsys):
    code, out, _ = run_cli(capsys, "derivations", "--group", "c2",
                           "--family", "trivial-only", "--module", "z2-trivial",
                           "--check")
    assert code == 0
    doc = json.loads(out)
    assert doc["derivation_quotient"] == {"rank": 0, "torsion": [2]}
    assert doc["splitting_classes"] == 2
    assert doc["check_passed"] is True


def test_characters_command(capsys):
    code, out, _ = run_cli(capsys, "characters", "--group", "s3",
                           "--family", "trivial-only")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 0 and doc["torsion"] == [2]
    assert doc["generators"]


def test_galois_command(capsys):
    code, out, _ = run_cli(capsys, "galois", "--p", "2", "--n", "4", "--d", "1",
                           "--family", "full", "--check")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_zero"] is True
    assert doc["unit_group_order"] == 15
    assert doc["h3"]["torsion"] == []


def test_galois_bounds_the_galois_group_before_building_it(capsys):
    # set-up builds and validates the (n/d)^2 multiplication table of the
    # Galois group, so past the cap galois exits 3 at once
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "galois", "--p", "2", "--n", "1000",
                           "--family", "trivial-only")
    assert code == 3
    assert json.loads(err)["error"] == {
        "type": "size-limit",
        "message": f"enumeration needs {1000 ** 2} items, cap is 200000"}
    assert time.perf_counter() - start < 1
    # at the cap the answer stays, one below it exits 3
    code, out, _ = run_cli(capsys, "--size-cap", "4", "galois", "--p", "2",
                           "--n", "2", "--family", "trivial-only")
    assert code == 0 and json.loads(out)["all_zero"] is True
    code, _, err = run_cli(capsys, "--size-cap", "3", "galois", "--p", "2",
                           "--n", "2", "--family", "trivial-only")
    assert code == 3 and json.loads(err)["error"]["type"] == "size-limit"


@pytest.mark.parametrize("argv", [
    ["--n", "40", "--family", "trivial-only"],
    ["--n", "14", "--d", "1", "--family", "full"],
    ["--n", "14", "--d", "1", "--family", "cyclic"],
    ["--n", "14", "--d", "1", "--family", "trivial-only"],
    ["--n", "700", "--d", "50"],
    ["--n", "14000", "--d", "1000"],
])
def test_galois_of_order_14_to_40_answers_in_seconds(capsys, argv):
    # the nerve has (n/d - 1)^3 chains in degree 3 over moduli p^n - 1;
    # the periodic complex has a few blocks per degree
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "galois", "--p", "2", *argv, "--check")
    assert code == 0 and json.loads(out)["all_zero"] is True
    assert time.perf_counter() - start < 5


def count_calls(monkeypatch, module, names) -> dict:
    """Replace each named callable of module by one that counts its calls;
    the counts, by name, land in the returned dict."""
    built = {}

    def counted(name, make):
        def wrapper(*args, **kwargs):
            built[name] = built.get(name, 0) + 1
            return make(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return built


@pytest.mark.parametrize("family", ["full", "trivial-only", "non-closed"])
def test_galois_builds_one_module_one_functor_one_complex(capsys, monkeypatch,
                                                          tmp_path, family):
    built = count_calls(monkeypatch, cli, ("units_gmodule", "fixed_point_functor",
                                           "cochain_complex"))
    complexes = count_calls(monkeypatch, bredon, ("NormalFamilyComplex", "BredonComplex"))
    if family == "non-closed":
        family = write_json(tmp_path, "fam.json",
                            {"subgroups": [[0], [0, 1, 2, 3]]})
    code, out, _ = run_cli(capsys, "galois", "--p", "3", "--n", "4",
                           "--family", family, "--check")
    assert code == 0 and json.loads(out)["all_zero"] is True
    assert built == {"units_gmodule": 1, "fixed_point_functor": 1,
                     "cochain_complex": 1}
    assert complexes == {"NormalFamilyComplex": 1}


# (group, family, the one complex cohomology builds): resolutions over the
# strict chains of normal members, with a strict inclusion or with abelian
# quotients alone (periodic resolutions at every object of a cyclic group);
# and the nerve for an antichain with a quotient that is not abelian, or a
# member that is not normal
ROUTES = [
    ("c2xc2xc2", "closed", "NormalFamilyComplex"),
    ("q8", "cyclic", "NormalFamilyComplex"),
    ("c2xc2xc2", "trivial-only", "NormalFamilyComplex"),
    ("c4xc2", "trivial-only", "NormalFamilyComplex"),
    ("c6", "trivial-only", "NormalFamilyComplex"),
    ("s3", "trivial-only", "BredonComplex"),
    ("d4", "cyclic", "BredonComplex"),
]


@pytest.mark.parametrize("group, family, route", ROUTES,
                         ids=[f"{g}-{f}" for g, f, _ in ROUTES])
def test_cohomology_builds_one_complex_of_its_route(capsys, monkeypatch, tmp_path,
                                                    group, family, route):
    built = count_calls(monkeypatch, bredon, ("NormalFamilyComplex", "BredonComplex"))
    if family == "closed":
        family = write_json(tmp_path, "fam.json",
                            {"subgroups": [[0]] + [[0, x] for x in range(1, 8)]})
    code, out, _ = run_cli(capsys, "cohomology", "--group", group, "--family", family,
                           "--module", "z-trivial", "--degrees", "0..2", "--check")
    assert code == 0 and all(c["passed"] for c in json.loads(out)["checks"])
    assert built == {route: 1}


def test_a_long_single_chain_answers_at_once(capsys):
    # c2 goes to the periodic resolution, one block per degree; the nerve
    # built every face table below degree 3000
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "cohomology", "--group", "c2", "--family",
                           "trivial-only", "--module", "z-trivial", "--degrees", "3000")
    assert code == 0
    assert json.loads(out)["results"] == [{"degree": 3000, "rank": 0, "torsion": [2]}]
    assert time.perf_counter() - start < 0.5


def test_the_periodic_route_caps_blocks_where_the_nerve_had_fewer_chains(capsys):
    # c2's full family: degree 2 has 3 blocks (two members and the pair)
    # against the nerve's 2 chains, so cap 2 stops H^1
    code, out, err = run_cli(capsys, "--size-cap", "2", "cohomology", "--group", "c2",
                             "--family", "full", "--module", "z-trivial",
                             "--degrees", "1")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["message"] == "enumeration needs 3 items, cap is 2"


@pytest.mark.parametrize("command", [["cohomology", "--family", "full"], ["oracle"]])
@pytest.mark.parametrize("doc, needed", [
    ({"rank": 100000}, "10000000000"),
    ({"torsion": [2] * 100000}, "10000000000"),
    ({"rank": 10 ** 3000}, "over 2^19931"),
])
def test_a_module_rank_past_the_cap_exits_3_before_any_smith_form(
        capsys, tmp_path, command, doc, needed):
    # n generators take an n x n dense Smith form, so n^2 is held to the cap
    path = write_json(tmp_path, "big.json", doc)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command[0], "--group", "c2", *command[1:],
                             "--module", path, "--degrees", "0")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["message"] == \
        f"enumeration needs {needed} items, cap is 200000"


def test_a_module_rank_at_the_cap_still_answers(capsys, tmp_path):
    path = write_json(tmp_path, "m.json", {"rank": 3, "torsion": [2]})
    code, out, _ = run_cli(capsys, "--size-cap", "16", "oracle", "--group", "c2",
                           "--module", path, "--degrees", "0")
    assert code == 0
    assert json.loads(out)["results"] == [{"degree": 0, "rank": 3, "torsion": [2]}]
    code, _, err = run_cli(capsys, "--size-cap", "15", "oracle", "--group", "c2",
                           "--module", path, "--degrees", "0")
    assert code == 3 and "needs 16 items, cap is 15" in err


CLOSED_C2XC2XC2 = str(Path(__file__).parent / "pinned" / "family_c2xc2xc2_closed.json")


@pytest.mark.parametrize("group, family", [("s3", "trivial-only"),
                                           ("c2xc2xc2", CLOSED_C2XC2XC2)],
                         ids=["trivial-only", CLOSED_C2XC2XC2])
def test_a_count_past_the_digit_limit_is_a_size_limit_error(capsys, group, family):
    # the nerve (s3's trivial family: its quotient is not abelian) and the
    # bar cells both need more than 10^4300 items here
    code, out, err = run_cli(capsys, "cohomology", "--group", group,
                             "--family", family, "--module", "z-trivial",
                             "--degrees", "9000")
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["message"].startswith("enumeration needs over 2^")


def test_the_bar_cells_fit_a_cap_the_nerve_did_not(capsys):
    # c2xc2's full family: degree 2 has 20 blocks against 48 nerve chains
    code, out, _ = run_cli(capsys, "--size-cap", "40", "cohomology", "--group", "c2xc2",
                           "--family", "full", "--module", "z-trivial", "--degrees", "1")
    assert code == 0
    assert json.loads(out)["results"] == [{"degree": 1, "rank": 0, "torsion": []}]


def test_galois_of_order_447_answers_in_seconds(capsys):
    # the Galois group's 447^2 table is built once, and the unit module is
    # validated on its generator alone
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "galois", "--p", "2", "--n", "447", "--check")
    assert code == 0 and json.loads(out)["all_zero"] is True
    assert time.perf_counter() - start < 5


def test_galois_decides_a_large_prime_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "galois", "--p", "2305843009213693951",
                           "--n", "1")
    assert code == 0
    assert json.loads(out)["unit_group_order"] == 2305843009213693950
    assert time.perf_counter() - start < 1


def test_galois_past_the_primality_bound_exits_2(capsys):
    code, out, err = run_cli(capsys, "galois", "--p", str(PRIME_BOUND),
                             "--n", "1")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert str(PRIME_BOUND) in error["message"]


def test_galois_family_without_the_trivial_subgroup_exits_2(capsys, tmp_path):
    path = write_json(tmp_path, "fam.json", {"subgroups": [[0, 1]]})
    code, out, err = run_cli(capsys, "galois", "--p", "2", "--n", "2",
                             "--family", path)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "validation",
        "message": "family must contain the trivial subgroup"}


def test_galois_non_closed_family_reads_degrees_1_and_2_only(capsys, tmp_path):
    # C4 without its subgroup of order 2 is not subgroup-closed
    path = write_json(tmp_path, "fam.json", {"subgroups": [[0], [0, 1, 2, 3]]})
    code, out, _ = run_cli(capsys, "galois", "--p", "2", "--n", "4",
                           "--family", path)
    assert code == 0
    doc = json.loads(out)
    assert "h1" in doc and "h2" in doc and "h3" not in doc
    assert doc["family"] == [[0], [0, 1, 2, 3]]


def test_group_file_from_permutations(capsys, tmp_path):
    path = write_json(tmp_path, "s3.json",
                      {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]})
    code, out, _ = run_cli(capsys, "characters", "--group", path,
                           "--family", "trivial-only")
    assert code == 0
    assert json.loads(out)["torsion"] == [2]


def test_characters_on_s5_with_the_cyclic_family(capsys, tmp_path):
    # S5's abelianization is Z/2, and the cyclic family holds a
    # transposition, so no character survives
    path = write_json(tmp_path, "s5.json",
                      {"degree": 5,
                       "generators": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]})
    code, out, _ = run_cli(capsys, "characters", "--group", path,
                           "--family", "cyclic")
    assert code == 0
    doc = json.loads(out)
    assert (doc["rank"], doc["torsion"], doc["generators"]) == (0, [], [])


def test_module_file_with_action(capsys, tmp_path):
    mod = write_json(tmp_path, "frob.json",
                     {"rank": 0, "torsion": [3],
                      "action": {"generators": [1], "matrices": [[[2]]]}})
    code, out, _ = run_cli(capsys, "cohomology", "--group", "c2",
                           "--family", "full", "--module", mod,
                           "--degrees", "0..2")
    assert code == 0
    doc = json.loads(out)
    assert all(r["rank"] == 0 and r["torsion"] == [] for r in doc["results"])


def test_unknown_keys_rejected(capsys, tmp_path):
    bad = write_json(tmp_path, "bad.json",
                     {"order": 2, "table": [[0, 1], [1, 0]], "extra": 1})
    code, _, err = run_cli(capsys, "cohomology", "--group", bad,
                           "--family", "full", "--module", "z-trivial",
                           "--degrees", "0")
    assert code == 2
    assert "unknown keys" in json.loads(err)["error"]["message"]


def test_invalid_table_rejected(capsys, tmp_path):
    bad = write_json(tmp_path, "bad.json", {"table": [[1, 0], [0, 1]]})
    code, _, err = run_cli(capsys, "cohomology", "--group", bad,
                           "--family", "full", "--module", "z-trivial",
                           "--degrees", "0")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "validation"


def test_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "nonsense")
    assert code == 2
    assert "unknown suite" in json.loads(err)["error"]["message"]


def test_empty_degree_range(capsys):
    code, _, err = run_cli(capsys, "cohomology", "--group", "c2",
                           "--family", "full", "--module", "z-trivial",
                           "--degrees", "x")
    assert code == 2


def test_size_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "--size-cap", "10",
                           "cohomology", "--group", "c2xc2",
                           "--family", "full", "--module", "z-trivial",
                           "--degrees", "2")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "size-limit"


def test_output_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out, threads in ((out1, "1"), (out2, "3")):
        code, _, _ = run_cli(capsys, "--threads", threads,
                             "--output", str(out),
                             "cohomology", "--group", "s3",
                             "--family", "full", "--module", "z-trivial",
                             "--degrees", "0..2")
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reversed_degree_range_exits_2(capsys):
    code, out, err = run_cli(capsys, "cohomology", "--group", "c2",
                             "--family", "full", "--module", "z-trivial",
                             "--degrees", "5..2")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_size_cap_below_one_exits_2(capsys, cap):
    code, out, err = run_cli(capsys, "--size-cap", cap,
                             "cohomology", "--group", "c2",
                             "--family", "full", "--module", "z-trivial",
                             "--degrees", "0")
    assert code == 2 and out == ""
    assert "--size-cap" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("subgroup", ["a,b", "0,99", "0,-1", "0,,1", ""])
def test_characters_bad_subgroup_exits_2(capsys, subgroup):
    code, out, err = run_cli(capsys, "characters", "--group", "s3",
                             "--family", "trivial-only",
                             "--subgroup", subgroup)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "validation"


def test_check_suite_via_cli(capsys):
    code, out, _ = run_cli(capsys, "check", "galois")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["reports"][0]["suite"] == "galois"
    assert all(c["passed"] for c in doc["reports"][0]["checks"])


def test_cyclic_family_shorthand(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--group", "q8",
                           "--family", "cyclic", "--module", "z-trivial",
                           "--degrees", "0")
    assert code == 0
    doc = json.loads(out)
    # the five proper subgroups of Q8 are cyclic; Q8 itself is not
    assert len(doc["family"]) == 5


@pytest.mark.parametrize("flag, doc", [
    ("--module", {"rank": "a"}),
    ("--module", {"rank": None}),
    ("--module", {"torsion": "ab"}),
    ("--module", {"rank": 1,
                  "action": {"generators": [5], "matrices": [[[1]]]}}),
    ("--family", {"subgroups": [1]}),
    ("--family", {"subgroups": None}),
    ("--group", {"table": "x"}),
    ("--group", {"generators": [1]}),
    ("--family", {"subgroups": [[0]], "close_conjugation": "no"}),
    ("--family", {"subgroups": [[0]], "close_conjugation": "false"}),
    ("--family", {"subgroups": [[0]], "close_subgroups": 1}),
    ("--family", {"subgroups": [[0]], "close_subgroups": 0.5}),
    ("--family", {"subgroups": [[0]], "close_conjugation": None}),
])
def test_malformed_input_file_exits_2(capsys, tmp_path, flag, doc):
    args = {"--group": "c2", "--family": "full", "--module": "z-trivial"}
    args[flag] = write_json(tmp_path, "bad.json", doc)
    argv = ["cohomology", "--degrees", "0"]
    for key, value in args.items():
        argv += [key, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "validation"


# CPython refuses int <-> str conversions past 4,300 digits by default
PAST_DIGIT_LIMIT = "9" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("flag", ["--group", "--family", "--module"])
@pytest.mark.parametrize("text", [
    pytest.param(b'{"rank": 1, "torsion": [\xff]}', id="not-utf8"),
    pytest.param(b'{"rank": ' + PAST_DIGIT_LIMIT.encode() + b"}",
                 id="long-integer"),
])
def test_unreadable_input_file_exits_2(capsys, tmp_path, flag, text):
    args = {"--group": "c2", "--family": "full", "--module": "z-trivial"}
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    args[flag] = str(path)
    argv = ["cohomology", "--degrees", "0"]
    for key, value in args.items():
        argv += [key, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"].startswith("cannot read")


@pytest.mark.parametrize("degrees", [
    pytest.param(PAST_DIGIT_LIMIT, id="degree"),
    pytest.param("0.." + PAST_DIGIT_LIMIT, id="range-end"),
])
def test_degrees_past_the_digit_limit_exit_2(capsys, degrees):
    code, out, err = run_cli(capsys, "cohomology", "--group", "c2",
                             "--family", "full", "--module", "z-trivial",
                             "--degrees", degrees)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "validation"


def test_module_shorthand_past_the_digit_limit_exits_2(capsys):
    code, out, err = run_cli(capsys, "cohomology", "--group", "c2",
                             "--family", "full", "--degrees", "0",
                             "--module", f"z{PAST_DIGIT_LIMIT}-trivial")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation" and "digits" in error["message"]


def test_galois_unit_group_order_past_the_digit_limit_exits_2(capsys):
    # 2^20000 - 1 has 6,021 digits, so unit_group_order could not print;
    # 2^14284 - 1 has 4,300 and still answers
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "galois", "--p", "2", "--n", "20000",
                             "--d", "20000")
    assert code == 2 and out == ""
    assert "digits" in json.loads(err)["error"]["message"]
    assert time.perf_counter() - start < 1
    code, out, _ = run_cli(capsys, "galois", "--p", "2", "--n", "14284",
                           "--d", "14284")
    assert code == 0
    assert json.loads(out)["unit_group_order"] == 2 ** 14284 - 1


@pytest.mark.parametrize("matrices", [[[[3]], [[1]]], [[[1]], [[3]]]])
def test_repeated_generator_with_other_matrix_exits_2(capsys, tmp_path,
                                                      matrices):
    mod = write_json(tmp_path, "twice.json",
                     {"rank": 0, "torsion": [4],
                      "action": {"generators": [1, 1], "matrices": matrices}})
    code, out, err = run_cli(capsys, "cohomology", "--group", "c2",
                             "--family", "trivial-only", "--module", mod,
                             "--degrees", "0")
    assert code == 2 and out == ""
    assert "inconsistent" in json.loads(err)["error"]["message"]


def test_repeated_generator_with_equal_matrix_answers(capsys, tmp_path):
    mod = write_json(tmp_path, "twice.json",
                     {"rank": 0, "torsion": [4],
                      "action": {"generators": [1, 1],
                                 "matrices": [[[3]], [[3]]]}})
    code, out, _ = run_cli(capsys, "cohomology", "--group", "c2",
                           "--family", "trivial-only", "--module", mod,
                           "--degrees", "0")
    assert code == 0
    assert json.loads(out)["results"] == [
        {"degree": 0, "rank": 0, "torsion": [2]}]


def test_output_into_missing_directory_exits_2(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run_cli(capsys, "--output", str(missing), "oracle",
                             "--group", "c2", "--module", "z-trivial",
                             "--degrees", "0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "validation"
    assert not missing.exists()


@pytest.mark.parametrize("degree, torsion", [("1500", [2]), ("1501", [])])
def test_deep_degree_has_no_recursion_limit(capsys, degree, torsion):
    # ordinary H^n(C2; Z): Z/2 in even degrees n > 0, zero in odd ones
    code, out, _ = run_cli(capsys, "cohomology", "--group", "c2",
                           "--family", "trivial-only", "--module", "z-trivial",
                           "--degrees", degree)
    assert code == 0
    result = json.loads(out)["results"][0]
    assert (result["rank"], result["torsion"]) == (0, torsion)


def test_long_degree_range_of_an_empty_complex(capsys):
    # the reduced category of c1 has one object and no non-identity morphism,
    # so H^0 = Z and every higher chain group is empty
    code, out, _ = run_cli(capsys, "cohomology", "--group", "c1",
                           "--family", "full", "--module", "z-trivial",
                           "--degrees", "0..20000")
    assert code == 0
    results = json.loads(out)["results"]
    assert [r["degree"] for r in results] == list(range(20001))
    assert (results[0]["rank"], results[0]["torsion"]) == (1, [])
    assert all((r["rank"], r["torsion"]) == (0, []) for r in results[1:])


@pytest.mark.parametrize("group, family", [
    ("c1", "full"), ("s3", {"subgroups": [[0, 1, 2, 3, 4, 5]]})])
def test_high_degree_past_a_finite_nerve_is_immediate(capsys, tmp_path,
                                                      group, family):
    # with the family {G} the reduced category has no non-identity
    # morphism, so every chain group above degree 0 is empty and no table
    # below the degree is built
    if isinstance(family, dict):
        family = write_json(tmp_path, "family.json", family)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "cohomology", "--group", group,
                           "--family", family, "--module", "z-trivial",
                           "--degrees", "1000000000")
    assert code == 0
    assert json.loads(out)["results"] == [
        {"degree": 1000000000, "rank": 0, "torsion": []}]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("command", [
    ["cohomology", "--family", "full"], ["oracle"]])
def test_degree_range_beyond_the_size_cap_exits_3(capsys, command):
    argv = command + ["--group", "c1", "--module", "z-trivial"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--degrees", "0..1000000000")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {
        "type": "size-limit",
        "message": "enumeration needs 1000000001 items, cap is 200000"}
    assert time.perf_counter() - start < 5
    # the count of degrees is held against --size-cap itself
    code, out, err = run_cli(capsys, "--size-cap", "5", *argv, "--degrees", "0..5")
    assert code == 3 and json.loads(err)["error"]["type"] == "size-limit"
    code, out, _ = run_cli(capsys, "--size-cap", "5", *argv, "--degrees", "0..4")
    assert code == 0 and len(json.loads(out)["results"]) == 5


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2(capsys, threads):
    code, out, err = run_cli(capsys, "--threads", threads,
                             "cohomology", "--group", "c2",
                             "--family", "full", "--module", "z-trivial",
                             "--degrees", "0")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation" and "--threads" in error["message"]


def test_oracle_deep_degree_is_bounded(capsys):
    # c1 has one bar tuple per degree, of length 30000 here; each face's
    # index is read off its digits instead of slicing and hashing the tuple
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "oracle", "--group", "c1",
                           "--module", "z-trivial", "--degrees", "30000")
    assert code == 0
    assert json.loads(out)["results"] == [
        {"degree": 30000, "rank": 0, "torsion": []}]
    assert time.perf_counter() - start < 15


COMPLETE = ["cohomology", "--group", "c2", "--family", "full",
            "--module", "z-trivial", "--degrees", "0"]


@pytest.mark.parametrize("argv", [
    [],
    ["cohomology"],
    ["cohomology", "--group", "c2"],
    ["--bogus"],
    COMPLETE + ["--bogus"],
    ["galois", "--p", "x", "--n", "2"],
    ["--threads", "x"] + COMPLETE,
    COMPLETE + ["--threads", "x"],
    ["no-such-command"],
])
def test_usage_errors_are_one_json_document(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("argv", [["--help"], ["cohomology", "--help"]])
def test_help_still_prints_usage(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: orbitcoh")


HELP = json.loads((Path(__file__).parent / "pinned" / "help.json").read_text())


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_is_byte_identical(capsys, monkeypatch, command):
    # tests/pinned/help.json holds --help of the top level (key "") and of
    # each subcommand at 80 columns, frozen from the parser as first written
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *([command] if command else []), "--help")
    assert code == 0 and err == ""
    assert out == HELP[command]


def _fresh(argv, columns="80"):
    """(exit code, stdout, stderr) of a new CLI process."""
    import os
    import subprocess
    env = dict(os.environ, COLUMNS=columns,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "orbitcoh.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    bad = ["cohomology", "--group", "c2"]
    good = ["cohomology", "--group", "c4", "--family", "full",
            "--module", "z-trivial", "--degrees", "0..1"]
    other = ["oracle", "--group", "c2", "--module", "z2-trivial", "--degrees", "0..2"]
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for argv in (bad, good, good, other):
        assert run_cli(capsys, *argv) == _fresh(argv)
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["cohomology", "--help"]):
            assert run_cli(capsys, *argv) == _fresh(argv, columns)
    assert built == [1]
