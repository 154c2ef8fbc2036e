"""Command-line interface.

Inputs are JSON documents validated strictly (unknown keys are rejected so a
typo in a family flag cannot silently change a mathematical claim), or
builtin shorthands.  Every command emits a single JSON document with sorted
keys; identical invocations are byte-identical.

Exit codes: 0 success, 1 a requested check failed, 2 invalid input,
3 an enumeration exceeded the size cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .bredon import DEFAULT_SIZE_CAP, BarComplex, CyclicComplex, cochain_complex
from .checks import available_suites, run_suites
from .coeff import GModule, fixed_point_functor, sign_modules
from .errors import (
    BadParametersError,
    FamilyMissingTrivialError,
    OrbitcohError,
    SchemaError,
    SizeLimitError,
)
from .galoisff import units_gmodule
from .groups import (
    Family,
    FiniteGroup,
    builtin_group,
    builtin_group_names,
    cyclic_family,
    family_close,
    full_family,
    trivial_family,
)
from .interp import (
    character_group,
    enumerate_f_structures,
    f_derivation_quotient,
    h0_limit,
    splittings_mod_conjugacy,
)
from .intlin import FgAbGroup, IntMatrix

FAMILY_SHORTHANDS = ("trivial-only", "full", "cyclic")


def _fail(kind: str, message: str, code: int):
    doc = {"error": {"type": kind, "message": message}}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    raise SystemExit(code)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:   # bad JSON, UTF-8 or digit count
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path} must hold a JSON object")
    return doc


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{what} must be true or false, got {value!r}")
    return value


def _int_lists(value, what: str, depth: int = 1) -> list:
    """A JSON list of integers, or for depth > 1 a list of such lists."""
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be a list, got {value!r}")
    if depth == 1:
        return [_int(v, f"{what} entry") for v in value]
    return [_int_lists(v, what, depth - 1) for v in value]


def _check_keys(doc: dict, allowed: set[str], what: str):
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"unknown keys in {what}: {sorted(unknown)}")


def load_group(source: str) -> FiniteGroup:
    """A builtin name, or a path to a group file."""
    if os.path.exists(source):
        doc = _load_json(source)
        if "table" in doc:
            _check_keys(doc, {"order", "table"}, "group file")
            table = _int_lists(doc["table"], "group table", 2)
            if "order" in doc and _int(doc["order"], "order") != len(table):
                raise SchemaError("declared order differs from the table size")
            try:
                return FiniteGroup(table, name=os.path.basename(source))
            except BadParametersError as exc:
                raise SchemaError(f"invalid group table: {exc}") from exc
        if "generators" in doc:
            _check_keys(doc, {"degree", "generators"}, "group file")
            gens = [tuple(p) for p in
                    _int_lists(doc["generators"], "permutations", 2)]
            if "degree" in doc and any(len(p) != _int(doc["degree"], "degree")
                                       for p in gens):
                raise SchemaError("permutation length differs from declared degree")
            try:
                return FiniteGroup.from_permutations(gens,
                                                     name=os.path.basename(source))
            except BadParametersError as exc:
                raise SchemaError(f"invalid permutations: {exc}") from exc
        raise SchemaError("group file needs either 'table' or 'generators'")
    try:
        return builtin_group(source)
    except BadParametersError:
        raise SchemaError(
            f"{source!r} is neither a file nor a builtin group "
            f"(builtins: {', '.join(builtin_group_names())})")


def load_family(source: str, group: FiniteGroup) -> Family:
    if source in FAMILY_SHORTHANDS:
        if source == "trivial-only":
            return trivial_family(group)
        if source == "full":
            return full_family(group)
        return cyclic_family(group)
    if not os.path.exists(source):
        raise SchemaError(f"{source!r} is neither a family file nor one of "
                          f"{FAMILY_SHORTHANDS}")
    doc = _load_json(source)
    _check_keys(doc, {"subgroups", "close_conjugation", "close_subgroups"},
                "family file")
    if "subgroups" not in doc:
        raise SchemaError("family file needs 'subgroups'")
    subs = []
    for members in _int_lists(doc["subgroups"], "subgroups", 2):
        try:
            subs.append(group.subgroup(members))
        except BadParametersError as exc:
            raise SchemaError(f"invalid subgroup {members}: {exc}") from exc
    fam = Family(group, subs)
    conj = _bool(doc.get("close_conjugation", False), "close_conjugation")
    down = _bool(doc.get("close_subgroups", False), "close_subgroups")
    return family_close(fam, under_conjugation=conj, under_subgroups=down)


_MODULE_NAME = re.compile(r"^z(\d*)-trivial$")


def load_module(source: str, group: FiniteGroup, cap: int) -> GModule:
    """The module a file or name gives.  A file's carrier of n generators
    is refused with a size-limit error when n^2, the entry count of the
    dense Smith form its invariants take, exceeds cap; that is decided
    before the carrier is built."""
    if os.path.exists(source):
        doc = _load_json(source)
        _check_keys(doc, {"rank", "torsion", "action"}, "module file")
        rank = _int(doc.get("rank", 0), "rank")
        torsion = _int_lists(doc.get("torsion", []), "torsion")
        if rank < 0 or any(d < 2 for d in torsion):
            raise SchemaError("rank must be >= 0 and torsion entries >= 2")
        n = rank + len(torsion)
        if n * n > cap:
            raise SizeLimitError(n * n, cap)
        try:
            carrier = FgAbGroup.from_invariants(rank, torsion)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        action = doc.get("action")
        if action is None:
            return GModule.trivial(group, carrier)
        if not isinstance(action, dict):
            raise SchemaError("module action must be a JSON object")
        _check_keys(action, {"generators", "matrices"}, "module action")
        gens = _int_lists(action.get("generators"), "action generators")
        mats = _int_lists(action.get("matrices"), "action matrices", 3)
        try:
            return GModule.from_generator_action(
                group, carrier, gens, [IntMatrix.from_rows(m) for m in mats])
        except (BadParametersError, ValueError) as exc:
            raise SchemaError(f"invalid module action: {exc}") from exc
    match = _MODULE_NAME.match(source)
    if match:
        if match.group(1):
            try:
                n = int(match.group(1))
            except ValueError as exc:   # past the interpreter's integer digit limit
                raise SchemaError(f"torsion modulus: {exc}") from exc
            if n < 2:
                raise SchemaError("torsion modulus must be >= 2")
            return GModule.trivial(group,
                                   FgAbGroup(1, IntMatrix.from_rows([[n]])))
        return GModule.trivial(group, FgAbGroup.free(1))
    if source == "z-sign":
        signs = sign_modules(group)
        if not signs:
            raise SchemaError("group admits no sign action")
        return signs[0]
    raise SchemaError(
        f"{source!r} is neither a module file nor one of z-trivial, zN-trivial, z-sign")


def parse_degrees(source: str, cap: int) -> range:
    """The degrees of '2' or '0..3'; a range of more than cap degrees is a
    size-limit error, raised before any degree is computed."""
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", source)
    if not m:
        raise SchemaError("degrees must look like '2' or '0..3'")
    try:
        lo = int(m.group(1))
        hi = int(m.group(2)) if m.group(2) else lo
    except ValueError as exc:   # past the interpreter's integer digit limit
        raise SchemaError(f"degrees: {exc}") from exc
    if hi < lo:
        raise SchemaError(f"degree range {source!r} is empty")
    if hi - lo + 1 > cap:
        raise SizeLimitError(hi - lo + 1, cap)
    return range(lo, hi + 1)


def _emit(doc: dict, output: str | None):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _at(degree: int, group: FgAbGroup) -> dict:
    """A computed group's JSON, with the degree it sits in."""
    return {"degree": degree, **group.to_json()}


def _is_trivial_z(module: GModule) -> bool:
    if module.carrier.normal_form != (1, ()):
        return False
    ident = IntMatrix.identity(module.carrier.ngens)
    return all((a - ident).is_zero() for a in module.actions)


def cmd_cohomology(args) -> int:
    group = load_group(args.group)
    family = load_family(args.family, group)
    module = load_module(args.module, group, args.size_cap)
    degrees = parse_degrees(args.degrees, args.size_cap)
    om = fixed_point_functor(module, family)
    cx = cochain_complex(om, args.size_cap)
    results = []
    checks = []
    failed = False
    for deg in degrees:
        res = cx.cohomology(deg)
        results.append(_at(deg, res))
        if not args.check:
            continue
        if deg == 0:
            method, direct = "limit", h0_limit(om)
        elif deg == 1 and family.contains_trivial():
            method, direct = "derivations", f_derivation_quotient(module, family)
        elif deg == 2 and _is_trivial_z(module) \
                and family.is_conjugation_closed() and family.is_subgroup_closed():
            method = "characters"
            direct = character_group(group.full_subgroup(), family).group
        else:
            continue
        ok = direct.normal_form == res.normal_form
        checks.append({"degree": deg, "method": method,
                       "expected": direct.to_json(), "passed": ok})
        failed |= not ok
    doc = {"command": "cohomology", "group": group.name,
           "family": [list(s.members) for s in family],
           "results": results}
    if args.check:
        doc["checks"] = checks
    _emit(doc, args.output)
    return 1 if failed else 0


def cmd_oracle(args) -> int:
    group = load_group(args.group)
    module = load_module(args.module, group, args.size_cap)
    degrees = parse_degrees(args.degrees, args.size_cap)
    bar = BarComplex(module, size_cap=args.size_cap)
    results = [_at(deg, bar.cohomology(deg)) for deg in degrees]
    _emit({"command": "oracle", "group": group.name, "results": results},
          args.output)
    return 0


def cmd_structures(args) -> int:
    group = load_group(args.group)
    family = load_family(args.family, group)
    module = load_module(args.module, group, args.size_cap)
    classes = enumerate_f_structures(module, family, cap=args.size_cap)
    split_index = next(i for i, c in enumerate(classes) if c.split)
    witnesses = []
    for c in classes:
        item = {"factor_set_class": [list(v) for v in c.factor_set_class],
                "split": c.split}
        if args.witnesses:
            item["lifts"] = [
                sorted([list(a), x] for (a, x) in c.witness.lifts[s.members])
                for s in family]
        witnesses.append(item)
    doc = {"command": "structures", "group": group.name,
           "family": [list(s.members) for s in family],
           "classes": len(classes), "split_index": split_index,
           "witnesses": witnesses}
    failed = False
    if args.check:
        om = fixed_point_functor(module, family)
        h2 = cochain_complex(om, args.size_cap).cohomology(2)
        doc["h2_order"] = h2.order()
        failed = h2.order() != len(classes)
        doc["check_passed"] = not failed
    _emit(doc, args.output)
    return 1 if failed else 0


def cmd_derivations(args) -> int:
    group = load_group(args.group)
    family = load_family(args.family, group)
    module = load_module(args.module, group, args.size_cap)
    quotient = f_derivation_quotient(module, family)
    doc = {"command": "derivations", "group": group.name,
           "family": [list(s.members) for s in family],
           "derivation_quotient": quotient.to_json()}
    if module.carrier.is_finite():
        doc["splitting_classes"] = len(
            splittings_mod_conjugacy(module, family, cap=args.size_cap))
    failed = False
    if args.check:
        om = fixed_point_functor(module, family)
        h1 = cochain_complex(om, args.size_cap).cohomology(1)
        doc["h1"] = _at(1, h1)
        failed = h1.normal_form != quotient.normal_form
        if "splitting_classes" in doc and h1.order() is not None:
            failed |= doc["splitting_classes"] != h1.order()
        doc["check_passed"] = not failed
    _emit(doc, args.output)
    return 1 if failed else 0


def cmd_characters(args) -> int:
    group = load_group(args.group)
    family = load_family(args.family, group)
    if args.subgroup is not None:
        try:
            members = [int(x) for x in args.subgroup.split(",")]
        except ValueError as exc:
            raise SchemaError(f"--subgroup {args.subgroup!r} is not a "
                              "comma-separated list of member indices") from exc
        p_sub = group.subgroup(members)
    else:
        p_sub = group.full_subgroup()
    cg = character_group(p_sub, family)
    doc = {"command": "characters", "group": group.name,
           "subgroup": list(p_sub.members),
           "family": [list(s.members) for s in family]}
    doc.update(cg.to_json())
    _emit(doc, args.output)
    return 0


def cmd_galois(args) -> int:
    # the complexes have a few blocks per degree; what set-up pays for is
    # the Galois group's (n/d)^2 multiplication table and the unit functor
    # validated over it
    if args.d >= 1 and args.n % args.d == 0 \
            and (table := (args.n // args.d) ** 2) > args.size_cap:
        raise SizeLimitError(table, args.size_cap)
    module = units_gmodule(args.p, args.n, args.d)
    family = load_family(args.family, module.group)
    if not family.contains_trivial():
        raise FamilyMissingTrivialError("family must contain the trivial subgroup")
    # one unit functor and one complex, read in every degree (galoisff)
    cx = CyclicComplex(fixed_point_functor(module, family), args.size_cap)
    h1, h2 = cx.cohomology(1), cx.cohomology(2)
    doc = {"command": "galois", "p": args.p, "n": args.n, "d": args.d,
           "unit_group_order": args.p ** args.n - 1,
           "family": [list(s.members) for s in family],
           "h1": _at(1, h1), "h2": _at(2, h2)}
    all_zero = h1.is_trivial() and h2.is_trivial()
    if family.is_conjugation_closed() and family.is_subgroup_closed():
        h3 = cx.cohomology(3)
        doc["h3"] = _at(3, h3)
        all_zero &= h3.is_trivial()
    doc["all_zero"] = all_zero
    _emit(doc, args.output)
    return 0 if all_zero or not args.check else 1


def cmd_family_close(args) -> int:
    group = load_group(args.group)
    family = load_family(args.family, group)
    closed = family_close(family, under_conjugation=args.conjugation,
                          under_subgroups=args.subgroups)
    doc = {"subgroups": [list(s.members) for s in closed],
           "close_conjugation": False, "close_subgroups": False}
    _emit(doc, args.output)
    return 0


def cmd_check(args) -> int:
    try:
        reports = run_suites(args.suite, args.threads)
    except KeyError:
        _fail("validation", f"unknown suite {args.suite!r}; "
              f"choose from {available_suites()}", 2)
    doc = {"command": "check", "suite": args.suite,
           "passed": all(r.passed for r in reports),
           "reports": [r.to_json() for r in reports]}
    _emit(doc, args.output)
    return 0 if doc["passed"] else 1


def _add_common(parser, suppress: bool):
    # the same flags are accepted before or after the subcommand; the
    # subcommand copies suppress their defaults so they never clobber a
    # value given up front
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--size-cap", type=int,
                        **(kw or {"default": DEFAULT_SIZE_CAP}),
                        help="abort enumerations beyond this many items")
    parser.add_argument("--threads", type=int, **(kw or {"default": 1}),
                        help="worker processes for check; no effect on other commands")
    parser.add_argument("--output", **(kw or {"default": None}),
                        help="write the JSON document here instead of stdout")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are JSON errors with exit 2."""

    def error(self, message):
        _fail("validation", message, 2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbitcoh",
        description="Exact cohomology of finite groups over orbit categories")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help, *required):
        """A subcommand with the common flags, then its required string flags."""
        p = sub.add_parser(name, help=help)
        _add_common(p, suppress=True)
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    p = add_parser("cohomology", "orbit-category cohomology of a module",
                   "--group", "--family", "--module", "--degrees")
    p.add_argument("--check", action="store_true",
                   help="cross-validate against the interpretation layers")
    p.set_defaults(fn=cmd_cohomology)

    p = add_parser("oracle", "ordinary group cohomology (bar complex)",
                   "--group", "--module", "--degrees")
    p.set_defaults(fn=cmd_oracle)

    p = add_parser("structures", "classify subgroup-lift structures",
                   "--group", "--family", "--module")
    p.add_argument("--check", action="store_true")
    p.add_argument("--witnesses", action="store_true",
                   help="include lift witnesses in the report")
    p.set_defaults(fn=cmd_structures)

    p = add_parser("derivations", "derivation quotient and splittings",
                   "--group", "--family", "--module")
    p.add_argument("--check", action="store_true")
    p.set_defaults(fn=cmd_derivations)

    p = add_parser("characters", "character group of a family",
                   "--group", "--family")
    p.add_argument("--subgroup", default=None,
                   help="comma-separated member indices (default: whole group)")
    p.set_defaults(fn=cmd_characters)

    p = add_parser("galois", "finite-field unit-module cohomology")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--family", default="full")
    p.add_argument("--check", action="store_true")
    p.set_defaults(fn=cmd_galois)

    p = add_parser("family-close", "close a family under the given ops",
                   "--group", "--family")
    p.add_argument("--conjugation", action="store_true")
    p.add_argument("--subgroups", action="store_true")
    p.set_defaults(fn=cmd_family_close)

    p = add_parser("check", "run a built-in verification suite")
    p.add_argument("suite", help=f"one of {', '.join(available_suites())}")
    p.set_defaults(fn=cmd_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads every argv with, built once per process:
    parsing leaves a parser as it was, and --help reads the width at print
    time."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.size_cap < 1:
        _fail("validation", f"--size-cap must be >= 1, got {args.size_cap}", 2)
    if args.threads < 1:
        _fail("validation", f"--threads must be >= 1, got {args.threads}", 2)
    try:
        return args.fn(args)
    except SchemaError as exc:
        _fail("validation", str(exc), 2)
    except (FamilyMissingTrivialError, BadParametersError) as exc:
        _fail("validation", str(exc), 2)
    except SizeLimitError as exc:
        _fail("size-limit", str(exc), 3)
    except OrbitcohError as exc:
        _fail("internal", str(exc), 1)


if __name__ == "__main__":
    raise SystemExit(main())
