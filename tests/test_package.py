import ast
import importlib.util
import re
import sys
import textwrap
from pathlib import Path

import orbitcoh


def test_public_names_resolve_once():
    names = orbitcoh.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(orbitcoh, name), name
    # every name the package imports is exported, and nothing else is, so a
    # removed name leaves neither a dangling import nor a dangling export
    tree = ast.parse(Path(orbitcoh.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) == len(set(imported))
    assert set(imported) == set(names)


# Entry points that the benchmark's tracer still lists but the package
# removed on purpose: each degree is read off one complex instead.  The
# tracer reports them as missing, which is not fatal; the next change to the
# benchmark drops them from its ENTRY_POINTS, and then this set goes.
REMOVED_ENTRY_POINTS = {
    "orbitcoh.bredon.bredon_cohomology",
    "orbitcoh.bredon.bar_cohomology",
    "orbitcoh.galoisff.bredon_hilbert90",
    "orbitcoh.galoisff.brauer_intersection",
    "orbitcoh.galoisff.odd_vanishing_check",
    "orbitcoh.galoisff.closed_unit_families",
}


def test_benchmark_entry_points_resolve():
    # the traced benchmark wraps these by qualified name and only reports a
    # renamed one as missing, so a rename has to fail here
    tracer = _load_tracer()
    missing = set()
    for qualname in tracer.ENTRY_POINTS:
        found = tracer._resolve(qualname)
        fn = found[2] if found else None
        if isinstance(fn, classmethod):
            fn = fn.__func__
        if not callable(fn):
            missing.add(qualname)
    assert missing == REMOVED_ENTRY_POINTS


def test_imports_are_relative_or_standard_library():
    # the package keeps zero third-party dependencies
    package = Path(orbitcoh.__file__).resolve().parent
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


# Definitions that nothing in the package or the benchmark names, kept on
# purpose, with the reason for each.
UNCALLED_BY_DESIGN = {
    "SubquotientPresentation.representative":
        "BredonComplex.cohomology_presentation(n) is the representatives "
        "API: a cocycle for the i-th canonical generator; no command prints "
        "cocycles",
    "SubquotientPresentation.class_of":
        "the inverse of representative, the one way to name the class of a "
        "cocycle built by hand",
    "_Parser.error": "argparse reports usage errors through it",
}


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def unnamed_definitions(modules, others, entry_points):
    """Qualnames of the functions and classes in modules that nothing names.

    modules maps a dotted module name to its source, others holds the
    sources of code that may name them too.  A method is named only by an
    attribute access (x.m) or an entry point's qualname.  A function or
    class outside a class body is also named by a Name or by __all__.
    """
    definitions = []          # (module, qualname, is a method)
    names, attributes, exported = set(), set(), set()

    def define(body, module, prefix, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                qualname = prefix + node.name
                definitions.append((module, qualname, in_class))
                define(node.body, module, qualname + ".",
                       isinstance(node, ast.ClassDef))
            else:
                define(ast.iter_child_nodes(node), module, prefix, in_class)

    sources = list(modules.items())
    sources += [(None, src) for src in others]
    for module, src in sources:
        tree = ast.parse(src)
        if module is not None:
            define(tree.body, module, "", False)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                exported.update(c.value for c in ast.walk(node.value)
                                if isinstance(c, ast.Constant))
    unnamed = set()
    for module, qualname, is_method in definitions:
        name = qualname.rsplit(".", 1)[-1]
        if (re.fullmatch(r"__\w+__", name) or name in attributes
                or f"{module}.{qualname}" in entry_points):
            continue
        if not is_method and (name in names or name in exported):
            continue
        unnamed.add(qualname)
    return unnamed


def test_every_definition_is_named_outside_its_def():
    # one code path per concept: a function or class that neither the
    # package nor the benchmark names is reached by tests alone
    root = Path(__file__).resolve().parents[1]
    modules = {f"orbitcoh.{path.stem}": path.read_text(encoding="utf-8")
               for path in sorted((root / "src" / "orbitcoh").glob("*.py"))}
    others = [path.read_text(encoding="utf-8")
              for path in sorted((root / "perfbench").glob("*.py"))]
    unnamed = unnamed_definitions(modules, others, _load_tracer().ENTRY_POINTS)
    assert sorted(unnamed - set(UNCALLED_BY_DESIGN)) == []
    assert sorted(set(UNCALLED_BY_DESIGN) - unnamed) == []   # none stale


def test_a_string_does_not_name_a_method():
    source = textwrap.dedent("""
        class C:
            def by_string(self): pass
            def by_attribute(self): pass
            def by_entry_point(self): pass

        def use(obj):
            obj.by_attribute()
            return dict(name="by_string")

        use(C())
        """)
    unnamed = unnamed_definitions({"pkg.mod": source}, [],
                                  {"pkg.mod.C.by_entry_point"})
    assert unnamed == {"C.by_string"}


def test_every_complex_supplies_its_blocks_and_entries_alone():
    # _CochainComplex builds, caches and hands out every cochain group and
    # differential; a complex that defined them again would fork the caching
    from orbitcoh import bredon
    base = bredon._CochainComplex
    complexes = [c for c in vars(bredon).values()
                 if isinstance(c, type) and issubclass(c, base) and c is not base]
    assert len(complexes) >= 3
    for cls in complexes:
        own = set(vars(cls))
        assert {"_values", "_entries"} <= own, cls.__name__
        assert not {"_blocks", "cochain_group", "differential"} & own, cls.__name__
    # and the caches are made in the scaffold's constructor alone
    made = [(cls.name, fn.name)
            for cls in ast.parse(Path(bredon.__file__).read_text(encoding="utf-8")).body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and node.attr in ("_blocks_at", "_diffs")]
    assert made == [("_CochainComplex", "__init__")] * 2
