import ast
import importlib.util
import re
import sys
from pathlib import Path

import orbitcoh


def test_public_names_resolve_once():
    names = orbitcoh.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(orbitcoh, name), name


def test_benchmark_entry_points_resolve():
    # the traced benchmark wraps these by qualified name and only reports a
    # renamed one as missing, so a rename has to fail here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for qualname in tracer.ENTRY_POINTS:
        found = tracer._resolve(qualname)
        fn = found[2] if found else None
        if isinstance(fn, classmethod):
            fn = fn.__func__
        if not callable(fn):
            missing.append(qualname)
    assert not missing


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


# BredonComplex.cohomology_presentation(n) is the representatives API:
# representative(i) is a cocycle for the i-th canonical generator, and
# class_of, its inverse, reads the canonical coordinates of any cocycle, the
# one way to name the class of a cocycle built by hand.  No command prints
# cocycles, so neither has a caller in the package.
UNCALLED_BY_DESIGN = {"class_of", "representative"}


def test_every_definition_is_named_outside_its_def():
    # one code path per concept: a function or class that neither the
    # package nor the benchmark names is reached by tests alone.  A method
    # is reached only through an attribute or a string, so a local variable
    # of the same name does not count for it
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "orbitcoh").glob("*.py"))
    defined, methods, names, attributes = set(), set(), set(), set()
    for path in package + sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                attributes.update(node.value.split("."))  # ENTRY_POINTS, __all__
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)) and path in package:
                defined.add(node.name)
                if isinstance(node, ast.ClassDef):
                    methods.update(
                        item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)))
    unnamed = {name for name in defined - attributes - UNCALLED_BY_DESIGN
               if name in methods or name not in names}
    assert sorted(n for n in unnamed if not re.fullmatch(r"__\w+__", n)) == []
