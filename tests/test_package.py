import importlib.util
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
