"""Outside-in span recorder for the traced run.

The program is not changed: this module replaces each layer's public entry
points, looked up by qualified name, with a wrapper that records a span
(name, parent span, start, end, counts).  A function that other modules
bind under their own name on import (``from .intlin import subquotient``),
or that a module keeps in a registry dict (``checks.SUITES``), is replaced
there as well, so every call site reaches the wrapper.  An entry point that
no longer exists is reported as missing, not fatal.

Spans stay in memory and are written out once, at the end.  Time spent in
the recorder's own bookkeeping is taken off the span clock, so it does not
inflate the self time of the enclosing layer; it still shows in the real
wall time of the traced pass (``trace_overhead``).

Only the main thread is traced: the program's worker threads (matrix
assembly under ``--threads``) call no wrapped entry point, and any call
from another thread passes straight through.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter

def _chain_count(rec, result):
    return {"chains": len(result)}


def _differential_counts(rec, result):
    """Shape, nonzeros and entry bit length of each differential, counted
    once per job however often the complex hands the same one out."""
    if id(result) in rec.job_objects:
        return {"new": False}
    rec.job_objects[id(result)] = result
    mat = result.matrix
    return {"new": True, "rows": mat.rows, "cols": mat.cols, "nnz": mat.nnz,
            "bits": max((abs(v).bit_length() for v in mat.entries.values()),
                        default=0)}


# qualified name -> (tag, counter).  The layer is the module name.  A tag
# groups entry points into one named per-layer metric; a counter turns the
# return value into counts.
ENTRY_POINTS = {
    "orbitcoh.cli.main": (None, None),
    "orbitcoh.cli.load_group": (None, None),
    "orbitcoh.cli.load_family": (None, None),
    "orbitcoh.cli.load_module": (None, None),

    "orbitcoh.checks.run_suites": (None, None),
    "orbitcoh.checks.oracle_suite": (None, None),
    "orbitcoh.checks.characters_suite": (None, None),
    "orbitcoh.checks.structures_suite": (None, None),
    "orbitcoh.checks.galois_suite": (None, None),
    "orbitcoh.checks.properties_suite": (None, None),

    "orbitcoh.groups.builtin_group": (None, None),
    "orbitcoh.groups.groups_up_to_order": (None, None),
    "orbitcoh.groups.FiniteGroup.from_permutations": (None, None),
    "orbitcoh.groups.FiniteGroup.subgroup": (None, None),
    "orbitcoh.groups.FiniteGroup.all_subgroups": (None, None),
    "orbitcoh.groups.Subgroup.as_group": (None, None),
    "orbitcoh.groups.Subgroup.left_coset_representatives": (None, None),
    "orbitcoh.groups.Family.is_conjugation_closed": (None, None),
    "orbitcoh.groups.Family.is_subgroup_closed": (None, None),
    "orbitcoh.groups.family_close": (None, None),
    "orbitcoh.groups.full_family": (None, None),
    "orbitcoh.groups.trivial_family": (None, None),
    "orbitcoh.groups.cyclic_family": (None, None),
    "orbitcoh.groups.closed_families": (None, None),
    "orbitcoh.groups.fixed_point_free_prime_power_element": (None, None),

    "orbitcoh.orbitcat.OrbitCategory.__init__": (None, None),
    "orbitcoh.orbitcat.OrbitCategory.chain_tuples": (None, _chain_count),
    "orbitcoh.orbitcat.OrbitCategory.chain_count": (None, None),
    "orbitcoh.orbitcat.morphisms": (None, None),
    "orbitcoh.orbitcat.fixed_coset_count": (None, None),

    "orbitcoh.coeff.fixed_point_functor": ("functor", None),
    "orbitcoh.coeff.constant_orbit_module": ("functor", None),
    "orbitcoh.coeff.restrict_module": ("functor", None),
    "orbitcoh.coeff.invariants": (None, None),
    "orbitcoh.coeff.sign_modules": (None, None),
    "orbitcoh.coeff.GModule.from_generator_action": (None, None),
    "orbitcoh.coeff.GModule.validate": ("validate", None),
    "orbitcoh.coeff.OrbitModule.validate": ("validate", None),

    "orbitcoh.bredon.BredonComplex.__init__": ("complex", None),
    "orbitcoh.bredon.BredonComplex.differential": ("assembly", _differential_counts),
    "orbitcoh.bredon.BredonComplex.cohomology": (None, None),
    "orbitcoh.bredon.BredonComplex.cohomology_presentation": (None, None),
    "orbitcoh.bredon.bredon_cohomology": (None, None),
    "orbitcoh.bredon.BarComplex.__init__": ("bar", None),
    "orbitcoh.bredon.BarComplex.differential": ("bar", None),
    "orbitcoh.bredon.BarComplex.cohomology": ("bar", None),
    "orbitcoh.bredon.BarComplex.cohomology_presentation": ("bar", None),
    "orbitcoh.bredon.bar_cohomology": ("bar", None),
    "orbitcoh.bredon.restriction_kernel_intersection": (None, None),

    "orbitcoh.intlin.invariant_factors": ("invariant_factors", None),
    "orbitcoh.intlin.ColumnReduction.__init__": ("column_reduction", None),
    "orbitcoh.intlin.SmithForm.__init__": ("smith_tracked", None),
    "orbitcoh.intlin.NormalFormMap.__init__": ("smith_tracked", None),
    "orbitcoh.intlin.smith_normal_form": ("smith_tracked", None),
    "orbitcoh.intlin.SubquotientPresentation.__init__": ("presentation", None),
    "orbitcoh.intlin.quotient_presentation": ("presentation", None),
    "orbitcoh.intlin.preimage_generators": ("presentation", None),
    "orbitcoh.intlin.kernel_of_hom": ("presentation", None),
    "orbitcoh.intlin.subquotient": ("subquotient", None),
    "orbitcoh.intlin.lattice_contains": ("lattice_contains", None),
    "orbitcoh.intlin.solve_exact": (None, None),
    "orbitcoh.intlin.kernel_basis": (None, None),

    "orbitcoh.interp.h0_limit": ("linear", None),
    "orbitcoh.interp.f_derivation_quotient": ("linear", None),
    "orbitcoh.interp.character_group": ("linear", None),
    "orbitcoh.interp.enumerate_f_structures": ("search", None),
    "orbitcoh.interp.splittings_mod_conjugacy": ("search", None),

    "orbitcoh.galoisff.units_gmodule": (None, None),
    "orbitcoh.galoisff.bredon_hilbert90": (None, None),
    "orbitcoh.galoisff.brauer_intersection": (None, None),
    "orbitcoh.galoisff.odd_vanishing_check": (None, None),
    "orbitcoh.galoisff.primary_parts": (None, None),
    "orbitcoh.galoisff.closed_unit_families": (None, None),
}


class Recorder:
    """Spans of the main thread: [name id, parent, start, end, counts]."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.tag_of: list[str | None] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.excluded = 0.0          # bookkeeping time taken off the span clock
        self.missing: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._restore: list[tuple] = []
        self._restore_items: list[tuple] = []
        self._main = threading.get_ident()
        # objects counted in the current job, kept alive so ids stay unique
        self.job_objects: dict[int, object] = {}

    # -- installing ---------------------------------------------------------

    def install(self):
        wrapper_of = {}                 # id(original function) -> its wrapper
        for qualname, (tag, counter) in ENTRY_POINTS.items():
            found = _resolve(qualname)
            if found is None:
                self.missing.append(qualname)
                continue
            owner, attr, raw = found
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if not callable(fn):
                self.missing.append(qualname)
                continue
            name_id = len(self.names)
            self.names.append(qualname)
            self.layer_of.append(qualname.split(".")[1])
            self.tag_of.append(tag)
            wrapped = self._wrap(fn, name_id, counter)
            self._replace(owner, attr, raw,
                          classmethod(wrapped) if is_classmethod else wrapped)
            if not isinstance(owner, type):
                wrapper_of[id(fn)] = wrapped
        self._rebind(wrapper_of)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        for mapping, key, value in self._restore_items:
            mapping[key] = value
        self._restore = []
        self._restore_items = []

    def _replace(self, owner, attr, old, new):
        self._restore.append((owner, attr, old))
        setattr(owner, attr, new)

    def _rebind(self, wrapper_of: dict):
        """Point every other module-level binding of a wrapped function, and
        every module-level registry dict holding one, at the wrapper."""
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("orbitcoh"):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapper_of:
                    self._replace(mod, attr, value, wrapper_of[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapper_of:
                            self._restore_items.append((value, key, item))
                            value[key] = wrapper_of[id(item)]

    def _wrap(self, fn, name_id, counter):
        rec = self

        def wrapper(*args, **kwargs):
            if threading.get_ident() != rec._main:
                return fn(*args, **kwargs)
            enter = perf_counter()
            span = [name_id, rec.stack[-1] if rec.stack else -1, 0.0, 0.0, None]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            start = perf_counter()
            rec.excluded += start - enter
            span[2] = start - rec.excluded
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span[3] = end - rec.excluded
                rec.stack.pop()
            if counter is not None:
                try:
                    span[4] = counter(rec, result)
                except Exception as exc:  # an API change must not stop the run
                    rec.counter_errors[rec.names[name_id]] = repr(exc)
            rec.excluded += perf_counter() - end
            return result

        return functools.wraps(fn)(wrapper)

    # -- per-job bookkeeping ------------------------------------------------

    def end_job(self):
        self.job_objects.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "missing": self.missing,
                       "counter_errors": self.counter_errors,
                       "fields": ["name", "parent", "start", "end", "counts"],
                       "spans": self.spans}, fh)


def _resolve(qualname: str):
    """(owner, attribute, raw attribute value) or None when it is gone."""
    parts = qualname.split(".")
    try:
        owner = importlib.import_module(".".join(parts[:2]))
    except ImportError:
        return None
    for part in parts[2:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                return owner, attr, klass.__dict__[attr]
        return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


# ---------------------------------------------------------------------------
# From spans to per-layer metrics

TIMED_TAGS = {
    "bar": "bredon.bar_s",
    "invariant_factors": "intlin.invariant_factors_s",
    "column_reduction": "intlin.column_reduction_s",
    "smith_tracked": "intlin.smith_tracked_s",
    "presentation": "intlin.presentation_s",
    "subquotient": "intlin.subquotient_s",
    "functor": "coeff.functor_s",
    "validate": "coeff.validate_s",
    "linear": "interp.linear_s",
    "search": "interp.search_s",
}
CALL_TAGS = {
    "invariant_factors": "intlin.invariant_factors_calls",
    "column_reduction": "intlin.column_reduction_calls",
    "smith_tracked": "intlin.smith_tracked_calls",
    "presentation": "intlin.presentation_calls",
    "lattice_contains": "intlin.lattice_contains_calls",
    "complex": "bredon.complexes",
}
SELF_LAYERS = ("orbitcat", "cli", "groups", "checks", "galoisff")


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer numbers of everything recorded so far.

    Self time is a span's duration minus the durations of its child spans.
    A tagged ``_s`` metric is the inclusive time of the outermost spans of
    that tag (a tagged span inside another of the same tag adds nothing),
    and a tag's ``_calls`` counts those outermost spans.
    """
    spans = rec.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[3] - span[2]
    inside: list[frozenset] = []       # tags of each span's ancestors
    out = {name: 0.0 for name in TIMED_TAGS.values()}
    out.update({name: 0 for name in CALL_TAGS.values()})
    out.update({f"{layer}.self_s": 0.0 for layer in SELF_LAYERS})
    out.update({"orbitcat.chains": 0, "bredon.differentials": 0,
                "bredon.assembly_s": 0.0, "bredon.diff_nnz": 0,
                "bredon.max_entry_bits": 0})
    for i, (name_id, parent, start, end, counts) in enumerate(spans):
        tag = rec.tag_of[name_id]
        layer = rec.layer_of[name_id]
        above = frozenset() if parent < 0 else \
            inside[parent] | {rec.tag_of[spans[parent][0]]}
        inside.append(above)
        dur = end - start
        self_time = dur - child_time[i]
        if layer in SELF_LAYERS:
            out[f"{layer}.self_s"] += self_time
        if tag is not None and tag not in above:
            if tag in TIMED_TAGS:
                out[TIMED_TAGS[tag]] += dur
            if tag in CALL_TAGS:
                out[CALL_TAGS[tag]] += 1
        if tag == "assembly":
            out["bredon.assembly_s"] += self_time
        if counts:
            out["orbitcat.chains"] += counts.get("chains", 0)
            if counts.get("new"):
                out["bredon.differentials"] += 1
                out["bredon.diff_nnz"] += counts["nnz"]
                out["bredon.max_entry_bits"] = max(out["bredon.max_entry_bits"],
                                                   counts["bits"])
    return out


def root_time(rec: Recorder) -> float:
    return sum(s[3] - s[2] for s in rec.spans if s[1] < 0)
