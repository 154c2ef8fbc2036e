"""Rebuild ``pool.json``: every pool job with its frozen answer.

    python3 perfbench/freeze.py

Runs every job of every pool once through ``orbitcoh.cli.main`` and keeps
the normal forms it prints.  Before an answer is frozen it is checked
against an independent route wherever one exists:

* ``cohomology ... --check`` jobs: every check entry (limit, derivations,
  characters) must pass;
* deep ``cohomology`` jobs without ``--check``: the same job re-run with
  ``--check`` must pass its checks and agree;
* ``oracle`` jobs: the orbit route with the trivial-only family must give
  the same groups;
* ``galois`` jobs: ``all_zero`` must hold (and ``--check`` must exit 0);
* suites: ``passed`` must hold.

Freezing takes a few minutes; it is needed only when the pool changes.
"""

from __future__ import annotations

import json
import sys

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))

from orbitcoh import cli  # noqa: E402
from orbitcoh.groups import (  # noqa: E402
    builtin_group,
    closed_families,
    cyclic_family,
)

OUT = wl.WORK_DIR / "freeze-out.json"

SWEEP_GROUPS = ("c1", "c2", "c3", "c4", "c2xc2", "c5", "c6", "s3", "c7", "c8",
                "c4xc2", "c2xc2xc2", "d4", "q8")
SWEEP_JOBS = 100
DEEP_ORDER8 = ("d4", "q8", "c4xc2")
DEEP_ORDER12 = ("a4", "d6", "dic3", "c2xc2xc2")
GALOIS_LARGE = ((2, 8),)
GALOIS_SMALL = ((2, 4), (2, 5), (3, 4), (3, 5))
PAIR_GROUPS = ("s3", "c6")
PAIR_MODULES = ("z2-trivial", "z3-trivial", "z4-trivial")
SUITES = ("oracle", "structures", "galois", "properties")


def run(argv, family=None):
    """Run one job and return its parsed document (exit 0 required)."""
    job = wl.Job("freeze", argv, family, None)
    full = wl.materialize([job], OUT)[0]
    seconds, code, error = wl.call_main(cli.main, full)
    if error is not None or code != 0:
        raise SystemExit(f"freeze: {argv} ended with code {code}: {error}")
    with open(OUT, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not wl.verdicts_pass(doc):
        raise SystemExit(f"freeze: a check failed in {argv}")
    return doc


def frozen(argv, family=None, confirm=None):
    """A pool job with its answer; confirm(doc) cross-checks the answer."""
    doc = run(argv, family)
    if confirm is not None:
        confirm(doc)
    job = {"argv": argv, "expect": wl.digest(doc)}
    if family is not None:
        job["family"] = family
    return job


def require(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"freeze: cross-check failed: {what}")


def members(family):
    return [list(s.members) for s in family]


def cohomology_argv(group, family, module, degrees, check=False):
    argv = ["cohomology", "--group", group, "--family", family,
            "--module", module, "--degrees", degrees]
    return argv + ["--check"] if check else argv


def checks_cover(doc, degrees):
    require(sorted(c["degree"] for c in doc["checks"]) == degrees,
            f"checks cover degrees {degrees} in {doc['group']}")


def sweep_pool():
    """Closed families of the shipped groups of order <= 8.

    Each group is one slot; its variants are sorted by family size, so the
    systematic draw spreads over small and large families alike.  A slot
    takes its share of SWEEP_JOBS in proportion to its family count, and at
    least one, so every group appears in every draw.
    """
    fams = {}
    for name in SWEEP_GROUPS:
        group = builtin_group(name)
        fams[name] = sorted((members(f) for f in closed_families(group)),
                            key=lambda f: (len(f), f))
    total = sum(len(f) for f in fams.values())
    take = {n: max(1, round(SWEEP_JOBS * len(f) / total))
            for n, f in fams.items()}
    biggest = max(fams, key=lambda n: len(fams[n]))
    take[biggest] += SWEEP_JOBS - sum(take.values())
    slots = []
    for name in SWEEP_GROUPS:
        variants = []
        for fam in fams[name]:
            def confirm(doc):
                # degree 1 is checked only when the family holds the trivial group
                checks_cover(doc, [0, 1, 2] if [0] in fam else [0, 2])
            argv = cohomology_argv(name, wl.FAMILY_PLACEHOLDER, "z-trivial",
                                   "0..2", check=True)
            variants.append([frozen(argv, fam, confirm)])
        slots.append({"name": name, "take": take[name], "variants": variants})
        print(f"sweep-z {name}: {len(variants)} families, take {take[name]}",
              flush=True)
    return {"shuffle": True, "slots": slots}


def agrees_with_checked_run(argv, family=None):
    def confirm(doc):
        checked = run(argv + ["--check"], family)
        require(checked["results"] == doc["results"],
                f"--check run agrees for {argv}")
        require(len(checked["checks"]) > 0, f"some route checks {argv}")
    return confirm


def agrees_with_trivial_family(group, module, degrees):
    def confirm(doc):
        orbit = run(cohomology_argv(group, "trivial-only", module, degrees))
        require(orbit["results"] == doc["results"],
                f"oracle equals the trivial-only route for {group}/{module}")
    return confirm


def deep_z_pool():
    slots = []
    for name in DEEP_ORDER8:
        argv = cohomology_argv(name, "cyclic", "z-trivial", "0..3")
        slots.append({"name": f"{name}-cyclic", "take": 1, "variants": [
            [frozen(argv, confirm=agrees_with_checked_run(argv))]]})
    for name in DEEP_ORDER12:
        group = builtin_group(name)
        proper = [list(s.members) for s in group.all_subgroups()
                  if s.size < group.order]
        cyclic = members(cyclic_family(group))
        require(list(range(group.order)) not in cyclic,
                f"the cyclic family of {name} leaves out the whole group")
        variants = []
        for fam in (cyclic, proper):
            argv = cohomology_argv(name, wl.FAMILY_PLACEHOLDER, "z-trivial", "0..2")
            variants.append([frozen(argv, fam,
                                    agrees_with_checked_run(argv, fam))])
        # both families: with one drawn per group, which d6 family was drawn
        # decided the median job, and job_s.p50 moved by 30% from seed to seed
        slots.append({"name": name, "take": 2, "variants": variants})
    argv = ["oracle", "--group", "s3", "--module", "z-trivial", "--degrees", "0..4"]
    slots.append({"name": "s3-oracle", "take": 1, "variants": [
        [frozen(argv, confirm=agrees_with_trivial_family("s3", "z-trivial", "0..4"))]]})
    print("deep-z frozen", flush=True)
    return {"shuffle": True, "slots": slots}


def galois_job(p, n):
    argv = ["galois", "--p", str(p), "--n", str(n), "--family", "trivial-only"]

    def confirm(doc):
        require(doc["all_zero"], f"galois p={p} n={n} vanishes")
        run(argv + ["--check"])
    return [frozen(argv, confirm=confirm)]


def deep_torsion_pool():
    slots = [
        {"name": "galois-large", "take": 1,
         "variants": [galois_job(p, n) for p, n in GALOIS_LARGE]},
        {"name": "galois-small", "take": 1,
         "variants": [galois_job(p, n) for p, n in GALOIS_SMALL]},
    ]
    for name in DEEP_ORDER8:
        variants = []
        for module in ("z2-trivial", "z4-trivial"):
            argv = cohomology_argv(name, "cyclic", module, "0..2")
            variants.append([frozen(argv, confirm=agrees_with_checked_run(argv))])
        slots.append({"name": f"{name}-cyclic", "take": 1, "variants": variants})
    for name in PAIR_GROUPS:
        variants = []
        for module in PAIR_MODULES:
            orbit = frozen(cohomology_argv(name, "trivial-only", module, "0..3"))
            bar = frozen(["oracle", "--group", name, "--module", module,
                          "--degrees", "0..3"])
            require(orbit["expect"]["results"] == bar["expect"]["results"],
                    f"trivial-only route equals the oracle for {name}/{module}")
            variants.append([orbit, bar])
        slots.append({"name": f"{name}-pair", "take": 1, "variants": variants})
    print("deep-torsion frozen", flush=True)
    return {"shuffle": True, "slots": slots}


def suites_pool():
    slots = []
    for suite in SUITES:
        def confirm(doc):
            require(doc["passed"], f"suite {doc['suite']} passes")
        slots.append({"name": suite, "take": 1, "variants": [
            [frozen(["check", suite], confirm=confirm)]]})
    print("suites frozen", flush=True)
    return {"shuffle": False, "slots": slots}


def write_pool(pool: dict, path):
    """JSON with one variant per line, so a re-freeze diffs readably."""
    def joined(items, indent):
        return (",\n" + indent).join(items)

    def slot_text(slot):
        variants = [json.dumps(v, separators=(",", ":"), sort_keys=True)
                    for v in slot["variants"]]
        return (f'{{"name": {json.dumps(slot["name"])}, "take": {slot["take"]}, '
                f'"variants": [\n    {joined(variants, "    ")}]}}')

    workloads = [
        f'{json.dumps(name)}: {{"shuffle": {json.dumps(spec["shuffle"])}, '
        f'"slots": [\n  {joined([slot_text(s) for s in spec["slots"]], "  ")}]}}'
        for name, spec in pool.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{" + joined(workloads, "") + "}\n")


def main():
    pool = {
        "sweep-z": sweep_pool(),
        "deep-z": deep_z_pool(),
        "deep-torsion": deep_torsion_pool(),
        "suites": suites_pool(),
    }
    write_pool(pool, wl.POOL_PATH)
    print(f"wrote {wl.POOL_PATH}")


if __name__ == "__main__":
    main()
