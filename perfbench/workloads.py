"""Workload pools, seeded draws, and the correctness gate for each job.

A pool (``pool.json``) lists, per workload, *slots*.  A slot holds
*variants* (each a list of one or more CLI jobs with their frozen answer)
and says how many variants a draw takes from it.  The draw for a seed takes
that many variants from every slot by systematic sampling over the slot's
variant order (a random start, a fixed step), so every seed covers each
slot's range evenly and the amount of work per draw stays nearly constant.
The program only ever sees the generated argv and family files.
"""

from __future__ import annotations

import json
import math
import random
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_PATH = HERE / "pool.json"
WORK_DIR = HERE / "_work"
WORKLOADS = ("sweep-z", "deep-z", "deep-torsion", "suites")
FAMILY_PLACEHOLDER = "@family"
COMMON_FLAGS = ("--threads", "2")


class Job(NamedTuple):
    id: str
    argv: list[str]
    family: list[list[int]] | None     # subgroups for the @family file
    expect: dict | None                # frozen digest; None while freezing


def load_pool(path: Path = POOL_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def systematic_sample(rng: random.Random, n: int, k: int) -> list[int]:
    """k indices out of range(n): a random start, then every n/k-th."""
    if not 1 <= k <= n:
        raise ValueError(f"cannot take {k} of {n}")
    step = n / k
    start = rng.random() * step
    return [min(n - 1, math.floor(start + i * step)) for i in range(k)]


def draw(pool: dict, workload: str, seed: int) -> list[Job]:
    """The job list of one workload for one seed (same seed, same list)."""
    spec = pool[workload]
    rng = random.Random(f"{workload}/{seed}")
    picked = []
    for slot in spec["slots"]:
        variants = slot["variants"]
        for vi in systematic_sample(rng, len(variants), slot["take"]):
            for ji, job in enumerate(variants[vi]):
                picked.append(Job(f"{slot['name']}.{vi}.{ji}", job["argv"],
                                  job.get("family"), job["expect"]))
    if spec.get("shuffle", True):
        # pairs stay adjacent only by chance; each job is checked on its own
        rng.shuffle(picked)
    return picked


def materialize(jobs: list[Job], out_path: Path) -> list[list[str]]:
    """Write family files and return the full argv of every job."""
    WORK_DIR.mkdir(exist_ok=True)
    argvs = []
    for job in jobs:
        argv = list(job.argv)
        if job.family is not None:
            fam_path = WORK_DIR / f"family-{job.id}.json"
            with open(fam_path, "w", encoding="utf-8") as fh:
                json.dump({"subgroups": job.family}, fh)
            argv = [str(fam_path) if a == FAMILY_PLACEHOLDER else a for a in argv]
        argvs.append(argv + ["--output", str(out_path), *COMMON_FLAGS])
    return argvs


def _nf(doc: dict) -> list:
    return [doc["rank"], doc["torsion"]]


def digest(doc: dict) -> dict:
    """The part of a CLI document that must never change: normal forms,
    check outcomes and suite verdicts (suite per-check timings excluded)."""
    cmd = doc["command"]
    if cmd in ("cohomology", "oracle"):
        out = {"results": [[r["degree"], r["rank"], r["torsion"]]
                           for r in doc["results"]]}
        if "checks" in doc:
            out["checks"] = [[c["degree"], c["method"], _nf(c["expected"]),
                              c["passed"]] for c in doc["checks"]]
        return out
    if cmd == "galois":
        out = {k: _nf(doc[k]) for k in ("h1", "h2", "h3") if k in doc}
        out["all_zero"] = doc["all_zero"]
        return out
    if cmd == "check":
        return {"passed": doc["passed"],
                "checks": [[r["suite"], c["name"], c["passed"], c["detail"]]
                           for r in doc["reports"] for c in r["checks"]]}
    raise ValueError(f"no digest for command {cmd!r}")


def verdicts_pass(doc: dict) -> bool:
    """False when any checks[].passed or passed field in the document is false."""
    if doc.get("passed") is False:
        return False
    if any(c.get("passed") is False for c in doc.get("checks", [])):
        return False
    return all(r.get("passed") is not False and
               all(c.get("passed") is not False for c in r.get("checks", []))
               for r in doc.get("reports", []))


def call_main(main, argv: list[str]) -> tuple[float, int | None, str | None]:
    """Run main(argv) in-process: (seconds, exit code, error text)."""
    start = time.perf_counter()
    try:
        code = main(argv)
        error = None
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        error = None
    except Exception:  # a job boundary: record it and keep the loop running
        code = None
        error = traceback.format_exc(limit=3)
    return time.perf_counter() - start, code, error


def judge(code, error, out_path: Path, expect: dict | None) -> str | None:
    """None when the job succeeded, else the reason it failed.

    The output file is removed in every case, so the next job is never
    judged on a document this one left behind.
    """
    try:
        with open(out_path, "r", encoding="utf-8") as fh:
            doc, unreadable = json.load(fh), None
    except (OSError, json.JSONDecodeError) as exc:
        doc, unreadable = None, f"unreadable output: {exc}"
    finally:
        out_path.unlink(missing_ok=True)
    if error is not None:
        return "exception: " + error.strip().splitlines()[-1]
    if code != 0:
        return f"exit code {code}"
    if unreadable:
        return unreadable
    try:
        if not verdicts_pass(doc):
            return "a check in the output failed"
        got = digest(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return f"output lacks expected fields: {exc!r}"
    if expect is not None and got != expect:
        return f"answer differs from the frozen one: {got} != {expect}"
    return None
