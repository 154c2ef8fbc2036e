"""orbitcoh benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sweep-z --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every job is one in-process call of the public CLI entry point
``orbitcoh.cli.main(argv)`` with ``--output`` in ``perfbench/_work`` and
``--threads 2``, issued in a closed loop by one client.  Each answer is
compared with the frozen one in ``pool.json``.

``--trace 0`` measures the end-to-end metrics: it cycles through the
workload's job list (one full pass at least) for ``--seconds``.  Times are
reported in seconds at a fixed reference speed: each is divided by the time
of a reference kernel (``reference.py``) taken before, during and after it,
which cancels the drift of a shared host's speed.  ``--trace 1`` runs the
job list once untraced and once with the outside-in span recorder
(``tracer.py``) and reports the per-layer metrics.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.  The lines before
it print every metric by name with its unit, plus context (nproc, sample
counts, reach per group, entry points that went missing).

See README.md for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads as wl
from reference import NOMINAL_SECONDS, SpeedProbe, reference_seconds

SRC = wl.ROOT / "src"
PACKAGE = SRC / "orbitcoh"
SETUP_RUNS = 16
SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import orbitcoh.cli\n"
    "orbitcoh.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n")
REACH_GROUPS = ("s3", "d4", "q8", "a4", "d6", "dic3", "c2xc2xc2")
REACH_LIMIT = 12        # stops the probe should the size cap ever stop binding
MODULES = ("cli", "checks", "groups", "orbitcat", "coeff", "bredon", "intlin",
           "interp", "galoisff", "errors")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_s.p50": "s", "peak_rss_mb": "MB",
    "reach_deg_sum": "count",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit", type=int, default=None,
                   help="run only the first N jobs of the draw (self-test)")
    return p.parse_args(argv)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def setup_sample() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import orbitcoh.cli and build
    its parser (interpreter start-up itself is not counted), and the same
    time at the reference speed."""
    ref = reference_seconds()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                          cwd=wl.ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"a fresh interpreter could not import orbitcoh.cli:\n{proc.stderr}")
    seconds = float(proc.stdout.strip())
    ref = (ref + reference_seconds()) / 2
    return seconds, seconds * NOMINAL_SECONDS / ref


def setup_samples(count: int) -> list[tuple[float, float]]:
    return [setup_sample() for _ in range(count)]


def import_cli():
    if not (PACKAGE / "__init__.py").is_file():
        fail(f"no package sources at {PACKAGE}")
    sys.path.insert(0, str(SRC))
    from orbitcoh import cli
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(PACKAGE)):
        fail(f"orbitcoh was imported from {cli.__file__}, not from {PACKAGE}")
    return cli


def run_pass(cli_module, argvs, jobs, out_path, recorder=None):
    """One pass over the job list: (wall seconds, job seconds, failures)."""
    times, failures = [], []
    start = time.perf_counter()
    for argv, job in zip(argvs, jobs):
        # look main up on every call so the traced pass reaches the wrapper
        seconds, code, error = wl.call_main(cli_module.main, argv)
        if recorder is not None:
            recorder.end_job()
        times.append(seconds)
        reason = wl.judge(code, error, out_path, job.expect)
        if reason is not None:
            failures.append((job.id, reason))
    return time.perf_counter() - start, times, failures


def reach() -> dict[str, int]:
    """Per group: the highest n whose degree-(n+1) chain layout of the full
    family with Z coefficients fits under the default size cap."""
    from orbitcoh.bredon import BredonComplex
    from orbitcoh.coeff import GModule, fixed_point_functor
    from orbitcoh.errors import SizeLimitError
    from orbitcoh.groups import builtin_group, full_family
    from orbitcoh.intlin import FgAbGroup

    out = {}
    for name in REACH_GROUPS:
        group = builtin_group(name)
        family = full_family(group)
        module = fixed_point_functor(GModule.trivial(group, FgAbGroup.free(1)),
                                     family)
        cx = BredonComplex(family, module)
        n = -1
        while n < REACH_LIMIT:
            try:
                cx.layout(n + 2)
            except SizeLimitError:
                break
            n += 1
        out[name] = n
    return out


def source_lines() -> dict[str, int]:
    def count(path):
        with open(path, "rb") as fh:
            return fh.read().count(b"\n")
    out = {f"{m}.lines": count(PACKAGE / f"{m}.py")
           if (PACKAGE / f"{m}.py").is_file() else 0 for m in MODULES}
    out["src.lines"] = sum(count(p) for p in PACKAGE.rglob("*.py"))
    return out


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_jobs(cli_module, argvs, jobs, out_path, seconds):
    """Cycle through the job list, one job at a time, until --seconds is up.

    The first pass always completes; after it, a job starts only while its
    time so far still fits in the remaining time.  The reference kernel is
    timed between consecutive jobs and during each job.  Returns, per job,
    its (raw, rescaled) seconds for every repetition, and the failures.
    """
    samples = [[] for _ in jobs]
    failures = []
    start = time.perf_counter()
    ref_before = reference_seconds()
    first_pass = True
    while True:
        for i, (argv, job) in enumerate(zip(argvs, jobs)):
            if not first_pass and (time.perf_counter() - start
                                   + min(raw for raw, _ in samples[i]) > seconds):
                return samples, failures
            # every job starts from the same collector state, whatever ran
            # before it in this seed's order
            gc.collect()
            with SpeedProbe() as probe:
                _, code, error = wl.call_main(cli_module.main, argv)
            ref_after = reference_seconds()
            ref = statistics.mean([ref_before, *probe.references, ref_after])
            samples[i].append((probe.seconds,
                               probe.seconds * NOMINAL_SECONDS / ref))
            ref_before = ref_after
            reason = wl.judge(code, error, out_path, job.expect)
            if reason is not None:
                failures.append((job.id, reason))
        first_pass = False


def end_to_end(args, cli_module, argvs, jobs, out_path, report):
    setup_sample()                      # warms the bytecode cache; not counted
    # half the set-up samples before the jobs and half after, so a slow
    # spell of the machine at one end of the run does not set the median
    setup = setup_samples(SETUP_RUNS // 2)
    samples, failures = timed_jobs(cli_module, argvs, jobs, out_path,
                                   args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += setup_samples(SETUP_RUNS - len(setup))
    reach_by_group = reach()
    # each job counts with the median of its repetitions, in seconds at the
    # reference speed (see reference.py); the raw figures are printed too
    per_job = [statistics.median(ref for _, ref in s) for s in samples]
    per_job_raw = [statistics.median(raw for raw, _ in s) for s in samples]
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "wall_s": sum(per_job),
        "job_s.p50": statistics.median(per_job),
        "peak_rss_mb": peak_rss_mb,
        "reach_deg_sum": sum(reach_by_group.values()),
    }
    counts = [len(s) for s in samples]
    report.append(f"repetitions per job {min(counts)}-{max(counts)}; "
                  f"job samples {len(per_job)}")
    report.append(f"raw (not rescaled) wall_s {sum(per_job_raw):.6g} s; "
                  f"job_s.p50 {statistics.median(per_job_raw):.6g} s; "
                  f"setup_s {statistics.median(raw for raw, _ in setup):.6g} s")
    report.append("time per job at the reference speed " + ", ".join(
        f"{job.id} {t:.4f}" for job, t in sorted(zip(jobs, per_job),
                                                  key=lambda jt: jt[0].id)))
    if len(per_job) > 1:
        # printed only where at least ten samples lie beyond it
        p90 = statistics.quantiles(per_job, n=10, method="inclusive")[8]
        beyond = sum(1 for t in per_job if t > p90)
        if beyond >= 10:
            report.append(f"job_s.p90 {p90:.6g} s ({beyond} samples beyond)")
    report.append(f"setup samples (raw) {[round(raw, 4) for raw, _ in setup]}")
    report.append(f"reach by group {reach_by_group}")
    return (metrics, {m: END_TO_END_UNITS[m] for m in metrics}, sum(counts),
            failures)


def per_layer(args, cli_module, argvs, jobs, out_path, report):
    import tracer

    cpu0 = cpu_seconds()
    plain_wall, _, failures = run_pass(cli_module, argvs, jobs, out_path)
    cpu = cpu_seconds() - cpu0
    rec = tracer.Recorder()
    rec.install()
    try:
        traced_wall, _, traced_failures = run_pass(cli_module, argvs, jobs,
                                                   out_path, rec)
    finally:
        rec.uninstall()
    virtual_wall = traced_wall - rec.excluded
    metrics = tracer.layer_metrics(rec)
    metrics["process.cpu_s"] = cpu
    metrics["unattributed_s"] = virtual_wall - tracer.root_time(rec)
    metrics["trace_overhead"] = traced_wall / plain_wall
    metrics.update(source_lines())
    spans_path = wl.WORK_DIR / f"spans-{args.workload}.json"
    rec.write(spans_path)
    report.append(f"untraced pass wall {plain_wall:.3f} s; traced {traced_wall:.3f} s")
    report.append(f"spans {len(rec.spans)} written to {spans_path.relative_to(wl.ROOT)}")
    if rec.missing:
        report.append(f"MISSING entry points: {rec.missing}")
    if rec.counter_errors:
        report.append(f"counter errors: {rec.counter_errors}")
    units = {m: _layer_unit(m) for m in metrics}
    return metrics, units, 2 * len(jobs), failures + traced_failures


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".lines"):
        return "lines"
    if name == "trace_overhead":
        return "ratio"
    if name == "bredon.max_entry_bits":
        return "bits"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not wl.POOL_PATH.is_file():
        fail(f"missing pool {wl.POOL_PATH}")
    cli_module = import_cli()
    jobs = wl.draw(wl.load_pool(), args.workload, args.seed)
    if args.limit is not None:
        jobs = jobs[:args.limit]
    wl.WORK_DIR.mkdir(exist_ok=True)
    out_path = wl.WORK_DIR / f"out-{os.getpid()}.json"
    argvs = wl.materialize(jobs, out_path)

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    report = [f"workload {args.workload}; seed {args.seed}; jobs per pass "
              f"{len(jobs)}; trace {args.trace}; nproc {nproc}; "
              f"python {sys.version.split()[0]}"]
    measure = per_layer if args.trace else end_to_end
    metrics, units, attempted, failures = measure(args, cli_module, argvs, jobs,
                                                  out_path, report)
    report.append(f"failed_frac {len(failures) / attempted:.6g} ratio "
                  f"({len(failures)} of {attempted})")
    for job_id, reason in failures[:20]:
        report.append(f"FAILED {job_id}: {reason}")
    for name, value in metrics.items():
        report.append(f"{name} {value:.6g} {units[name]}")
    print("\n".join(report))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
