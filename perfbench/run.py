#!/usr/bin/env python3
"""Run one perfbench workload against the tangletree sources beside it.

    python3 perfbench/run.py --workload tangle_tot --seed 1 --seconds 35 --trace 0

With --trace 0 it reports the end-to-end metrics of untraced passes, with
times in reference seconds (see speed.py); with
--trace 1 it reports per-layer metrics from traced passes, with a span around
every call the benchmark makes into the program. It prints every metric with
its unit, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A record of the run (metadata, counts,
failures and, when traced, the spans) goes to .perfbench-out/ in the
checkout. Exit status: 0 when every check passed, 1 when a check failed,
2 when the program could not be imported or set up.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import types
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

from harness import (  # noqa: E402
    LAYERS,
    JobEnded,
    Pass,
    Tracer,
    digest,
    layer_metrics,
    layer_of,
    pass_metrics,
    typical_jobs,
)
from speed import REFERENCE_KERNEL_S, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "job_s.p50": "s",
    "job_s.max": "s",
    "peak_rss_mb": "MB",
}

# Calls into the program reported one by one in the traced run.
TRACED_CALLS = (
    "graph.Graph.from_data",
    "graph.disjoint_paths",
    "graph.minimum_separator",
    "separations.enumerate_separations",
    "separations.relation",
    "tangles.enumerate_tangles",
    "tangles.check_tangle",
    "tangles.distinguishable_pairs",
    "tree_of_tangles.build_tree_of_tangles",
    "tree_of_tangles.verify_tree_of_tangles",
    "tree_of_tangles.induce_tree_decomposition",
    "tree_of_tangles.verify_tree_decomposition",
    "tree_of_tangles.exhaustiveness_evidence",
    "families.generate_family",
    "families.canonical_layer_chains",
    "limits.limit_separator_growth",
    "limits.construct_interlaced",
    "limits.check_interlaced_pair",
    "limits.pseudo_tight_check",
    "ends.thick_end_pipeline",
    "ends.ray_packing",
    "cli.generate",
    "cli.tangles",
    "cli.tot",
    "cli.decompose",
    "cli.limits",
    "cli.interlace",
    "cli.ends",
    "cli.verify",
)

# Exact work counts taken from the program's outputs; each pass must repeat
# them exactly.
COUNTS = (
    "separations.enumerated",
    "tangles.found",
    "tree_of_tangles.members",
    "tree_of_tangles.td_nodes",
    "graph.paths_found",
    "cli.bytes_written",
    "cli.bytes_read",
    "cli.exit_nonzero",
)

PINS_PATH = os.path.join(HERE, "pins.json")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def per_layer_units() -> dict:
    units = {}
    for name in TRACED_CALLS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    for layer in LAYERS + ("bench",):
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.failed"] = "count"
    units.update({name: ("B" if "bytes" in name else "count") for name in COUNTS})
    units.update(
        {
            "trace.wall_s": "s",
            "trace.overhead_s": "s",
            "jobs": "count",
            "ops": "count",
            "ops_known_failed": "count",
            "ops_failed_ratio": "ratio",
        }
    )
    return units


def import_program() -> types.SimpleNamespace:
    """Import tangletree afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "tangletree" or m.startswith("tangletree.")]:
        del sys.modules[name]
    tt = importlib.import_module("tangletree")
    where = os.path.dirname(os.path.abspath(tt.__file__))
    if where != os.path.join(SRC, "tangletree"):
        raise ImportError(f"tangletree imported from {where}, not from {SRC}")
    return types.SimpleNamespace(
        tt=tt,
        cli=importlib.import_module("tangletree.cli"),
        errors=importlib.import_module("tangletree.errors"),
    )


def set_up(workload: str, seed: int, workdir: str, p: Pass):
    """Import the program and build the workload's inputs, writing input
    files to a new directory under `workdir`; returns the jobs."""
    inp = import_program()
    return WORKLOADS[workload](p, inp, seed, tempfile.mkdtemp(prefix="setup-", dir=workdir))


def run_pass(jobs, p: Pass, workdir: str, probe: SpeedProbe | None = None):
    """One pass over the jobs; returns its measured wall and CPU seconds.

    Files go to a new directory, removed after the pass: rewriting the same
    files pass after pass made ext4 flush them on close, which stalled the
    corpus pass by up to 1.5 s on a busy disk. With a probe running,
    p.job_times is converted to reference seconds and the measured job
    times are returned as well.
    """
    p.outdir = tempfile.mkdtemp(prefix="pass-", dir=workdir)
    gc.collect()
    if probe is not None:
        probe.sample()
    wall, cpu = time.perf_counter(), time.process_time()
    spans = []
    for job in jobs:
        start = time.perf_counter()
        p.run_job(job.name, job.run)
        spans.append((start, time.perf_counter()))
        if probe is not None:
            probe.sample()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    shutil.rmtree(p.outdir)
    raw = list(p.job_times)
    if probe is not None:
        p.job_times = []
        for (name, w, c), (start, end) in zip(raw, spans):
            ref, work = probe.reference(start, end)
            # the kernel samples inside the job are CPU work of the probe
            p.job_times.append((name, ref, max(0.0, c - (w - work)) * ref / work if work else 0.0))
    return wall, cpu, raw


def seeded_digest(p: Pass, jobs) -> str:
    """One digest over the outputs of the jobs whose inputs the seed draws."""
    seeded = {job.name for job in jobs if job.seeded}
    return digest({k: d for k, (_, d) in p.artifacts.items() if k.split("/", 1)[0] in seeded})


def check_pass(p: Pass, jobs, reference: Pass | None, pins: dict, seed: int) -> None:
    """Outputs and counts repeat across passes and match the pinned digests."""
    if reference is not None:
        p.require(p.artifacts == reference.artifacts, "bench.repeat", "artifact digests repeat")
        p.require(p.counts == reference.counts, "bench.repeat", "work counts repeat")
    for name, value in pins.get("jobs", {}).items():
        if name in p.artifacts:
            op, got = p.artifacts[name]
            p.require(got == value, op, f"digest of {name} matches its pin")
    seeds = pins.get("seeds", {})
    if str(seed) in seeds:
        p.require(seeded_digest(p, jobs) == seeds[str(seed)], "bench.pin", f"seed {seed} outputs match their pin")


def failure_metrics(p: Pass) -> dict:
    out = {f"{layer}.failed": 0 for layer in LAYERS + ("bench",)}
    for _, op, _ in p.failures + p.known_failures:
        out[f"{layer_of(op)}.failed"] = out.get(f"{layer_of(op)}.failed", 0) + 1
    failed = len(p.failures) + len(p.known_failures)
    out.update(
        {
            "jobs": len(p.job_times),
            "ops": p.ops,
            "ops_known_failed": len(p.known_failures),
            "ops_failed_ratio": failed / p.ops if p.ops else 0.0,
        }
    )
    return out


def fits(started: float, seconds: float, done: int, last: float, minimum: int) -> bool:
    return done < minimum or time.perf_counter() - started + last <= seconds


def measure_untraced(workload, seed, seconds, workdir, pins):
    """Set-up plus one pass, repeated: every pass starts from a fresh import
    and fresh inputs, so no state the program keeps carries over."""
    started = time.perf_counter()
    setups, passes, samples, reference, last = [], [], [], None, 0.0
    with SpeedProbe() as probe:
        while fits(started, seconds, len(passes), last, MIN_PASSES):
            p = Pass()
            probe.sample()
            start = time.perf_counter()
            jobs = set_up(workload, seed, workdir, p)
            setup_raw = time.perf_counter() - start
            wall, cpu, raw = run_pass(jobs, p, workdir, probe)
            setups.append(probe.reference(start, start + setup_raw)[0])
            check_pass(p, jobs, reference, pins, seed)
            reference = reference or p
            passes.append(p)
            del jobs
            samples.append({"setup_s": setup_raw, "wall_s": wall, "cpu_s": cpu, "raw_jobs": raw})
            last = setup_raw + wall
    metrics = pass_metrics(typical_jobs([p.job_times for p in passes]))
    del metrics["jobs"]
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "setups_ref_s": setups,
        "passes": samples,
        "ref_jobs": [p.job_times for p in passes],
        "kernel_samples": probe.samples,
    }
    return metrics, passes, record


def measure_traced(workload, seed, seconds, workdir, pins):
    """Alternate untraced and traced samples of set-up plus one pass."""
    started = time.perf_counter()
    plain, traced, samples, passes, reference = [], [], [], [], None
    while fits(started, seconds, len(traced), (plain[-1] + traced[-1]) if traced else 0.0, 1):
        for tracer in (None, Tracer()):
            p = Pass(tracer=tracer)
            t0 = time.perf_counter()
            jobs = set_up(workload, seed, workdir, p)
            run_pass(jobs, p, workdir)
            wall = time.perf_counter() - t0
            check_pass(p, jobs, reference, pins, seed)
            reference = reference or p
            passes.append(p)
            if tracer is None:
                plain.append(wall)
            else:
                traced.append(wall)
                samples.append((p, wall))
    per_sample = []
    for p, wall in samples:
        m = layer_metrics(p.tracer.spans, wall, TRACED_CALLS)
        m.update({name: p.counts[name] for name in COUNTS})
        m.update(failure_metrics(p))
        m["trace.wall_s"] = wall
        per_sample.append(m)
    metrics = {name: median([m[name] for m in per_sample]) for name in per_sample[0]}
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    return metrics, passes, {"untraced_s": plain, "traced_s": traced, "spans": samples[-1][0].tracer.dump()}


def run_metadata(args) -> dict:
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_rev": None,
        "src_digest": None,
    }
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT):
            meta["git_rev"] = top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    files = []
    for base, dirs, names in os.walk(os.path.join(SRC, "tangletree")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    files.append([os.path.relpath(os.path.join(base, name), SRC), fh.read().hex()])
    meta["src_digest"] = digest(files)[:16]
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    meta = run_metadata(args)

    with open(PINS_PATH) as fh:
        pins = json.load(fh).get(args.workload, {})
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    measure = measure_traced if args.trace else measure_untraced
    try:
        # Untimed: loads the standard-library modules tangletree uses, which
        # only the first import in a process pays for. Every timed set-up
        # then re-imports tangletree alone.
        import_program()
        metrics, passes, samples = measure(args.workload, args.seed, args.seconds, workdir, pins)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    except JobEnded as end:
        print(f"perfbench: set-up of {args.workload} failed: {end.exc!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    failures = [f for p in passes for f in p.failures]
    known = sorted({f for p in passes for f in p.known_failures})
    attempted = sum(p.ops for p in passes)
    record = {
        "meta": meta,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "counts": {name: passes[-1].counts[name] for name in sorted(passes[-1].counts)},
        "outcomes": passes[-1].outcomes,
        "failures": failures,
        "known_failures": known,
        "samples": samples,
    }
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# {json.dumps(meta, sort_keys=True)}")
    if not args.trace:
        kernels = [k for _, _, k in samples["kernel_samples"]]
        print(f"# measured pass wall_s {[round(x['wall_s'], 4) for x in samples['passes']]}")
        print(f"# reference kernel {median(kernels) * 1e3:.4f} ms median (reference {REFERENCE_KERNEL_S * 1e3} ms)")
    print(f"# {len(passes[-1].job_times)} jobs per pass, {attempted} operations attempted, {len(failures)} failed")
    for name, unit in units.items():
        print(f"{name:50s} {metrics[name]:>16.6f} {unit}")
    for job, op, reason in known:
        print(f"known defect: {job}: {op}: {reason}", file=sys.stderr)
    for job, op, reason in failures:
        print(f"FAILED: {job}: {op}: {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
