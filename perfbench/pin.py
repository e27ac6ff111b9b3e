#!/usr/bin/env python3
"""Rewrite perfbench/pins.json from the tangletree sources beside it.

    python3 perfbench/pin.py

Runs set-up and one untimed pass of every workload and stores the digest of
each output of the jobs whose inputs do not depend on the seed, plus, for
each seed in PINNED_SEEDS, one digest over the outputs of the seed-dependent
jobs. Run it only at a commit whose outputs are known to be right: the pins are
the reference every later run is checked against.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import PINS_PATH, ROOT, seeded_digest, set_up
from harness import Pass
from workloads import WORKLOADS

PINNED_SEEDS = range(64)


def one_pass(workload: str, seed: int, only_seeded: bool):
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        p = Pass(outdir=workdir)
        jobs = set_up(workload, seed, workdir, p)
        for job in jobs:
            if job.seeded or not only_seeded:
                p.run_job(job.name, job.run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if p.failures:
        sys.exit(f"{workload} seed {seed}: failures, nothing pinned: {p.failures}")
    return p, jobs


def main() -> None:
    pins = {}
    for workload in sorted(WORKLOADS):
        p, jobs = one_pass(workload, PINNED_SEEDS[0], only_seeded=False)
        fixed = {job.name for job in jobs if job.pinned and not job.seeded}
        entry = {
            "jobs": {k: d for k, (_, d) in sorted(p.artifacts.items()) if k.split("/", 1)[0] in fixed}
        }
        if any(job.seeded for job in jobs):
            entry["seeds"] = {
                str(seed): seeded_digest(*one_pass(workload, seed, only_seeded=True))
                for seed in PINNED_SEEDS
            }
        pins[workload] = entry
        print(f"{workload}: {len(entry['jobs'])} job outputs, {len(entry.get('seeds', {}))} seeds", file=sys.stderr)
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
