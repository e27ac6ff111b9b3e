"""The benchmark's correctness gate as a test: one untimed pass of every
perfbench workload reproduces the output digests in perfbench/pins.json.

The gate runs in a subprocess, because `perfbench/run.py` imports tangletree
afresh, which would replace the modules this test process has loaded. The
subprocess writes no bytecode, so nothing is written under perfbench/.
"""

import json
import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

GATE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from harness import Pass
from run import PINS_PATH, check_pass, set_up
from workloads import WORKLOADS

workdir = sys.argv[2]
with open(PINS_PATH) as fh:
    pins = json.load(fh)
failures = []
for workload in sorted(WORKLOADS):
    for seed in (0, 1):
        p = Pass(outdir=tempfile.mkdtemp(dir=workdir))
        jobs = set_up(workload, seed, workdir, p)
        # seed 0 runs every job; seed 1 only those whose inputs it draws
        run = [job for job in jobs if seed == 0 or job.seeded]
        if not run:
            continue
        for job in run:
            p.run_job(job.name, job.run)
        check_pass(p, jobs, None, pins[workload], seed)
        failures += [[workload, seed, *f] for f in p.failures + p.known_failures]
print(json.dumps(failures))
"""


def test_one_pass_of_every_workload_matches_its_pins(tmp_path):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", GATE, PERFBENCH, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
