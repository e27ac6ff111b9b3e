"""Timing, tracing and failure accounting for the perfbench workloads.

A workload is a list of jobs. Each job takes one input through the public
calls a `tangletree` user or CLI command makes, and every such call goes
through `Pass.call`, which counts the operation, records its failure and, in
a traced pass, keeps one span for it. Spans stay in memory until the run
ends. Per-layer numbers therefore come from outside the program.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field
from statistics import median

LAYERS = (
    "graph",
    "separations",
    "tangles",
    "tree_of_tangles",
    "families",
    "limits",
    "ends",
    "cli",
)

# Top-level keys the CLI stamps on every artifact. They describe the
# invocation (tool version, a hash of the arguments, which include file
# paths), not the computed result, so digests leave them out.
STAMP_KEYS = ("config_hash", "tool_version")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span in Tracer.spans
    job: str
    calls: int = 1


class Tracer:
    """Spans kept in memory; job spans are the parents of call spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []

    def begin(self, name: str, job: str, parent: int | None, calls: int = 1) -> int:
        self.spans.append(Span(name, self.clock(), 0.0, parent, job, calls))
        return len(self.spans) - 1

    def finish(self, index: int) -> None:
        self.spans[index].end = self.clock()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class JobEnded(Exception):
    """Stops a job once an operation raised; the outcome is already counted."""

    def __init__(self, outcome: str, exc: BaseException):
        super().__init__(outcome)
        self.outcome = outcome
        self.exc = exc


def digest(doc) -> str:
    """SHA-256 of the canonical JSON form of `doc`, without CLI stamps."""
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if k not in STAMP_KEYS}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def layer_of(op: str) -> str:
    return op.split(".", 1)[0]


@dataclass
class Pass:
    """Accounting for one pass over a workload's jobs."""

    tracer: Tracer | None = None
    ops: int = 0
    failures: list = field(default_factory=list)  # (job, op, reason)
    known_failures: list = field(default_factory=list)  # (job, op, reason)
    counts: Counter = field(default_factory=Counter)
    artifacts: dict = field(default_factory=dict)  # '<job>/<key>' -> (op, digest)
    outcomes: dict = field(default_factory=dict)  # job -> outcome
    job_times: list = field(default_factory=list)  # (job, wall s, cpu s)
    outdir: str = ""  # a fresh directory for the files this pass writes
    job: str = "setup"
    _job_span: int | None = None

    def call(self, op: str, fn, *args, expect=(), known=(), batch: int = 1, **kwargs):
        """Run one operation of the program, named `<module>.<function>`.

        `expect` lists the error types that are a correct outcome for this
        input; `known` lists those of a documented defect. Either ends the
        job. Any other exception is a failed operation.
        """
        self.ops += 1
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(op, self.job, self._job_span, batch)
        try:
            return fn(*args, **kwargs)
        except expect as exc:
            raise JobEnded(type(exc).__name__, exc) from exc
        except known as exc:
            self.known_failures.append((self.job, op, type(exc).__name__))
            raise JobEnded("known:" + type(exc).__name__, exc) from exc
        except Exception as exc:
            reason = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.failures.append((self.job, op, reason[:300]))
            raise JobEnded("failed", exc) from exc
        finally:
            if span is not None:
                self.tracer.finish(span)

    def require(self, ok: bool, op: str, what: str) -> None:
        """Count a failed operation when `op`'s output fails the gate."""
        if not ok:
            self.failures.append((self.job, op, "check: " + what))

    def artifact(self, op: str, key: str, doc) -> None:
        """Record the digest of an output of `op` as `<job>/<key>`."""
        self.artifacts[f"{self.job}/{key}"] = (op, digest(doc))

    def run_job(self, name: str, fn) -> None:
        self.job = name
        if self.tracer is not None:
            self._job_span = self.tracer.begin("job", name, None)
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            fn(self)
            self.outcomes[name] = "ok"
        except JobEnded as end:
            self.outcomes[name] = end.outcome
        finally:
            self.job_times.append((name, time.perf_counter() - wall, time.process_time() - cpu))
            if self.tracer is not None:
                self.tracer.finish(self._job_span)
            self._job_span = None
            self.job = "setup"


# -- statistics --------------------------------------------------------------


def typical_jobs(passes) -> dict:
    """Each job's (wall, cpu) reference seconds as its median over passes.

    The median keeps one pass in which the kernel and the job saw different
    interference out of the result.
    """
    runs: dict[str, list] = {}
    for job_times in passes:
        for name, wall, cpu in job_times:
            runs.setdefault(name, []).append((wall, cpu))
    return {
        name: (median([w for w, _ in times]), median([c for _, c in times]))
        for name, times in runs.items()
    }


def pass_metrics(jobs: dict) -> dict:
    """Pass wall and CPU time, median and slowest job, from typical_jobs."""
    walls = [w for w, _ in jobs.values()]
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(c for _, c in jobs.values()),
        "job_s.p50": median(walls),
        "job_s.max": max(walls),
        "jobs": len(walls),
    }


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span], wall: float, names) -> dict:
    """Per-call and per-layer busy time from one traced pass.

    Call spans are named `<module>.<function>`; job spans (`job`) have no
    module, and their self time is the benchmark's own work (checks, digests).
    """
    own = self_times(spans)
    calls: Counter = Counter()
    busy: Counter = Counter()
    for span, t in zip(spans, own):
        key = "bench" if span.name == "job" else span.name
        calls[key] += span.calls
        busy[key] += t
    out = {}
    for name in names:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
    for layer in LAYERS + ("bench",):
        total = sum((t for key, t in busy.items() if layer_of(key) == layer), 0.0)
        out[f"{layer}.busy_s"] = total
        out[f"{layer}.share"] = total / wall if wall > 0 else 0.0
    return out
