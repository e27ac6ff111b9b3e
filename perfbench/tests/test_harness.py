"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import (  # noqa: E402
    Pass,
    Span,
    Tracer,
    digest,
    layer_metrics,
    pass_metrics,
    self_times,
    typical_jobs,
)
from speed import REFERENCE_KERNEL_S, SpeedProbe  # noqa: E402
from run import check_pass, failure_metrics, seeded_digest  # noqa: E402
from workloads import Job, menger_ok  # noqa: E402


class ExpectedError(Exception):
    pass


def test_typical_job_is_its_median_pass():
    passes = [
        [("a", 1.0, 0.9), ("b", 5.0, 4.0)],
        [("a", 1.4, 1.3), ("b", 4.0, 3.9)],
        [("a", 1.2, 1.1), ("b", 9.0, 3.8)],
    ]
    assert typical_jobs(passes) == {"a": (1.2, 1.1), "b": (5.0, 3.9)}
    assert typical_jobs(passes[:2])["a"] == pytest.approx((1.2, 1.1))


def test_reference_seconds_leave_out_kernel_samples():
    probe = SpeedProbe()
    k = REFERENCE_KERNEL_S
    # before the job, at full speed; two samples inside; after, at half speed
    probe.samples = [(0.0, 1.0, k), (3.0, 4.0, k), (6.0, 7.0, 2 * k), (9.0, 9.5, 2 * k)]
    ref, work = probe.reference(1.0, 9.0)
    # stretches [1,3] at k|k, [4,6] at k|2k, [7,9] at 2k|2k
    assert work == pytest.approx(6.0)
    assert ref == pytest.approx(2.0 + 2.0 * 2 / 3 + 1.0)
    with pytest.raises(ValueError):
        probe.reference(0.5, 9.0)


def test_probe_samples_from_the_alarm():
    with SpeedProbe(interval=0.01) as probe:
        probe.sample()
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
        probe.sample()
    assert len(probe.samples) > 2
    assert all(kernel > 0 for _, _, kernel in probe.samples)


def test_pass_metrics_median_and_slowest_job():
    jobs = {"a": (0.3, 0.2), "b": (0.1, 0.1), "c": (0.9, 0.8), "d": (0.2, 0.2)}
    m = pass_metrics(jobs)
    assert m["wall_s"] == pytest.approx(1.5)
    assert m["cpu_s"] == pytest.approx(1.3)
    assert m["job_s.p50"] == pytest.approx(0.25)
    assert m["job_s.max"] == 0.9
    assert m["jobs"] == 4
    assert pass_metrics({"a": (2.0, 0), "b": (1.0, 0), "c": (3.0, 0)})["job_s.p50"] == 2.0


def test_self_time_subtracts_children_once():
    spans = [
        Span("job", 0.0, 10.0, None, "j"),
        Span("tangles.enumerate_tangles", 1.0, 4.0, 0, "j"),
        Span("tangles.check_tangle", 3.0, 6.0, 0, "j"),  # overlaps the first child
        Span("cli.tot", 9.0, 12.0, 0, "j"),  # runs past its parent's end
        Span("job", 20.0, 21.0, None, "k"),
    ]
    own = self_times(spans)
    # children cover [1, 6] and [9, 10] of the parent: 6 of its 10 seconds
    assert own == pytest.approx([4.0, 3.0, 3.0, 3.0, 1.0])


def test_layer_metrics_shares_sum_to_at_most_the_wall():
    spans = [
        Span("job", 0.0, 10.0, None, "j"),
        Span("separations.relation", 0.5, 4.5, 0, "j", calls=1000),
        Span("cli.tot", 5.0, 9.0, 0, "j"),
        Span("graph.Graph.from_data", 10.0, 10.5, None, "setup"),
    ]
    m = layer_metrics(spans, 11.0, ("separations.relation", "cli.tot", "graph.disjoint_paths"))
    assert m["separations.relation.calls"] == 1000
    assert m["separations.relation.busy_s"] == pytest.approx(4.0)
    assert m["graph.disjoint_paths.calls"] == 0
    assert m["bench.busy_s"] == pytest.approx(2.0)
    assert m["graph.busy_s"] == pytest.approx(0.5)
    assert m["cli.share"] == pytest.approx(4.0 / 11.0)
    busy = sum(v for k, v in m.items() if k.count(".") == 1 and k.endswith(".busy_s"))
    assert busy == pytest.approx(10.5)
    assert busy <= 11.0


def test_tracer_records_parent_and_job():
    ticks = iter([1.0, 2.0, 3.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))
    p = Pass(tracer=tracer)
    p.run_job("j", lambda p: p.call("graph.disjoint_paths", lambda: []))
    job, call = tracer.spans
    assert (job.name, job.parent, job.start, job.end) == ("job", None, 1.0, 5.0)
    assert (call.name, call.parent, call.job, call.start, call.end) == ("graph.disjoint_paths", 0, "j", 2.0, 3.0)


def _raise(exc):
    raise exc


def test_unexpected_exception_is_a_failed_op():
    p = Pass()
    p.run_job("j", lambda p: p.call("tangles.enumerate_tangles", _raise, KeyError("x"), expect=(ExpectedError,)))
    assert p.ops == 1
    assert [(job, op) for job, op, _ in p.failures] == [("j", "tangles.enumerate_tangles")]
    assert p.outcomes["j"] == "failed"
    assert failure_metrics(p)["tangles.failed"] == 1
    assert failure_metrics(p)["ops_failed_ratio"] == 1.0


def test_expected_error_ends_the_job_without_failing():
    p = Pass()
    p.run_job("j", lambda p: p.call("tangles.enumerate_tangles", _raise, ExpectedError(), expect=(ExpectedError,)))
    assert p.failures == [] and p.known_failures == []
    assert p.outcomes["j"] == "ExpectedError"


def test_known_defect_counts_in_the_ratio_but_not_as_unexpected():
    p = Pass()
    p.run_job("j", lambda p: p.call("tangles.enumerate_tangles", _raise, RecursionError(), known=(RecursionError,)))
    p.run_job("k", lambda p: p.call("tangles.check_tangle", lambda: None))
    assert p.failures == []
    assert p.outcomes["j"] == "known:RecursionError"
    metrics = failure_metrics(p)
    assert metrics["ops_known_failed"] == 1
    assert metrics["tangles.failed"] == 1
    assert metrics["ops_failed_ratio"] == 0.5


def test_failed_check_counts_against_its_op():
    p = Pass()

    def job(p):
        value = p.call("limits.pseudo_tight_check", lambda: 3)
        p.require(value == 4, "limits.pseudo_tight_check", "value")

    p.run_job("j", job)
    assert failure_metrics(p)["limits.failed"] == 1


def _pass_with(doc):
    p = Pass()

    def job(p):
        p.artifact("cli.tot", "nested", p.call("cli.tot", lambda: doc))

    p.run_job("j", job)
    return p


def test_corrupted_digest_is_a_failed_op():
    good = _pass_with({"members": [1, 2]})
    pins = {"jobs": {"j/nested": good.artifacts["j/nested"][1]}}
    check_pass(good, [Job("j", None)], None, pins, seed=1)
    assert good.failures == []
    bad = _pass_with({"members": [1, 3]})
    check_pass(bad, [Job("j", None)], None, pins, seed=1)
    assert [(op, reason.startswith("check: digest")) for _, op, reason in bad.failures] == [("cli.tot", True)]


def test_outputs_must_repeat_between_passes_and_match_seed_pins():
    jobs = [Job("j", None, seeded=True)]
    first = _pass_with({"members": [1]})
    pins = {"seeds": {"7": seeded_digest(first, jobs)}}
    check_pass(first, jobs, None, pins, seed=7)
    assert first.failures == []
    drifted = _pass_with({"members": [2]})
    check_pass(drifted, jobs, first, pins, seed=7)
    ops = sorted(op for _, op, _ in drifted.failures)
    assert ops == ["bench.pin", "bench.repeat"]
    other_seed = _pass_with({"members": [2]})
    check_pass(other_seed, jobs, None, pins, seed=8)  # unpinned seed
    assert other_seed.failures == []


def test_digest_ignores_cli_stamps_only():
    doc = {"kind": "report", "ok": True}
    stamped = dict(doc, config_hash="abc", tool_version="0.1.0")
    assert digest(doc) == digest(stamped)
    assert digest(doc) != digest(dict(doc, ok=False))


def test_menger_certificate():
    adj = {"a": {"b", "c"}, "b": {"a", "d"}, "c": {"a", "d"}, "d": {"b", "c"}}
    assert menger_ok(adj, ["a"], ["d"], [["a", "b", "d"]], ["a"])
    assert not menger_ok(adj, ["a"], ["d"], [["a", "b", "d"]], ["b"])  # c-route avoids the cut
    assert not menger_ok(adj, ["a"], ["d"], [["a", "d"]], ["a"])  # not an edge
    assert menger_ok(adj, ["b", "c"], ["d"], [["b", "d"]], ["d"])
    assert not menger_ok(adj, ["b", "c"], ["d"], [["b", "d"], ["c", "d"]], ["b", "c"])  # shared end
