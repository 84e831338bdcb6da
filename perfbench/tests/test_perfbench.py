"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH / "hook")]

import boundary_trace as bt  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_times_subtract_child_durations():
    # root 0..100 with children 10..40 and 50..55; the first child has its own
    # child 20..25
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 25, 55]
    assert bt.self_times(parents, starts, ends) == [65, 25, 5, 5]


def test_tracer_records_spans_only_at_layer_boundaries():
    ticks = iter([0, 10, 40, 50, 55, 100])
    tracer = bt.BoundaryTracer(clock=lambda: next(ticks))

    def helper():
        return 1

    # same layer as its caller, so it opens no span and reads no clock; the
    # layer name is built at run time, as the installer derives it
    helper = tracer.wrap(helper, "".join(["seq", "uences"]), "sequences.helper")
    inner = tracer.wrap(lambda: helper() + 1, "sequences", "sequences.inner")
    leaf = tracer.wrap(lambda: 3, "polynomials", "polynomials.leaf")
    outer = tracer.wrap(lambda: inner() + leaf(), "checks", "checks.outer")

    assert outer() == 5
    summary = tracer.summary()
    assert summary["spans"] == 3
    assert summary["layers"]["checks"] == {"self_ns": 65, "calls": 1}
    assert summary["layers"]["sequences"] == {"self_ns": 30, "calls": 1}
    assert summary["layers"]["polynomials"] == {"self_ns": 5, "calls": 1}
    assert "sequences.helper" not in summary["functions"]


def test_tracer_closes_spans_when_the_callee_raises():
    tracer = bt.BoundaryTracer()

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap(fail, "sequences", "sequences.fail")
    with pytest.raises(ValueError):
        failing()
    assert tracer.wrap(lambda: 7, "checks", "checks.after")() == 7
    assert list(tracer.parent) == [-1, -1]


README_TABLE = (
    b"table pdb\n"
    b"n=0: 1\n"
    b"n=1: 0 1\n"
    b"n=2: 1 1 1\n"
    b"n=3: 5 4 3 1\n"
    b"n=4: 28 27 13 6 1\n"
    b"n=5: 199 201 95 35 10 1\n"
)


@pytest.mark.parametrize(
    "recorded, failed",
    [(README_TABLE, False), (README_TABLE.replace(b"201", b"202"), True)],
)
def test_job_output_with_one_changed_digit_counts_as_failed(tmp_path, recorded, failed):
    job = "table pdb --max-n 5"
    digests = {job: {"exit": 0, "sha256": wl.digest_of(job, recorded)}}
    runner = run.JobRunner(tmp_path, digests, deadline=float("inf"))
    result = runner.run(job)
    assert (result["failure"] is not None) is failed
    assert 0 < result["setup_s"] < result["scaled_s"]
    one_run = {"untraced": [[result]], "traced": [], "probes": []}
    verdict = json.loads(run.result_json([one_run], {}))
    assert verdict["failed"] == int(failed)
    assert verdict["correct"] is not failed


def test_a_job_past_its_deadline_is_killed_and_counts_as_failed(tmp_path):
    job = "table pdb --max-n 5"
    digests = {job: {"exit": 0, "sha256": wl.digest_of(job, README_TABLE)}}
    runner = run.JobRunner(tmp_path, digests, deadline=time.monotonic() + 0.01)
    result = runner.run(job)
    assert result["failure"].startswith("timed out")
    assert result["wall_s"] < 5
    # a killed job leaves no peak memory record; it lowers ok_ratio instead
    passed = run.JobRunner(tmp_path, digests, deadline=float("inf")).run(job)
    one_run = {"jobs": [job, job], "untraced": [[passed, result]], "traced": [], "probes": []}
    metrics = run.end_to_end(one_run)
    assert metrics["ok_ratio"] == (0.5, "ratio")
    assert metrics["peak_rss_mb"] == (passed["rss_mb"], "MB")
    verdict = json.loads(run.result_json([one_run], metrics))
    assert (verdict["attempted"], verdict["failed"], verdict["correct"]) == (2, 1, False)


def test_cpu_time_in_a_slow_spell_counts_as_at_full_speed(monkeypatch):
    nominal = run.PROBE_NOMINAL_NS
    probes = iter([nominal, nominal, 2 * nominal, 2 * nominal])
    monkeypatch.setattr(run, "probe_ns", lambda: next(probes))
    clock = run.ScaledCpu()
    clock.tick(100_000_000)  # 0.1 s at full speed
    clock.tick(300_000_000)  # 0.2 s while the speed halves
    clock.tick(500_000_000)  # 0.2 s at half speed
    assert clock.at(500_000_000) == pytest.approx(0.1 + 0.2 / 1.5 + 0.1)
    assert clock.at(50_000_000) == pytest.approx(0.05)
    assert clock.at(900_000_000) == clock.at(500_000_000)


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_a_seed_always_maps_to_the_same_job_list(workload):
    for seed in range(50):
        assert wl.jobs_for(workload, seed) == wl.jobs_for(workload, seed)
    reached = {job for seed in range(50) for job in wl.jobs_for(workload, seed)}
    assert reached == {job for menu in wl.WORKLOADS[workload] for job in menu}


def test_seed_zero_gives_the_reference_jobs():
    assert wl.jobs_for("suite", 0) == ["check --max-n 32 --format json"]
    assert wl.jobs_for("tables", 0) == [
        "table pdb --max-n 180 --format json",
        "table pdb_poly --max-n 60",
        "table stirling2 --max-n 300 --format csv",
    ]
    assert wl.jobs_for("series", 0) == [
        "egf deranged_bell --order 256",
        "egf ordered_bell --order 256",
        "egf pdb --r 2 --order 128",
        "egf higher_bernoulli --r 3 --order 128",
        "egf stirling_column --r 4 --order 192",
    ]


def test_every_menu_entry_has_a_recorded_digest():
    assert set(wl.load_digests()) == set(wl.all_jobs())


def _check_output(ms: int, status: str = "pass") -> bytes:
    report = {
        "command": "check",
        "config": {"max_n": 4},
        "results": [{"id": "thm_2_3", "status": status, "bounds": {"n": "0..4"}, "ms": ms}],
    }
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def test_ms_fields_are_stripped_before_hashing():
    job = "check --max-n 4 --format json"
    assert wl.digest_of(job, _check_output(3)) == wl.digest_of(job, _check_output(4100))
    assert wl.digest_of(job, _check_output(3)) != wl.digest_of(job, _check_output(3, "fail"))
    body, timings = wl.strip_ms(_check_output(17))
    assert b'"ms"' not in body
    assert timings == {"thm_2_3": 17}


@pytest.mark.parametrize(
    "reformat",
    [
        lambda out: out.rstrip(b"\n"),
        lambda out: out.replace(b"  ", b"    "),
        lambda out: json.dumps(dict(reversed(json.loads(out).items())), indent=2).encode() + b"\n",
        lambda out: out.replace(b'"max_n": 4', b'"max_n": 4.0'),
    ],
    ids=["no-final-newline", "indent-4", "key-order", "number-spelling"],
)
def test_check_output_with_other_formatting_counts_as_failed(reformat):
    job = "check --max-n 4 --format json"
    recorded = _check_output(3)
    changed = reformat(recorded)
    assert changed != recorded and json.loads(changed) == json.loads(recorded)
    digests = {job: {"exit": 0, "sha256": wl.digest_of(job, recorded)}}
    assert wl.verify(job, 0, wl.digest_of(job, changed), digests) == "output digest mismatch"


def test_check_times_come_from_the_check_jobs_own_output():
    job = {"check_ms": {"thm_2_3": 1500, "eq_15": 20}, "failure": None}
    one_run = {"untraced": [[job], [dict(job, check_ms={"thm_2_3": 1700, "eq_15": 40})]]}
    assert run.check_times(one_run) == {
        "checks.thm_2_3.s": (1.6, "s"),
        "checks.eq_15.s": (0.03, "s"),
    }
    failed = dict(job, check_ms={"thm_2_3": 9000}, failure="output digest mismatch")
    assert run.check_times({"untraced": [[job], [failed]]})["checks.thm_2_3.s"] == (1.5, "s")
    assert run.check_times({"untraced": [[{"check_ms": {}, "failure": None}]]}) == {}
