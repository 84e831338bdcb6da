#!/usr/bin/env python3
"""Benchmark for pdbell: three workloads of real ``python -m pdbell`` jobs.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one report
    python3 perfbench/run.py --record-digests      # rewrite perfbench/digests.json

Each run is a closed loop with one client: the workload's jobs run one at a
time, each as a fresh process, and the job list repeats until ``--seconds``
have passed (an iteration that has started runs to its end).  Every job's
exit code and output digest are checked against ``digests.json``.

Times are CPU time rescaled to a fixed machine speed (see ``ScaledCpu``): the
benchmark and its jobs share one CPU, and a short probe loop timed on it every
``TICK_S`` tells how fast it runs at that moment.  Wall times are printed in
the report but not gated; on a shared host they follow the host's load.

With ``--trace 0`` the run reports the end-to-end metrics of the untraced
iterations.  With ``--trace 1`` it alternates untraced and traced iterations
and reports per-layer self time, calls and counters from the traced ones (see
``hook/boundary_trace.py``), plus the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are the readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOOK = HERE / "hook"
sys.path[:0] = [str(HERE), str(HOOK)]

import boundary_trace  # noqa: E402
import workloads as wl  # noqa: E402

JOB_TIMEOUT_S = 60.0
# Hard limit for one workload, so a run always ends well inside 180 s.
RUN_LIMIT_S = 160.0
# How often a running job's CPU time is read and the probe is timed.
TICK_S = 0.04
PROBE_MODULUS = (1 << 4096) - 159
PROBE_LOOPS = 2000
# The probe's CPU time at the reference machine speed, to which job CPU time
# is rescaled.  On a shared 2 GHz Xeon vCPU the probe takes 0.35 to 0.7 ms as
# the host's load comes and goes.
PROBE_NOMINAL_NS = 500_000


def probe_ns() -> int:
    """CPU time of a fixed pure-Python big-integer loop on this thread."""
    start = time.thread_time_ns()
    x = 1
    for i in range(1, PROBE_LOOPS):
        x = (x * 3 + i) % PROBE_MODULUS
    return time.thread_time_ns() - start


def pin_to_one_cpu() -> None:
    """Run the benchmark, and so every job it spawns, on one CPU.

    The probe then times the very CPU the job runs on.  A shared host can
    halve the speed of each vCPU, independently and for seconds at a time.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def task_cpu_ns(pid: int) -> int:
    """CPU time used so far by the process' main thread."""
    with open(f"/proc/{pid}/schedstat", encoding="ascii") as stat:
        return int(stat.read().split()[0])


class ScaledCpu:
    """A job's CPU time, rescaled to the reference machine speed.

    At spawn and then every ``TICK_S`` the benchmark times the probe on the
    job's CPU and reads how much CPU the job has used.  Each slice of job CPU
    time between two readings is scaled by ``PROBE_NOMINAL_NS`` over the mean
    of the probes at its two ends, so a spell in which the vCPU runs slow
    counts as much as a fast one.  Both timings are CPU time, so the job and
    the probe taking turns on one CPU does not enter either.
    """

    def __init__(self) -> None:
        self.last_probe = probe_ns()
        self.points = [(0, 0.0)]  # (job CPU ns, scaled ns) at each reading

    def tick(self, cpu_ns: int) -> None:
        probe = probe_ns()
        last_cpu, scaled = self.points[-1]
        if cpu_ns > last_cpu:
            scale = PROBE_NOMINAL_NS / ((probe + self.last_probe) / 2)
            self.points.append((cpu_ns, scaled + (cpu_ns - last_cpu) * scale))
        self.last_probe = probe

    def at(self, cpu_ns: int) -> float:
        """Scaled seconds at the moment the job had used ``cpu_ns`` of CPU."""
        for (cpu0, scaled0), (cpu1, scaled1) in zip(self.points, self.points[1:]):
            if cpu_ns <= cpu1:
                return (scaled0 + (scaled1 - scaled0) * (cpu_ns - cpu0) / (cpu1 - cpu0)) / 1e9
        return self.points[-1][1] / 1e9


def reference_seconds() -> float:
    """Median of nine probe timings: how fast the CPU runs right now."""
    return statistics.median(probe_ns() for _ in range(9)) / 1e9


def environment() -> dict[str, object]:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "(unset)"),
        "loadavg": " ".join(f"{v:.2f}" for v in os.getloadavg()),
        "ref_s": reference_seconds(),
    }


class JobRunner:
    """Spawns ``python -m pdbell`` jobs and collects what each one did."""

    def __init__(self, scratch: Path, digests: dict[str, dict[str, object]], deadline: float):
        self.mark = scratch / "mark.jsonl"
        # Jobs write to files, as ``pdbell ... > out`` would, so that reading
        # and hashing the output stays out of the timed interval.
        self.stdout = scratch / "stdout"
        self.stderr = scratch / "stderr.txt"
        self.digests = digests
        self.deadline = deadline

    def _env(self, trace: bool) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HOOK)])
        # every job compiles pdbell from source, whatever the caller's setting
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["PERFBENCH_MARK"] = str(self.mark)
        env["PERFBENCH_TRACE"] = "1" if trace else "0"
        return env

    def run(self, job: str, trace: bool = False, verify: bool = True) -> dict[str, object]:
        """Run one job to its end; wall time runs from spawn to reaped exit."""
        self.mark.unlink(missing_ok=True)
        job_deadline = time.monotonic() + min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            clock = ScaledCpu()
            start = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, "-m", "pdbell", *job.split()],
                cwd=ROOT,
                env=self._env(trace),
                stdout=out,
                stderr=err,
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    left = job_deadline - time.monotonic()
                    timed_out = left <= 0
                    if timed_out:
                        proc.kill()
                        break
                    if select.select([pidfd], [], [], min(TICK_S, left))[0]:
                        break
                    try:
                        clock.tick(task_cpu_ns(proc.pid))
                    except OSError:
                        pass  # exited between the wait and the read
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.monotonic_ns()
            except BaseException:
                # interrupted or terminated: leave no job running
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
        cpu_ns = round((usage.ru_utime + usage.ru_stime) * 1e9)
        clock.tick(cpu_ns)
        proc.returncode = os.waitstatus_to_exitcode(status)
        digest = wl.OutputDigest(job)
        with open(self.stdout, "rb") as out:
            while chunk := out.read(1 << 16):
                digest.update(chunk)

        result: dict[str, object] = {
            "job": job,
            "wall_s": (end - start) / 1e9,
            "setup_s": None,
            "cpu_s": cpu_ns / 1e9,
            "scaled_s": clock.at(cpu_ns),
            "rss_mb": None,
            "exit": proc.returncode,
            "bytes": digest.size,
            "sha256": digest.hexdigest(),
            "check_ms": digest.check_ms,
        }
        if self.mark.exists():
            for line in self.mark.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                if "mark_cpu_ns" in record:
                    result["setup_s"] = clock.at(record["mark_cpu_ns"])
                elif "peak_rss_kb" in record:
                    result["rss_mb"] = record["peak_rss_kb"] / 1024
                else:
                    result.update(record)
        if timed_out:
            failure = f"timed out after {(end - start) / 1e9:.1f} s"
        elif verify:
            failure = wl.verify(job, proc.returncode, result["sha256"], self.digests)
        else:
            failure = None if proc.returncode == 0 else f"exit code {proc.returncode}"
        if failure is None and (result["setup_s"] is None or result["rss_mb"] is None):
            failure = "no start-up mark or peak memory record"
        if failure is not None:
            tail = self.stderr.read_text(encoding="utf-8", errors="replace")[-300:]
            failure += f" ({tail.strip()})" if tail.strip() else ""
        result["failure"] = failure
        return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, object]:
    jobs = wl.jobs_for(name, seed)
    begun = time.monotonic()
    env_start = environment()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        runner = JobRunner(Path(scratch), wl.load_digests(), begun + RUN_LIMIT_S)
        probes: list[dict] = []
        untraced: list[list[dict]] = []
        traced: list[list[dict]] = []
        durations: list[float] = []
        window_end = min(time.monotonic() + seconds, begun + RUN_LIMIT_S)
        while True:
            started = time.monotonic()
            # One set-up probe per iteration, so the set-up samples spread
            # over the whole run: it imports pdbell.cli exactly as the jobs
            # do, then prints help.  Every job process gives a sample too.
            probe = f"{jobs[len(probes) % len(jobs)].split()[0]} --help"
            probes.append(runner.run(probe, verify=False))
            # alternate untraced and traced iterations when tracing
            use_trace = trace and len(traced) < len(untraced)
            iteration = [runner.run(job, trace=use_trace) for job in jobs]
            (traced if use_trace else untraced).append(iteration)
            durations.append(time.monotonic() - started)
            if trace and not traced:
                continue
            # stop before an iteration that would end after the window
            if time.monotonic() + max(durations[-2:]) > window_end:
                break
    loadavg_end = " ".join(f"{v:.2f}" for v in os.getloadavg())
    ref_s_end = reference_seconds()
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "jobs": jobs,
        "env": env_start,
        "loadavg_end": loadavg_end,
        "ref_s_end": ref_s_end,
        "probes": probes,
        "untraced": untraced,
        "traced": traced,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: dict) -> dict[str, tuple[float, str]]:
    iterations = run["untraced"]
    n_procs = len(run["jobs"])
    setups = [p["setup_s"] for p in run["probes"] if p["setup_s"] is not None]
    setups += [j["setup_s"] for it in iterations for j in it if j["setup_s"] is not None]
    jobs = [j for it in iterations for j in it]
    # a killed job leaves no peak memory record; it counts only as failed
    peaks = [[j["rss_mb"] for j in it if j["rss_mb"] is not None] for it in iterations]
    return {
        "scaled_cpu_s": (_median([sum(j["scaled_s"] for j in it) for it in iterations]), "s"),
        "setup_s": (_median(setups) * n_procs, "s"),
        "peak_rss_mb": (_median([max(p) for p in peaks if p]), "MB"),
        "ok_ratio": (sum(j["failure"] is None for j in jobs) / len(jobs), "ratio"),
    }


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def _traced_row(iteration: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced iteration, summed over its jobs."""
    wall = sum(j["wall_s"] for j in iteration)
    traces = [j["trace"] for j in iteration if "trace" in j]
    row: dict[str, float] = {}
    for layer in boundary_trace.LAYERS:
        self_s = sum(t["layers"][layer]["self_ns"] for t in traces) / 1e9
        row[f"{layer}.self_s"] = self_s
        row[f"{layer}.calls"] = sum(t["layers"][layer]["calls"] for t in traces)
        row[f"{layer}.share"] = self_s / wall
    row["unattributed_s"] = wall - sum(row[f"{layer}.self_s"] for layer in boundary_trace.LAYERS)
    row["unattributed.share"] = row["unattributed_s"] / wall
    counters: dict[str, float] = {}
    for j in iteration:
        for key, value in j.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    row["polynomials.constructed"] = counters.get("polynomials.construct.calls", 0)
    lookups = counters.get("polynomials.cache_lookups", 0)
    row["polynomials.cache_hit_ratio"] = (
        counters.get("polynomials.cache_hits", 0) / lookups if lookups else 0.0
    )
    for key in (
        "sequences.pdb_number.calls",
        "sequences.pdb_number.distinct",
        "sequences.triangle_rows",
        "bernoulli.cache_entries",
    ):
        row[key] = counters.get(key, 0)
    return row


def per_layer(run: dict) -> dict[str, tuple[float, str]]:
    """Medians over the traced iterations, plus the tracing overhead."""
    rows = [_traced_row(it) for it in run["traced"]]
    out = {key: (_median([row[key] for row in rows]), _unit(key)) for key in rows[0]}
    traced = _median([sum(j["scaled_s"] for j in it) for it in run["traced"]])
    untraced = _median([sum(j["scaled_s"] for j in it) for it in run["untraced"]])
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


def check_times(run: dict) -> dict[str, tuple[float, str]]:
    """``checks.<id>.s``: median over the untraced iterations of the ``ms``
    field each check printed, for the checks that the passing ``check``
    jobs themselves name.  Empty when the workload runs no ``check`` job."""
    samples: dict[str, list[int]] = {}
    for it in run["untraced"]:
        for j in it:
            if j["failure"] is not None:
                continue
            for check_id, ms in j["check_ms"].items():
                samples.setdefault(check_id, []).append(ms)
    return {f"checks.{k}.s": (statistics.median(v) / 1000, "s") for k, v in samples.items()}


def top_entries(run: dict, count: int = 8) -> list[str]:
    """Boundary entry points with the most self time in the first traced iteration."""
    totals: dict[str, list[int]] = {}
    for j in run["traced"][0]:
        for name, entry in j.get("trace", {}).get("functions", {}).items():
            total = totals.setdefault(name, [0, 0])
            total[0] += entry["self_ns"]
            total[1] += entry["calls"]
    ranked = sorted(totals.items(), key=lambda item: -item[1][0])[:count]
    return [f"  {name:48s} {ns / 1e9:10.4f} s {calls:9d} calls" for name, (ns, calls) in ranked]


def _all_jobs(run: dict) -> list[dict]:
    return [j for it in run["untraced"] + run["traced"] for j in it]


def report(run: dict, metrics: dict[str, tuple[float, str]]) -> list[str]:
    env = run["env"]
    lines = [
        f"== workload {run['workload']}  seed {run['seed']}  seconds {run['seconds']}",
        "env: python {python}  nproc {nproc}  PYTHONDONTWRITEBYTECODE={PYTHONDONTWRITEBYTECODE} "
        "(jobs run with 1)".format(**env),
        f"env: loadavg start {env['loadavg']}  end {run['loadavg_end']}",
        f"env: ref_s {env['ref_s']:.6f} at start, {run['ref_s_end']:.6f} at end "
        f"(the probe loop; scaled times assume {PROBE_NOMINAL_NS / 1e9:g})",
        "jobs: " + " ; ".join(run["jobs"]),
    ]
    for kind in ("untraced", "traced"):
        for n, it in enumerate(run[kind], 1):
            walls = " ".join(f"{j['wall_s']:.3f}" for j in it)
            lines.append(f"{kind} iteration {n}: wall {sum(j['wall_s'] for j in it):.3f} s "
                         f"cpu {sum(j['cpu_s'] for j in it):.3f} s "
                         f"scaled {sum(j['scaled_s'] for j in it):.3f} s (job walls {walls})")
    jobs = _all_jobs(run)
    failed = [j for j in jobs if j["failure"] is not None]
    failed += [p for p in run["probes"] if p["failure"] is not None]
    for j in failed:
        lines.append(f"FAILED {j['job']}: {j['failure']}")
    lines.append(f"fail_ratio {len([j for j in jobs if j['failure']]) / len(jobs):.4f} "
                 f"({len(jobs)} jobs attempted)")
    lines.append(f"samples: {len(run['untraced'])} untraced and {len(run['traced'])} traced "
                 f"iterations, {len(run['probes'])} set-up probes")
    if run["traced"]:
        lines.append("memos reachable only by private names (sequences._triangles, "
                     "bernoulli._cache) were read after each traced job, never written")
        lines.append("top boundary entries by self time (first traced iteration):")
        lines += top_entries(run)
        shares = {layer: metrics[f"{layer}.share"][0] for layer in boundary_trace.LAYERS}
        dominant = max(shares, key=shares.get)
        lines.append(f"dominant layer: {dominant} ({shares[dominant]:.1%} of traced wall time)")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:40s} {value:14.6f} {unit}")
    checks = check_times(run)
    if checks:
        lines.append("per-check times, from the ms fields the check job printed "
                     "(untraced iterations; not in the JSON line):")
        lines += [f"{name:40s} {value:14.6f} {unit}" for name, (value, unit) in checks.items()]
    return lines


def result_json(runs: list[dict], metrics: dict[str, tuple[float, str]]) -> str:
    jobs = [j for run in runs for j in _all_jobs(run)]
    probes = [p for run in runs for p in run["probes"]]
    failed = sum(j["failure"] is not None for j in jobs)
    return json.dumps(
        {
            "correct": failed == 0 and all(p["failure"] is None for p in probes),
            "attempted": len(jobs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def record_digests() -> int:
    """Run every menu entry once and write its exit code and digest."""
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        runner = JobRunner(Path(scratch), {}, time.monotonic() + 3600)
        for job in wl.all_jobs():
            result = runner.run(job, verify=False)
            if result["failure"] is not None:
                print(f"{job}: {result['failure']}", file=sys.stderr)
                return 1
            digests[job] = {"exit": result["exit"], "sha256": result["sha256"]}
            print(f"{job}: {result['sha256']}")
    wl.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like an exception, so the running job is killed and
    # reaped and the scratch directory is removed
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdbell" / "cli.py").is_file():
        print(f"pdbell sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if args.record_digests:
        return record_digests()

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    runs, metrics = [], {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        found = per_layer(run) if args.trace else end_to_end(run)
        if args.trace and run["untraced"]:
            print("\n".join(report(run, {**end_to_end(run), **found})))
        else:
            print("\n".join(report(run, found)))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
        runs.append(run)
    print(result_json(runs, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
