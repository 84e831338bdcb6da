"""Start-up hook for the processes the benchmark spawns.

Python imports ``sitecustomize`` at start-up when it is on the path; the
benchmark puts this directory on ``PYTHONPATH`` of its jobs only.  When
``PERFBENCH_MARK`` names a file, the hook notes the moment the import of
``pdbell.cli`` finishes, which is the moment ``pdbell.cli.main`` starts, and
writes the CPU time the process has used until then to that file as a JSON
line ``{"mark_cpu_ns": <CLOCK_PROCESS_CPUTIME_ID ns>}``.
At exit it appends ``{"peak_rss_kb": ...}``, the process's peak resident set
(``VmHWM``).  The spawner's ``os.wait4`` figure cannot serve: Linux carries
the spawning process's own peak across ``exec``, so it never reads below the
benchmark's own size.  With ``PERFBENCH_TRACE=1`` the hook also installs the
boundary tracer when the mark is taken and, when ``main`` returns, appends
``{"trace": ..., "counters": ...}``.  Without ``PERFBENCH_MARK`` the hook
does nothing.
"""

import atexit
import json
import os
import sys
import time

_MARK = os.environ.get("PERFBENCH_MARK")
_TRACE = os.environ.get("PERFBENCH_TRACE") == "1"
_TARGET = "pdbell.cli"


def _write(record):
    with open(_MARK, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def _traced_main(main, tracer, boundary_trace):
    def run(*args, **kwargs):
        try:
            return main(*args, **kwargs)
        finally:
            _write(
                {
                    "trace": tracer.summary(),
                    "counters": boundary_trace.memo_counters(tracer),
                }
            )

    return run


def _write_peak_rss():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                _write({"peak_rss_kb": int(line.split()[1])})


def _on_cli_loaded(module):
    _write({"mark_cpu_ns": time.process_time_ns()})
    atexit.register(_write_peak_rss)
    if _TRACE:
        import boundary_trace

        tracer = boundary_trace.BoundaryTracer()
        boundary_trace.install(tracer)
        module.main = _traced_main(module.main, tracer, boundary_trace)


class _CliMarkFinder:
    """Meta-path finder that only wraps the loader of ``pdbell.cli``."""

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name != _TARGET:
            return None
        sys.meta_path.remove(_CliMarkFinder)
        for finder in sys.meta_path:
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_mark(module):
            exec_module(module)
            _on_cli_loaded(module)

        spec.loader.exec_module = exec_and_mark
        return spec


if _MARK:
    sys.meta_path.insert(0, _CliMarkFinder)
