"""Run one coopres command in this fresh interpreter and record its timings.

    python3 child.py RESULT_JSON [--trace SPANS_BASE] [COOPRES_ARG ...]

With no coopres arguments it only imports ``coopres.cli``: a set-up probe.
The import is timed on CLOCK_MONOTONIC, which every process on the host
shares, so the parent can subtract the moment it spawned this interpreter.
Nothing else is imported before ``coopres.cli``, so set-up time is the
interpreter's start plus the package import.
"""

import sys
import time

import coopres.cli

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s() -> float:
    import resource
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> int:
    import json
    import resource
    from pathlib import Path

    result_path, args = Path(argv[0]), argv[1:]
    trace_base = None
    if args[:1] == ["--trace"]:
        trace_base, args = Path(args[1]), args[2:]
    result = {"imported": IMPORTED, "rc": 0}
    if args:
        command = coopres.cli.main
        if trace_base is not None:
            import tracer
            recorder = tracer.Recorder()
            tracer.install(recorder)
            command = recorder.spanned(command, "cli.main")
        cpu_before = _cpu_s()
        called = time.clock_gettime(time.CLOCK_MONOTONIC)
        rc = command(args)
        returned = time.clock_gettime(time.CLOCK_MONOTONIC)
        result.update(rc=rc, wall_s=returned - called, command_cpu_s=_cpu_s() - cpu_before)
        if trace_base is not None:
            recorder.dump(trace_base)
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest pool worker.
    result["peak_rss_kib"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result_path.write_text(json.dumps(result))
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
