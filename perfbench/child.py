"""One benchmark invocation in a fresh interpreter.

    python3 perfbench/child.py SPAWNED TRACE ARGV...

SPAWNED is the parent's CLOCK_MONOTONIC reading taken just before it started
this interpreter; TRACE is 0 or 1.  The CLI's stdout and stderr pass through
unchanged, then one line ``PERFBENCH {json}`` goes to stderr with the
set-up time, the wall and CPU time of ``dposet.cli.run(ARGV)``, the peak RSS
and, when traced, the per-layer report.  The exit code is the CLI's.
"""

import json
import resource
import sys
import time
from pathlib import Path

MARKER = "PERFBENCH "


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def main():
    spawned = float(sys.argv[1])
    traced = sys.argv[2] == "1"
    argv = sys.argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from dposet import cli

    imported = _clock()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = _clock()
    code = tracer.call(cli.run, argv) if traced else cli.run(argv)
    sys.stdout.flush()
    end = _clock()
    after = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "spawned": spawned,
        "end": end,
        "setup_s": imported - spawned,
        "wall_s": end - start,
        "cpu_s": _cpu(after) - _cpu(before),
        "peak_rss_mb": after.ru_maxrss / 1024,
    }
    if traced:
        report["layers"] = tracer.report()
    sys.stderr.write("\n" + MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
