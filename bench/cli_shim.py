"""Stand-in for `python -m equichar.cli`, run as a job's child process.

    python3 bench/cli_shim.py OUT.json SPAWN_TIME TRACE <equichar arguments...>

The shim calls equichar.cli.main with the remaining arguments and writes
OUT.json, holding the process's own peak RSS and, when TRACE is 1, its
trace.  The peak is VmHWM, which counts only what this process used after
its exec; getrusage would also count the parent's address space, copied
before the exec.  With TRACE 1 the shim also times interpreter start-up
(SPAWN_TIME is the parent's time.time() just before it started this
process) and the import of equichar.cli, and installs the layer wrappers
before calling main.  Standard output and the exit code are main's own.
"""

import json
import sys
import time

spawn_time, traced = float(sys.argv[2]), sys.argv[3] == "1"
startup_seconds = time.time() - spawn_time
t0 = time.perf_counter()
import equichar.cli  # noqa: E402
import_seconds = time.perf_counter() - t0

tracer = None
if traced:
    import layers

    tracer = layers.Tracer()
    tracer.add_root("cli.startup", startup_seconds)
    tracer.add_root("cli.import", import_seconds)
    layers.install(tracer)


def peak_rss_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])


try:
    code = equichar.cli.main(sys.argv[4:])
finally:
    sys.stdout.flush()
    with open(sys.argv[1], "w") as fh:
        json.dump({"peak_rss_kb": peak_rss_kb(),
                   "trace": tracer.snapshot() if tracer else None}, fh)
sys.exit(code)
