"""Speed probe: a fixed piece of pure-Python work, timed.

The host's speed drifts by 10-40% from one minute to the next, so the
benchmark times this probe between its jobs, under the same conditions as
the jobs, and scales every end-to-end timing by the run's median slowdown:
the probe's time over its time on the machine the seed baseline was
measured on (2 vCPUs).  In-process jobs are matched by samples taken in the
benchmark's own process; CLI jobs by a fresh interpreter running the
samples, timed from its spawn to its exit as a job is.  (A probe in the
benchmark's process does not track its children: they tend to run on the
other vCPU.)  The probe calls no equichar code, so a change to the
program cannot move it.

    python3 bench/probe.py      # the spawned form: takes SAMPLES samples
"""

import gc
import statistics
import subprocess
import sys
import time

# median seconds of one sample, and of a spawned probe, on the reference
# machine
REF_S = 0.0113
SPAWN_REF_S = 0.16
SAMPLES = 4
GENS = ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0))


def seconds():
    """Seconds taken now to enumerate S6 five times by closure under two
    generators, with the garbage collector off.  It holds 720 tuples at a
    time, so it adds nothing visible to peak RSS."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(5):
            seen = {tuple(range(6))}
            frontier = list(seen)
            while frontier:
                found = []
                for p in frontier:
                    for g in GENS:
                        q = tuple(p[x] for x in g)
                        if q not in seen:
                            seen.add(q)
                            found.append(q)
                frontier = found
        return time.perf_counter() - t0
    finally:
        gc.enable()


def slowdown():
    """This process's slowdown now: the median of SAMPLES samples over
    REF_S."""
    return statistics.median(seconds() for _ in range(SAMPLES)) / REF_S


def spawn_slowdown(env, cwd, timeout):
    """The slowdown of a fresh interpreter that takes SAMPLES samples, timed
    from spawn to exit, over SPAWN_REF_S."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], env=env, cwd=cwd, check=True,
                   timeout=timeout)
    return (time.perf_counter() - t0) / SPAWN_REF_S


if __name__ == "__main__":
    for _ in range(SAMPLES):
        seconds()
