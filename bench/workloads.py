"""The benchmark's three workloads.

Each workload runs one round of jobs at a time: a fixed pool, shuffled by
the workload seed.  A run executes a fixed number of whole rounds (see
run.py), so every run of a given length executes the same jobs and only
their order (and, for theorem1-cli, the point labels) depends on the seed.
`round_seconds` is a round's duration at the seed commit on a 2-vCPU VM; it
turns --seconds into a round count and is never re-measured.  Pools are
small enough that a run holds at least three rounds, so that every job's
median time over the run (which jobs_per_s is made of) is a median of three
or more runs.  Job times on a shared machine vary by 10-25% from one job to
the next, so each pool is made of jobs of similar cost, or weighted, so that
the median and the tail job fall inside a cluster of like jobs rather than
on the edge between two.

- theorem1-cli: one fresh `equichar verify theorem1` process per job.  This
  is what users run; it pays cold group and ring set-up on every call and
  spends the rest in fixed-set scans.
- series-laws: in-process power-structure law checks.  Its time is series
  products, factorization and Burnside/L-extended element arithmetic.
- marks-cold: in-process tables of marks for freshly built groups.  Its
  time is the subgroup lattice, closures and marks.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import subprocess
import sys
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(HERE, "cli_shim.py")

# Cells of the criterion-2 grid that theorem1-cli runs: both k, both G_B,
# every shape and sizes 3, 4 and 6, taking 0.4-1.1 s each at the seed.  The
# lighter C2 cells (about 0.3 s, mostly interpreter start-up) and the S3
# cells (3-22 s) are left out; their goldens are kept, as are those of
# C3-C2-biregular-k2 (1.9 s) and of two more 0.6 s cells, which would make
# a round too long.  A round runs each cell once, with its own relabeling:
# one 0.4 s cell, five 0.6 s ones, three 0.8 s ones and one 1.1 s one, so
# that in four rounds the median falls among the 0.6 s cells and the tail
# (p72) in the middle of the 0.8 s ones.
THEOREM1_POOL = [
    "C2-C2-biregular-k2",
    "C2-triv-swap3-k2", "C2-C2-swap3-k2", "C3-triv-regular-k1",
    "C3-triv-biregular-k1", "C3-C2-regular-k1",
    "C3-triv-regular-k2", "C3-triv-biregular-k2", "C3-C2-regular-k2",
    "C3-C2-biregular-k1",
]
THEOREM1_N = 4

# Jobs are (identity, ring, trial seed).  The int ring is left out: its
# jobs are about 50 times faster and would split job times into two
# clusters.  A round runs one props12 job (0.55 s at the seed), one
# burnside axioms job (0.85 s) and three lext ones: two of 1.05 s and one of
# 1.35 s, so that in five rounds the median (the 13th of 25 jobs) and the
# tail (the 15th) both fall inside the ten 1.05 s jobs.
SERIES_POOL = [("props12", None, 0), ("axioms", "burnside", 0),
               ("axioms", "lext", 1), ("axioms", "lext", 3),
               ("axioms", "lext", 2)]
SERIES_WARMUP = ("props12", None, 100)

# Built with the class constructors, so no job reuses another's lattice.
# C2wrS3 is weighted so that the median and the tail job both fall inside
# its cluster of times rather than between two groups' clusters.
MARKS_GROUPS = {
    "S4": lambda g: g.SymmetricGroup(4),
    "C2wrS3": lambda g: g.WreathGroup(g.CyclicGroup(2), 3),
    "S3wrS2": lambda g: g.WreathGroup(g.SymmetricGroup(3), 2),
    "S5": lambda g: g.SymmetricGroup(5),
}
MARKS_POOL = ["S4"] * 3 + ["C2wrS3"] * 3 + ["S3wrS2", "S5"]


def forget_equichar():
    """Drop every loaded equichar module and collect the garbage, so that
    the next import starts with empty module-level caches, as in a new
    process, and no set-up pays for freeing the one before it."""
    for name in [n for n in sys.modules
                 if n == "equichar" or n.startswith("equichar.")]:
        del sys.modules[name]
    gc.collect()


def import_all(*names):
    return [importlib.import_module(n) for n in names]


def child_env(src):
    """Environment for equichar child processes: no disk cache of tables of
    marks, and bytecode caching on, as for an installed package."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("EQUICHAR_CACHE", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def relabel(cell, rng):
    """The same biset with its points renamed by a random permutation; every
    generator's permutation is conjugated, so the report is unchanged."""
    size = cell["size"]
    pi = list(range(size))
    rng.shuffle(pi)

    def conj(p):
        out = [0] * size
        for x in range(size):
            out[pi[x]] = pi[p[x]]
        return out
    return dict(cell, actO=[conj(p) for p in cell["actO"]],
                actB=[conj(p) for p in cell["actB"]])


class Theorem1Cli:
    name = "theorem1-cli"
    in_process = False
    round_seconds = 7

    def __init__(self, goldens, src, workdir):
        self.cells = goldens["theorem1"]
        self.workdir = workdir
        self.env = child_env(src)
        self.timeout = 150
        self.peak_kb = 0
        self.probes = []

    def setup(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import equichar.cli"],
                       env=self.env, cwd=self.workdir, check=True,
                       timeout=self.timeout)
        return time.perf_counter() - t0

    def round(self, rng):
        jobs = []
        for cell_id in rng.sample(THEOREM1_POOL, len(THEOREM1_POOL)):
            cell = self.cells[cell_id]
            jobs.append((cell_id, relabel(cell["input"], rng)))
        return jobs

    def key(self, job):
        return job[0]

    def prepare(self, job, index):
        cell_id, biset = job
        path = os.path.join(self.workdir, f"job{index}.json")
        with open(path, "w") as fh:
            json.dump(biset, fh)
        k = self.cells[cell_id]["k"]
        return ["verify", "theorem1", "--input", path, "--k", str(k),
                "--N", str(THEOREM1_N), "--format", "json"]

    def run(self, job, argv, tracer):
        """One CLI process, run through the shim, which writes the child's
        own peak RSS and, when traced, installs the wrappers in the child
        and writes its trace; (ok, seconds, error).  A spawned speed probe
        runs first, outside the timing."""
        self.probes.append(probe.spawn_slowdown(self.env, self.workdir,
                                                self.timeout))
        cell_id, _ = job
        out_path = os.path.join(self.workdir, "child.json")
        cmd = [sys.executable, SHIM, out_path, repr(time.time()),
               "0" if tracer is None else "1"] + argv
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.workdir,
                                  capture_output=True, text=True,
                                  timeout=self.timeout)
        except subprocess.TimeoutExpired:
            return False, time.perf_counter() - t0, f"{cell_id}: timed out"
        seconds = time.perf_counter() - t0
        if os.path.exists(out_path):
            with open(out_path) as fh:
                child = json.load(fh)
            os.remove(out_path)
            self.peak_kb = max(self.peak_kb, child["peak_rss_kb"])
            if tracer is not None:
                tracer.merge(child["trace"])
        if proc.returncode != 0:
            return False, seconds, (f"{cell_id}: exit {proc.returncode}: "
                                    f"{proc.stderr.strip()[-300:]}")
        try:
            passed = json.loads(proc.stdout).get("pass") is True
        except ValueError:
            passed = False
        if not passed or proc.stdout != self.cells[cell_id]["stdout"]:
            return False, seconds, f"{cell_id}: output differs from golden"
        return True, seconds, None

    def peak_rss_mb(self):
        """Largest peak of the CLI processes, each measured by the process
        itself after its exec, so this process's memory is not counted."""
        return self.peak_kb / 1024


class InProcess:
    """Jobs that call the library in the benchmark's own process."""

    in_process = True

    def prepare(self, job, index):
        return None

    def run(self, job, argv, tracer):
        """One library call, after the speed probes; (ok, seconds, error).
        When traced, the wrappers are already installed in this process."""
        self.probes.append(probe.slowdown())
        t0 = time.perf_counter()
        try:
            result = self.call(job)
        except Exception as e:  # a job that raises is a failed job
            return False, time.perf_counter() - t0, f"{job}: {e!r}"
        seconds = time.perf_counter() - t0
        if not self.check(job, result):
            return False, seconds, f"{job}: output differs from golden"
        return True, seconds, None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SeriesLaws(InProcess):
    name = "series-laws"
    round_seconds = 5

    def __init__(self, goldens, src, workdir):
        self.goldens = goldens["series"]
        self.probes = []

    def setup(self):
        self.harness = None
        forget_equichar()
        t0 = time.perf_counter()
        (harness, burnside, groups, motivic, powerstruct) = import_all(
            "equichar.harness", "equichar.burnside", "equichar.groups",
            "equichar.motivic", "equichar.powerstruct")
        s3 = burnside.burnside_ring(groups.symmetric(3))
        c2 = burnside.burnside_ring(groups.cyclic(2))
        powerstruct.burnside_coeff_ring(s3)
        motivic.lext_coeff_ring(c2)
        motivic.lext_coeff_ring(s3)
        self.harness = harness
        self.call(SERIES_WARMUP)
        return time.perf_counter() - t0

    def round(self, rng):
        return rng.sample(SERIES_POOL, len(SERIES_POOL))

    def call(self, job):
        kind, ring, seed = job
        if kind == "axioms":
            return self.harness.verify_axioms(ring, trials=1, N=6, seed=seed)
        return self.harness.verify_props12(trials=1, N=5, seed=seed)

    def check(self, job, report):
        got = json.dumps(report.to_json(), sort_keys=True)
        return report.passed and got == self.goldens[self.key(job)]

    def key(self, job):
        kind, ring, seed = job
        return f"{kind}-{ring}-{seed}" if ring else f"{kind}-{seed}"


class MarksCold(InProcess):
    name = "marks-cold"
    round_seconds = 9

    def __init__(self, goldens, src, workdir):
        self.goldens = goldens["marks"]
        self.probes = []

    def setup(self):
        self.groups = self.burnside = None
        forget_equichar()
        t0 = time.perf_counter()
        self.groups, self.burnside = import_all("equichar.groups",
                                                "equichar.burnside")
        for build in MARKS_GROUPS.values():
            build(self.groups)
        return time.perf_counter() - t0

    def round(self, rng):
        return rng.sample(MARKS_POOL, len(MARKS_POOL))

    def call(self, job):
        return self.burnside.burnside_ring(MARKS_GROUPS[job](self.groups))

    def check(self, job, ring):
        return marks_record(ring) == self.goldens[job]

    def key(self, job):
        return job


def marks_record(ring):
    return {"basis": [ring.basis_name(i) for i in range(ring.n)],
            "marks": [list(row) for row in ring.marks_rows]}


WORKLOADS = {w.name: w for w in (Theorem1Cli, SeriesLaws, MarksCold)}
