"""equichar benchmark: one closed-loop client running one job at a time.

    python3 bench/run.py --workload theorem1-cli --seed 1 --seconds 26 --trace 0

Run it from the root of a checkout; it imports equichar from ./src and
writes only under ./.bench_tmp (a fresh working directory per run, removed
at the end) and next to the sources (bytecode caches).  The workloads and
their job pools are in workloads.py; every job's output is checked against
bench/goldens.json, written at the seed commit.  EQUICHAR_CACHE is unset
and no --cache-dir is passed, so every table of marks is computed.

A run executes a fixed number of whole rounds of jobs: --seconds divided
by the workload's nominal round time (measured at the seed commit), at
least one.  The count depends on --seconds only, never on how fast the code
is, so a faster change runs the same jobs as its parent and job_s_tail is
the same percentile of the same jobs.

With --trace 0 the run reports the end-to-end metrics: setup_s (median of
several set-ups, spread before, between and after the rounds so that they
sample the machine's state over the whole run, as the jobs do), job_s_p50,
job_s_tail (the highest percentile with at least ten jobs above it),
jobs_per_s (correct jobs per second with every job taking the median time
of its key across the rounds, see throughput()) and peak_rss_mb.  The
timings are scaled by the run's median slowdown, measured by the speed
probe of probe.py between the jobs, to the speed of the machine the seed
baseline was measured on; the record keeps the unscaled values and the
slowdown.  With --trace 1 it runs half of the rounds (at least one)
untraced, runs the same jobs again with the wrappers of layers.py
installed, and reports the per-layer metrics per job (unscaled), the share
of job time the spans cover and the traced throughput relative to the
untraced one.

Standard output ends with a table (which adds fail_ratio and the tail's
percentile and job count), a `record:` line holding the full result
(machine, versions, commit, source line count, per-job times) and, last,
one JSON object with the keys correct, attempted, failed and metrics.
--record FILE also merges the record into FILE, keyed by workload and trace
mode; bench/BENCH_seed.json was made that way at the seed commit.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

import layers
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")

# set-ups timed per run, shared out between the gaps around the rounds
SETUPS = 9

END_TO_END = [("setup_s", "s"), ("job_s_p50", "s"), ("job_s_tail", "s"),
              ("jobs_per_s", "1/s"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--goldens",
                   default=os.path.join(workloads.HERE, "goldens.json"))
    p.add_argument("--record", default=None)
    return p.parse_args(argv)


def run_jobs(workload, jobs, tracer=None):
    """Run jobs one after another: [(key, ok, seconds)]."""
    results = []
    for index, job in enumerate(jobs):
        argv = workload.prepare(job, index)
        # start each job from a collected heap, so no job pays for the
        # garbage of the one before it
        gc.collect()
        ok, seconds, error = workload.run(job, argv, tracer)
        if error:
            print(f"job failed: {error}", file=sys.stderr)
        results.append((workload.key(job), ok, seconds))
    return results


def rounds(workload, seconds):
    """Whole rounds a run of `seconds` executes, fixed by `seconds` alone."""
    return max(1, round(seconds / workload.round_seconds))


def run_rounds(workload, rng, count, time_setups):
    """`count` rounds of fresh jobs: (jobs, results, set-up seconds).  With
    `time_setups`, SETUPS set-ups are timed in groups before, between and
    after the rounds."""
    jobs, results, setups = [], [], []
    for r in range(count + 1):
        if time_setups:
            group = SETUPS // (count + 1) + (r < SETUPS % (count + 1))
            setups += [workload.setup() for _ in range(group)]
        if r == count:
            break
        round_jobs = workload.round(rng)
        jobs += round_jobs
        results += run_jobs(workload, round_jobs)
    return jobs, results, setups


def throughput(results):
    """Correct jobs per second, each job counted at the median time of its
    key over the run: every key runs in each round, so a burst of load on
    the machine that slows one of its runs barely moves that median, where
    it would move jobs over wall time by all of its length."""
    times = {}
    for key, _, seconds in results:
        times.setdefault(key, []).append(seconds)
    median = {key: statistics.median(v) for key, v in times.items()}
    ok = sum(1 for _, good, _ in results if good)
    return ok / sum(median[key] for key, _, _ in results)


def tail(times):
    """The highest percentile with at least ten jobs above it, as
    (value, percentile); the smallest time when there are ten jobs or fewer."""
    ordered = sorted(times)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def machine():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:  # read from the metadata: importing numpy would raise peak RSS
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": git_commit(), "src_lines": source_lines()}


def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_lines():
    total = 0
    pkg = os.path.join(SRC, "equichar")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "equichar", "__init__.py")):
        print("error: run from the root of a checkout holding src/equichar",
              file=sys.stderr)
        return 2
    with open(args.goldens) as fh:
        goldens = json.load(fh)
    os.environ.pop("EQUICHAR_CACHE", None)
    # import from cached bytecode, as an installed package would; the first
    # set-up of a fresh checkout writes it
    sys.dont_write_bytecode = False
    sys.path.insert(0, SRC)
    os.makedirs(TMP, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=TMP)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        record = measure(args, goldens, workdir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    report(record, args.record)
    return 0


def measure(args, goldens, workdir):
    workload = workloads.WORKLOADS[args.workload](goldens, SRC, workdir)
    rng = random.Random(args.seed)
    count = rounds(workload, args.seconds)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine()}
    if not args.trace:
        _, results, setups = run_rounds(workload, rng, count, True)
        times = [s for _, _, s in results]
        tail_value, tail_pct = tail(times)
        raw = {"setup_s": statistics.median(setups),
               "job_s_p50": statistics.median(times),
               "job_s_tail": tail_value,
               "jobs_per_s": throughput(results)}
        # the host's speed drifts by 10-40% from minute to minute, so every
        # timing is scaled to the speed of the reference machine (probe.py)
        slowdown = statistics.median(workload.probes)
        values = {name: value / slowdown for name, value in raw.items()}
        values["jobs_per_s"] = raw["jobs_per_s"] * slowdown
        values["peak_rss_mb"] = workload.peak_rss_mb()
        record["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
        record["unscaled"] = raw
        record["slowdown"] = slowdown
        record["setup_runs"] = len(setups)
        record["tail_percentile"] = tail_pct
    else:
        workload.setup()
        jobs, plain, _ = run_rounds(
            workload, rng, max(1, count // 2), False)
        tracer = layers.Tracer()
        if workload.in_process:
            uninstall = layers.install(tracer)
            try:
                results = run_jobs(workload, jobs)
            finally:
                uninstall()
        else:
            results = run_jobs(workload, jobs, tracer)
        plain_rate = throughput(plain)
        overhead = throughput(results) / plain_rate if plain_rate else 0.0
        record["metrics"] = tracer.per_job(
            len(results), sum(s for _, _, s in results), overhead)
        results = plain + results
    record["jobs"] = len(results)
    record["failed"] = sum(1 for _, good, _ in results if not good)
    record["job_seconds"] = {}
    for key, _, seconds in results:
        record["job_seconds"].setdefault(key, []).append(seconds)
    record["fail_ratio"] = record["failed"] / len(results)
    return record


def report(record, record_path):
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:>13}  {name:<30} {metric['value']:>14.6g}"
              f" {metric['unit']}")
    print(f"{record['workload']:>13}  {'fail_ratio':<30} "
          f"{record['fail_ratio']:>14.6g} ratio")
    if "tail_percentile" in record:
        print(f"{record['workload']:>13}  job_s_tail is "
              f"p{record['tail_percentile']:.1f} of {record['jobs']} jobs")
    print("record: " + json.dumps(record, sort_keys=True))
    if record_path:
        merged = {}
        if os.path.exists(record_path):
            with open(record_path) as fh:
                merged = json.load(fh)
        key = f"{record['workload']}/trace{record['trace']}"
        merged[key] = record
        with open(record_path, "w") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["jobs"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    sys.exit(main())
