"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Run from the root of a checkout; it takes about two minutes.  For each
workload, a one-round run must print every end-to-end metric named in
BENCHMARK.json with its unit, a traced one-round run every per-layer
metric, and both must fail no job.  A run against goldens with every entry
of the workload altered must report failed jobs.  Finally, the benchmark
must exit nonzero, printing no result, where there is no ./src/equichar.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SECTION = {"theorem1-cli": "theorem1", "series-laws": "series",
           "marks-cold": "marks"}


def bench(workload, *extra, cwd=None):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", *extra], capture_output=True, text=True,
        cwd=cwd)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"], out
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    return out, lines


def check_metrics(out, expected):
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == expected, (got, expected)
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def tamper(goldens, section):
    """Every golden of one workload, changed so no correct output matches."""
    altered = copy.deepcopy(goldens)
    for key, value in altered[section].items():
        if section == "marks":
            value["marks"][0][0] += 1
        elif section == "theorem1":
            value["stdout"] = value["stdout"].replace('"pass": true',
                                                      '"pass": false')
        else:
            altered[section][key] = value.replace('"pass": true',
                                                  '"pass": false')
    return altered


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(SECTION)
    with open(os.path.join(os.path.dirname(RUN), "goldens.json")) as fh:
        goldens = json.load(fh)
    os.makedirs(run.TMP, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="smoke-", dir=run.TMP)
    try:
        for workload, section in SECTION.items():
            out, lines = result(bench(workload, "--trace", "0"))
            assert out["correct"] and out["failed"] == 0, out
            check_metrics(out, end_to_end)
            assert any(line.split()[1:2] == ["fail_ratio"] and
                       line.split()[-1] == "ratio" for line in lines), lines

            out, _ = result(bench(workload, "--trace", "1"))
            assert out["correct"] and out["failed"] == 0, out
            check_metrics(out, per_layer)

            path = os.path.join(tmp, f"{section}.json")
            with open(path, "w") as fh:
                json.dump(tamper(goldens, section), fh)
            out, lines = result(bench(workload, "--trace", "0",
                                      "--goldens", path))
            record = json.loads(next(line[len("record: "):] for line in lines
                                     if line.startswith("record: ")))
            assert not out["correct"] and out["failed"] > 0, out
            assert record["fail_ratio"] > 0, record
            print(f"{workload}: ok", flush=True)
        bare = os.path.join(tmp, "bare")
        os.makedirs(bare)
        proc = bench("marks-cold", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("bare directory: exits nonzero", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
