"""Write bench/goldens.json: the expected output of every job the benchmark
can run, computed by the code in ./src.

    python3 bench/make_goldens.py

The committed file was made at the seed commit.  A later change must match
it, not regenerate it; regenerate only to add jobs to a pool.
"""

import json
import os
import subprocess
import sys
import tempfile

import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(workloads.HERE, "goldens.json")

GROUPS = {"triv": {"type": "trivial"}, "C2": {"type": "cyclic", "n": 2},
          "C3": {"type": "cyclic", "n": 3},
          "S3": {"type": "symmetric", "n": 3}}
SWAP, STAY = [1, 0, 2], [0, 1, 2]
SWAP_GENS = {"triv": [], "C2": [SWAP], "C3": [STAY], "S3": [SWAP, STAY]}


def regular(GO, GB):
    """Left-regular O action; GB acts trivially on the same points."""
    return (GO.order,
            [[GO.mul(s, x) for x in range(GO.order)] for s in GO.generators],
            [list(range(GO.order)) for _ in GB.generators])


def biregular(GO, GB):
    """GO x GB points; GO moves the first coordinate, GB the second."""
    pts = [(a, b) for a in range(GO.order) for b in range(GB.order)]
    idx = lambda a, b: a * GB.order + b
    return (len(pts),
            [[idx(GO.mul(s, a), b) for a, b in pts] for s in GO.generators],
            [[idx(a, GB.mul(t, b)) for a, b in pts] for t in GB.generators])


def swap3(GO, GB):
    """Three points; each side swaps the first two through its sign-like
    quotient (groups without one act trivially)."""
    return 3, SWAP_GENS[GO.label], SWAP_GENS[GB.label]


def theorem1_goldens(tmp):
    """Every cell of the acceptance criterion-2 grid, with its CLI stdout."""
    from equichar.groups import make_group
    env = workloads.child_env(SRC)
    out = {}
    for o in ("C2", "C3", "S3"):
        for b in ("triv", "C2"):
            GO, GB = make_group(GROUPS[o]), make_group(GROUPS[b])
            for shape, build in (("regular", regular),
                                 ("biregular", biregular), ("swap3", swap3)):
                size, actO, actB = build(GO, GB)
                cell = {"size": size, "gO": GROUPS[o], "gB": GROUPS[b],
                        "actO": actO, "actB": actB}
                for k in (1, 2):
                    cell_id = f"{o}-{b}-{shape}-k{k}"
                    path = os.path.join(tmp, "cell.json")
                    with open(path, "w") as fh:
                        json.dump(cell, fh)
                    proc = subprocess.run(
                        [sys.executable, "-m", "equichar.cli", "verify",
                         "theorem1", "--input", path, "--k", str(k),
                         "--N", str(workloads.THEOREM1_N), "--format",
                         "json"], env=env, capture_output=True, text=True,
                        check=True)
                    out[cell_id] = {"input": cell, "k": k,
                                    "stdout": proc.stdout}
                    print(cell_id, flush=True)
    return out


def main():
    os.environ.pop("EQUICHAR_CACHE", None)
    sys.path.insert(0, SRC)
    none = {"theorem1": {}, "series": {}, "marks": {}}
    series = workloads.SeriesLaws(none, SRC, None)
    series.setup()
    marks = workloads.MarksCold(none, SRC, None)
    marks.setup()
    # ten trial seeds per kind: a superset of the pool, so the pool can be
    # resized without new goldens
    series_jobs = [(kind, ring, s) for kind, ring in workloads.SERIES_KINDS
                   for s in range(10)]
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT,
                                                      ".bench_tmp")) as tmp:
        cells = theorem1_goldens(tmp)
    goldens = {
        "theorem1": cells,
        "series": {series.key(job):
                   json.dumps(series.call(job).to_json(), sort_keys=True)
                   for job in series_jobs},
        "marks": {name: workloads.marks_record(marks.call(name))
                  for name in workloads.MARKS_GROUPS},
    }
    with open(OUT, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
