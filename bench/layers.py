"""Outside-in per-layer tracing for the benchmark.

Wrappers are installed from here onto equichar's public functions and
methods; nothing under src/ knows about them.  A span wrapper adds the
call's self time (its duration minus the time covered by child spans) to
its layer, and a counter wrapper only counts calls.  Spans are aggregated
per layer name as they close rather than kept one by one, so a traced run
holds constant memory however many millions of calls it makes.

A function is patched in every equichar module that binds it, because
`from .groups import closure` copies the reference: patching only the
defining module would miss calls made through the copy.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (layer, module, attribute path) for every timed span.  gsets.act is timed
# only at its outermost call: a wreath power's act recurses into the base
# set's act, and timing both would count the same interval twice.
SPANS = [
    ("groups.wreath_build", "groups", "WreathGroup.__init__"),
    ("groups.classes", "groups", "conjugacy_classes_in"),
    ("groups.centralizer", "groups", "centralizer_in"),
    ("groups.lattice", "groups", "subgroup_lattice"),
    ("groups.closure", "groups", "closure"),
    ("gsets.act", "gsets", "BiSet.act"),
    ("gsets.wreath_power", "gsets", "wreath_power"),
    ("gsets.orbits", "gsets", "BiSet.orbits_on"),
    ("gsets.validate", "gsets", "BiSet.validate"),
    ("gsets.symmetric_power", "gsets", "symmetric_power"),
    ("euler.chi_k", "euler", "chi_k_equivariant"),
    ("burnside.marks_build", "burnside", "BurnsideRing.__init__"),
    ("burnside.class_of", "burnside", "class_of"),
    ("burnside.mul", "burnside", "BurnsideElement.__mul__"),
    ("powerstruct.series_mul", "powerstruct", "TruncatedSeries.mul"),
    ("powerstruct.factorize", "powerstruct", "lambda_factorize"),
    ("powerstruct.power", "powerstruct", "power"),
    ("powerstruct.rhs", "powerstruct", "rhs_theorem1"),
    ("motivic.mul", "motivic", "LExtElement.__mul__"),
    ("cli.main", "cli", "main"),
    ("io.load", "io", "load_json"),
    ("io.load", "io", "space_from_json"),
    ("harness.verify", "harness", "verify_theorem1"),
    ("harness.verify", "harness", "verify_axioms"),
    ("harness.verify", "harness", "verify_props12"),
]
OUTERMOST_ONLY = {"gsets.act"}

# (layer, module, attribute path) for calls that are only counted: they are
# too frequent and too short to time without distorting what they measure.
COUNTERS = [
    ("groups.word", "groups", "FiniteGroup.word"),
    ("burnside.from_marks", "burnside", "BurnsideRing.from_marks"),
    ("powerstruct.invert", "powerstruct", "TruncatedSeries.invert"),
    ("powerstruct.lambda_term", "powerstruct", "lambda_term"),
    ("motivic.lext", "motivic", "lext"),
]

# Per-layer metrics reported by a traced run, per job, with their units.
# `.s` is self time and `.calls` counts calls, cache hits included.
METRICS = [
    ("groups.mul.calls", "calls/job"),
    ("groups.word.calls", "calls/job"),
    ("groups.wreath_build.s", "s/job"),
    ("groups.classes.s", "s/job"),
    ("groups.classes.calls", "calls/job"),
    ("groups.centralizer.s", "s/job"),
    ("groups.centralizer.calls", "calls/job"),
    ("groups.lattice.s", "s/job"),
    ("groups.lattice.subgroups", "subgroups/job"),
    ("groups.lattice.classes", "classes/job"),
    ("groups.closure.s", "s/job"),
    ("groups.closure.calls", "calls/job"),
    ("gsets.act.s", "s/job"),
    ("gsets.act.calls", "calls/job"),
    ("gsets.wreath_power.s", "s/job"),
    ("gsets.wreath_power.points", "points/job"),
    ("gsets.orbits.s", "s/job"),
    ("gsets.orbits.calls", "calls/job"),
    ("gsets.validate.s", "s/job"),
    ("gsets.symmetric_power.s", "s/job"),
    ("euler.chi_k.s", "s/job"),
    ("euler.chi_k.calls", "calls/job"),
    ("euler.memo_entries", "entries/job"),
    ("burnside.marks_build.s", "s/job"),
    ("burnside.class_of.s", "s/job"),
    ("burnside.class_of.calls", "calls/job"),
    ("burnside.mul.s", "s/job"),
    ("burnside.mul.calls", "calls/job"),
    ("burnside.from_marks.calls", "calls/job"),
    ("powerstruct.series_mul.s", "s/job"),
    ("powerstruct.series_mul.calls", "calls/job"),
    ("powerstruct.invert.calls", "calls/job"),
    ("powerstruct.factorize.s", "s/job"),
    ("powerstruct.power.s", "s/job"),
    ("powerstruct.power.calls", "calls/job"),
    ("powerstruct.lambda_term.calls", "calls/job"),
    ("powerstruct.rhs.s", "s/job"),
    ("motivic.mul.s", "s/job"),
    ("motivic.mul.calls", "calls/job"),
    ("motivic.lext.calls", "calls/job"),
    ("cli.startup.s", "s/job"),
    ("cli.import.s", "s/job"),
    ("cli.main.s", "s/job"),
    ("io.load.s", "s/job"),
    ("harness.verify.s", "s/job"),
    ("harness.checks", "checks/job"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]


class Tracer:
    """Self time, call counts and work counts per layer name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.root_s = 0.0          # time covered by outermost spans
        self._stack = []           # [layer, child seconds] per open span

    def add_root(self, layer, seconds):
        """Record a span measured by hand, with no parent."""
        self.self_s[layer] += seconds
        self.root_s += seconds

    def span(self, layer, fn, after=None):
        counts, self_s, stack = self.counts, self.self_s, self._stack
        calls = layer + ".calls"
        outermost_only = layer in OUTERMOST_ONLY
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if outermost_only and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.root_s += dt
            if after is not None:
                after(counts, args, result)
            return result
        return wrapper

    def counter(self, layer, fn):
        counts = self.counts
        calls = layer + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)
        return wrapper

    def merge(self, snapshot):
        for k, v in snapshot["self_s"].items():
            self.self_s[k] += v
        for k, v in snapshot["counts"].items():
            self.counts[k] += v
        self.root_s += snapshot["root_s"]

    def snapshot(self):
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "root_s": self.root_s}

    def per_job(self, jobs, job_seconds, overhead):
        """Every METRICS entry as {name: {"value", "unit"}}, per job."""
        jobs = max(jobs, 1)
        out = {}
        for name, unit in METRICS:
            if name == "trace.coverage":
                value = self.root_s / job_seconds if job_seconds else 0.0
            elif name == "trace.overhead":
                value = overhead
            elif name.endswith(".s"):
                value = self.self_s.get(name[:-2], 0.0) / jobs
            else:
                value = self.counts.get(name, 0) / jobs
            out[name] = {"value": value, "unit": unit}
        return out


# -- work counts taken from a span's arguments and result --------------------

def _count_lattice(counts, args, lattice):
    counts["groups.lattice.subgroups"] += len(lattice.class_index)
    counts["groups.lattice.classes"] += len(lattice.classes)


def _count_points(counts, args, biset):
    counts["gsets.wreath_power.points"] += biset.size


def _count_checks(counts, args, report):
    counts["harness.checks"] += len(report.degrees)


AFTER = {
    "groups.lattice": _count_lattice,
    "gsets.wreath_power": _count_points,
    "harness.verify": _count_checks,
}


def _memo_size(args):
    memo = getattr(args[0], "__dict__", {}).get("_chi_memo")
    return len(memo) if memo is not None else 0


def _chi_k_span(tracer, fn):
    """chi_k_equivariant, also counting memo entries each call adds."""
    timed = tracer.span("euler.chi_k", fn)
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        before = _memo_size(args)
        result = timed(*args, **kwargs)
        counts["euler.memo_entries"] += _memo_size(args) - before
        return result
    return wrapper


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _equichar_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "equichar"
                                  or name.startswith("equichar."))]


def install(tracer):
    """Wrap every traced name in the loaded equichar modules; returns an
    undo function that restores the originals."""
    groups = sys.modules["equichar.groups"]
    modules = _equichar_modules()
    undo = []

    def patch(owner, attr, wrapped):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def patch_everywhere(module_name, path, make):
        module = sys.modules.get("equichar." + module_name)
        if module is None:  # not imported by this workload
            return
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapped = make(original)
        if isinstance(owner, type):
            patch(owner, attr, wrapped)
            return
        for binder in modules:
            for name, value in list(vars(binder).items()):
                if value is original:
                    patch(binder, name, wrapped)

    for layer, module_name, path in SPANS:
        if layer == "euler.chi_k":
            make = lambda fn: _chi_k_span(tracer, fn)
        else:
            make = lambda fn, layer=layer: tracer.span(layer, fn,
                                                       AFTER.get(layer))
        patch_everywhere(module_name, path, make)
    for layer, module_name, path in COUNTERS:
        patch_everywhere(module_name, path,
                         lambda fn, layer=layer: tracer.counter(layer, fn))
    # every group class overrides mul, so wrap each one's own definition
    pending = [groups.FiniteGroup]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "mul" in cls.__dict__:
            patch(cls, "mul", tracer.counter("groups.mul", cls.__dict__["mul"]))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall
