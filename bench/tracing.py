"""Outside-in tracing of symposet's layers, installed from the benchmark.

``Instrumentation.install()`` replaces the public functions of each layer
with wrappers at every place a caller looks them up: the globals of each
``symposet`` module that holds the function, and class attributes for
methods.  While a ``Tracer`` is attached, a wrapper records a span (name,
start, end, parent) or, for hot leaves, only a call count, and feeds exact
counters read from arguments and return values.  ``restore()`` puts every
original object back.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time


class Tracer:
    """Spans and counters of one phase (a set-up or a timed pass)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, value):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def summary(self):
        """(calls, self seconds) per span name, and CM task durations.

        Self time is a span's duration minus the durations of its direct
        children.  A CM task is a ``homology_spherical`` span opened
        directly under ``cohen_macaulay_check``.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, cm_task_s = {}, {}, []
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            if (name == CM_TASK and parent >= 0
                    and self.spans[parent][0] == CM_SWEEP):
                cm_task_s.append(end - start)
        return calls, self_s, cm_task_s


CM_TASK = "homology.homology_spherical"
CM_SWEEP = "homology.cohen_macaulay_check"


# ---------------------------------------------------------------------------
# exact counters, read from arguments and return values

def _poset_size(t, args, kwargs, out):
    t.add("builders.elements", len(out))
    t.add("builders.relations", sum(len(out.above(x)) for x in out))


def _complex_size(t, args, kwargs, out):
    for k, simplices in enumerate(out.by_dim):
        t.add(f"complexes.simplices.d{k}", len(simplices))
    total = out.total()
    t.add("complexes.simplices", total)
    t.peak("complexes.simplices_max", total)


def _snf_size(t, args, kwargs, out):
    t.add("snf.nnz_in", sum(len(cs) for cs in args[0].values()))
    t.add("snf.rank_out", len(out))


def _dense_shape(t, args, kwargs, out):
    A = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(A[0]) if A else 0
    t.add("snf.dense_cells", len(A) * ncols)


def _cm_task(t, args, kwargs, out):
    if t.current() == CM_SWEEP:
        t.add("homology.cm_tasks")
        if len(args[0]):
            t.add("homology.cm_nonempty")


def _tietze_size(t, args, kwargs, out):
    t.add("pi1.gens_in", args[0])
    t.add("pi1.relators_in", len(args[1]))
    t.add("pi1.gens_out", out[0])
    t.add("pi1.relators_out", len(out[1]))


def _probe_outcome(t, args, kwargs, out):
    t.add(f"pi1.outcome.{out}")
    if out in ("trivial", "nontrivial"):
        t.add("pi1.decided")


# (module, attribute or Class.method, layer name, observer, sites)
# sites=None means every symposet module whose globals hold the function.
SPANS = [
    ("builders", "build_U", "builders.build_U", _poset_size, None),
    ("builders", "build_D", "builders.build_D", _poset_size, None),
    ("builders", "build_I", "builders.build_I", _poset_size, None),
    ("builders", "build_O", "builders.build_O", _poset_size, None),
    ("trees", "build_TD", "trees.build_TD", _poset_size, None),
    ("trees", "tree_forget_map", "trees.tree_forget_map", None, None),
    ("posets", "FinitePoset.induced", "posets.induced", None, None),
    ("posets", "thick_join", "posets.thick_join", None, None),
    ("posets", "barycentric_subdivision", "posets.barycentric_subdivision",
     None, None),
    ("posets", "mapping_cylinder", "posets.mapping_cylinder", None, None),
    ("posets", "mapping_cone", "posets.mapping_cone", None, None),
    ("complexes", "order_complex", "complexes.order_complex",
     _complex_size, None),
    ("complexes", "OrderComplex.boundary_rows", "complexes.boundary_rows",
     None, None),
    ("complexes", "OrderComplex.dd_zero_check", "complexes.dd_zero_check",
     None, None),
    ("complexes", "relative_boundary_rows", "complexes.relative_boundary_rows",
     None, None),
    ("snf", "smith_invariants", "snf.smith_invariants", _snf_size, None),
    # only the dense finish of the sparse route, not the builders' uses
    ("snf", "dense_smith", "snf.dense_smith", _dense_shape, ("snf",)),
    ("homology", "cohen_macaulay_check", CM_SWEEP, None, None),
    ("homology", "map_connectivity", "homology.map_connectivity", None, None),
    ("homology", "homologically_connected", "homology.homologically_connected",
     None, None),
    ("homology", "homology_spherical", CM_TASK, _cm_task, None),
    ("homology", "reduced_homology", "homology.reduced_homology", None, None),
    ("homology", "relative_homology", "homology.relative_homology",
     None, None),
    ("pi1", "pi1_probe", "pi1.pi1_probe", _probe_outcome, None),
    ("pi1", "edge_path_presentation", "pi1.edge_path_presentation",
     None, None),
    ("pi1", "tietze_reduce", "pi1.tietze_reduce", _tietze_size, None),
    ("pi1", "coset_enumeration_trivial", "pi1.coset_enumeration_trivial",
     None, None),
]

# hot leaves: a span each would cost more than the work it measures
COUNTS = [
    ("symplectic", "Submodule.contains_submodule",
     "symplectic.contains_submodule"),
    ("symplectic", "Submodule.intersect", "symplectic.intersect"),
    ("linalg", "rref_with_transform", "linalg.rref_with_transform"),
]


class Instrumentation:
    """Installs the wrappers and routes them to the attached tracer."""

    def __init__(self):
        self.tracer = None
        self.patched = []  # (owner, attribute, original)

    def _span(self, layer, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = self.tracer
            if t is None:
                return fn(*args, **kwargs)
            t.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                t.close()
            if observe is not None:
                observe(t, args, kwargs, out)
            return out
        return wrapper

    def _count(self, layer, fn):
        key = layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = self.tracer
            if t is not None:
                t.add(key)
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module, attr, sites, make):
        mod = importlib.import_module("symposet." + module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self.patched.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        names = ["symposet." + s for s in sites] if sites else [
            n for n in sys.modules
            if n == "symposet" or n.startswith("symposet.")]
        for name in names:
            owner = sys.modules[name]
            for key, value in list(vars(owner).items()):
                if value is original:
                    self.patched.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def install(self):
        assert not self.patched, "already installed"
        for module, attr, layer, observe, sites in SPANS:
            self._patch(module, attr, sites,
                        lambda fn, l=layer, o=observe: self._span(l, fn, o))
        for module, attr, layer in COUNTS:
            self._patch(module, attr, None,
                        lambda fn, l=layer: self._count(l, fn))

    def restore(self):
        for owner, key, original in reversed(self.patched):
            setattr(owner, key, original)
        self.patched = []


# ---------------------------------------------------------------------------
# per-layer metrics

def phase_profile(tracer):
    """Counts (exact) and self times (measured) of one traced phase."""
    calls, self_s, cm_task_s = tracer.summary()
    counts = dict(tracer.counts)
    for name, n in calls.items():
        counts[name + ".calls"] = n
    return counts, self_s, cm_task_s


def layer_metrics(setup, passes):
    """Per-layer values for one set-up plus one timed pass.

    ``setup`` is the profile of the set-up whose inputs the passes used and
    ``passes`` the profiles of the traced passes.  Counts come from the
    first pass (every pass does identical work), self times are medians
    over the passes, task percentiles pool every pass.  Returns the values
    and whether every pass repeated the counts of the first exactly.
    """
    s_counts, s_times, _ = setup
    p_counts, _, _ = passes[0]
    repeat = all(p[0] == p_counts for p in passes)
    counts = dict(s_counts)
    for k, v in p_counts.items():
        if k == "complexes.simplices_max":
            counts[k] = max(counts.get(k, 0), v)
        else:
            counts[k] = counts.get(k, 0) + v
    times = dict(s_times)
    for name in {n for p in passes for n in p[1]}:
        times[name] = times.get(name, 0.0) + statistics.median(
            p[1].get(name, 0.0) for p in passes)
    task_ms = sorted(1000.0 * d for p in passes for d in p[2])

    out = dict(counts)
    for name, v in times.items():
        out[name + ".s"] = v
    tasks = counts.get("homology.cm_tasks", 0)
    out["homology.cm_nonempty_ratio"] = (
        counts.get("homology.cm_nonempty", 0) / tasks if tasks else 0.0)
    probes = counts.get("pi1.pi1_probe.calls", 0)
    out["pi1.decided_ratio"] = (
        counts.get("pi1.decided", 0) / probes if probes else 0.0)
    if task_ms:
        out["homology.cm_task.p50_ms"] = _percentile(task_ms, 50)
        out["homology.cm_task.p99_ms"] = _percentile(task_ms, 99)
    return out, repeat


def _percentile(ordered, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[k]
