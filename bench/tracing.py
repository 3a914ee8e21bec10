"""Spans and counters around the calls into each sumsetlab layer.

The tracer wraps functions at the names their calling modules bind: every
public function that ``cli``, ``hunts`` or ``inequalities`` imports from
another layer, the intra-layer calls named in INTRA_LAYER, the package-level
names the benchmark itself calls, and ``cli.main``. Each wrapped call records
a span (name, layer, start, end, parent span, op id) in memory. Structure
methods (``compose``, ``validate``) and ``FiniteSet`` construction are too
fine-grained for spans: they get counting (and, for FiniteSet, timing)
wrappers on the classes. ``uninstall`` restores every original.

A layer's self time is the duration of its spans minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from time import perf_counter

import sumsetlab
import sumsetlab.cli
import sumsetlab.hunts
import sumsetlab.inequalities
import sumsetlab.sumsets
from sumsetlab import algebra
from workloads import witness_mask

LAYER_OF_MODULE = {
    "sumsetlab.sumsets": "sumsets",
    "sumsetlab.inequalities": "inequalities",
    "sumsetlab.hunts": "hunts",
    "sumsetlab.cli": "cli",
}
CALLERS = (sumsetlab.cli, sumsetlab.hunts, sumsetlab.inequalities)
# Calls inside one layer that still get a span: run_hunt's evaluations, and
# the searches construct_large_subset repeats (each scan is counted).
INTRA_LAYER = (
    (sumsetlab.hunts, "eval_question1"),
    (sumsetlab.hunts, "eval_question2"),
    (sumsetlab.inequalities, "find_plunnecke_subset_multi"),
)
# The package-level names the benchmark calls directly.
BENCH_CALLS = (
    (sumsetlab, "find_plunnecke_subset"),
    (sumsetlab, "find_plunnecke_subset_multi"),
    (sumsetlab.cli, "main"),
)
STRUCTURES = (
    algebra.Integers,
    algebra.Lattice,
    algebra.Residues,
    algebra.Permutations,
    algebra.IntersectionSemigroup,
    algebra.DirectPower,
)

SUMSET_KERNELS = {
    "sumset", "leave_one_out", "iterated_sum", "restricted_pair_sumset",
    "graph_triple_sumset", "direct_power",
}
SEARCHES = {"find_plunnecke_subset", "find_plunnecke_subset_multi"}
SCAN_GROUP = SEARCHES | {"construct_large_subset"}
EVALS = {"eval_question1", "eval_question2"}

PER_LAYER = (
    ("algebra.compose_calls", "count"),
    ("algebra.validate_calls", "count"),
    ("sumsets.sumset_calls", "count"),
    ("sumsets.sumset_s", "s"),
    ("sumsets.elements_out", "count"),
    ("sumsets.leave_one_out_calls", "count"),
    ("sumsets.finiteset_builds", "count"),
    ("sumsets.finiteset_s", "s"),
    ("sumsets.parse_s", "s"),
    ("inequalities.searches", "count"),
    ("inequalities.masks_scanned", "count"),
    ("inequalities.scan_s", "s"),
    ("inequalities.verify_s", "s"),
    ("inequalities.lex_s", "s"),
    ("inequalities.tf_s", "s"),
    ("inequalities.tf_doublings", "count"),
    ("hunts.instances", "count"),
    ("hunts.eval_s", "s"),
    ("hunts.self_s", "s"),
    ("hunts.log_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("bench.trace_overhead_s", "s"),
)


def tf_doublings(args, result) -> int:
    """Doublings of the torsion-free multiplier: log2(m / m0), with
    m0 = 1 + 2k * max |coordinate| the starting multiplier."""
    sets = args[0]
    m0 = 1 + 2 * len(sets) * max(abs(c) for s in sets for z in s for c in z)
    return (result[0] // m0).bit_length() - 1


# Counters taken from a span's arguments and result: (counter, function).
# A search scans masks 1, 2, ... up to the first valid one, so its witness
# mask over the sorted elements of A is the number of masks it scanned.
MEASURES = {
    **{name: ("sumsets.elements_out", lambda args, result: len(result)) for name in SUMSET_KERNELS},
    **{
        name: ("inequalities.masks_scanned", lambda args, w: witness_mask(args[0], w.x_set))
        for name in SEARCHES
    },
    "torsion_free_reduce": ("inequalities.tf_doublings", tf_doublings),
}


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._saved = []

    # --- wrappers ---

    def _span(self, name, layer, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, layer, start, end, parent, self.op_id)
            if measure is not None:
                counts[measure[0]] += measure[1](args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _timed_build(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(obj):
            start = perf_counter()
            fn(obj)
            counts["sumsets.finiteset_s"] += perf_counter() - start
            counts["sumsets.finiteset_builds"] += 1

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # --- install / uninstall ---

    def targets(self):
        """(module, name, layer) for every function name that gets a span."""
        out = []
        for module in CALLERS:
            for name, fn in vars(module).items():
                layer = LAYER_OF_MODULE.get(getattr(fn, "__module__", None))
                if (
                    inspect.isfunction(fn)
                    and not name.startswith("_")
                    and layer is not None
                    and fn.__module__ != module.__name__
                ):
                    out.append((module, name, layer))
        for module, name in INTRA_LAYER + BENCH_CALLS:
            out.append((module, name, LAYER_OF_MODULE[getattr(module, name).__module__]))
        return out

    def install(self):
        for module, name, layer in self.targets():
            fn = getattr(module, name)
            self._patch(module, name, self._span(name, layer, fn))
        for cls in STRUCTURES:
            self._patch(cls, "compose", self._counted("algebra.compose_calls", cls.__dict__["compose"]))
            self._patch(cls, "validate", self._counted("algebra.validate_calls", cls.__dict__["validate"]))
        fs = sumsetlab.sumsets.FiniteSet
        self._patch(fs, "__post_init__", self._timed_build(fs.__dict__["__post_init__"]))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- reporting ---

    def self_times(self):
        """Self time of every span, by span index."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self) -> dict:
        """Every per-layer metric except the byte counts and the overhead,
        which the benchmark measures from outside."""
        m = {name: 0 for name, _ in PER_LAYER}
        for key in ("algebra.compose_calls", "algebra.validate_calls",
                    "sumsets.finiteset_builds", "sumsets.finiteset_s", "sumsets.elements_out",
                    "inequalities.masks_scanned", "inequalities.tf_doublings"):
            m[key] = self.counts[key]
        for (name, layer, start, end, _, _), own in zip(self.spans, self.self_times()):
            if layer == "sumsets":
                if name in SUMSET_KERNELS:
                    m["sumsets.sumset_s"] += end - start
                    m["sumsets.sumset_calls"] += name == "sumset"
                    m["sumsets.leave_one_out_calls"] += name == "leave_one_out"
                elif name == "instance_from_json":
                    m["sumsets.parse_s"] += end - start
            elif layer == "inequalities":
                m["inequalities.searches"] += name in SEARCHES
                if name in SCAN_GROUP:
                    m["inequalities.scan_s"] += own
                elif name == "lex_min_decomposition":
                    m["inequalities.lex_s"] += own
                elif name == "torsion_free_reduce":
                    m["inequalities.tf_s"] += own
                else:
                    m["inequalities.verify_s"] += own
            elif layer == "hunts":
                if name in EVALS:
                    m["hunts.instances"] += 1
                    m["hunts.eval_s"] += end - start
                elif name == "run_hunt":
                    m["hunts.self_s"] += own
            elif layer == "cli" and name == "main":
                m["cli.self_s"] += own
        return m

    def write_spans(self, path):
        """Write the spans as JSON lines: name, layer, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
