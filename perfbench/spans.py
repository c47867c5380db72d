"""In-memory span tracing of drslab's public functions, from outside the package.

The tracer swaps each target function for a timing wrapper in every loaded
``drslab`` module that binds it by name (``drs``, ``ppa`` and ``cyclic`` all
import ``resolve`` directly, so patching ``drslab.operators`` alone would
miss their calls).  Spans are kept in a list and summarised per pass; the
package itself is never edited.

A span is ``(name, start, end, parent, op_id, info)``.  The module of a span
is the first part of its name.  A span's self time is its duration minus the
time covered by its nearest descendants that belong to another module, so
``drs.run`` self time is the loop and record keeping around its resolves and
``equivalence.compare_formulations`` self time is the code of that module.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from time import perf_counter

#: Functions traced in every pass, by defining module.
TARGETS = {
    "operators": ("resolve", "graph_residual"),
    "drs": ("run", "splitting_pass"),
    "ppa": ("ppa_step",),
    "blocks": ("coupling_gram", "reduced_resolvent_via_drs"),
    "equivalence": ("compare_formulations",),
    "cyclic": ("sample_cycles", "drs_map_matrix", "classify_resolvent", "skew_three_cycle"),
    "catalog": ("standard_catalog",),
    "cli": ("main",),
}

#: Operator classes whose construction (validation, monotonicity checks) is
#: traced during set-up only; inside a pass, wrappers built on every step
#: (``Inverse`` in ``ppa_step``) belong to the caller's self time.
CONSTRUCTED = (
    "ScaledIdentity",
    "LinearRelation",
    "Quadratic",
    "L1",
    "Box",
    "AffineConstraint",
    "Inverse",
    "Block2x2",
)

#: Resolvent variant labels for the per-variant busy time.
VARIANTS = {
    "LinearRelation": "linear",
    "Quadratic": "quadratic",
    "Zero": "closed_form",
    "ScaledIdentity": "closed_form",
    "L1": "closed_form",
    "Box": "closed_form",
    "AffineConstraint": "affine",
    "Inverse": "inverse",
    "Block2x2": "block2x2",
}


def lu_size(op):
    """Order of the dense system one resolve of ``op`` factors, 0 when closed form."""
    kind = type(op).__name__
    if kind in ("LinearRelation", "Quadratic"):
        return op.dim
    if kind == "AffineConstraint":
        return op.E.shape[0]
    if kind == "Inverse":
        return lu_size(op.inner)
    if kind == "Block2x2":
        if op.C.any():
            return op.dim
        return max(lu_size(op.A), lu_size(op.B))
    return 0


def resolve_flops(op, rows):
    """Computed flops of one resolve: dense LU (2/3)n^3 plus 2n^2 per row.

    A block with zero coupling solves its two blocks separately; the larger
    one is counted, which is exact when at most one block is dense.
    """
    n = lu_size(op)
    return (2 * n**3) // 3 + 2 * n * n * rows


def _resolve_info(bound, result):
    op, x = bound["op"], bound["x"]
    rows = 1 if getattr(x, "ndim", 1) == 1 else len(x)
    return {
        "variant": VARIANTS.get(type(op).__name__, "closed_form"),
        "resolve_rows": rows,
        "resolve_flops": resolve_flops(op, rows),
    }


def _run_info(bound, result):
    nbytes = sum(getattr(result, f).nbytes for f in ("k", "z", "x", "w", "residual"))
    return {"run_iters": len(result), "record_bytes": nbytes}


def _compare_info(bound, result):
    return {"direct": int(result.reduced_path == "direct")}


def _sample_info(bound, result):
    n_max = bound["n_max"] if result is None else result.n
    return {"tuples": bound["trials"] * (n_max - 1), "witnesses": int(result is not None)}


#: Per-span details taken from a call's arguments and result: the resolve
#: variant, and counts summed per pass under their own names.
INFO = {
    "operators.resolve": _resolve_info,
    "drs.run": _run_info,
    "equivalence.compare_formulations": _compare_info,
    "cyclic.sample_cycles": _sample_info,
}


def package_modules():
    return [m for name, m in sys.modules.items() if name == "drslab" or name.startswith("drslab.")]


class Tracer:
    """Collects spans while installed; ``op_id`` tags spans with the operation."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        info = INFO.get(name)
        signature = inspect.signature(fn) if info else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, None)
            if info is not None:
                bound = signature.bind(*args, **kwargs).arguments
                spans[index] = spans[index][:5] + (info(bound, result),)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, construct=False):
        """Wrap the targets in the loaded drslab package (and its CLI module)."""
        importlib.import_module("drslab.cli")
        modules = package_modules()
        for home, names in TARGETS.items():
            home_module = sys.modules[f"drslab.{home}"]
            for fname in names:
                original = getattr(home_module, fname)
                wrapper = self._wrap(f"{home}.{fname}", original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        self._patch(module, attr, wrapper)
        if construct:
            operators = sys.modules["drslab.operators"]
            for cls_name in CONSTRUCTED:
                cls = getattr(operators, cls_name)
                self._patch(cls, "__post_init__", self._wrap("operators.construct", cls.__post_init__))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Return the spans collected so far and start a fresh list."""
        done = list(self.spans)
        self.spans.clear()
        return done


def self_times(spans):
    """Self time of every span (see the module docstring)."""
    selfs = [s[2] - s[1] for s in spans]
    for s in spans:
        module = s[0].split(".")[0]
        duration = s[2] - s[1]
        between = set()
        parent = s[3]
        while parent != -1:
            ancestor = spans[parent]
            ancestor_module = ancestor[0].split(".")[0]
            if ancestor_module != module and between <= {ancestor_module}:
                selfs[parent] -= duration
            between.add(ancestor_module)
            parent = ancestor[3]
    return selfs


def summarize(spans):
    """Per-layer numbers of one pass: exact counts and busy/self times in ms."""
    selfs = self_times(spans)
    calls, busy, self_ms = {}, {}, {}
    durations = {"operators.resolve": [], "drs.splitting_pass": []}
    counts = {}
    variant_ms = dict.fromkeys(sorted(set(VARIANTS.values())), 0.0)
    for span, own in zip(spans, selfs):
        name = span[0]
        ms = 1e3 * (span[2] - span[1])
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + ms
        self_ms[name] = self_ms.get(name, 0.0) + 1e3 * own
        if name in durations:
            durations[name].append(ms)
        for key, value in (span[5] or {}).items():
            if key == "variant":
                variant_ms[value] += ms
            else:
                counts[key] = counts.get(key, 0) + value
    return {
        "calls": calls,
        "busy_ms": busy,
        "self_ms": self_ms,
        "variant_ms": variant_ms,
        "p50_ms": {k: statistics.median(v) if v else 0.0 for k, v in durations.items()},
        "counts": counts,
    }


def exact_counts(summary):
    """The numbers of a pass that must repeat exactly at one seed."""
    return {"calls": dict(sorted(summary["calls"].items())), **dict(sorted(summary["counts"].items()))}


#: Layers reported by call count and by busy and self time, per pass.
LAYER_FIELDS = {
    "operators.resolve": ("calls", "busy_ms"),
    "operators.graph_residual": ("calls", "busy_ms"),
    "drs.run": ("calls", "busy_ms", "self_ms"),
    "drs.splitting_pass": ("calls",),
    "ppa.ppa_step": ("calls", "busy_ms", "self_ms"),
    "blocks.coupling_gram": ("calls", "busy_ms"),
    "blocks.reduced_resolvent_via_drs": ("calls", "busy_ms"),
    "equivalence.compare_formulations": ("calls", "busy_ms", "self_ms"),
    "cyclic.sample_cycles": ("calls", "busy_ms"),
    "cyclic.drs_map_matrix": ("busy_ms",),
    "cyclic.classify_resolvent": ("busy_ms",),
    "cyclic.skew_three_cycle": ("busy_ms",),
}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(summaries, setup_summaries):
    """Per-layer metrics: counts of the first pass (they repeat exactly),
    times as medians over passes; construction and catalog from set-up."""
    first = summaries[0]
    calls = first["calls"]

    def count(key):
        return first["counts"].get(key, 0)

    def median(pick, over=summaries):
        return statistics.median(pick(s) for s in over)

    out = {}
    for name, fields in LAYER_FIELDS.items():
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = _metric(calls.get(name, 0), "count")
            else:
                out[f"{name}.{f}"] = _metric(median(lambda s: s[f].get(name, 0.0)), "ms")
    for variant in first["variant_ms"]:
        out[f"operators.resolve.busy_ms.{variant}"] = _metric(
            median(lambda s: s["variant_ms"][variant]), "ms")
    for name in ("operators.resolve", "drs.splitting_pass"):
        out[f"{name}.us_p50"] = _metric(1e3 * median(lambda s: s["p50_ms"][name]), "us")
    for name in ("catalog.standard_catalog", "operators.construct"):
        out[f"{name}.busy_ms"] = _metric(
            median(lambda s: s["busy_ms"].get(name, 0.0), setup_summaries), "ms")
    searches = calls.get("cyclic.sample_cycles", 0)
    sample_s = out["cyclic.sample_cycles.busy_ms"]["value"] / 1e3
    out.update({
        "operators.resolve.rows": _metric(count("resolve_rows"), "count"),
        "operators.resolve.flops_computed": _metric(count("resolve_flops"), "flop"),
        "drs.run.iters": _metric(count("run_iters"), "count"),
        "drs.run.record_bytes": _metric(count("record_bytes"), "bytes"),
        "equivalence.direct_ratio": _metric(
            _ratio(count("direct"), calls.get("equivalence.compare_formulations", 0)), "1"),
        "cyclic.sample_cycles.tuples": _metric(count("tuples"), "count"),
        "cyclic.sample_cycles.tuples_per_s": _metric(_ratio(count("tuples"), sample_s), "1/s"),
        "cyclic.sample_cycles.witness_ratio": _metric(_ratio(count("witnesses"), searches), "1"),
    })
    return out
