"""Span recording around the public functions of the hurwitzcf modules.

The wrappers are installed from the benchmark's side: every public function
defined in a traced module is replaced, in every hurwitzcf module namespace
that binds it, by a wrapper that records a span (name, start, end, parent,
operation).  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("cf_engine", "fibpoly", "hurwitz", "exactnum", "limits",
                  "identities", "classify", "cli")

# Per-layer groups: metric prefix -> the span names it aggregates.
LAYERS = {
    "limits.series_AB": ("limits.series_AB",),
    "limits.elementary": tuple(f"limits.{f}" for f in (
        "sin_prec", "cos_prec", "sinh_prec", "cosh_prec", "exp_prec",
        "pi_prec", "sqrt_prec")),
    "limits.xi_limit": ("limits.xi_limit",),
    "limits.xi_bessel": ("limits.xi_bessel",),
    "limits.lehmer_perron": ("limits.lehmer_d1", "limits.perron_d1"),
    "exactnum.PrecReal.decimal": ("exactnum.PrecReal.decimal",),
    "exactnum.gbinom": ("exactnum.gbinom",),
    "hurwitz.closed_form_convergent": ("hurwitz.closed_form_convergent",),
    "hurwitz.prec_recurrence_p": ("hurwitz.prec_recurrence_p",),
    "fibpoly.fib_eval": ("fibpoly.fib_eval",),
    "cf_engine.convergents": ("cf_engine.convergents",),
    "cf_engine.euler_mindig": ("cf_engine.euler_mindig",),
    "identities.verify_sums": ("identities.verify_rsum",
                               "identities.verify_ssum"),
    "classify.brute_force_sweep": ("classify.brute_force_sweep",),
}

# Work counted from a traced function's return value: span name ->
# (counter name, how to read the count off the result).
COUNTERS = {
    "limits.series_AB": ("terms", lambda sv: sv.terms_used),
    "cf_engine.convergents": ("terms", len),
    "classify.brute_force_sweep": ("tuples", lambda rep: rep.tuples_checked),
}

# (metric, unit) in the order they are reported under --trace 1.
PER_LAYER = (
    ("limits.series_AB.self_s", "s"),
    ("limits.series_AB.calls", "count"),
    ("limits.series_AB.terms", "count"),
    ("limits.elementary.self_s", "s"),
    ("limits.xi_limit.self_s", "s"),
    ("limits.xi_bessel.self_s", "s"),
    ("limits.lehmer_perron.self_s", "s"),
    ("exactnum.PrecReal.decimal.self_s", "s"),
    ("exactnum.gbinom.calls", "count"),
    ("exactnum.gbinom.self_s", "s"),
    ("hurwitz.closed_form_convergent.self_s", "s"),
    ("hurwitz.prec_recurrence_p.self_s", "s"),
    ("fibpoly.fib_eval.calls", "count"),
    ("fibpoly.fib_eval.self_s", "s"),
    ("cf_engine.convergents.self_s", "s"),
    ("cf_engine.convergents.terms", "count"),
    ("cf_engine.euler_mindig.self_s", "s"),
    ("cf_engine.euler_mindig.calls", "count"),
    ("identities.verify_sums.self_s", "s"),
    ("classify.brute_force_sweep.self_s", "s"),
    ("classify.brute_force_sweep.tuples", "count"),
    ("cli.cold_start_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.self_total_s", "s"),
)


class Tracer:
    """Keeps spans as (name, start, end, parent index, operation id) and
    per-name counters, all in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.op = -1
        self._stack: list = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced module (and the
    PrecReal.decimal method) in place."""
    import importlib
    modules = {m: importlib.import_module(f"hurwitzcf.{m}")
               for m in TRACED_MODULES}
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "hurwitzcf" or name.startswith("hurwitzcf.")]
    for short, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            traced = tracer.wrap(f"{short}.{attr}", fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, traced)
    prec_real = modules["exactnum"].PrecReal
    prec_real.decimal = tracer.wrap("exactnum.PrecReal.decimal",
                                    prec_real.decimal)


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered_length(children[i], start, end)
            for i, (name, start, end, _, _) in enumerate(spans)]


class LayerTotals:
    """Self time, calls and counters summed per span name over any number
    of span batches (one batch per process)."""

    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)

    def add(self, spans, counts) -> None:
        for span, own in zip(spans, self_times(spans)):
            self.self_s[span[0]] += own
            self.calls[span[0]] += 1
        for key, value in counts.items():
            self.counts[key] += value

    def metrics(self, rounds: int, wall_s: float, cold_start_ms: float,
                scale: float = 1.0) -> dict:
        """Every PER_LAYER metric, as a total per round of the workload;
        self times are multiplied by ``scale``, the run's speed factor."""
        out = {}
        for metric, _ in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if layer in LAYERS:
                names = LAYERS[layer]
                if kind == "self_s":
                    value = scale * sum(self.self_s[n] for n in names)
                elif kind == "calls":
                    value = sum(self.calls[n] for n in names)
                else:
                    value = sum(self.counts[f"{n}.{kind}"] for n in names)
                out[metric] = value / rounds
        out["cli.cold_start_ms"] = cold_start_ms
        out["trace.wall_s"] = wall_s / rounds
        out["trace.self_total_s"] = \
            scale * sum(self.self_s.values()) / rounds
        return out


def write_spans(path: str, batches) -> None:
    """Write span batches as gzipped JSON: one list of spans per process
    that ran program code."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "batches": batches}, fh, separators=(",", ":"))
