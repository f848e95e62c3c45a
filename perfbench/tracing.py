"""Spans around the calls into cblocks' public functions, installed from outside.

The package is not edited: each traced function is replaced, in every loaded
cblocks module that holds it under its name, by a wrapper that records a span
(id, parent, operation id, name, start, end).  Calls between modules and inside
a module both go through module globals, so every call is seen.

Self time is measured on the fly: a span's duration minus the durations of
its direct children.  Spans are single-threaded and nested, so the children
never overlap and their durations sum to the covered part of the parent.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"    # span files, child reports

# "<module>.<function>" names wrapped by the traced run.  The per-layer
# metrics of each are "<name>.self_s" and "<name>.calls".
LAYERS = (
    "young.parse_weight_list",
    "schur.coinvariant_rank",
    "qgrass.rim_hook_reduce",
    "qgrass.quantum_product",
    "qgrass.gw_invariant",
    "cb.fusion_expand",
    "cb.cb_rank",
    "cb.witten_rank",
    "cb.vanishing_report",
    "cli.run",
)


def _count_fusion_terms(counters, result):
    counters["cb.fusion_expand.terms"] += len(result)


def _count_rim_hooks(counters, result):
    if result is None:
        counters["qgrass.rim_hook_reduce.zero"] += 1
    else:
        counters["qgrass.rim_hook_reduce.hooks_removed"] += result[1]


# Work counted from a layer's return value, at the same boundary as its span.
_RESULT_COUNTERS = {
    "cb.fusion_expand": _count_fusion_terms,
    "qgrass.rim_hook_reduce": _count_rim_hooks,
}


class Tracer:
    """Span recorder and per-layer self-time accumulator for one process."""

    def __init__(self, record_spans: bool, id_prefix: str = ""):
        self.record_spans = record_spans
        self.id_prefix = id_prefix
        self.spans = []
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.missing = []
        self.top_ns = 0           # summed duration of spans without a traced parent
        self.op_id = 0
        self.root_parent = None
        self._stack = []          # [span_id, child_ns] per open span
        self._next_id = 0

    def call(self, name, fn, args, kwargs):
        self._next_id += 1
        span_id = f"{self.id_prefix}{self._next_id}"
        parent = self._stack[-1][0] if self._stack else self.root_parent
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self.self_ns[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration
            else:
                self.top_ns += duration
            if self.record_spans:
                self.spans.append((span_id, parent, self.op_id, name, start, end))
        counter = _RESULT_COUNTERS.get(name)
        if counter is not None:
            try:
                counter(self.counters, result)
            except (TypeError, IndexError):     # the layer now returns another shape
                if f"{name} result" not in self.missing:
                    self.missing.append(f"{name} result")
        return result

    def install(self):
        """Wrap every LAYERS function in each loaded cblocks module holding it.

        A module or function that no longer exists is listed in `missing`
        instead of failing, so the run still reports every layer it can find.
        """
        homes = {}
        for module_name in sorted({name.split(".")[0] for name in LAYERS}):
            try:
                homes[module_name] = importlib.import_module(f"cblocks.{module_name}")
            except ImportError:
                pass
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cblocks" or n.startswith("cblocks.")]
        for name in LAYERS:
            module_name, func_name = name.split(".")
            original = getattr(homes.get(module_name), func_name, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrapper(name, original)
            for module in modules:
                if module.__dict__.get(func_name) is original:
                    setattr(module, func_name, wrapper)

    def _wrapper(self, name, fn):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return traced

    def current_span(self):
        return self._stack[-1][0] if self._stack else self.root_parent

    def summary(self) -> dict:
        """Totals so far, with this process's LR-cache counts added in."""
        counters = dict(self.counters)
        missing = list(self.missing)
        cache = _lr_cache_info()
        if cache is None:
            missing.append("schur.lr_cache")
        else:
            for key in ("hits", "misses"):
                name = f"schur.lr_cache.{key}"
                counters[name] = counters.get(name, 0) + getattr(cache, key)
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counters": counters,
            "missing": missing,
            "top_ns": self.top_ns,
        }

    def merge_child(self, child: dict) -> None:
        """Fold in the summary a traced child process wrote for the open span.

        The child's top-level spans count as children of the open span, so
        its self time is what the child's spans do not cover.
        """
        for key in ("self_ns", "calls", "counters"):
            target = getattr(self, key)
            for name, value in child[key].items():
                target[name] += value
        for name in child["missing"]:
            if name not in self.missing:
                self.missing.append(name)
        if self._stack:
            self._stack[-1][1] += child["top_ns"]
        if self.record_spans:
            self.spans.extend(tuple(span) for span in child["spans"])


def _lr_cache_info():
    """Statistics of the LR-product cache (read, never cleared), or None if gone."""
    info = getattr(getattr(sys.modules.get("cblocks.schur"), "_lr_mult", None),
                   "cache_info", None)
    return info() if info is not None else None


def write_spans(path, header: dict, spans) -> None:
    """Write one JSON header line, then one JSON line per span, gzip-compressed."""
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write(json.dumps(header) + "\n")
        for span_id, parent, op, name, start, end in spans:
            out.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                  "start_ns": start, "end_ns": end}) + "\n")
