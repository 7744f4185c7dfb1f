"""In-memory span tracer for the klms layers.

The tracer swaps module (or class) attributes for thin wrappers that record
one span per call: (name, start, end, parent span index, unit id). It wraps
only attributes that exist and puts the original objects back on exit, so a
refactor that removes or renames a helper loses that one span (recorded in
``notes``) instead of breaking the benchmark.

Span names are ``<layer>.<function>``; the layer is the klms module the
function belongs to, whichever module the caller looked it up in.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

@dataclass(frozen=True)
class Target:
    """One lookup site to wrap: ``owner`` is a module path, optionally
    followed by ``:Class``; ``meter`` maps (args, kwargs, result) to counter
    increments recorded when the call returns."""

    owner: str
    attr: str
    span: str
    meter: Optional[Callable] = None


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Records spans and counters while installed (use as a context manager).

    ``spans`` holds one (name, start, end, parent index or -1, unit) tuple
    per call, in call order.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list = []
        self.counts: dict = {}
        self.notes: list = []
        self.unit = None
        self._stack: list = []
        self._saved: list = []

    def __enter__(self):
        self.notes = []
        installed = set()
        for target in self.targets:
            owner = _resolve(target.owner)
            if owner is None or target.attr not in vars(owner):
                continue
            original = vars(owner)[target.attr]
            self._saved.append((owner, target.attr, original))
            setattr(owner, target.attr, self._wrap(original, target.span, target.meter))
            installed.add(target.span)
        for span in sorted({t.span for t in self.targets} - installed):
            sites = ", ".join(f"{t.owner}.{t.attr}" for t in self.targets if t.span == span)
            self.notes.append(f"span {span} not recorded: none of {sites} exists")
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name: str, meter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.unit)
            if meter is not None:
                for key, value in meter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced


def busy_time(spans, name: str) -> float:
    """Length of the union of the intervals of all spans called ``name``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted((s[1], s[2]) for s in spans if s[0] == name):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children.

    Calls run on one thread, so the children of a span never overlap and
    their durations add up to the part of the span they cover.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_self_times(spans) -> dict:
    """Self time summed per layer (the span-name prefix before the first dot)."""
    totals: dict = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def call_counts(spans) -> dict:
    counts: dict = {}
    for span in spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    return counts
