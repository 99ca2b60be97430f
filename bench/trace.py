"""In-memory spans around calls into the program's public functions.

A Tracer replaces module attributes that callers look up at call time
(for example ``rsmhp.experiments.runners.sample_tree``) with wrappers that
record (id, name, parent, start, end, size) and restores them on exit.
Spans stay in memory; ``write`` dumps them once, at the end of a run.
A span's self time is its duration minus the durations of its direct
children; since calls nest on one thread, children never overlap.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, parent, start, end, size]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, size=None):
        """Wrapper recording one span per call; ``size(args)`` labels it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), name, stack[-1] if stack else -1, 0.0, 0.0,
                    size(args, kwargs) if size is not None else None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, size))

    def patch_item(self, mapping: dict, key, name: str) -> None:
        original = mapping[key]
        self._patches.append((mapping, key, original))
        mapping[key] = self.wrap(name, original)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def mark(self) -> int:
        """Index of the next span, for slicing out one pass."""
        return len(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write("id,name,parent,start,end,size\n")
            for span_id, name, parent, start, end, size in self.spans:
                handle.write(f"{span_id},{name},{parent},{start!r},{end!r},{json.dumps(size)}\n")


def self_times(spans: list) -> dict:
    """Per-span-name total self time (s) over the given spans."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[2] >= 0:
            child_time[span[2]] += span[4] - span[3]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[1]] += span[4] - span[3] - child_time[span[0]]
    return totals


def layer_self(spans: list, layer: str) -> float:
    """Self time of every span whose name starts with ``layer + '.'``."""
    return sum(v for k, v in self_times(spans).items() if k.startswith(layer + "."))


def durations(spans: list, name: str) -> list:
    return [(s[4] - s[3], s[5]) for s in spans if s[1] == name]
