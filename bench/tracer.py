"""Span tracing of nbspec's layers, installed from outside the package.

``install`` wraps the public functions of ``graphgen``, ``operators``,
``eig``, ``qep`` and ``analysis`` (plus ``Graph.adjacency``) and rebinds each
wrapper in every ``nbspec.*`` namespace that holds the original, since
``cli``, ``analysis`` and ``qep`` import names directly.  Spans are kept in
memory; ``op_layers`` turns the spans of one op into per-function self time,
call counts and eigensolve sizes.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

LAYERS = ("graphgen", "operators", "eig", "qep", "analysis")
ROOT = "cli.main"


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    op: int
    dim: Optional[int]  # leading dimension of the first argument, when it has one

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call; spans of one op share its op id."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._root: Optional[int] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, fn, args, kwargs):
        stack = self._stack()
        # a call on a pool thread has no caller span on its own stack:
        # the op's root span caused it
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        shape = getattr(args[0], "shape", None) if args else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, parent, name, start, end, self._op, shape[0] if shape else None)
            )

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs)

        return wrapper

    def op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op_id``."""
        self._op = op_id
        self._root = sid = next(self._ids)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(Span(sid, None, ROOT, start, time.perf_counter(), op_id, None))
            self._root = None


def install(tracer: Tracer) -> List[str]:
    """Wrap every public function of the traced layers; returns the span names."""
    from nbspec.graphgen import Graph

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "nbspec" or name.startswith("nbspec."))]
    names = []
    for layer in LAYERS:
        mod = sys.modules[f"nbspec.{layer}"]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn):
                continue
            wrapper = tracer.wrap(f"{layer}.{attr}", fn)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    setattr(m, key, wrapper)
            names.append(f"{layer}.{attr}")
    Graph.adjacency = tracer.wrap("graphgen.Graph.adjacency", Graph.adjacency)
    names.append("graphgen.Graph.adjacency")
    return names


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


@dataclass
class OpLayers:
    """Per-function totals of one op."""

    wall: float
    self_s: Dict[str, float]
    calls: Dict[str, int]
    eig_dims: List[int]  # matrix dimension of each eigs_general call
    cli_self_s: float  # op time covered by no child span
    busy_s: float  # summed duration of the root's child spans, over all threads


def op_layers(spans: List[Span]) -> OpLayers:
    """Self time and calls per function for the spans of a single op."""
    root = next(s for s in spans if s.name == ROOT)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    eig_dims = []
    for s in spans:
        if s is root:
            continue
        # children of a span run on its own thread, so they never overlap
        self_s[s.name] += s.duration - sum(c.duration for c in children[s.sid])
        calls[s.name] += 1
        if s.name == "eig.eigs_general" and s.dim is not None:
            eig_dims.append(s.dim)
    top = children[root.sid]
    covered = _union_length((c.start, c.end) for c in top)
    return OpLayers(
        wall=root.duration,
        self_s=dict(self_s),
        calls=dict(calls),
        eig_dims=eig_dims,
        cli_self_s=root.duration - covered,
        busy_s=sum(c.duration for c in top),
    )
