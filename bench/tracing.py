"""Spans and work counts around latmin's public functions.

The tracer replaces each traced function at every module binding the package
calls it through (``latmin.gon.difference_body`` as well as
``latmin.polytope.difference_body``), records a span per call while an op is
open, and restores the original bindings afterwards.  Spans stay in memory.
A span's self time is its duration minus the durations of its child spans.
Per-point predicates (``locate``, ``contains``, ``gauge``) get no spans: one
call costs less than a span does.

The counters are exact functions of the inputs, so a traced run of the same
ops reports the same counts every time.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# Traced functions, named <module>.<function>, with the stats reported for each.
LAYERS = {
    "polytope.convex_hull": ("calls", "self_s", "input_points", "facets_out"),
    "polytope.difference_body": ("calls", "self_s", "repeat_ratio"),
    "polytope.polar": ("calls", "self_s", "repeat_ratio"),
    "polytope.lattice_points": ("calls", "self_s", "hit_ratio"),
    "polytope.volume": ("self_s",),
    "gon.successive_minima": ("calls", "self_s", "repeat_ratio", "radius_ratio"),
    "gon.lattice_width": ("calls", "self_s"),
    "gon.verify_minkowski_second": ("self_s",),
    "gon.verify_transference": ("self_s",),
    "gon.flatness_report": ("self_s",),
    "toric.eps_bracket_general": ("self_s",),
    "toric.verify_m2m": ("self_s",),
    "postulation.box_count": ("calls", "self_s", "points"),
    "postulation.box_volume": ("self_s",),
    "postulation.flag_h0": ("self_s",),
}

UNITS = {
    "calls": "count", "self_s": "s", "input_points": "count", "facets_out": "count",
    "repeat_ratio": "ratio", "radius_ratio": "ratio", "hit_ratio": "ratio",
    "points": "count",
}

OVERHEAD = "trace.overhead_ratio"

# Names of spans that are not library calls.
OP_SPAN = "op"
BOOKKEEPING_SPAN = "trace.bookkeeping"


def _bbox_points(P) -> int:
    n = 1
    for j in range(P.ambient_dim):
        cs = [v[j] for v in P.vertices]
        n *= max(0, math.floor(max(cs)) - math.ceil(min(cs)) + 1)
    return n


class Tracer:
    """Spans [name, start, end, parent index, op index] and exact counters."""

    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._seen: dict = defaultdict(set)
        self._op = None

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, index: int):
        """Open the root span of one op; library calls outside it are not traced."""
        self._op = index
        self._seen.clear()
        idx = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    # -- wrapping ------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every traced function at each binding; restore on exit."""
        restore = []
        for name in LAYERS:
            module, func = name.split(".")
            original = getattr(getattr(self.lib, module), func)
            wrapper = self._wrap(name, original)
            for mod in self.lib.modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        restore.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

    def _wrap(self, name, f):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return f(*args, **kwargs)
            if name == "polytope.convex_hull" and not hasattr(args[0], "__len__"):
                args = (list(args[0]),) + args[1:]
            idx = tracer._open(name)
            try:
                result = f(*args, **kwargs)
            finally:
                tracer._close(idx)
            # Counting is charged to its own span, not to the caller's self time.
            idx = tracer._open(BOOKKEEPING_SPAN)
            try:
                tracer._count(name, args, result)
            finally:
                tracer._close(idx)
            return result

        traced.__wrapped__ = f
        traced.__name__ = f.__name__
        traced.__doc__ = f.__doc__
        return traced

    def _count(self, name, args, result) -> None:
        c = self.counts
        if name == "polytope.convex_hull":
            c[name, "input_points"] += len(args[0])
            c[name, "facets_out"] += len(result.facets) if result.is_full_dimensional else 0
        elif name in ("polytope.difference_body", "polytope.polar", "gon.successive_minima"):
            # Repeats count calls on a body this function already saw in the same op.
            c[name, "repeats"] += args[0] in self._seen[name]
            self._seen[name].add(args[0])
            if name == "gon.successive_minima":
                K = args[0]
                d = K.ambient_dim
                reach = max(self.lib.gon.gauge(K, tuple(int(i == j) for i in range(d)))
                            for j in range(d))
                c[name, "radius_sum"] += Fraction(reach) / result.lambdas[-1]
        elif name == "polytope.lattice_points":
            c[name, "returned"] += len(result)
            c[name, "box"] += _bbox_points(args[0])
        elif name == "postulation.box_count":
            c[name, "points"] += result

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: summed self time and calls from spans, and the
        counters; ratios are ratios of sums over the run."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
            calls[name] += 1
        c = self.counts

        def ratio(num, den):
            return float(Fraction(num) / den) if den else 0.0

        out = {}
        for name, stats in LAYERS.items():
            n = calls[name]
            values = {
                "calls": n,
                "self_s": self_s[name],
                "input_points": c[name, "input_points"],
                "facets_out": c[name, "facets_out"],
                "repeat_ratio": ratio(c[name, "repeats"], n),
                "radius_ratio": ratio(c[name, "radius_sum"], n),
                "hit_ratio": ratio(c[name, "returned"], c[name, "box"]),
                "points": c[name, "points"],
            }
            for stat in stats:
                out[f"{name}.{stat}"] = {"value": values[stat], "unit": UNITS[stat]}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
