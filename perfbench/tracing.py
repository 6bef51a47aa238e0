"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent index, attributes).  Spans are kept in
memory while the workload runs and written out once, when the benchmark
ends.  A span's self time is its duration minus the durations of its child
spans; children of one span never overlap because the program is
single-threaded.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# rhs method name -> chart label, for the solve_ivp calls made by biharm.shooting
_CHARTS = {"rhs_r": "r", "rhs_s": "s"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, attrs: dict) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, attrs])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs)
        try:
            yield self.spans[idx][4]
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called `name`."""

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, {})
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_solve_ivp(self, solve_ivp):
        """solve_ivp recording the chart and the RHS evaluation count."""

        @wraps(solve_ivp)
        def traced(fun, *args, **kwargs):
            chart = _CHARTS.get(getattr(fun, "__name__", ""), "other")
            idx = self._open("shooting.ivp", {"chart": chart})
            try:
                result = solve_ivp(fun, *args, **kwargs)
                self.spans[idx][4]["nfev"] = int(result.nfev)
                return result
            finally:
                self._close(idx)

        return traced

    def summary(self) -> dict:
        """Totals by span name: calls, seconds, self seconds; and ivp calls
        and RHS evaluations by chart."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        ivp = defaultdict(lambda: {"calls": 0, "nfev": 0})
        for i, (name, start, end, _, attrs) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            if name == "shooting.ivp":
                ivp[attrs["chart"]]["calls"] += 1
                ivp[attrs["chart"]]["nfev"] += attrs.get("nfev", 0)
        return {"spans": dict(out), "ivp": dict(ivp)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "attrs"], "spans": self.spans},
                fh,
            )
