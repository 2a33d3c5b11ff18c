"""Call recording for the benchmark: select_best latencies and layer spans.

Every pass times each ``select_best`` call through one wrapper, so the
end-to-end latency metrics exist with tracing off. A traced pass also
installs span wrappers around the public functions of every layer. The
package imports by name (``from .spectral import sym_eigen``), so a name is
patched in every module that binds it; patching only ``spectral.sym_eigen``
would miss every call made from ``metrics``.

Spans live in flat arrays in memory (name id, parent span id, start, end,
error flag) and are written out once, when the run ends. All times come from
the clock the recorder is given.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
import scipy.linalg

from spectral_kcenter import cli, experiments, graphs, metrics, spectral
from spectral_kcenter.errors import DegenerateEigenvalueError, NumericError

# (span name, module, attribute). Several rows may share one span name.
PATCHES = [
    ("graphs.path_graph", experiments, "path_graph"),
    ("graphs.random_tree", experiments, "random_tree"),
    ("graphs.random_connected_graph", experiments, "random_connected_graph"),
    ("spectral.sym_eigen", metrics, "sym_eigen"),
    ("spectral.sym_eigen", experiments, "sym_eigen"),
    ("spectral.sym_eigen", spectral, "sym_eigen"),
    ("spectral.eigh", np.linalg, "eigh"),
    ("spectral.are", metrics, "are_charging_energy"),
    ("spectral.ordqz", scipy.linalg, "ordqz"),
    ("spectral.gramian", metrics, "gramian_extraction_energy"),
    ("spectral.lyapunov", spectral, "lyapunov_solve"),
] + [("path_theory." + name, experiments, name) for name in (
    "convexity_series_gap", "lambda_min_quadratic_1port",
    "lambda_min_quadratic_2port", "lambda_min_series_kport",
    "lambda_min_series_positions", "optimal_ports", "path_eigenpair",
    "pseudo_toeplitz_lambda_min")]

# Entry points the workloads call directly; traced through Recorder.call.
ENTRY_POINTS = {
    "experiments.run_comparison": experiments.run_comparison,
    "experiments.path_theory_checks": experiments.path_theory_checks,
    "experiments.conjecture_probe": experiments.conjecture_probe,
    "cli.comparison_csv": cli.comparison_csv,
}


@dataclass
class SelectCall:
    """One select_best call: its arguments, outcome and latency."""

    graph: graphs.Graph
    k: int
    metric: metrics.Metric
    params: metrics.MetricParams
    seconds: float
    result: Optional[metrics.SelectionResult] = None
    error: Optional[BaseException] = None

    @property
    def subsets(self) -> int:
        return math.comb(self.graph.n, self.k) if self.result is not None else 0

    @property
    def skipped(self) -> bool:
        return isinstance(self.error, DegenerateEigenvalueError)

    @property
    def failed(self) -> bool:
        return isinstance(self.error, NumericError) and not self.skipped


class Recorder:
    """Times select_best on every pass and records spans while tracing."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.tracing = False
        self.selects: list[SelectCall] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self._stack = [-1]
        self._originals = [(mod, attr, getattr(mod, attr)) for (_, mod, attr) in PATCHES]
        self._select_original = experiments.select_best
        experiments.select_best = self.select_best

    def close(self):
        """Restore every patched name."""
        self.set_tracing(False)
        experiments.select_best = self._select_original

    def set_tracing(self, on: bool):
        if on == self.tracing:
            return
        for (name, _, _), (mod, attr, orig) in zip(PATCHES, self._originals):
            setattr(mod, attr, self._wrap(name, orig) if on else orig)
        self.tracing = on

    def span_count(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.error.append(0)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int, failed: bool):
        self.end[idx] = self.clock()
        self._stack.pop()
        if failed:
            self.error[idx] = 1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                self._close(idx, failed)
        return wrapper

    def call(self, name: str, *args, **kwargs) -> Any:
        """Call a workload entry point, inside a span when tracing."""
        fn = ENTRY_POINTS[name]
        if not self.tracing:
            return fn(*args, **kwargs)
        return self._wrap(name, fn)(*args, **kwargs)

    def select_best(self, g, k, metric, params=metrics.MetricParams(), **kwargs):
        """Drop-in for metrics.select_best that records the call."""
        idx = self._open("metrics.select_best") if self.tracing else None
        result = error = None
        t0 = self.clock()
        try:
            result = self._select_original(g, k, metric, params, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            seconds = self.clock() - t0
            if idx is not None:
                self._close(idx, error is not None)
            self.selects.append(SelectCall(g, k, metric, params, seconds,
                                           result, error))

    def spans(self, first: int, last: int) -> dict[str, np.ndarray]:
        """Span arrays for span ids first..last-1, with self time in seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the program is single-threaded.
        """
        sl = slice(first, last)
        name = np.array(self.name_id[sl], dtype=np.int64)
        parent = np.array(self.parent[sl], dtype=np.int64)
        dur = np.array(self.end[sl]) - np.array(self.start[sl])
        has_parent = parent >= first
        child = np.bincount(parent[has_parent] - first, weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": name, "parent": parent - first, "dur": dur,
                "self": dur - child,
                "error": np.array(self.error[sl], dtype=bool)}

    def save_spans(self, path):
        """Write every recorded span (times in seconds from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start) - t0, end=np.array(self.end) - t0,
            error=np.array(self.error, dtype=bool))
