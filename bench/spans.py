"""In-memory span tracing of beamsel's layers, installed from outside the package.

The program has no spans of its own, so ``Tracer.installed()`` rebinds the
layer functions (and the two SelectionEvaluator methods, ComplexMatrix's
post-init check and the harness's process pool) to timing wrappers, and puts
the originals back on exit. A span is (name, start, end, parent index);
self time is a span's duration minus the time its child spans cover.

Forked pool workers inherit the wrappers but record nothing (the wrappers
check the process id): spans live in the parent's memory, so work done in
workers shows up as pool wait.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from beamsel import channel, cli, codebook, core, harness, search

# (owner, attribute, span name). Module functions are rebound in every beamsel
# module that imported them by name, so callers inside the package see the
# wrapper too.
LAYERS = (
    (channel, "realize_channel", "channel.realize"),
    (codebook, "build_dft_codebook", "codebook.build"),
    (core.ComplexMatrix, "__post_init__", "core.complex_matrix"),
    (search.SelectionEvaluator, "__init__", "search.gain_table"),
    (search.SelectionEvaluator, "evaluate", "search.evaluate"),
    (search, "mutate", "search.mutate"),
    (search, "_draw_selection", "search.draw_selection"),
    (search, "ga_run", "search.ga_run"),
    (search, "exhaustive_search", "search.exhaustive"),
    (search, "random_search", "search.random_search"),
    (harness, "_run_realization", "harness.realization"),
    (harness, "_aggregate", "harness.aggregate"),
    (harness, "write_result_files", "harness.write"),
    (harness, "run_experiment", "harness.run_experiment"),
)
ROOT_SPAN = "harness.run_experiment"
POOL_SPAN = "harness.pool"
_MODULES = (channel, cli, codebook, core, harness, search)


class Tracer:
    """Collects spans and layer counters for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._pid: int | None = None  # set while installed; forked children differ
        self.members = 0             # selections scored by evaluate
        self.computed_bytes = 0      # members * N * N * 8: the gathered gain blocks
        self.ga_members = 0          # selections scored from inside ga_run
        self.rescored = 0            # of those, repeats of the previous queen
        self._last_queen: dict[int, np.ndarray] = {}
        self.codebook_shapes: set[tuple[int, int]] = set()
        self.pool_tasks = 0

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._pid != os.getpid():
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if after is not None:
                after(parent, args, result)
            return result

        return traced

    def _after_evaluate(self, parent: int, args, batch) -> None:
        sels = np.asarray(args[1])
        if sels.ndim == 1:
            sels = sels[None, :]
        b, n = sels.shape
        self.members += b
        self.computed_bytes += b * n * n * 8
        if parent >= 0 and self.spans[parent][0] == "search.ga_run":
            prev = self._last_queen.get(parent)
            if prev is not None:
                self.rescored += int(np.all(sels == prev, axis=1).sum())
            self.ga_members += b
            self._last_queen[parent] = sels[batch.best_index()].copy()

    def _after_codebook(self, parent: int, args, result) -> None:
        self.codebook_shapes.add((result.m, result.n_vec))

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Process pool whose map() blocks inside a span until every result is in."""

            def map(self, fn, *iterables, **kwargs):
                def gather():
                    return list(super(TracedPool, self).map(fn, *iterables, **kwargs))

                results = tracer._wrap(POOL_SPAN, gather)()
                tracer.pool_tasks += len(results)
                return iter(results)

        return TracedPool

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced layer for the duration of the block."""
        hooks = {"search.evaluate": self._after_evaluate, "codebook.build": self._after_codebook}
        saved: list[tuple[object, str, object]] = []
        for owner, attr, name in LAYERS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, hooks.get(name))
            targets = [owner] if isinstance(owner, type) else [
                m for m in _MODULES if m.__dict__.get(attr) is original]
            for target in targets:
                saved.append((target, attr, original))
                setattr(target, attr, wrapper)
        saved.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
        harness.ProcessPoolExecutor = self._pool_class()
        self._pid = os.getpid()
        try:
            yield self
        finally:
            self._pid = None
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time, in seconds."""
        child = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, (name, t0, t1, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - child[idx]
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _ in self.spans if n == name]
