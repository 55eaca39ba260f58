"""Outside-in tracer: wraps haltstudy's public functions from outside.

Nothing in the package is edited. ``install`` replaces every public
module-level function of the traced modules, in every namespace that
binds it (the defining module, the ``from .x import y`` copies in other
modules, the ``haltstudy`` package, and module-level dicts such as the
CLI's command table), with a wrapper that records a span. ``restore``
puts the originals back, so one process can alternate traced and
untraced calls.

A span is ``[name, start, end, parent, call_id, counts]``: ``parent`` is
the index of the enclosing span (-1 at a root), ``call_id`` groups the
spans of one benchmark call, and ``counts`` holds work counts read from
the arguments and the return value, or None. Spans stay in memory and
are written out once, by whoever owns the tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Sequence, Sized

TRACED_MODULES = ("market_data", "events", "event_study", "powerlaw",
                  "pipeline", "synthetic", "cli")

# Tiny helpers called once per Gauss-Newton step or per label; wrapping
# them would cost more than they do, so their time counts as self time
# of the function that calls them.
UNWRAPPED = frozenset({
    "power_law_model", "power_law_jacobian", "group_name", "deseasonalize",
    "wall_clock_to_minute", "minute_to_wall_clock", "default_pattern",
})

ROOT_CALL = "bench.call"
ROOT_SETUP = "bench.setup"


def _count_bars(args, kwargs, result) -> dict:
    return {"bars": result.n_bars}


def _count_eligible(args, kwargs, result) -> dict:
    return {"records": len(result),
            "eligible": sum(1 for ev in result if ev.eligible)}


def _count_cells(args, kwargs, result) -> dict:
    # members x T; a one-shot iterable argument cannot be measured after
    # the call, so then the largest per-t count stands in for members
    trajectories = args[0] if args else kwargs["trajectories"]
    members = (len(trajectories) if isinstance(trajectories, Sized)
               else int(result.n.max()))
    return {"cells": members * int(result.t.size)}


def _count_iterations(args, kwargs, result) -> dict:
    return {"gn_iterations": result.n_iterations}


def _count_resamples(args, kwargs, result) -> dict:
    return {"resamples_ok": result.n_success,
            "resamples_failed": result.n_failed}


def _count_artifact_bytes(args, kwargs, result) -> dict:
    return {"artifact_bytes": sum(Path(p).stat().st_size for p in result)}


COUNTERS: dict[str, Callable] = {
    "market_data.parse_bar_file": _count_bars,
    "events.filter_eligibility": _count_eligible,
    "event_study.group_average": _count_cells,
    "powerlaw.fit_power_law_points": _count_iterations,
    "powerlaw.bootstrap_alpha_stderr": _count_resamples,
    "pipeline.write_analysis_outputs": _count_artifact_bytes,
}


class Tracer:
    """Span recorder; one per process, single-threaded use."""

    def __init__(self):
        self.spans: list[list] = []
        self.call_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[dict, object, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent,
                           self.call_id, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """Open a benchmark-level root span with a fresh call id."""
        self.call_id += 1
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable,
             counter: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index][5] = counter(args, kwargs, result)
            return result
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s traced modules."""
        modules = [importlib.import_module(f"{package.__name__}.{name}")
                   for name in TRACED_MODULES]
        wrapped: dict[int, Callable] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__
                        and name not in UNWRAPPED):
                    full = f"{short}.{name}"
                    wrapped[id(obj)] = self.wrap(full, obj, COUNTERS.get(full))
        for namespace in [vars(package)] + [vars(m) for m in modules]:
            for key, value in list(namespace.items()):
                if id(value) in wrapped:
                    self._patch(namespace, key, wrapped[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrapped:
                            self._patch(value, k, wrapped[id(v)])

    def _patch(self, namespace: dict, key, replacement) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = replacement

    def restore(self) -> None:
        """Undo ``install``; spans recorded so far are kept."""
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part covered by its children.

    Child intervals are clipped to the parent and merged first, so
    overlapping children (threads) are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def call_profile(spans: Sequence[Sequence], call_ids: Iterable[int],
                 ) -> dict[str, float]:
    """Per-call mean of self time, calls and counts over ``call_ids``.

    Keys are ``<module>.<function>.self_s`` and ``.calls``, the count
    names summed per call, ``<module>.self_s`` per module, ``wall_s``
    of the root span and ``covered_s``, the summed self time of all
    haltstudy spans (the rest of the root is time outside the package).
    """
    wanted = set(call_ids)
    if not wanted:
        return {}
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, selfs):
        if span[4] not in wanted:
            continue
        name = span[0]
        if span[3] < 0:
            totals["wall_s"] += span[2] - span[1]
            continue
        module = name.split(".", 1)[0]
        totals[f"{name}.self_s"] += self_s
        totals[f"{name}.calls"] += 1
        totals[f"{module}.self_s"] += self_s
        totals["covered_s"] += self_s
        for key, value in (span[5] or {}).items():
            totals[key] += value
    return {key: value / len(wanted) for key, value in totals.items()}


def root_calls(spans: Sequence[Sequence], name: str) -> list[int]:
    """Call ids of the root spans called ``name``."""
    return [span[4] for span in spans if span[3] < 0 and span[0] == name]
