"""Outside-in tracer: timing wrappers around the program's public entry points.

``install()`` patches **classes and modules**, never instances: the strategy
instance is pickled into every round broadcast and every checkpoint, and an
instance-level closure breaks both.  Worker processes import the program
afresh, so worker-side code stays untraced — a pool fan-out is one opaque
``parallel.executors.map_*`` span, decomposed by the serial twin's trace.

Spans live in memory as ``[name, start, end, parent, round]`` rows (``parent``
is a row index or None) and are written out once, by ``dump``.  A round
starts at each ``server.select_clients`` entry.  Only the main thread is
traced: the socket backend's connection threads would otherwise record
spans that overlap the main thread's and break the self-time arithmetic.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, List

#: (module, class, span-name prefix, methods) — every subclass that defines
#: the method is patched too (FedLPS.local_update, SocketExecutor.map_*, ...)
METHODS = (
    ("repro.server.core", "ServerCore", "server.",
     ("select_clients", "split_available", "run_local_updates",
      "evaluate_personalized")),
    ("repro.server.core", "ServerCore", "systems.", ("client_costs",)),
    ("repro.server.core", "ServerCore", "scenarios.", ("resolve_round",)),
    ("repro.federated.strategy", "Strategy", "core.",
     ("setup", "local_update", "local_update_cohort", "post_round")),
    ("repro.federated.strategy", "Strategy", "federated.", ("aggregate",)),
    ("repro.parallel.executors", "Executor", "parallel.executors.",
     ("map_ordered", "map_unordered", "warm_up", "close")),
    ("repro.parallel.broadcast", "Broadcast", "parallel.broadcast.",
     ("__init__", "close")),
    ("repro.parallel.codec", "Codec", "parallel.codec.",
     ("encode", "decode")),
    ("repro.checkpoint", "CheckpointManager", "checkpoint.",
     ("after_round",)),
)
#: (module, span-name prefix, functions) — rebound in every loaded ``repro``
#: module that imported them by name
FUNCTIONS = (
    ("repro.parallel.supervision", "parallel.supervision.",
     ("run_supervised",)),
    ("repro.checkpoint", "checkpoint.",
     ("capture_run", "save_checkpoint", "load_checkpoint", "restore_run")),
)
ROUND_START = "server.select_clients"
MAP_SPANS = ("parallel.executors.map_ordered",
             "parallel.executors.map_unordered")


def _all_subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_all_subclasses(sub))
    return found


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._round = -1
        self._main = threading.main_thread()
        self._undo: List[tuple] = []

    # ------------------------------------------------------------ recording
    def _open(self, name: str) -> int:
        if name == ROUND_START:
            self._round += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._round])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into the program."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.current_thread() is not self._main:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    # ------------------------------------------------------------- patching
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for module, cls_name, prefix, methods in METHODS:
            base = getattr(importlib.import_module(module), cls_name)
            for cls in _all_subclasses(base):
                for method in methods:
                    if method in cls.__dict__:
                        self._set(cls, method, self._wrap(
                            prefix + method.strip("_"), cls.__dict__[method]))
        for module, prefix, functions in FUNCTIONS:
            for name in functions:
                original = getattr(importlib.import_module(module), name)
                wrapped = self._wrap(prefix + name, original)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") \
                            and loaded.__dict__.get(name) is original:
                        self._set(loaded, name, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, rnd) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "round": rnd}) + "\n")


# ---------------------------------------------------------------- analysis
def _has_ancestor(spans, index: int, names) -> bool:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def inclusive(spans, *names: str) -> float:
    """Seconds inside spans called ``names``, outermost occurrences only."""
    return sum(end - start
               for index, (name, start, end, _, _) in enumerate(spans)
               if name in names and not _has_ancestor(spans, index, names))


def self_time(spans, name: str) -> float:
    """Seconds in ``name`` spans minus what their child spans cover."""
    children: Dict[int, float] = {}
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    return sum(end - start - children.get(index, 0.0)
               for index, (span_name, start, end, _, _) in enumerate(spans)
               if span_name == name)


def count(spans, *names: str) -> int:
    return sum(1 for span in spans if span[0] in names)


def coverage(spans, root_name: str) -> float:
    """Share of the ``root_name`` span covered by its direct children."""
    root = next(index for index, span in enumerate(spans)
                if span[0] == root_name)
    _, start, end, _, _ = spans[root]
    covered = sum(child_end - child_start
                  for _, child_start, child_end, parent, _ in spans
                  if parent == root)
    return covered / (end - start)


def round_durations(spans, root_name: str) -> List[float]:
    """Seconds from each round's start to the next (the last: to run end)."""
    root_end = next(span[2] for span in spans if span[0] == root_name)
    starts = [span[1] for span in spans if span[0] == ROUND_START]
    return [later - earlier
            for earlier, later in zip(starts, starts[1:] + [root_end])]
