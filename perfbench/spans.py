"""In-memory span tracing by wrapping fedsim functions from outside the package.

fedsim modules import names directly (``from .nn import backward``), so a
name is wrapped in the namespace where its caller looks it up, e.g.
``fedsim.learner.backward`` or ``fedsim.simulator.evaluate_confusion``.
Methods are wrapped on their class. Each wrapped call records one span:
name, start, end and parent span. Spans live in flat arrays until the run
ends. Wrapping is undone when the ``Tracer`` context exits.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter
from typing import Callable

import numpy as np

# Percentiles reported for a per-call timing, lowest first, each with the
# share of samples beyond it written as 1/k (exact, unlike 1 - 0.999). The
# reported tail is the highest one with at least TAIL_MIN_BEYOND samples beyond.
PERCENTILE_LADDER = ((50.0, 2), (90.0, 10), (99.0, 100), (99.9, 1000), (99.99, 10000))
TAIL_MIN_BEYOND = 10


class Tracer:
    """Records spans for wrapped callables; single-threaded, like the simulator.

    Because calls nest strictly on one thread, the direct children of a span
    never overlap, so the time they cover is the sum of their durations.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unwrap_all()

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def traced(self, fn: Callable, name: str, count: Callable[[object], int] | None = None) -> Callable:
        """Return ``fn`` wrapped to record a span named ``name``.

        ``count`` maps the call's result to an amount added to
        ``self.counts[name]``, for work measured at the same boundary.
        """
        nid = self._intern(name)
        stack, name_ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end,
        )
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                counts[name] += count(result)
            return result

        # updated=() keeps a wrapped class's attributes off the wrapper.
        return functools.update_wrapper(wrapper, fn, updated=())

    def wrap(self, target: str, name: str, count: Callable[[object], int] | None = None) -> bool:
        """Wrap ``module.attr`` or ``module.Class.attr`` in place.

        Returns False, and wraps nothing, when the target does not exist, so
        a renamed function shows up as a missing span instead of a crash.
        """
        owner, attr = resolve_owner(target)
        if owner is None or not hasattr(owner, attr):
            return False
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(getattr(owner, attr), name, count))
        return True

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns plus per-span self time."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        duration = end - start
        return {
            "name_id": name_id,
            "parent": parent,
            "start": start,
            "end": end,
            "duration": duration,
            "self": self_times(duration, parent),
        }


def resolve_owner(target: str):
    """``'fedsim.nn.ParameterSet.__init__'`` -> (ParameterSet, '__init__')."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for part in parts[split:-1]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None, parts[-1]
        return obj, parts[-1]
    return None, parts[-1]


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def descendant_mask(parent: np.ndarray, name_id: np.ndarray, ancestor_id: int) -> np.ndarray:
    """True for spans that have a span with ``ancestor_id`` somewhere above them."""
    has_parent = parent >= 0
    up = np.where(has_parent, parent, 0)
    inside = has_parent & (name_id[up] == ancestor_id)
    while True:
        grown = inside | (has_parent & inside[up])
        if np.array_equal(grown, inside):
            return inside
        inside = grown


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    best = PERCENTILE_LADDER[0][0]
    for pct, one_in in PERCENTILE_LADDER:
        if n >= TAIL_MIN_BEYOND * one_in:
            best = pct
    return best


def percentile_summary(samples: np.ndarray) -> tuple[float, float, int]:
    """(p50, tail, n); an empty sample gives zeros."""
    n = int(samples.size)
    if n == 0:
        return 0.0, 0.0, 0
    p50 = float(np.percentile(samples, 50.0))
    tail = float(np.percentile(samples, tail_percentile(n)))
    return p50, tail, n
