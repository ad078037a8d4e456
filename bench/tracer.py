"""Outside-in layer tracer: wrap public entry points, attribute self time.

The tracer changes no file of the program.  For each target it wraps the
defining function object and rebinds every alias of that object in the
``repro.*`` module globals, which covers ``from x import f`` call sites;
a method is patched on its class.  Self time is a wrapper's duration
minus the time of the wrapped calls nested inside it, so time spent in an
unwrapped (or missing) function falls to the nearest wrapped caller, and
time outside every wrapped entry falls to the harness root.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_clock = time.perf_counter


def resolve(target: str) -> Optional[Tuple[object, str, Callable]]:
    """``(owner, attribute, function)`` for ``module:qualname``, or None
    when the target no longer resolves."""
    module_name, _, qualname = target.partition(":")
    parts = qualname.split(".")
    try:
        owner = importlib.import_module(module_name)
        for part in parts[:-1]:
            owner = getattr(owner, part)
        fn = getattr(owner, parts[-1])
    except (ImportError, AttributeError):
        return None
    return (owner, parts[-1], fn) if callable(fn) else None


def _repro_modules() -> List[object]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Call counts, self time and work counts per layer entry."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self.root_wall_s = 0.0
        self.root_self_s = 0.0
        # One frame per active wrapped call: the time of its wrapped children.
        self._stack: List[List[float]] = []
        # (owner, attribute, original, owner had its own binding)
        self._bindings: List[Tuple[object, str, object, bool]] = []

    # -- installation -------------------------------------------------------

    def install(self, entries: Dict[str, Iterable[str]],
                hooks: Optional[Dict[str, Callable]] = None) -> None:
        hooks = hooks or {}
        for entry, targets in entries.items():
            for target in targets:
                found = resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr, fn = found
                wrapper = self._wrap(entry, target, fn, hooks.get(target))
                if isinstance(owner, type):
                    self._bind(owner, attr, wrapper)
                for module in _repro_modules():
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            self._bind(module, name, wrapper)

    def _bind(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._bindings.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every rebound attribute, newest first."""
        while self._bindings:
            owner, attr, original, own = self._bindings.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- timing -------------------------------------------------------------

    def _wrap(self, entry: str, target: str, fn: Callable,
              hook: Optional[Callable]):
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        broken = self.missing

        def count(result) -> None:
            # A refactor that changes what the target returns loses the
            # work count, not the run.
            try:
                hook(counts, result)
            except (AttributeError, TypeError, IndexError) as exc:
                note = f"{target} (work count: {type(exc).__name__})"
                if note not in broken:
                    broken.append(note)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                calls[entry] += 1
                self_s[entry] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                count(result)
            return result

        return wrapper

    @contextmanager
    def root(self):
        """The harness root: time inside it but outside every wrapped
        entry is unattributed."""
        frame = [0.0]
        self._stack.append(frame)
        start = _clock()
        try:
            yield self
        finally:
            elapsed = _clock() - start
            self._stack.pop()
            self.root_wall_s += elapsed
            self.root_self_s += elapsed - frame[0]


def call_cost_s(calls: int = 20_000) -> float:
    """Seconds one wrapped call adds to a bare call, timed on a no-op with
    a work-count hook: the tracing overhead per wrapped call."""
    def noop():
        return None

    wrapped = Tracer()._wrap("cost", "cost", noop, lambda counts, result: None)
    start = _clock()
    for _ in range(calls):
        wrapped()
    mid = _clock()
    for _ in range(calls):
        noop()
    end = _clock()
    return max(0.0, ((mid - start) - (end - mid)) / calls)
