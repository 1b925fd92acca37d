"""Per-layer tracing from outside the package.

A `Tracer` replaces public functions of `orlicap` with timing wrappers at
every name a caller looks them up by (module globals and class
attributes), so nothing in `src/` changes.  Each wrapper records calls,
inclusive time and self time (inclusive minus the time of wrapped calls
made inside it).  Private helpers stay unwrapped, so a layer's self time
includes them.  Spans are aggregated in memory per name; nothing is
written while an operation runs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _orlicap_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "orlicap" or name.startswith("orlicap."))]


def rebind(original, replacement) -> list:
    """Point every module-level name bound to `original` at `replacement`.

    Returns the (namespace, name) pairs changed, for `unbind`.
    """
    changed = []
    for mod in _orlicap_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                changed.append((mod, name))
    return changed


def unbind(changed, original) -> None:
    for ns, name in changed:
        setattr(ns, name, original)


class Stat:
    __slots__ = ("calls", "total", "self", "extra", "samples")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.extra = defaultdict(float)    # sums kept by observers
        self.samples = defaultdict(list)   # per-call values kept by observers


class Tracer:
    """Wraps functions and methods until `restore`; `take` reads and resets
    the counters."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self._stack = []           # child-time accumulators of open spans
        self._groups = defaultdict(int)
        self._patches = []         # callables that undo one wrap each

    # -- recording --------------------------------------------------------

    def _make_wrapper(self, name, fn, observe=None, group=None, before=None):
        stats = self.stats
        stack = self._stack
        groups = self._groups

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before() if before is not None else None
            child = [0.0]
            stack.append(child)
            if group is not None:
                groups[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.total += dt
                st.self += dt - child[0]
                if stack:
                    stack[-1][0] += dt
                if group is not None:
                    groups[group] -= 1
                    if groups[group] == 0:  # outermost call of the group
                        stats[group].total += dt
                        stats[group].calls += 1
            if observe is not None:
                observe(stats[name], args, kwargs, result, token)
            return result

        return wrapper

    def wrap_function(self, name, fn, observe=None, group=None, before=None):
        """Wrap `fn` under `name`.  `observe(stat, args, kwargs, result,
        token)` runs after each call, with `token = before()` taken before
        it; `group` also sums the outermost calls of several functions."""
        wrapper = self._make_wrapper(name, fn, observe, group, before)
        changed = rebind(fn, wrapper)
        if not changed:
            raise RuntimeError(f"no orlicap name is bound to {fn.__qualname__}")
        self._patches.append(lambda: unbind(changed, fn))

    def wrap_method(self, name, cls, attr, observe=None, before=None):
        fn = cls.__dict__[attr]
        setattr(cls, attr, self._make_wrapper(name, fn, observe, before=before))
        self._patches.append(lambda: setattr(cls, attr, fn))

    def restore(self) -> None:
        while self._patches:
            self._patches.pop()()

    # -- reading ----------------------------------------------------------

    def take(self) -> dict:
        """Return the counters recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("take inside an open span")
        stats = dict(self.stats)
        self.stats.clear()
        return stats
