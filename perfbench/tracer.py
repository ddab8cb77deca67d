"""Outside-in call tracing: calls and self time of wrapped functions.

A wrapper replaces a function at the name its callers look up (a module
global or a class attribute) and records, per metric name, the number of
calls, the inclusive time and the self time: the inclusive time minus that
of the wrapped calls made inside it.  Each thread keeps its own call stack
and tallies, merged when read, so worker threads never share a counter.
Optional hooks see the arguments before the call and the result after it,
and add named counts.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapping site: `owner.attr` is recorded under `name`.

    `before(ctx, args)` runs ahead of the call; its result is handed to
    `after(ctx, args, result, pre)`.  Both may add counts through
    `ctx.count(name)` and keep per-thread state on `ctx`, the calling
    thread's tallies.
    """

    owner: Any
    attr: str
    name: str
    before: Callable | None = None
    after: Callable | None = None


class _ThreadState:
    def __init__(self):
        self.stack: list[float] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    def wrap(self, fn: Callable, target: Target) -> Callable:
        name, before, after = target.name, target.before, target.after
        state = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st = state()
            pre = before(st, args) if before is not None else None
            stack = st.stack
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                st.calls[name] += 1
                st.total[name] += elapsed
                st.self_time[name] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(st, args, result, pre)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, targets) -> None:
        """Replace every target by its wrapper; `restore` undoes it."""
        for t in targets:
            original = vars(t.owner)[t.attr]  # the raw function, also on a class
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self.wrap(original, t))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------

    def _merged(self, field: str) -> dict:
        out: dict = defaultdict(int)
        with self._states_lock:
            for st in self._states:
                for k, v in getattr(st, field).items():
                    out[k] += v
        return out

    def calls(self, name: str) -> int:
        return self._merged("calls").get(name, 0)

    def total(self, name: str) -> float:
        return self._merged("total").get(name, 0.0)

    def self_time(self, name: str) -> float:
        return self._merged("self_time").get(name, 0.0)

    def count(self, name: str) -> int:
        return self._merged("counts").get(name, 0)
