"""In-memory tracer: who was busy, who waited, per layer.

Three kinds of measurement, all taken from outside the program:

* **busy** — a synchronous call into a layer (``core.codec.encode``, a
  cipher block call, ``DurableStore.append_record`` …) wrapped by
  :meth:`Tracer.wrap`.  Calls nest on a per-thread stack, and a call's
  **self time** is its duration minus the time its callees spent in
  *other* wrapped calls, so a layer is never charged for the layers it
  calls.
* **event-loop steps** — every asyncio callback is one more busy frame at
  the bottom of that stack, owned by the module whose coroutine the step
  runs (``net/fleet.py`` → ``net.fleet``).  Whatever a step does outside
  wrapped calls is that module's glue.  With the time the selector spent
  blocked (``idle``) or polled without blocking (``poll``) the loop's
  wall clock is then fully accounted for:
  ``wall = Σ self + poll + idle + unattributed``.
* **waits** — round trips and sleeps, which suspend and so cannot be
  self-timed; recorded as plain durations by :meth:`Tracer.wait`.

Spans ``(id, name, start, end, parent, query_id)`` stay in memory and are
written as JSONL by :meth:`Tracer.dump` when the workload ends.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Iterable

_perf = time.perf_counter
_MISSING = object()

#: span id of the enclosing operation; tasks and threads the operation
#: starts inherit it, which is how a span finds its query
_operation: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "e2e_operation", default=None
)


class Operation:
    """One closed-loop operation (a query, an ingest round, a recovery)
    as the root span of everything it causes."""

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self.span_id = next(tracer._ids)
        self.query_id: str | None = None

    def __enter__(self) -> "Operation":
        self._token = _operation.set(self.span_id)
        self._start = _perf()
        return self

    def __exit__(self, *exc: object) -> None:
        end = _perf()
        _operation.reset(self._token)
        self._tracer.spans.append(
            (self.span_id, "op", self._start, end, None, self.query_id)
        )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: wait name -> durations in seconds
        self.waits: dict[str, list[float]] = {}
        #: seconds the event loop spent blocked in its selector
        self.idle_s = 0.0
        #: seconds it spent polling the selector without blocking
        self.poll_s = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (thread ident, that thread's key -> [calls, self seconds, bytes])
        self._threads: list[tuple[int, dict[str, list]]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._owners: dict[Any, str] = {}
        self._loop_thread: int | None = None

    # ------------------------------------------------------------------ #
    # busy accounting
    # ------------------------------------------------------------------ #
    def _state(self) -> tuple[list, dict[str, list]]:
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack, local.totals = [], {}
            self._threads.append((threading.get_ident(), local.totals))
            return local.stack, local.totals

    def _leave(
        self,
        stack: list,
        totals: dict[str, list],
        frame: list,
        start: float,
        size: int,
        query_id: str | None,
    ) -> None:
        end = _perf()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        key = frame[0]
        total = totals.get(key)
        if total is None:
            total = totals[key] = [0, 0.0, 0]
        total[0] += 1
        total[1] += duration - frame[1]
        total[2] += size
        if frame[2] is not None:
            parent = next(
                (f[2] for f in reversed(stack) if f[2] is not None),
                _operation.get(),
            )
            self.spans.append((frame[2], key, start, end, parent, query_id))

    def busy(
        self,
        func: Callable,
        key: str,
        *,
        record: bool = False,
        nbytes: Callable[[tuple, Any], int] | None = None,
        query_id: Callable[[tuple], str | None] | None = None,
    ) -> Callable:
        """*func* timed as busy time of bucket *key*.  A call made while
        the same bucket is already on top of the stack is part of its
        caller.  ``record`` also keeps one span per call."""
        state, leave, ids = self._state, self._leave, self._ids

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack, totals = state()
            if stack and stack[-1][0] == key:
                return func(*args, **kwargs)
            frame = [key, 0.0, next(ids) if record else None]
            stack.append(frame)
            start = _perf()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                leave(stack, totals, frame, start, 0, None)
                raise
            leave(
                stack,
                totals,
                frame,
                start,
                nbytes(args, result) if nbytes is not None else 0,
                query_id(args) if query_id is not None else None,
            )
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------ #
    # installing and removing shims
    # ------------------------------------------------------------------ #
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember how to undo it."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, key: str, **options: Any) -> None:
        """Busy-wrap a method of class *owner* (class- and static methods
        keep their kind)."""
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self.busy(raw.__func__, key, **options))
        else:
            wrapped = self.busy(raw, key, **options)
        self.patch(owner, attr, wrapped)

    def wrap_function(self, module: Any, attr: str, key: str, **options: Any) -> None:
        """Busy-wrap a module-level function wherever ``repro`` modules
        bound it (``from x import f`` copies the reference)."""
        original = getattr(module, attr)
        wrapped = self.busy(original, key, **options)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for bound, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, bound, wrapped)

    def hook_loop(self, owner_of_file: Callable[[str], str]) -> None:
        """Charge every step of the running loop to the layer owning its
        coroutine, and count selector blocking as idle."""
        loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        owners = self._owners
        run = asyncio.Handle._run

        def owner(handle: asyncio.Handle) -> str:
            callback = handle._callback  # type: ignore[attr-defined]
            target = getattr(callback, "__self__", None)
            if isinstance(target, asyncio.Task):
                coro = target.get_coro()
                code = getattr(coro, "cr_code", None) or getattr(
                    coro, "gi_code", None
                )
            else:
                code = getattr(
                    getattr(callback, "__func__", callback), "__code__", None
                )
            layer = owners.get(code)
            if layer is None:
                layer = owners[code] = (
                    owner_of_file(code.co_filename) if code else "asyncio"
                )
            return layer

        # steps run on this thread only and never nest: its stack and
        # totals are looked up once, and a step has no parent to credit
        stack, totals = self._state()

        def _run(handle: asyncio.Handle) -> None:
            frame = [owner(handle), 0.0, None]
            stack.append(frame)
            start = _perf()
            try:
                run(handle)
            finally:
                duration = _perf() - start
                stack.pop()
                total = totals.get(frame[0])
                if total is None:
                    total = totals[frame[0]] = [0, 0.0, 0]
                total[0] += 1
                total[1] += duration - frame[1]

        self.patch(asyncio.Handle, "_run", _run)

        selector = loop._selector  # type: ignore[attr-defined]
        select = selector.select

        def timed_select(timeout: float | None = None) -> Any:
            start = _perf()
            try:
                return select(timeout)
            finally:
                if timeout is not None and timeout <= 0:
                    self.poll_s += _perf() - start
                else:
                    self.idle_s += _perf() - start

        self.patch(selector, "select", timed_select)

    def own(self, func: Callable, layer: str) -> None:
        """Steps of tasks running coroutine function *func* belong to
        *layer*, whatever file defines it."""
        self._owners[func.__code__] = layer

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # waits and operations
    # ------------------------------------------------------------------ #
    def wait(self, name: str, start: float, end: float) -> None:
        self.waits.setdefault(name, []).append(end - start)
        self.spans.append((next(self._ids), name, start, end, _operation.get(), None))

    def operation(self) -> Operation:
        return Operation(self)

    # ------------------------------------------------------------------ #
    # reading the results
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Forget everything measured so far (set-up and warm-up ran
        through the shims too)."""
        self.spans.clear()
        self.waits.clear()
        self.idle_s = self.poll_s = 0.0
        for _ident, totals in self._threads:
            totals.clear()

    def totals(self, loop_only: bool = False) -> dict[str, tuple[int, float, int]]:
        """key -> (calls, self seconds, bytes), summed over threads."""
        merged: dict[str, list] = {}
        for ident, totals in self._threads:
            if loop_only and ident != self._loop_thread:
                continue
            for key, (calls, seconds, size) in list(totals.items()):
                into = merged.setdefault(key, [0, 0.0, 0])
                into[0] += calls
                into[1] += seconds
                into[2] += size
        return {key: (c, s, b) for key, (c, s, b) in merged.items()}

    def spans_named(self, names: Iterable[str]) -> list[tuple]:
        wanted = frozenset(names)
        return [span for span in self.spans if span[1] in wanted]

    def dump(self, path: str) -> None:
        fields = ("id", "name", "start", "end", "parent", "query_id")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))))
                fh.write("\n")
