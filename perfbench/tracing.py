"""Per-layer tracing installed from outside the program.

The benchmark never edits ``src/``: it wraps the public functions of each
layer at run time and restores them afterwards.  A ``from x import f``
copies the name into the importing module, so patching ``x.f`` alone
would miss every caller that goes through the copy; :meth:`Tracer.install`
therefore rebinds *every* ``repro.*`` module attribute that is the
original function object.  Methods are patched on their class, which
every caller reaches through attribute lookup.

Four kinds of wrapper:

* ``span`` - a timed call.  Each thread keeps a parent stack, so a span's
  *self* time is its duration minus the time of the spans it called;
* ``gen`` - a generator whose time is spent while the *consumer* iterates
  (``Repository.handles``): each ``next`` is timed and charged to the
  consumer's span as a child;
* ``steps`` - ``Simulator.process``: each resumption of the new
  process's generator is a span of its own, so the engine's event loop
  and the process bodies it runs are timed apart;
* ``count`` - hot leaves (``Tree.handle``, ``Blob.handle``,
  ``Handle.pack``) count calls, and optionally an amount, without timing:
  a span there would cost more than the work it measures.

Records live in per-thread state (no locks on the hot path) and are
rolled up when the run ends; raw spans are kept in memory, capped per
thread, and written out by :meth:`Tracer.dump`.

Coverage: a *container* span (the driver's batch loop, a pool worker's
job handoff, a simulated process's step) runs code that belongs to no
layer.  Its self time, at any depth, is the thread's *unexplained* time,
so a hot function left unwrapped below a container shows up there
instead of inflating some layer's self time.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

#: Spans whose self time nobody explains: the driver's batch loop on the
#: driver thread, the pool's job handoff on a worker thread, and one step
#: of a simulated process (the platform's process bodies).  Time a thread
#: spends there outside every wrapped layer is *unexplained*.
CONTAINERS = (
    "driver.batch",
    "fixpoint.jobs.JobQueue.run_job",
    "sim.engine.Simulator.process.step",
)

#: Raw spans kept per thread for :meth:`Tracer.dump`.
_RAW_SPANS_PER_THREAD = 20000


@dataclass(frozen=True)
class Target:
    """One binding to wrap: ``"module:Attr"`` or ``"module:Class.method"``.

    ``after(counts, args, result)`` runs after a successful ``span`` call
    and may add to the thread's counters; ``amount(args)`` is what a
    ``count`` target adds under ``<name>:amount`` on each call.
    """

    path: str
    kind: str = "span"
    after: Optional[Callable] = None
    amount: Optional[Callable] = None

    @property
    def name(self) -> str:
        module, _, attr = self.path.partition(":")
        return f"{module.removeprefix('repro.')}.{attr}"


class _ThreadState:
    __slots__ = ("name", "stack", "agg", "counts", "spans", "wall", "unexplained")

    def __init__(self):
        self.name = threading.current_thread().name
        #: One ``[child_seconds]`` cell per open span.
        self.stack: List[List[float]] = []
        #: span name -> [calls, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        #: (name, start, end, self seconds, depth), capped.
        self.spans: List[Tuple[str, float, float, float, int]] = []
        #: Summed duration of this thread's root spans, and the part of it
        #: spent in a container outside every child span.
        self.wall = 0.0
        self.unexplained = 0.0


class Tracer:
    """Installs wrappers for ``targets``; collects spans and counters."""

    def __init__(self, targets: List[Target]):
        self.targets = list(targets)
        self.installed = False
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: Target paths that did not resolve (see :meth:`install`).
        self.missing: set = set()

    # ------------------------------------------------------------------
    # Recording

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _close(self, state, name, entered, start, end, frame) -> None:
        """Record a span that ran from ``start`` to ``end``.

        The parent is charged from ``entered`` (before the wrapper's own
        set-up) to the end of this bookkeeping, so the wrapper's cost
        lands in no one's self time: tracing overhead is never reported
        as a layer's work, nor as unexplained time.
        """
        stack = state.stack
        stack.pop()
        duration = end - start
        own = duration - frame[0]
        if name in CONTAINERS:
            state.unexplained += own
        record = state.agg.get(name)
        if record is None:
            record = state.agg[name] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += duration
        record[2] += own
        if len(state.spans) < _RAW_SPANS_PER_THREAD:
            state.spans.append((name, start, end, own, len(stack)))
        if stack:
            stack[-1][0] += _now() - entered
        else:
            state.wall += duration

    @contextlib.contextmanager
    def _span(self, name: str):
        entered = _now()
        state = self._state()
        frame = [0.0]
        state.stack.append(frame)
        start = _now()
        try:
            yield
        finally:
            self._close(state, name, entered, start, _now(), frame)

    def span(self, name: str):
        """A span around the driver's own code; free when not installed."""
        if not self.installed:
            return contextlib.nullcontext()
        return self._span(name)

    # ------------------------------------------------------------------
    # Wrappers

    def _call(self, name: str, after, fn, args, kwargs):
        """Call ``fn`` as the span ``name``."""
        entered = _now()
        state = self._state()
        frame = [0.0]
        state.stack.append(frame)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(state, name, entered, start, _now(), frame)
            raise
        end = _now()
        if after is not None:
            after(state.counts, args, result)
        self._close(state, name, entered, start, end, frame)
        return result

    def _wrap_span(self, target: Target, fn):
        name, after, call = target.name, target.after, self._call

        def wrapper(*args, **kwargs):
            return call(name, after, fn, args, kwargs)

        return wrapper

    def _wrap_steps(self, target: Target, fn):
        """``Simulator.process``: a span, and each step of the new
        process's generator becomes the container span ``<name>.step``."""
        name, step, call = target.name, target.name + ".step", self._call

        def start_process(owner, gen, *args, **kwargs):
            return fn(owner, _Steps(gen, step, call), *args, **kwargs)

        def wrapper(*args, **kwargs):
            return call(name, None, start_process, args, kwargs)

        return wrapper

    def _wrap_gen(self, target: Target, fn):
        name, tracer = target.name, self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            record = state.agg.get(name)
            if record is None:
                record = state.agg[name] = [0, 0.0, 0.0]
            record[0] += 1
            stack = state.stack
            inner = fn(*args, **kwargs)
            while True:
                start = _now()
                try:
                    item = next(inner)
                except StopIteration:
                    item = _DONE
                spent = _now() - start
                record[1] += spent
                record[2] += spent
                if stack:
                    stack[-1][0] += spent
                if item is _DONE:
                    return
                yield item

        return wrapper

    def _wrap_count(self, target: Target, fn):
        name, amount, tracer = target.name, target.amount, self
        amount_name = name + ":amount"

        def wrapper(*args, **kwargs):
            counts = tracer._state().counts
            counts[name] = counts.get(name, 0) + 1
            if amount is not None:
                counts[amount_name] = counts.get(amount_name, 0) + amount(args)
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Installation

    def install(self) -> None:
        """Wrap every target binding.  Idempotent until :meth:`uninstall`.

        A target the program no longer has is skipped and listed in
        :attr:`missing`: its time then shows up in its caller's self
        time, or as unexplained time, instead of failing the run.
        """
        if self.installed:
            return
        make = {"span": self._wrap_span, "gen": self._wrap_gen,
                "count": self._wrap_count, "steps": self._wrap_steps}
        for target in self.targets:
            module_name, _, attr = target.path.partition(":")
            try:
                module = importlib.import_module(module_name)
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = (owner.__dict__ if owner_name else vars(module))[method]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(target.path)
                continue
            wrapper = make[target.kind](target, original)
            if owner_name:
                self._patch(owner, method, wrapper)
                continue
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, binding, wrapper)
        self.installed = True

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.installed = False

    @contextlib.contextmanager
    def installed_for(self, enabled: bool):
        """Install for the duration of the block when ``enabled``."""
        if not enabled:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Roll-up

    def rollup(self) -> "Rollup":
        with self._states_lock:
            states = list(self._states)
        spans: Dict[str, List[float]] = {}
        counts: Dict[str, float] = {}
        threads: Dict[str, Dict[str, float]] = {}
        for state in states:
            for name, (calls, total, own) in state.agg.items():
                record = spans.setdefault(name, [0, 0.0, 0.0])
                record[0] += calls
                record[1] += total
                record[2] += own
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0) + value
            role = "driver" if state.name == "MainThread" else "worker"
            per_role = threads.setdefault(role, {"wall": 0.0, "unexplained": 0.0})
            per_role["wall"] += state.wall
            per_role["unexplained"] += state.unexplained
        return Rollup(spans, counts, threads)

    def dump(self, path) -> None:
        """Write every kept raw span, grouped by thread, as gzipped JSON."""
        with self._states_lock:
            states = list(self._states)
        threads = [
            {"thread": state.name, "spans": [list(span) for span in state.spans]}
            for state in states
        ]
        with gzip.open(path, "wt") as out:
            json.dump({"columns": ["name", "start", "end", "self_s", "depth"],
                       "threads": threads}, out)


_DONE = object()


class _Steps:
    """A simulated process's generator whose every resumption is a span."""

    __slots__ = ("gen", "step", "call", "__name__")

    def __init__(self, gen, step: str, call):
        self.gen, self.step, self.call = gen, step, call
        self.__name__ = getattr(gen, "__name__", "process")

    def send(self, value):
        return self.call(self.step, None, self.gen.send, (value,), {})

    def throw(self, exc):
        return self.call(self.step, None, self.gen.throw, (exc,), {})


@dataclass
class Rollup:
    """Summed spans (name -> [calls, total s, self s]), counters, and per
    thread-role wall / unexplained seconds."""

    spans: Dict[str, List[float]]
    counts: Dict[str, float]
    threads: Dict[str, Dict[str, float]]

    def calls(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def unexplained_frac(self, role: str) -> float:
        record = self.threads.get(role)
        if not record or record["wall"] <= 0:
            return 0.0
        return record["unexplained"] / record["wall"]
