"""In-memory span tracing applied from outside the program.

A :class:`Tracer` records one span per call of a wrapped entry point:
name, thread, start and end (``perf_counter_ns``), the span that caused
it, and free-form counters.  Spans nest through one stack per thread; a
task handed to a ``ThreadPoolExecutor`` inherits the submitting thread's
open span as its parent, so work a merge fans out to pool threads is
attributed to the merge (the span-tree model of Dapper, Sigelman et al.
2010).

A process forked while spans are open (the merge engine's rank pool)
inherits the tracer and its open spans.  Spans that end in such a child
are appended to a file under ``spill_dir`` and read back by
:meth:`Tracer.collect_spilled`, linked under the span that was open at
the fork; ``perf_counter_ns`` is one system-wide monotonic clock, so the
times line up.

:class:`Probes` installs the wrappers.  A probe names the *binding the
caller uses*: a class attribute (``CausalLM.loss``) or a function that
modules import by name (``repro.io.blobfile.write_blob`` is wrapped in
every ``repro`` module that holds it).  ``Probes.restore`` puts every
original back, and ``Probes.check_fired`` fails loudly when a probe the
workload must reach never ran, so a rename in the program cannot quietly
report a layer as 0 ms.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One timed call: ``[start, end)`` in ``perf_counter_ns``."""

    id: int
    name: str
    pid: int
    tid: int
    start: int
    parent: "Span | None" = None
    end: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start

    def add(self, key: str, value: float) -> None:
        """Accumulate a counter recorded at this span's boundary."""
        self.counts[key] = self.counts.get(key, 0.0) + value


class Tracer:
    """Thread-safe span recorder; spans stay in memory until exported."""

    def __init__(self, spill_dir: str | Path | None = None) -> None:
        self._pid = os.getpid()
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[Span] = []
        self.origin = time.perf_counter_ns()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record ``name`` around the ``with`` body."""
        stack = self._stack()
        sp = Span(
            id=next(self._ids),
            name=name,
            pid=os.getpid(),
            tid=threading.get_ident(),
            start=time.perf_counter_ns(),
            parent=stack[-1] if stack else None,
        )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            stack.pop()
            if sp.pid != self._pid:
                self._spill(sp)
            else:
                with self._lock:
                    self.spans.append(sp)

    def _spill(self, sp: Span) -> None:
        if self.spill_dir is None:
            return
        record = {"id": sp.id, "name": sp.name, "tid": sp.tid, "start": sp.start,
                  "end": sp.end, "parent": sp.parent.id if sp.parent else None,
                  "counts": sp.counts}
        with (self.spill_dir / f"spans-{sp.pid}.jsonl").open("a") as fh:
            fh.write(json.dumps(record) + "\n")

    def collect_spilled(self) -> int:
        """Adopt the spans forked children spilled; returns how many."""
        if self.spill_dir is None or not self.spill_dir.is_dir():
            return 0
        by_id = {sp.id: sp for sp in self.spans}
        adopted = 0
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            pid = int(path.stem.split("-", 1)[1])
            records = [json.loads(line) for line in path.read_text().splitlines()]
            # Ids restart from the fork's counter in every child: renumber.
            local = {r["id"]: Span(id=next(self._ids), name=r["name"], pid=pid,
                                   tid=r["tid"], start=r["start"], end=r["end"],
                                   counts=r["counts"]) for r in records}
            for r in records:
                parent = r["parent"]
                local[r["id"]].parent = local.get(parent) or by_id.get(parent)
            self.spans.extend(local.values())
            adopted += len(local)
            path.unlink()
        return adopted

    @contextlib.contextmanager
    def adopt(self, parent: Span) -> Iterator[None]:
        """Make ``parent`` the open span of this thread (cross-thread work)."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def export_chrome(self, path: str | Path) -> Path:
        """Write the spans as Chrome Trace Event Format JSON (Perfetto)."""
        tids: dict[tuple[int, int], int] = {}
        events: list[dict[str, Any]] = []
        for sp in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            tid = tids.setdefault((sp.pid, sp.tid), len(tids) + 1)
            args: dict[str, Any] = {"id": sp.id}
            if sp.parent is not None:
                args["parent"] = sp.parent.id
            args.update(sp.counts)
            events.append({
                "name": sp.name,
                "cat": sp.name.split(".", 1)[0],
                "ph": "X",
                "ts": (sp.start - self.origin) / 1e3,
                "dur": sp.duration / 1e3,
                "pid": sp.pid,
                "tid": tid,
                "args": args,
            })
        for (pid, _), tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                           "args": {"name": f"thread-{tid}"}})
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``[a, b)`` intervals."""
    total = 0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it its children cover.

    Children on other threads may overlap one another; the covered part
    is their union, clipped to the parent's interval.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp.parent is not None:
            p = sp.parent
            a, b = max(sp.start, p.start), min(sp.end, p.end)
            if b > a:
                children.setdefault(p.id, []).append((a, b))
    return {sp.id: sp.duration - _union_ns(children.get(sp.id, [])) for sp in spans}


@dataclass
class LayerTotals:
    """Per-name aggregates over a span list (nanoseconds and counters)."""

    inclusive_ns: Counter
    self_ns: Counter
    counts: dict[str, Counter]


def layer_totals(spans: list[Span]) -> LayerTotals:
    """Aggregate spans by name.

    ``inclusive_ns`` counts only the outermost span of a name on each
    branch, so a recursive or re-entrant layer is not counted twice.
    """
    selfs = self_times(spans)
    inclusive: Counter = Counter()
    self_ns: Counter = Counter()
    counts: dict[str, Counter] = {}
    for sp in spans:
        self_ns[sp.name] += selfs[sp.id]
        for key, value in sp.counts.items():
            counts.setdefault(sp.name, Counter())[key] += value
        anc = sp.parent
        while anc is not None and anc.name != sp.name:
            anc = anc.parent
        if anc is None:
            inclusive[sp.name] += sp.duration
    return LayerTotals(inclusive, self_ns, counts)


# ---------------------------------------------------------------------------
# Wrapping entry points
# ---------------------------------------------------------------------------

OnCall = Callable[[Span, tuple, dict, Any], None]


@dataclass(frozen=True)
class Probe:
    """One entry point to wrap.

    ``target`` is ``"module:attr"`` for a function imported by name
    (wrapped at every ``repro`` module binding of that object) or
    ``"module:Class.attr"`` for a class attribute.  ``on_call`` records
    counters on the span from the call's arguments and result.
    """

    span: str
    target: str
    on_call: OnCall | None = None


class ProbeError(RuntimeError):
    """A probe target is missing, or a required probe never fired."""


_MISSING = object()


class Probes:
    """Install wrappers for a set of probes on one tracer; undo on restore."""

    def __init__(self, tracer: Tracer, probes: list[Probe], *, package: str = "repro") -> None:
        self.tracer = tracer
        self.probes = probes
        self.package = package
        self._undo: list[Callable[[], None]] = []

    # -- install / restore ---------------------------------------------------

    def install(self) -> "Probes":
        try:
            for probe in self.probes:
                self._install_one(probe)
            self._install_pool_propagation()
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        tracer, on_call = self.tracer, probe.on_call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(probe.span) as sp:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(sp, args, kwargs, result)
                return result

        return wrapper

    def _install_one(self, probe: Probe) -> None:
        module_name, _, attr_path = probe.target.partition(":")
        module = sys.modules.get(module_name)
        if module is None:
            module = __import__(module_name, fromlist=["_"])
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name, None)
            if not isinstance(cls, type) or not hasattr(cls, attr):
                raise ProbeError(f"probe target {probe.target} does not exist")
            self._install_class_attr(probe, cls, attr)
            return
        original = getattr(module, attr, None)
        if not callable(original):
            raise ProbeError(f"probe target {probe.target} does not exist")
        wrapper = self._wrap(probe, original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not (name == self.package or name.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(functools.partial(setattr, mod, key, original))

    def _install_class_attr(self, probe: Probe, cls: type, attr: str) -> None:
        raw = None
        for klass in cls.__mro__:
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(probe, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(probe, raw.__func__))
        elif callable(raw):
            new = self._wrap(probe, raw)
        else:
            raise ProbeError(f"probe target {probe.target} is not callable")
        own = vars(cls).get(attr, _MISSING)
        setattr(cls, attr, new)
        if own is _MISSING:
            self._undo.append(functools.partial(delattr, cls, attr))
        else:
            self._undo.append(functools.partial(setattr, cls, attr, own))

    def _install_pool_propagation(self) -> None:
        tracer = self.tracer
        pool = concurrent.futures.ThreadPoolExecutor
        original = pool.submit

        @functools.wraps(original)
        def submit(executor, fn, /, *args, **kwargs):
            parent = tracer.current()
            if parent is None:
                return original(executor, fn, *args, **kwargs)

            def adopted(*a, **k):
                with tracer.adopt(parent):
                    return fn(*a, **k)

            return original(executor, adopted, *args, **kwargs)

        pool.submit = submit
        self._undo.append(functools.partial(setattr, pool, "submit", original))

    # -- self-check ----------------------------------------------------------

    def check_fired(self, required: list[str]) -> None:
        """Raise if any span name in ``required`` was never recorded."""
        seen = {sp.name for sp in self.tracer.spans}
        silent = [name for name in required if name not in seen]
        if silent:
            raise ProbeError(
                "wrapped entry points never fired: " + ", ".join(silent)
                + " (renamed or no longer called by the program?)"
            )

