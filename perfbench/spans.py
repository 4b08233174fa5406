"""In-memory span tracing for the traced benchmark run.

The tracer wraps public callables of the ``semcom`` package from the
outside, records one span per call (name, start, end, parent span, task
id) and keeps every span in memory until the run ends.  Wrappers are
installed on the attribute the caller actually looks up: a function
imported with ``from .world import step`` must be patched in the
importing module, not where it is defined.

Wrappers are removed by :meth:`Tracer.uninstall`, which restores the
original objects and fails loudly if any patched attribute was not
given back.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

WRAPPER_MARK = "__perfbench_wrapper__"


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root span
    task: int


class Tracer:
    """Records spans and counters around patched callables."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._task = -1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _open(self) -> Tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = Span(name, start, end, parent, self._task)

    def task(self, task_id: int, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as task ``task_id`` under a root span ``bench.task``."""
        self._task = task_id
        sid, parent = self._open()
        start = perf_counter_ns()
        try:
            return fn()
        finally:
            self._close(sid, parent, "bench.task", start)

    # -- patching --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Callable]) -> None:
        original = owner.__dict__[attr]
        if getattr(original, WRAPPER_MARK, False):
            raise RuntimeError("%s.%s is already wrapped" % (owner.__name__, attr))
        wrapper = make(original)
        setattr(wrapper, WRAPPER_MARK, True)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[[tuple, Any, int], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of owner.attr.

        ``observe(args, result, duration_ns)`` runs after the span is
        closed, so its cost is not charged to the span.
        """
        tracer = self

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                sid, parent = tracer._open()
                start = perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(sid, parent, name, start)
                if observe is not None:
                    span = tracer.spans[sid]
                    observe(args, result, span.end_ns - span.start_ns)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner: Any, attr: str, before: Callable[[tuple], None]) -> None:
        """Call ``before(args)`` ahead of every call of owner.attr; no span."""

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                before(args)
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every patched attribute and check that it is restored."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError("could not restore %s.%s" % (owner.__name__, attr))

    # -- results ---------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("spans still open")
        return self.spans  # type: ignore[return-value]


def self_times(spans: List[Span]) -> List[int]:
    """Per span: duration minus the part of it that child spans cover."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start_ns
        for c in sorted(children.get(i, ()), key=lambda j: spans[j].start_ns):
            lo = max(spans[c].start_ns, reach)
            hi = min(spans[c].end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end_ns - s.start_ns) - covered)
    return out


def totals_by_name(spans: List[Span]) -> Dict[str, Tuple[int, int, int]]:
    """name -> (calls, total duration ns, total self time ns)."""
    selfs = self_times(spans)
    acc: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
    for s, own in zip(spans, selfs):
        row = acc[s.name]
        row[0] += 1
        row[1] += s.end_ns - s.start_ns
        row[2] += own
    return {k: (v[0], v[1], v[2]) for k, v in acc.items()}


def write_spans(path: str, spans: Iterable[Span]) -> None:
    """One CSV line per span: id, parent, task, name, start_ns, end_ns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,task,name,start_ns,end_ns\n")
        for i, s in enumerate(spans):
            fh.write("%d,%d,%d,%s,%d,%d\n" % (i, s.parent, s.task, s.name, s.start_ns, s.end_ns))
