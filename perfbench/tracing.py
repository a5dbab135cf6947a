"""In-memory span tracer that wraps layer entry points from outside the program.

A :class:`Tracer` replaces a function or method on its owner (a module or a
class) by a wrapper that records one span per call: name, start, end, the
index of the enclosing span, and the run id of the timed pass it belongs to.
Spans stay in a list until :meth:`Tracer.write_jsonl` writes them out at the
end of the benchmark. Counters recorded at the same boundaries live beside
the spans, so ratios are measured where the work happens.

Wrapping is switched on with :meth:`Tracer.wrap` and off with
:meth:`Tracer.unwrap_all`; untraced runs never install a wrapper.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable

__all__ = ["Span", "Tracer", "self_times", "summarize"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span and counter store for one traced benchmark run (single thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), float("nan"), parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``before(args, kwargs)`` runs inside the span before the call and
        its return value is handed to ``after(pre, args, kwargs, result)``,
        which runs inside the span after a successful call.
        """
        # Take the attribute from the owner's own namespace when it is there,
        # so a class gets back its plain function and an instance that only
        # inherits the attribute gets it deleted again on unwrap.
        own = vars(owner)
        orig = own.get(attr) if attr in own else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with tracer.span(name):
                pre = before(args, kwargs) if before is not None else None
                result = orig(*args, **kwargs)
                if after is not None:
                    after(pre, args, kwargs, result)
            return result

        self._patches.append((owner, attr, orig if attr in own else None))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(sp)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest strictly, so the children of one
    span never overlap and their durations add up to the covered time.
    """
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.duration
    return [sp.duration - c for sp, c in zip(spans, covered)]


def summarize(spans: list[Span], keep: Callable[[Span], bool] = lambda sp: True) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and total self time, over the
    spans ``keep`` accepts."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sp, own in zip(spans, self_times(spans)):
        if not keep(sp):
            continue
        agg = out[sp.name]
        agg["calls"] += 1
        agg["total_s"] += sp.duration
        agg["self_s"] += own
    return dict(out)
