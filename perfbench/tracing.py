"""Spans recorded in memory around calls into polaraut, from outside the library.

A span is [run_id, span_id, parent_id, name, start_ns, end_ns, items]; span_id
is its index in Tracer.spans and parent_id is -1 for a root.  `items` counts
the work handed to the call (frames, or frames x branches for an ensemble).
Library functions are wrapped under the module attribute the caller looks
them up by, e.g. polaraut.channel.sample_blta_batch, and restored afterwards.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterator

COLUMNS = ("run_id", "span_id", "parent_id", "name", "start_ns", "end_ns", "items")


class MissingSpan(RuntimeError):
    """A span the workload must record was never entered, or its target is gone."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, items: int = 0) -> Iterator[list]:
        rec = [self.run_id, len(self.spans), self._stack[-1] if self._stack else -1,
               name, time.perf_counter_ns(), 0, items]
        self.spans.append(rec)
        self._stack.append(rec[1])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[5] = time.perf_counter_ns()

    def require(self, names: tuple[str, ...], workload: str) -> None:
        calls = Counter(rec[3] for rec in self.spans)
        missing = [name for name in names if not calls[name]]
        if missing:
            raise MissingSpan(
                f"{workload}: span(s) {', '.join(missing)} recorded zero calls; "
                "the traced function was renamed or is no longer called"
            )

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        out = [rec[5] - rec[4] for rec in self.spans]
        for rec in self.spans:
            if rec[2] >= 0:
                out[rec[2]] -= rec[5] - rec[4]
        return out


def wrap_call(
    tracer: Tracer,
    name: str,
    fn: Callable,
    items: Callable[..., int] | None = None,
    keep: Callable | None = None,
) -> Callable:
    """Time each call as a span; keep(args, result) sees the result afterwards."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, items(*args) if items else 0):
            out = fn(*args, **kwargs)
        if keep is not None:
            keep(args, out)
        return out

    return wrapper


def wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Time each step of a generator as a span, so the consumer's work is not in it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            with tracer.span(name, 1):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    return wrapper


@contextmanager
def patched(module: ModuleType, wrappers: dict[str, Callable[[Callable], Callable]]):
    """Replace module attributes by wrapped versions; restore them on exit."""
    saved = {}
    try:
        for attr, make in wrappers.items():
            if not hasattr(module, attr):
                raise MissingSpan(f"{module.__name__}.{attr} no longer exists")
            saved[attr] = getattr(module, attr)
            setattr(module, attr, make(saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)
