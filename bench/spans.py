"""Spans recorded from outside the program.

A Tracer replaces a function with a timing wrapper under every name an
lsbe module binds it to, because `from .estimates import lb_direction`
gives the solver its own name for the function and patching only the
defining module would miss that caller.  Methods are wrapped on the class.
Spans (name, start, end, parent) stay in memory; self times are computed
once the run is over, and leaving the `with` block restores every name.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    owner is a module name for functions, or (module name, class name) for
    methods; observe(args, kwargs, result, exc) runs after every call.
    """

    owner: object
    attr: str
    name: str
    observe: Callable | None = None


def _lsbe_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "lsbe" or key.startswith("lsbe."))]


class Tracer:
    def __init__(self, targets=()):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._targets = list(targets)

    def __enter__(self):
        try:
            for target in self._targets:
                self._patch(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, target: Target):
        name, observe = target.name, target.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index)
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            self._close(index)
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return wrapper

    def _patch(self, target: Target) -> None:
        if isinstance(target.owner, tuple):
            module, cls_name = target.owner
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[target.attr]
            self._restore.append((cls, target.attr, original))
            setattr(cls, target.attr, self._wrap(original, target))
            return
        original = getattr(sys.modules[target.owner], target.attr)
        wrapper = self._wrap(original, target)
        for mod in _lsbe_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent])


@dataclass
class SpanSummary:
    """Per-name aggregates over a list of spans.

    total: summed duration of the outermost span of each name (a nested
    span of the same name is not counted twice); self_time: duration minus
    the time covered by direct children; durations: every span's length.
    """

    total: dict
    self_time: dict
    calls: dict
    durations: dict


def summarize(spans) -> SpanSummary:
    """Aggregate spans whose parent indices refer to positions in `spans`
    (a parent of -1 or outside the list marks a root)."""
    n = len(spans)
    covered = [0.0] * n
    for name, start, end, parent in spans:
        if 0 <= parent < n:
            covered[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    for i, (name, start, end, parent) in enumerate(spans):
        length = end - start
        self_time[name] += length - covered[i]
        calls[name] += 1
        durations[name].append(length)
        ancestor, nested = parent, False
        while 0 <= ancestor < n:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            total[name] += length
    return SpanSummary(dict(total), dict(self_time), dict(calls),
                       dict(durations))

