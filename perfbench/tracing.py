"""Span tracer that wraps hyperemb's functions from outside the package.

A wrapped function records one span (name, start, end, parent span, trial
id) per call, kept in memory and written out when the run ends.  Wrappers
are installed into every hyperemb module namespace that binds the wrapped
function object, because callers look the name up in their own module
(``incidence_matrix`` is bound in ``hypergraph``, ``model`` and
``features``; ``forward`` in ``model``, ``training`` and ``cli``).  A
function that no longer exists, or a count hook that no longer fits the
function's arguments or result, is recorded as missing instead of failing,
so the benchmark runs unedited against later versions of the package; the
runner leaves the metrics of a missing source out rather than reading 0.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Wrap:
    """Wrap ``module.attr`` as span ``span``.

    ``namespaces`` limits which modules get the wrapper (short names such
    as ``"cli"``); None means every hyperemb module that binds it.  ``hook``
    runs after the call with (tracer, bound arguments, result) to add the
    counts named in ``counts``.
    """

    module: str
    attr: str
    span: str
    namespaces: Optional[tuple[str, ...]] = None
    hook: Optional[Callable] = None
    counts: tuple[str, ...] = ()


def package_modules(package: str = "hyperemb") -> dict[str, object]:
    """Loaded modules of the package by short name ('' for the package itself)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == package or name.startswith(package + ".")):
            out[name[len(package) + 1:]] = mod
    return out


def patch_everywhere(modules: dict, original, replacement, namespaces=None) -> list:
    """Rebind ``original`` to ``replacement`` in each module that binds it; returns undo records."""
    undo = []
    for short, mod in modules.items():
        if namespaces is not None and short not in namespaces:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


class Tracer:
    """In-memory spans plus per-trial counters."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index or -1, trial id]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: dict[str, str] = {}  # span or count name -> why it cannot be measured
        self.trial = "setup"
        self._stack: list[int] = []
        self._undo: list = []

    def count(self, name: str, value: float) -> None:
        self.counts[self.trial][name] += value

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.trial])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def mark_missing(self, names, reason: str) -> None:
        for name in names:
            self.missing.setdefault(name, reason)

    def wrap(self, name: str, fn, hook=None, counts=()):
        sig = None
        if hook is not None:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                self.mark_missing(counts, f"{name} hook: no signature")
                hook = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result)
                except (AttributeError, TypeError, ValueError, KeyError) as exc:
                    self.mark_missing(counts, f"{name} hook: {type(exc).__name__}: {exc}")
            return result

        return traced

    def install(self, table: tuple[Wrap, ...]) -> None:
        modules = package_modules()
        for entry in table:
            home = modules.get(entry.module)
            original = getattr(home, entry.attr, None) if home is not None else None
            if original is None or not callable(original):
                self.mark_missing((entry.span, *entry.counts), f"{entry.module}.{entry.attr} is absent")
                continue
            wrapper = self.wrap(entry.span, original, entry.hook, entry.counts)
            undo = patch_everywhere(modules, original, wrapper, entry.namespaces)
            if not undo:
                self.mark_missing((entry.span, *entry.counts),
                                  f"{entry.module}.{entry.attr} is not bound in {entry.namespaces}")
            self._undo += undo

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def summary(self, trial: str) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds (minus child spans) and call count."""
        child = defaultdict(float)
        for name, start, end, parent, t in self.spans:
            if t == trial and parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for idx, (name, start, end, parent, t) in enumerate(self.spans):
            if t != trial:
                continue
            row = out[name]
            row["s"] += end - start
            row["self_s"] += end - start - child[idx]
            row["calls"] += 1
        return dict(out)

    def call_seconds(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self) -> dict:
        return {
            "spans": [
                [n, round(s - self.origin, 9), round(e - self.origin, 9), p, t]
                for n, s, e, p, t in self.spans
            ],
            "span_fields": ["name", "start_s", "end_s", "parent", "trial"],
            "counts": {t: dict(c) for t, c in self.counts.items()},
            "missing": dict(sorted(self.missing.items())),
        }
