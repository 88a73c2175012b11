"""In-memory span recorder and the wrappers that feed it.

The recorder never touches the package under test: `Patch` replaces public
functions from outside, in every ``ehsched`` module namespace that holds
them. ``from .mdp import evaluate_policy`` copies the name into the
importing module, so patching only the defining module would miss the calls
made through the copy. `Patch.uninstall` puts the original objects back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one benchmark process. The stack gives each span its parent;
    the benchmark runs single-threaded, so nesting follows the call stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                    self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def to_json(self) -> list[list]:
        return [[s.id, s.name, s.start, s.end, s.parent, s.run_id, s.error,
                 s.attrs] for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def _wrap(fn, span_name: str, recorder: Recorder, post):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(span_name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.close(span, error=type(exc).__name__)
            raise
        recorder.close(span)
        if post is not None:
            span.attrs.update(post(result, args, kwargs))
        return result

    return wrapper


class Patch:
    """Install span wrappers around (module, function) targets.

    targets: iterable of (module name, attribute, span name, post) where
    post(result, args, kwargs) -> dict of span attributes, or None.
    """

    def __init__(self, recorder: Recorder, targets):
        self.recorder = recorder
        self.targets = list(targets)
        self._undo: list[tuple[object, str, object]] = []

    def _package_modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "ehsched" or name.startswith("ehsched."))]

    def install(self) -> "Patch":
        if self._undo:
            raise RuntimeError("patch already installed")
        modules = self._package_modules()
        for mod_name, attr, span_name, post in self.targets:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = _wrap(original, span_name, self.recorder, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            mod, key, original = self._undo.pop()
            setattr(mod, key, original)

    def __enter__(self) -> "Patch":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
