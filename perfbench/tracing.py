"""In-memory spans and counts recorded around calls across trapquad's layers.

The tracer never edits trapquad: it replaces a name in a module's namespace
(the name that module looks up when it calls into another layer) with a
wrapper that records a span, and puts the original back on `restore()`.
Spans are kept in flat arrays (name id, start, end, parent index) so that a
traced Lu+ round of ~10^5 Wigner-symbol calls stays a few MB, and are written
once, when the run ends.  A span's layer is the part of its name before the
first dot; self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """Spans and named counters of a run's traced rounds."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(_clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ---------------------------------------------------------
    def wrap(self, module, attr: str, span: str | None, on_call=None,
             on_result=None) -> None:
        """Record calls made through `module.attr`.

        `span` names the span (None records counts only).  `on_call(args,
        kwargs)` and `on_result(result)` return {counter: increment} dicts.
        A name the module no longer has is noted in `missing`, and the
        metrics read from it stay zero.
        """
        original = getattr(module, attr, None)
        if original is None:
            if f"{module.__name__}.{attr}" not in self.missing:
                self.missing.append(f"{module.__name__}.{attr}")
            return
        label = span or f"{module.__name__}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[label + ".calls"] += 1
            if on_call is not None:
                tracer.counts.update(on_call(args, kwargs))
            if span is None:
                result = original(*args, **kwargs)
            else:
                idx = tracer._open(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(idx)
            if on_result is not None:
                tracer.counts.update(on_result(result))
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- aggregates -------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name_id[i]],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name, -2)
        return [self.end[i] - self.start[i] for i in range(len(self.start))
                if self.name_id[i] == nid]

    def child_calls(self, parent: str, child: str) -> int:
        """Spans named `child` opened directly under a span named `parent`."""
        pid, cid = self._ids.get(parent, -2), self._ids.get(child, -2)
        return sum(1 for i in range(len(self.start))
                   if self.name_id[i] == cid
                   and self.parent[i] >= 0 and self.name_id[self.parent[i]] == pid)

    def layer_self_time(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for name, row in self.aggregate().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return layers

    def write(self, path: Path, meta: dict) -> None:
        """Write every span and counter once, as one JSON document."""
        doc = {
            **meta,
            "names": self.names,
            "missing": self.missing,
            "counts": dict(self.counts),
            "spans": {
                "name": self.name_id.tolist(),
                "parent": self.parent.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
        }
        path.write_text(json.dumps(doc))
