"""In-memory spans recorded from outside the package.

The tracer wraps public tortb functions (and the benchmark's own call
sites) so that every call into a layer becomes a span with a name, a start,
an end and the span that caused it.  Self time (a span's duration minus the
time its child spans cover) is aggregated per name as spans close, so a
run with a million spans needs no more memory than one with a hundred;
only the first ``keep`` raw spans are kept for the trace file.

Span names follow the package's stage names: ``load``, ``validate``,
``estimate``, ``simulate``, ``render``, ``write``, ``read``, ``parse``,
``extract``, ``summarize``, ``calibrate``, ``table`` and ``cli``;
``episode`` is one ``run_episode`` call inside ``simulate``.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, sample: tuple[str, ...] = (), keep: int = 20000):
        self.keep = keep
        self.raw: list[tuple] = []  # (id, parent id, name, start_ns, end_ns)
        self.stats: dict[str, list[int]] = {}  # name -> [total_ns, self_ns, calls]
        # Per-call (duration, self time) in call order, for the names whose
        # distribution is reported.
        self.samples: dict[str, list[tuple[int, int]]] = {name: [] for name in sample}
        self._stack: list[list] = [[None, 0]]  # [span id, child_ns]; a root frame
        self._ids = itertools.count()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``.

        The bookkeeping happens after the end timestamp, so it is charged to
        the caller, not to the layer."""
        stat = self.stats.setdefault(name, [0, 0, 0])
        samples = self.samples.get(name)
        stack, raw, keep, ids, clock = self._stack, self.raw, self.keep, self._ids, \
            time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [next(ids), 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent = stack[-1]
                parent[1] += dur
                stat[0] += dur
                stat[1] += dur - frame[1]
                stat[2] += 1
                if samples is not None:
                    samples.append((dur, dur - frame[1]))
                if len(raw) < keep:
                    raw.append((frame[0], parent[0], name, start, end))

        traced.__wrapped__ = fn
        return traced

    def total_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[2]

    def summary(self) -> dict:
        return {name: {"total_ns": t, "self_ns": s, "calls": c}
                for name, (t, s, c) in self.stats.items() if c}

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines, then a footer with the totals."""
        with path.open("w", encoding="utf-8") as f:
            for span_id, parent, name, start, end in self.raw:
                f.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                    "start_ns": start, "end_ns": end}) + "\n")
            f.write(json.dumps({"spans": next(self._ids), "kept": len(self.raw),
                                "totals": self.summary()}) + "\n")


@contextmanager
def patched(targets):
    """Temporarily replace module attributes: ``targets`` is a list of
    ``(module, attribute, replacement)``."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, value in targets:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def traced_path_class(tracer: Tracer):
    """A ``Path`` whose ``write_text`` is a ``write`` span."""
    base = type(Path())
    write = tracer.wrap("write", base.write_text)

    class TracedPath(base):
        def write_text(self, data, encoding=None, errors=None, newline=None):
            return write(self, data, encoding, errors, newline)

    return TracedPath
