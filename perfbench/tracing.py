"""In-memory spans around the benchmark's calls into genus2pairs.

A span is (name, start, end, parent, item): the name indexes a name
table, times are ``perf_counter_ns`` values, ``parent`` is the index of
the enclosing span (-1 for none) and ``item`` the workload item being
processed.  Spans are appended to flat typed arrays, so a traced run of
a few hundred thousand items stays a few megabytes, and are written to
disk only when the run ends.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter_ns

_FIELDS = (("name", "i"), ("start", "q"), ("end", "q"), ("parent", "i"), ("item", "i"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self._open: list[int] = []
        self._item = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int, item: int | None = None) -> int:
        if item is not None:
            self._item = item
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.item.append(self._item)
        self.end.append(0)
        self._open.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        name_id = self.name_id(name)
        open_span, close_span = self.open, self.close

        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def self_times_ns(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        out = array("q", own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[i]
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then each field's array as raw bytes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.name),
            "fields": [[field, code] for field, code in _FIELDS],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                getattr(self, field).tofile(handle)


def read_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Inverse of ``Tracer.write``: the name table and the field arrays."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        fields = {}
        for field, code in header["fields"]:
            values = array(code)
            values.fromfile(handle, header["count"])
            fields[field] = values
    return header["names"], fields
