"""In-memory spans recorded around the benchmark's calls into the library.

A span has a name, start and end (perf_counter seconds), the span that
encloses it, the op it belongs to, and counts recorded where the work
happens.  Spans stay in memory until the run ends; per-layer metrics are
sums over the spans of one name, except ``rss_mb`` and ``exit`` (see
``layer_totals``).
The untraced runs use NULL_TRACER, whose spans record nothing.
"""

import json
import resource
from contextlib import contextmanager
from time import perf_counter


def rss_mb():
    """High-water resident set size of this process, in MB (Linux: KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._open = []

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op_id,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, indent=0)


class _NullTracer:
    op_id = None

    @contextmanager
    def span(self, name):
        yield {}


NULL_TRACER = _NullTracer()


def layer_totals(spans, names):
    """Per-layer metrics named ``<span name>.s`` and ``<span name>.<count>``.

    Every name in ``names`` is reported, as 0 when no span produced it.
    ``rss_mb`` and ``exit`` are not amounts: each keeps the first non-zero
    value recorded.  For ``rss_mb`` that is the reading in the first op,
    the only one taken before the process reached its high-water mark;
    for ``exit`` it is the first failing run of the command.
    """
    totals = dict.fromkeys(names, 0)
    for span in spans:
        key = span["name"] + ".s"
        if key in totals:
            totals[key] += span["end"] - span["start"]
        for count, value in span["counts"].items():
            key = f"{span['name']}.{count}"
            if key not in totals:
                continue
            if count in ("rss_mb", "exit"):
                totals[key] = totals[key] or value
            else:
                totals[key] += value
    return totals
