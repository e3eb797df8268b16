"""In-memory span recording and the per-layer arithmetic over spans.

A traced run records one span per call into a wrapped function: its name,
start, end and the span that was open when it started (its parent).  The
spans stay in flat lists until the run ends and are then written out in
one JSON document.  The analysis side turns them into per-name call
counts, self times and latency percentiles.
"""

import functools
import math
import time

NO_PARENT = -1


class Recorder:
    """Collects the spans of one run, in memory."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_of = []
        self.start = []
        self.end = []
        self.parent = []
        self._open = [NO_PARENT]

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, on_result=None):
        """Return fn recording a span called `name` around each call.

        `on_result(args, result)` runs after the span has closed, so its
        cost is not charged to `name`.
        """
        nid = self._name_id(name)
        name_of, start, end, parent, open_ = (
            self.name_of, self.start, self.end, self.parent, self._open
        )
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            start.append(0.0)
            open_.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def to_json(self, extra=None):
        doc = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": {
                "name": self.name_of,
                "start": self.start,
                "end": self.end,
                "parent": self.parent,
            },
        }
        doc.update(extra or {})
        return doc


def self_times(start, end, parent):
    """Per-span duration minus the part of its interval its children cover.

    Children of one span are merged as intervals and clipped to the
    parent's interval, so overlapping or out-of-range children are
    counted once and only inside their parent.
    """
    children = {}
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for k in sorted(kids, key=lambda k: start[k]):
            lo, hi = max(start[k], lo_p), min(end[k], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def percentile(samples, q, min_beyond=0):
    """Nearest-rank q-quantile, or None when fewer than `min_beyond`
    samples lie above it (or there are no samples)."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def summarize(doc):
    """Per span name: calls, total and self seconds, call durations."""
    sp = doc["spans"]
    selfs = self_times(sp["start"], sp["end"], sp["parent"])
    out = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        for name in doc["names"]
    }
    for i, nid in enumerate(sp["name"]):
        row = out[doc["names"][nid]]
        dur = sp["end"][i] - sp["start"][i]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += selfs[i]
        row["durations"].append(dur)
    return out
