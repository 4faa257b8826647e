"""In-memory span recorder for the traced benchmark run.

A span is (id, name, start, end, parent id, op index).  Spans are kept in a
list while the run goes on and written out once at the end, so recording
costs one perf_counter pair and one list append per span.  Worker threads
(the CLI fans replicas out over a thread pool) have no span stack of their
own; their spans are parented to the innermost open span of the main thread.
"""

from collections import defaultdict
import gzip
import itertools
import threading
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start", "duration")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.duration = 0.0

    def __enter__(self):
        tr = self.tracer
        stack = tr._stack()
        self.parent = stack[-1] if stack else (tr._main[-1] if tr._main else 0)
        self.sid = next(tr._ids)
        stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self.duration = end - self.start
        tr = self.tracer
        tr._stack().pop()
        tr.spans.append((self.sid, self.name, self.start, end, self.parent, tr.op))
        return False


class Tracer:
    """Records spans and counters; `op` tags every span with the current op."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = -1
        self._ids = itertools.count(1)
        self._main = []
        self._main_ident = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name):
        return _Span(self, name)

    def add(self, counter, value):
        with self._lock:
            self.counts[counter] += value

    # --- derived quantities --------------------------------------------------

    def busy(self, name):
        """Summed duration of all spans called `name`."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def n_spans(self, name):
        return sum(1 for s in self.spans if s[1] == name)

    def self_time(self, name):
        """Summed self time of spans called `name`.

        Self time is a span's duration minus the part of it that its child
        spans cover; children that overlap (threads) are counted once.
        """
        children = defaultdict(list)
        for s in self.spans:
            children[s[4]].append((s[2], s[3]))
        total = 0.0
        for sid, n, start, end, _, _ in self.spans:
            if n != name:
                continue
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
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
            total += (end - start) - covered
        return total

    def write(self, path):
        """Write spans as gzipped CSV: id,name,start,end,parent,op (seconds)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{op}\n")


class NullTracer:
    """Tracer stand-in for untraced runs: spans and counters cost nothing."""

    op = -1

    class _Null:
        duration = 0.0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    _null = _Null()

    def span(self, name):
        return self._null

    def add(self, counter, value):
        pass


NULL = NullTracer()
