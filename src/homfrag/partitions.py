"""Exchangeable-partition discretization on n sample points.

A mass partition s acts on blocks through the paintbox construction: each
of n points picks a box with probability equal to the box mass (leftover
mass, if any, makes singletons).  A nested partition path refines an
initial single block by equipping every block of size b with an exponential
clock of rate phi(b-1) -- the total rate at which a paintbox on b points
produces a visible (non-trivial) refinement -- and, at the ring, applying a
paintbox draw conditioned on being non-trivial (plain rejection).

The block containing point 0 plays a special role: minus the log of its
normalized size estimates the tagged-piece subordinator, which
`simulate_subordinator` also samples exactly by size-biased picks, one path
at a time, and `subordinator_values` for many replicas at once.
"""

import heapq
import math
from bisect import bisect_right
from collections import namedtuple

import numpy as np

from .errors import NotComputableError
from .measures import MassPartition, sample_size_biased_batch
from .streams import (
    Stream,
    StreamBatch,
    derive_key,
    derive_keys,
    lanewise,
    replica_keys,
)
from .tilting import simulate_event_log

# lanes walked together by subordinator_values: bounds its memory, not a knob
_CHUNK_LANES = 1 << 16

PartitionEvent = namedtuple("PartitionEvent", ["time", "elements", "sub_assignment"])


def _canonical_labels(labels):
    """Relabel an integer array by order of first appearance (0, 1, 2, ...)."""
    uniq, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    table = np.empty(len(uniq), dtype=np.int64)
    table[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    return table[inverse], len(uniq)


class PartitionOfN:
    """Partition of {0, ..., n-1} stored as a canonical block-label array.

    Labels follow first appearance, which is the same as ordering blocks by
    their least element.
    """

    __slots__ = ("assignment", "num_blocks")

    def __init__(self, assignment):
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.ndim != 1 or len(assignment) == 0:
            raise ValueError("assignment must be a non-empty 1-d array")
        self.assignment, self.num_blocks = _canonical_labels(assignment)

    @classmethod
    def single_block(cls, n):
        return cls(np.zeros(n, dtype=np.int64))

    @classmethod
    def from_blocks(cls, blocks, n):
        assignment = np.full(n, -1, dtype=np.int64)
        for label, members in enumerate(blocks):
            assignment[list(members)] = label
        if (assignment < 0).any():
            raise ValueError("blocks do not cover {0, ..., n-1}")
        return cls(assignment)

    @property
    def n(self):
        return len(self.assignment)

    @property
    def is_trivial(self):
        return self.num_blocks == 1

    def blocks(self):
        """Blocks as arrays of members, ordered by least element."""
        order = np.argsort(self.assignment, kind="stable")
        out = []
        split_at = np.searchsorted(self.assignment[order],
                                   np.arange(1, self.num_blocks))
        for chunk in np.split(order, split_at):
            out.append(np.sort(chunk))
        return out

    def block_sizes(self):
        return np.bincount(self.assignment, minlength=self.num_blocks)

    def restrict(self, m):
        """Induced partition of {0, ..., m-1}."""
        if not 1 <= m <= self.n:
            raise ValueError(f"m must be in [1, {self.n}], got {m}")
        return PartitionOfN(self.assignment[:m])

    def finer_than(self, other):
        """True when every block of self sits inside one block of other."""
        if other.n != self.n:
            raise ValueError("partitions must be on the same ground set")
        seen = {}
        for mine, theirs in zip(self.assignment, other.assignment):
            if mine in seen:
                if seen[mine] != theirs:
                    return False
            else:
                seen[mine] = theirs
        return True

    def __eq__(self, other):
        return (isinstance(other, PartitionOfN)
                and np.array_equal(self.assignment, other.assignment))

    def __repr__(self):
        return f"PartitionOfN(blocks={[list(b) for b in self.blocks()]})"


def paintbox(masses, n, stream):
    """Paintbox partition of n points driven by a mass partition.

    Point j falls in box i with probability masses[i]; leftover mass (for
    dust-producing partitions) turns into singletons.
    """
    if isinstance(masses, MassPartition):
        masses = masses.masses
    cum = np.cumsum(np.asarray(masses, dtype=float))
    u = stream.uniforms(n)
    labels = np.searchsorted(cum, u, side="right")
    k = len(cum)
    dust = labels == k
    if dust.any():
        labels = labels.copy()
        labels[dust] = k + np.arange(int(dust.sum()))
    return PartitionOfN(labels)


def split_rate(evaluator, b):
    """Rate phi(b-1) at which a block of b points visibly refines."""
    if int(b) != b or b < 2:
        raise ValueError(f"block size must be an integer >= 2, got {b}")
    return evaluator.phi(float(b) - 1.0)


class NestedPartitionPath:
    """Record of one refining partition path on {0, ..., n-1}."""

    def __init__(self, n, t_end, events, tagged_trace, seed):
        self.n = n
        self.t_end = t_end
        self.events = events            # PartitionEvent list in time order
        self.tagged_trace = tagged_trace  # (time, new size of block of 0)
        self.seed = seed

    def refinements(self, t=math.inf):
        """Yield (time, block labels) after each event with time <= t.

        The labels are not canonical and live in one array updated in place.
        """
        labels = np.zeros(self.n, dtype=np.int64)
        next_label = 1
        for ev in self.events:
            if ev.time > t:
                break
            labels[ev.elements] = next_label + ev.sub_assignment
            next_label += int(ev.sub_assignment.max()) + 1
            yield ev.time, labels

    def partition_at(self, t):
        """Partition after all events with time <= t."""
        labels = np.zeros(self.n, dtype=np.int64)
        for _, labels in self.refinements(t):
            pass
        return PartitionOfN(labels)

    def tagged_block_size(self, t):
        """Size of the block containing point 0 at time t."""
        times = [rec[0] for rec in self.tagged_trace]
        i = bisect_right(times, t)
        return self.n if i == 0 else self.tagged_trace[i - 1][1]


def simulate_partition(model, n, t_end, seed, evaluator=None,
                       max_rejections=1_000_000):
    """Simulate the nested partition path up to t_end (math.inf = shatter fully).

    Each block owns a stream keyed by its genealogical path; its first draw
    is the holding time, subsequent draws feed the rejection loop (split
    draw + paintbox) at the ring.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if evaluator is None:
        from .analytics import PhiEvaluator
        evaluator = PhiEvaluator(model)
    rates = {}

    def rate_for(b):
        if b not in rates:
            r = split_rate(evaluator, b)
            if r <= 0.0:
                raise NotComputableError(f"split rate phi({b - 1}) = {r} is not positive")
            rates[b] = r
        return rates[b]

    events = []
    tagged_trace = []
    stream = Stream(0)
    heap = []
    uid = 0
    root_key = derive_key(seed, 0)
    if n >= 2:
        stream.reset(root_key)
        heapq.heappush(heap, (stream.exponential(rate_for(n)), uid, root_key,
                              np.arange(n, dtype=np.int64)))
        uid += 1

    while heap:
        ring, _, key, elements = heapq.heappop(heap)
        if ring > t_end:
            break
        b = len(elements)
        stream.reset(key)
        stream.exponential(rate_for(b))  # replay the holding-time draw
        for attempt in range(max_rejections):
            masses = model.sample_masses(stream)
            sub = paintbox(masses, b, stream)
            if not sub.is_trivial:
                break
        else:
            raise NotComputableError(
                f"paintbox rejection did not terminate after {max_rejections} tries"
            )
        events.append(PartitionEvent(ring, elements, sub.assignment))
        if elements[0] == 0:
            tagged_trace.append((ring, int(np.count_nonzero(sub.assignment == 0))))
        for label, block in enumerate(sub.blocks()):
            child = elements[block]
            if len(child) >= 2:
                child_key = derive_key(key, label)
                stream.reset(child_key)
                wait = stream.exponential(rate_for(len(child)))
                heapq.heappush(heap, (ring + wait, uid, child_key, child))
                uid += 1

    return NestedPartitionPath(n, t_end, events, tagged_trace, seed)


def block_frequency_estimates(path, t):
    """Blocks at time t with their normalized sizes, in least-element order."""
    part = path.partition_at(t)
    n = path.n
    return [(blk, len(blk) / n) for blk in part.blocks()]


def tagged_xi(path, t):
    """-log of the normalized size of the block containing point 0."""
    return -math.log(path.tagged_block_size(t) / path.n)


def simulate_subordinator(model, t_end, seed):
    """Exact tagged-piece path: the untilted event log of the same seed.

    Its value(t) sums the jumps -log(size-biased piece) up to t.  One stream
    drives the whole path (waiting time, split draw, size-biased pick,
    repeated).
    """
    return simulate_event_log(model, t_end, seed)


def subordinator_values(model, t_end, seed, n_replicas):
    """xi(t_end) of replicas 0, ..., n_replicas - 1 of the tagged subordinator.

    Entry i equals simulate_subordinator(model, t_end,
    replica_key(seed, i)).value(t_end) bit for bit.  All live lanes advance
    one event per generation on their own streams, with the scalar walk's
    draws and arithmetic: waits -log1p(-u) / rate, the size-biased pick of
    the split, jumps -log(picked mass) summed in event order.  Lanes are
    independent and walked in fixed-size chunks, so memory stays bounded and
    no entry depends on the chunk size or on n_replicas.
    """
    rate = model.total_rate
    keys = derive_keys(replica_keys(seed, n_replicas), 0)
    out = np.empty(n_replicas)
    for start in range(0, n_replicas, _CHUNK_LANES):
        streams = StreamBatch(keys[start:start + _CHUNK_LANES])
        live = np.arange(len(streams.state))     # lanes still walking
        t = np.zeros(len(live))
        xi = np.zeros(len(live))
        first = True    # live lanes move in step: all have as many jumps
        while True:
            t += -lanewise(math.log1p, -streams.uniform(live)) / rate
            ended = t > t_end
            out[start + live[ended]] = xi[ended]
            live, t, xi = live[~ended], t[~ended], xi[~ended]
            if not live.size:
                break
            picked, _, _ = sample_size_biased_batch(model, streams, live)
            jump = -lanewise(math.log, picked)
            # the scalar running sum starts at the first jump, not at 0.0 +
            # jump (which would turn a -0.0 jump into 0.0)
            xi = jump if first else xi + jump
            first = False
    return out
