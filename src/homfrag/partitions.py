"""Exchangeable-partition discretization on n sample points.

A mass partition s acts on blocks through the paintbox construction: each
of n points picks a box with probability equal to the box mass (leftover
mass, if any, makes singletons).  A nested partition path refines an
initial single block by equipping every block of size b with an exponential
clock of rate phi(b-1) -- the total rate at which a paintbox on b points
produces a visible (non-trivial) refinement -- and, at the ring, applying a
paintbox draw conditioned on being non-trivial (plain rejection).

The block containing point 0 plays a special role: minus the log of its
normalized size estimates the tagged-piece subordinator, which the tilting
module samples exactly by size-biased picks.
"""

import math
from bisect import bisect_right
from collections import namedtuple
from operator import attrgetter

import numpy as np

from .analytics import PhiEvaluator
from .errors import NotComputableError
from .streams import _MAX_REJECTIONS, Stream, derive_key

PartitionEvent = namedtuple("PartitionEvent", ["time", "elements", "sub_assignment"])


def _canonical_labels(labels):
    """Relabel an integer array by order of first appearance (0, 1, 2, ...).

    O(n + k) for labels in [0, 2n), as paintbox and refinements give them;
    other labels are first numbered 0, ..., k-1 by np.unique.
    """
    n = len(labels)
    top = int(labels.max())
    if labels.min() < 0 or top >= 2 * n:
        labels = np.unique(labels, return_inverse=True)[1]
        top = int(labels.max())
    first = np.full(top + 1, n)
    np.minimum.at(first, labels, np.arange(n))  # where each label first shows
    is_first = np.zeros(n + 1, dtype=bool)
    is_first[first] = True  # an absent label marks n
    order = labels[is_first[:n]]  # the labels by first appearance
    table = np.empty(top + 1, dtype=np.int64)
    table[order] = np.arange(len(order))
    return table[labels], len(order)


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

    @property
    def n(self):
        return len(self.assignment)

    def blocks(self):
        """Blocks as arrays of members, ordered by least element.

        A stable sort by label keeps each block's members in increasing
        order.
        """
        order = np.argsort(self.assignment, kind="stable")
        ends = np.cumsum(self.block_sizes()).tolist()
        return [order[a:b] for a, b in zip([0] + ends, ends)]

    def block_sizes(self):
        return np.bincount(self.assignment, minlength=self.num_blocks)

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
    return PartitionOfN(_paintbox_labels(masses, n, stream))


def _paintbox_labels(masses, n, stream):
    """The box of each point in paintbox, dust points numbered after the
    boxes, before canonical relabelling."""
    cum = np.cumsum(np.asarray(masses, dtype=float))
    labels = np.searchsorted(cum, stream.uniforms(n), side="right")
    k = len(cum)
    dust = labels == k
    if dust.any():
        labels[dust] = k + np.arange(int(dust.sum()))
    return labels


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


def simulate_partition(model, n, t_end, seed, evaluator=None):
    """Simulate the nested partition path up to t_end (math.inf = shatter fully).

    Each block owns a stream keyed by its genealogical path; its first draw
    is the holding time, subsequent draws feed the rejection loop (split
    draw + paintbox) at the ring.  Blocks refine independently of each
    other, so the walk visits them depth first off a stack, reads each
    stream once, and sorts the events by ring time at the end (stably: a
    tie keeps the walk's order, a block's event before its children's).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if evaluator is None:
        evaluator = PhiEvaluator(model)
    rates = {}
    events = []
    stream = Stream(0)
    stack = []  # (time the block was born, its key, its points)
    if n >= 2:
        stack.append((0.0, derive_key(seed, 0), np.arange(n, dtype=np.int64)))
    while stack:
        born, key, elements = stack.pop()
        b = len(elements)
        if b not in rates:
            rates[b] = split_rate(evaluator, b)
            if rates[b] <= 0.0:
                raise NotComputableError(
                    f"split rate phi({b - 1}) = {rates[b]} is not positive")
        stream.reset(key)
        ring = born + stream.exponential(rates[b])
        if ring > t_end:
            continue
        for _ in range(_MAX_REJECTIONS):
            labels = _paintbox_labels(model.sample_masses(stream), b, stream)
            if (labels != labels[0]).any():  # not trivial
                break
        else:
            raise NotComputableError(
                f"paintbox rejection did not terminate after {_MAX_REJECTIONS} tries"
            )
        sub = PartitionOfN(labels)
        events.append(PartitionEvent(ring, elements, sub.assignment))
        for label, block in enumerate(sub.blocks()):
            if len(block) >= 2:
                stack.append((ring, derive_key(key, label), elements[block]))

    events.sort(key=attrgetter("time"))
    tagged_trace = [(ev.time, int(np.count_nonzero(ev.sub_assignment == 0)))
                    for ev in events if ev.elements[0] == 0]
    return NestedPartitionPath(n, t_end, events, tagged_trace, seed)


def block_frequency_estimates(path, t):
    """Blocks at time t with their normalized sizes, in least-element order."""
    part = path.partition_at(t)
    n = path.n
    return [(blk, len(blk) / n) for blk in part.blocks()]


def tagged_xi(path, t):
    """-log of the normalized size of the block containing point 0."""
    return -math.log(path.tagged_block_size(t) / path.n)
