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
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .analytics import PhiEvaluator
from .errors import NotComputableError
from .streams import _MAX_REJECTIONS, MASK64, StreamBatch, derive_keys, lanewise, replica_keys

PartitionEvent = namedtuple("PartitionEvent", ["time", "elements", "sub_assignment"])

_CHUNK_POINTS = 1 << 16  # points of the replicas read together
_ROUND_CELLS = 1 << 20  # draws of a round of tries, unless one try is more
_MISS = 0.01  # chance that a block finds no non-trivial try in a round
_CHUNK_CELLS = 1 << 16  # labels of the rows that label_rows builds together


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
    cum = np.cumsum(np.asarray(masses, dtype=float))
    labels = np.searchsorted(cum, stream.uniforms(n), side="right")
    dust = labels == len(cum)
    labels[dust] = len(cum) + np.arange(np.count_nonzero(dust))
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

    def label_rows(self):
        """Yield (times, labels) for every event in order, a chunk of at
        most _CHUNK_CELLS labels at a time: row i of labels is the canonical
        labelling after the event at times[i], PartitionOfN(labels).assignment
        of the refinements() step.

        A block's label is the rank of its least point among the least
        points of all blocks.  A point becomes a least point once, at the
        event that makes it the least point of a child, and stays one; and
        the least point of a point's block only grows, so it is carried
        forward along the events by a running maximum.
        """
        n, events = self.n, self.events
        if not events:
            return
        size = np.array([len(ev.elements) for ev in events])
        ends = size.cumsum()
        elements = np.concatenate([ev.elements for ev in events])
        sub = np.concatenate([ev.sub_assignment for ev in events])
        # the children of all events, numbered event after event
        kids = np.maximum.reduceat(sub, ends - size) + 1
        child = sub + (kids.cumsum() - kids).repeat(size)
        least = np.full(kids.sum(), n)
        np.minimum.at(least, child, elements)
        born = np.full(n, len(events))  # the event that makes a point least
        np.minimum.at(born, least, np.arange(len(events)).repeat(kids))
        # the least points in increasing order, each carried as its place
        # there; point 0, least from the start, has rank 0 and is not counted
        lead = born < len(events)
        place = lead.cumsum() - 1
        born = born[lead]
        born[0] = len(events)
        least = place[least[child]]
        event = np.arange(len(events)).repeat(size)
        times = [ev.time for ev in events]
        rows = max(1, _CHUNK_CELLS // n)
        carry = np.zeros(n, np.intp)
        for a in range(0, len(events), rows):
            b = min(a + rows, len(events))
            cells = slice(ends[a] - size[a], ends[b - 1])
            # at[r, j]: the place of the least point of j's block after event
            # a + r (copied out before it becomes an index into the ranks)
            at = np.zeros((b - a, n), np.intp)
            at[0] = carry
            at[event[cells] - a, elements[cells]] = least[cells]
            np.maximum.accumulate(at, axis=0, out=at)
            carry = at[-1].copy()
            rank = (born <= np.arange(a, b)[:, None]).cumsum(axis=1)
            at += len(born) * np.arange(b - a)[:, None]
            yield times[a:b], rank.ravel()[at]

    def tagged_block_size(self, t):
        """Size of the block containing point 0 at time t."""
        i = bisect_right(self.tagged_trace, t, key=itemgetter(0))
        return self.n if i == 0 else self.tagged_trace[i - 1][1]


def simulate_partition(model, n, t_end, seed, evaluator=None):
    """The nested partition path on n points up to t_end (math.inf shatters
    fully), its root block keyed derive_key(seed, 0): a one-replica read."""
    return _read_paths(model, n, t_end, [seed], evaluator)[0]


def simulate_partitions(model, n, t_end, seed, n_replicas, evaluator=None):
    """[simulate_partition(model, n, t_end, replica_key(seed, i), evaluator)
    for i in range(n_replicas)], read together in chunks of at most
    _CHUNK_POINTS points (or one replica), so memory stays bounded."""
    evaluator = evaluator or PhiEvaluator(model)
    seeds = replica_keys(seed, n_replicas).tolist()
    lanes = max(1, _CHUNK_POINTS // max(n, 1))
    return [path for at in range(0, n_replicas, lanes) for path in
            _read_paths(model, n, t_end, seeds[at:at + lanes], evaluator)]


def _read_paths(model, n, t_end, seeds, evaluator):
    """The NestedPartitionPath of each seed, read one generation of blocks
    at a time, each block a lane of a StreamBatch (see the README's
    Determinism section for the layout of its draws)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    evaluator = evaluator or PhiEvaluator(model)
    rates = np.full(n + 1, np.nan)  # phi(b - 1) by block size b
    tries = np.zeros(n + 1, np.int64)  # and the tries read per round
    # the live blocks: key, birth, replica, size, event of the parent, label
    # among its siblings, and their points, block after block
    live = len(seeds) if n >= 2 else 0
    key = derive_keys(np.array([s & MASK64 for s in seeds[:live]], np.uint64), 0)
    born, lane, size = np.zeros(live), np.arange(live), np.full(live, n)
    parent, label = np.full(live, -1), np.zeros(live, np.int64)
    points = np.tile(np.arange(n), live)
    rounds, elements, subs = [], [], []
    while live:
        rate = rates[size]
        if np.isnan(rate).any():
            for b in sorted(set(size[np.isnan(rate)].tolist())):
                rates[b] = split_rate(evaluator, b)
                if not rates[b] > 0.0:
                    raise NotComputableError(
                        f"split rate phi({b - 1}) = {rates[b]} is not positive")
                # all tries of a block miss with probability at most _MISS
                rho = rates[b] / model.total_rate
                m = math.ceil(math.log(_MISS) / math.log1p(-rho)) if rho < 1.0 - _MISS else 1
                tries[b] = min(m, _MAX_REJECTIONS)
            rate = rates[size]
        streams = StreamBatch(key)
        ring = born + -lanewise(math.log1p, -streams.uniform_at(
            slice(None), 1)) / rate
        rang = ~(ring > t_end)  # as the walk's test: a NaN t_end never stops it
        blk = rang.nonzero()[0]
        if not blk.size:
            break
        b = size[blk]
        ends = b.cumsum()
        starts = ends - b
        pts = points[rang.repeat(size)]
        box, width = _first_tries(model, streams, blk, b, tries[b])
        # a point's group is the first point of its block in its box (a
        # dust point is its own): groups by block, then by first point
        of = np.arange(len(b)).repeat(b)
        cell = np.arange(len(pts))
        first = np.full((width + 1) * len(b), len(pts))
        dust = box == 0
        box += (width + 1) * of
        np.minimum.at(first, box, cell)
        first = first[box]
        first[dust] = cell[dust]
        opens = first == cell
        group = (opens.cumsum() - 1)[first]
        head = group[starts]
        sub = group - head.repeat(b)
        sizes = np.bincount(group)
        ring, lane = ring[blk], lane[blk]
        rounds.append((ring, lane, parent[blk], label[blk],
                       np.where(pts[starts] == 0, sizes[head], -1)))
        ids = len(elements) + of
        for s, e in zip(starts.tolist(), ends.tolist()):
            elements.append(pts[s:e])
            subs.append(sub[s:e])
        big = sizes >= 2  # the children of two or more points, in group order
        kids = opens & big[group]
        at = of[kids]
        label = sub[kids]
        key = derive_keys(key[blk[at]], label)
        born, lane, parent, size = ring[at], lane[at], ids[kids], sizes[big]
        points = pts[group.argsort(kind="stable")][big.repeat(sizes)]
        live = len(key)
    return _paths(n, t_end, seeds, rounds, elements, subs)


def _first_tries(model, streams, blk, b, m):
    """(box, width): the box of every point, block after block, in the first
    non-trivial paintbox of its block (the lanes blk, of b[i] points each),
    reading m[i] tries of each, then twice as many.  A box is the number of
    running sums above the point's uniform, so dust is 0 whatever the width
    of the split matrix, which bounds the boxes."""
    box = first = None  # the boxes, and each block's first point in them
    done = width = 0  # tries read so far
    while True:
        # at most _ROUND_CELLS draws; each block's tries lie in one run
        m = np.minimum(m, max(1, _ROUND_CELLS // (b + 1).sum()))
        span = m * (b + 1)
        ends = span.cumsum()
        u = streams.uniform_at(blk.repeat(span), (2 + done * (b + 1) + span - ends)
                               .repeat(span) + np.arange(ends[-1]))
        rows = (b + 1).repeat(m)
        starts = rows.cumsum() - rows
        # the running sums, a column at a time (the rows' cumsum, bit for bit)
        cum = list(accumulate(model.splits(u[starts]).T))
        width = max(width, len(cum))
        u[starts] = u[starts + 1]  # the split's draw takes its first point's box
        of = np.arange(len(rows)).repeat(rows)
        above = sum(column[of] > u for column in cum)
        lo = np.minimum.reduceat(above, starts)
        good = (lo != np.maximum.reduceat(above, starts)) | (lo == 0)
        last = m.cumsum()  # each block's first non-trivial try, else its last
        hit = np.minimum.reduceat(
            np.where(good, np.arange(len(rows)), (last - 1).repeat(m)), last - m)
        ok = good[hit]
        at = b.cumsum()
        src = (starts[hit] + 1 - at + b).repeat(b) + np.arange(at[-1])
        if box is None:  # every block: those without one are read again
            box, first = above[src], at - b
        else:
            keep = ok.repeat(b)
            box[((first - at + b).repeat(b) + np.arange(at[-1]))[keep]] = above[src[keep]]
        if ok.all():
            return box, width
        done = done + m
        if (done[~ok] >= _MAX_REJECTIONS).any():
            raise NotComputableError(
                f"paintbox rejection did not terminate after {_MAX_REJECTIONS} tries")
        blk, b, m, done, first = (x[~ok] for x in (blk, b, 2 * m, done, first))
        m = np.minimum(m, _MAX_REJECTIONS - done)


def _paths(n, t_end, seeds, rounds, elements, subs):
    """The NestedPartitionPath of each seed from _read_paths' rounds: each
    replica's events by ring time, ties in the depth-first walk's order."""
    if not rounds:
        return [NestedPartitionPath(n, t_end, [], [], seed) for seed in seeds]
    time, lane, parent, label, tag = map(np.concatenate, zip(*rounds))
    order = np.lexsort((time, lane))  # stable: a round after its parents'
    t, r = time[order], lane[order]
    if ((t[1:] == t[:-1]) & (r[1:] == r[:-1])).any():
        def walk_key(e):  # the labels from the root down, negated: the
            path = []     # depth-first walk pops the last child first
            while e >= 0:
                path.append(-label[e])
                e = parent[e]
            return path[::-1]
        order = np.array(sorted(order.tolist(), key=lambda e: (
            lane[e], time[e], walk_key(e))))
        t, r = time[order], lane[order]
    ends = np.bincount(r, minlength=len(seeds)).cumsum().tolist()
    time, tag, order = t.tolist(), tag[order].tolist(), order.tolist()
    events = list(map(PartitionEvent, time, map(elements.__getitem__, order),
                      map(subs.__getitem__, order)))
    return [NestedPartitionPath(n, t_end, events[a:e], [
        (ti, s) for ti, s in zip(time[a:e], tag[a:e]) if s >= 0], seed)
        for a, e, seed in zip([0] + ends, ends, seeds)]


def block_frequency_estimates(path, t):
    """Blocks at time t with their normalized sizes, in least-element order."""
    part = path.partition_at(t)
    n = path.n
    return [(blk, len(blk) / n) for blk in part.blocks()]


def tagged_xi(path, t):
    """-log of the normalized size of the block containing point 0."""
    return -math.log(path.tagged_block_size(t) / path.n)
