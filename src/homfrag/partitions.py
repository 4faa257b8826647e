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
at a time, and `read_tagged_lines` for many replicas at once, as
`TaggedLines` records that `subordinator_values` and the `subordinator`
subcommand read: it reads each replica's uniforms off its counter-based
stream and maps the split draws through the model's `splits`, so no model
code draws there.
"""

import math
from bisect import bisect_right
from collections import namedtuple
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .analytics import PhiEvaluator
from .errors import NotComputableError
from .measures import sample_size_biased_batch
from .streams import (
    Stream,
    StreamBatch,
    derive_key,
    derive_keys,
    lanewise,
    replica_keys,
)
from .tilting import _MAX_REJECTIONS, check_horizon, simulate_event_log

# events (lanes x block width) read at once by read_tagged_lines: bounds
# its memory, not a knob
_CHUNK_CELLS = 1 << 20

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


def simulate_subordinator(model, t_end, seed):
    """Exact tagged-piece path: the untilted event log of the same seed.

    Its value(t) sums the jumps -log(size-biased piece) up to t.  One stream
    drives the whole path (waiting time, split draw, size-biased pick,
    repeated).
    """
    return simulate_event_log(model, t_end, seed)


class TaggedLines(NamedTuple):
    """The untilted tagged lines of a chunk of lanes, as arrays.

    Lane i is keyed keys[i] and has counts[i] events by t_end.  The 2-d
    arrays have one row per event index and one column per lane:
    events[e, i] marks event e of lane i and times[e, i] is its jump time
    (entries not marked are filler).  Event k of np.nonzero(events), which
    lists them by event index, then by lane, has the split masses[k] (a row
    zero-padded to the widest split), the index picks[k] of the piece the
    line follows and that piece's mass picked[k].  Every lane equals
    simulate_event_log(model, t_end, keys[i]) bit for bit.
    """

    keys: np.ndarray
    counts: np.ndarray
    events: np.ndarray
    times: np.ndarray
    masses: np.ndarray
    picks: np.ndarray
    picked: np.ndarray

    def jump_sizes(self):
        """-log of each picked mass, by libm, as TaggedLine.jump_sizes."""
        return -lanewise(math.log, self.picked)


def read_tagged_lines(model, t_end, seed, n_replicas):
    """The untilted tagged lines of replicas 0, ..., n_replicas - 1, as
    TaggedLines records of consecutive chunks of lanes, made as they are
    iterated.

    Replica i is the line simulate_event_log(model, t_end,
    replica_key(seed, i)).  Each lane's whole path is read off its
    counter-based stream in one pass: a model splits by one uniform, so
    event e spends draws 3e+1, 3e+2 and 3e+3 (wait, split, size-biased
    pick), with the scalar walk's arithmetic (see _read_block).  A lane the
    pass cannot certify is walked by simulate_subordinator itself.  Chunks
    hold at most _CHUNK_CELLS cells (lanes times the block's events), so
    memory stays bounded and no lane depends on the chunk size or on
    n_replicas.  tilting.check_horizon refuses t_end first.
    """
    rate = model.total_rate
    check_horizon(rate, t_end)
    mean = rate * t_end
    # a Poisson(mean) path outgrows this block with probability below 1e-9,
    # unless the cap applies (mean above about 10^6)
    width = int(min(mean + 6.0 * math.sqrt(mean) + 9.0, _CHUNK_CELLS))
    lanes = _CHUNK_CELLS // width
    keys = replica_keys(seed, n_replicas)
    return (_read_block(model, rate, t_end, keys[start:start + lanes], width)
            for start in range(0, n_replicas, lanes))


def subordinator_values(model, t_end, seed, n_replicas):
    """xi(t_end) of replicas 0, ..., n_replicas - 1 of the tagged subordinator.

    Entry i equals simulate_subordinator(model, t_end,
    replica_key(seed, i)).value(t_end) bit for bit: each lane's jumps
    -log(picked mass), by libm, are summed in event order from the first
    one, as TaggedLine.value sums them (read_tagged_lines reads the lines).
    """
    out = np.zeros(n_replicas)
    start = 0
    for rec in read_tagged_lines(model, t_end, seed, n_replicas):
        jumps = np.zeros(rec.events.shape)
        jumps[rec.events] = rec.jump_sizes()
        done = np.flatnonzero(rec.counts)
        out[start + done] = np.cumsum(jumps, axis=0)[rec.counts[done] - 1,
                                                      done]
        start += len(rec.keys)
    return out


def _read_block(model, rate, t_end, keys, width):
    """The TaggedLines of the lanes keyed keys, each path read off a block
    of `width` events.

    numpy's log1p of every wait in the block only estimates each lane's
    event count E.  The waits of the first E + 1 events then go through
    libm, as Stream.exponential does, and a sequential cumsum gives the
    scalar walk's jump times, which must show t_E <= t_end < t_{E+1}
    exactly.  The splits' and picks' draws go straight to
    sample_size_biased_batch.  The estimate never reaches the record: a
    lane whose check fails, whose path outgrows the block, or whose split
    draw was 0.0 on an open_draw model (its stream would draw again,
    shifting the lane's later draws) is walked by simulate_subordinator.
    """
    streams = StreamBatch(derive_keys(keys, 0))
    lanes = np.arange(len(keys))
    # one row per event, one column per lane: cumsum down a column adds
    # that lane's terms in event order
    u = streams.uniform_at(lanes, 3 * np.arange(width)[:, None] + 1)
    n_events = _estimate_events(u, rate, t_end)
    steps = np.arange(min(int(n_events.max()) + 1, width))[:, None]
    first = steps <= n_events
    wait = np.zeros(first.shape)
    wait[first] = -lanewise(math.log1p, -u[:len(steps)][first]) / rate
    t = np.cumsum(wait, axis=0)
    ok = ((n_events < width)
          & (t[np.minimum(n_events, len(steps) - 1), lanes] > t_end)
          & ((n_events == 0) | (t[n_events - 1, lanes] <= t_end)))
    events = (steps < n_events) & ok
    e, lane = np.nonzero(events)
    if lane.size:
        # the splits' draws at 3e + 2, the picks' at 3e + 3
        split_u, pick_u = streams.uniform_at(lane, 3 * e + [[2], [3]])
        if model.open_draw:  # a stream would draw a zero split draw again
            redrawn = split_u == 0.0
            ok[lane[redrawn]] = False
            split_u[redrawn] = 0.5  # a valid draw; the lane is walked anyway
        picked, picks, masses = sample_size_biased_batch(model, split_u,
                                                         pick_u)
    else:  # no events: a dust model raises only on a line that has one
        picked, picks = np.empty(0), np.empty(0, np.intp)
        masses = np.empty((0, 0))
    rec = TaggedLines(keys, n_events, events, t, masses, picks, picked)
    walked = np.flatnonzero(~ok)
    return _with_walked(rec, walked, model, t_end) if walked.size else rec


def _with_walked(rec, walked, model, t_end):
    """rec with the lanes walked taken from simulate_subordinator: their
    counts, and their events in place of any the pass read for them (a
    redrawn split draw's lane)."""
    lines = [simulate_subordinator(model, t_end, int(rec.keys[i]))
             for i in walked]
    counts = rec.counts.copy()
    counts[walked] = [len(line) for line in lines]
    # the splits the pass read, then the walks', one zero-padded row each
    splits = [part.masses for line in lines for part in line.partitions]
    first, width = rec.masses.shape  # first: the row of the next walked split
    rows = np.zeros((first + len(splits),
                     max([width] + list(map(len, splits)))))
    rows[:first, :width] = rec.masses
    for row, split in zip(rows[first:], splits):
        row[:len(split)] = split
    # times, picks and split rows on a grid of event rows and lane columns,
    # the events then read off it
    shape = (max(len(rec.times), int(counts.max())), len(counts))
    times, picks = np.zeros(shape), np.zeros(shape, dtype=np.intp)
    row_of = np.zeros(shape, dtype=np.intp)
    times[:len(rec.times)] = rec.times
    picks[:len(rec.times)][rec.events] = rec.picks
    row_of[:len(rec.times)][rec.events] = np.arange(first)
    for i, line in zip(walked, lines):
        times[:len(line), i] = line.jump_times
        picks[:len(line), i] = line.picks
        row_of[:len(line), i] = np.arange(first, first + len(line))
        first += len(line)
    events = np.arange(shape[0])[:, None] < counts
    masses, picks = rows[row_of[events]], picks[events]
    return TaggedLines(rec.keys, counts, events, times, masses, picks,
                       masses[np.arange(len(picks)), picks])


def _estimate_events(u, rate, t_end):
    """Events by t_end of each lane, from its block of wait draws u and
    numpy's log1p, which can differ from libm's in the last bit."""
    t = np.cumsum(-np.log1p(-u) / rate, axis=0)
    return np.count_nonzero(t <= t_end, axis=0)
