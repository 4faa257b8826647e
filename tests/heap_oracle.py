"""Time-ordered reference walk of one nested partition path (test oracle).

This is the first walk of homfrag.partitions.simulate_partition: blocks
visited in ring-time order off a heap (ties broken by push order), each
block's holding-time draw replayed when it is popped, and each paintbox
drawn off the block's scalar Stream.  Tests check the generation-wise
engine against it event for event, bit for bit.
"""

import heapq

import numpy as np

from homfrag.analytics import PhiEvaluator
from homfrag.errors import NotComputableError
from homfrag.partitions import (
    NestedPartitionPath,
    PartitionEvent,
    PartitionOfN,
    split_rate,
)
from homfrag.streams import _MAX_REJECTIONS, Stream, derive_key


def _paintbox_labels(masses, n, stream):
    """The box of each of n points, dust points numbered after the boxes."""
    cum = np.cumsum(np.asarray(masses, dtype=float))
    labels = np.searchsorted(cum, stream.uniforms(n), side="right")
    k = len(cum)
    dust = labels == k
    if dust.any():
        labels[dust] = k + np.arange(int(dust.sum()))
    return labels


def simulate_partition_heap(model, n, t_end, seed, evaluator=None):
    """Same arguments and result as homfrag.partitions.simulate_partition."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if evaluator is None:
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
    heap = []
    uid = 0
    root_key = derive_key(seed, 0)
    if n >= 2:
        stream = Stream(root_key)
        heapq.heappush(heap, (stream.exponential(rate_for(n)), uid, root_key,
                              np.arange(n, dtype=np.int64)))
        uid += 1

    while heap:
        ring, _, key, elements = heapq.heappop(heap)
        if ring > t_end:
            break
        b = len(elements)
        stream = Stream(key)
        stream.exponential(rate_for(b))  # replay the holding-time draw
        for attempt in range(_MAX_REJECTIONS):
            masses = model.sample_masses(stream)
            labels = _paintbox_labels(masses, b, stream)
            if (labels != labels[0]).any():  # not trivial
                break
        else:
            raise NotComputableError(
                f"paintbox rejection did not terminate after {_MAX_REJECTIONS} tries"
            )
        sub = PartitionOfN(labels)
        events.append(PartitionEvent(ring, elements, sub.assignment))
        if elements[0] == 0:
            tagged_trace.append((ring, int(np.count_nonzero(sub.assignment == 0))))
        for label, block in enumerate(sub.blocks()):
            child = elements[block]
            if len(child) >= 2:
                child_key = derive_key(key, label)
                stream = Stream(child_key)
                wait = stream.exponential(rate_for(len(child)))
                heapq.heappush(heap, (ring + wait, uid, child_key, child))
                uid += 1

    return NestedPartitionPath(n, t_end, events, tagged_trace, seed)
