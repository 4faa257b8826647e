"""Per-draw reference walk of one tagged line, and what it sheds (test
oracle).

This is homfrag.tilting's scalar walk with its draws built per draw, not
once per path: every draw re-checks p_lower and the model's conservation,
recomputes the p < 0 normaliser, validates each split as a MassPartition,
and sums s^(p+1) once for the keep test and again for the child pick.
Tests check the walk against it field for field, bit for bit.  Its one-try
calls sample_tilted_split, spine_child_select and sample_size_biased are
also where tests take single draws: the library draws only whole lines.

A try draws a split, then one uniform u.  sample_size_biased follows the
first piece whose running mass is above u (the last if none is); at p >= 0
sample_tilted_split keeps the try iff u < sum_i s_i^(p+1) and follows the
first piece whose running sum of s_i^(p+1) is above u; at p < 0 it keeps
every try and spine_child_select picks by Stream.pick.

shed lists the roots a TaggedLine sheds, one by one, the reference for
TaggedLines.shed; population grows each root in a simulate_lanes call of
its own, the reference for tilting.shed_populations.
"""

import math
from bisect import bisect_right
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np

from homfrag.analytics import PhiEvaluator
from homfrag.errors import BelowPLowerError, DustNotSupportedError
from homfrag.measures import MassPartition
from homfrag.ranked import PopulationSnapshot, simulate_lanes
from homfrag.streams import Stream, derive_key
from homfrag.tilting import TaggedLine, tilted_split_rate


def _sample(model, stream):
    """A split, checked as every split was: a MassPartition of sample_masses."""
    return MassPartition(model.sample_masses(stream))


def sample_tilted_split(model, p, stream, evaluator=None):
    """One try of the p-tilted spine: (split, index of the piece followed,
    importance weight), the index None when the try is thinned away."""
    if p <= model.p_lower:
        raise BelowPLowerError(f"tilting needs p > p_lower = {model.p_lower}")
    if p >= 0.0:
        part = _sample(model, stream)
        u = stream.uniform()
        if not u < part.power_sum(p + 1.0):
            return part, None, 1.0
        cum = list(accumulate(m ** (p + 1.0) for m in part.masses))
        return part, bisect_right(cum, u), 1.0
    if evaluator is None:
        evaluator = PhiEvaluator(model)
    norm = tilted_split_rate(model, evaluator, p) / model.total_rate
    part = _sample(model, stream)
    return (part, spine_child_select(part, p, stream),
            part.power_sum(p + 1.0) / norm)


def spine_child_select(partition, p, stream):
    cum = []
    acc = 0.0
    for m in partition.masses:
        acc += m ** (p + 1.0)
        cum.append(acc)
    return stream.pick(cum)


def sample_size_biased(model, stream):
    if not model.conservative:
        raise DustNotSupportedError("size-biased pick needs a conservative model")
    part = _sample(model, stream)
    cum = list(accumulate(part.masses))
    j = min(bisect_right(cum, stream.uniform()), len(cum) - 1)
    return part.masses[j], j, part


def walk_tagged_line(rate, t_end, seed, draw, p=0.0):
    stream = Stream(derive_key(seed, 0))
    exponential = stream.exponential
    t = 0.0
    weight = 1.0
    times, parts, picks = [], [], []
    while True:
        t += exponential(rate)
        if t > t_end:
            return TaggedLine(t_end, times, parts, picks, seed, weight, p)
        part, j, w = draw(stream)
        if j is None:  # a thinned try
            continue
        weight *= w
        times.append(t)
        parts.append(part)
        picks.append(j)


def simulate_spine(model, p, t_end, seed, evaluator=None):
    """homfrag.tilting.simulate_spine, one draw function per try."""
    if evaluator is None:
        evaluator = PhiEvaluator(model)
    rate = tilted_split_rate(model, evaluator, p)
    if p >= 0.0:  # the untilted line's tries, thinned
        rate = model.total_rate

    def draw(stream):
        return sample_tilted_split(model, p, stream, evaluator)

    return walk_tagged_line(rate, t_end, seed, draw, p)


def simulate_event_log(model, t_end, seed):
    def draw(stream):
        _, j, part = sample_size_biased(model, stream)
        return part, j, 1.0

    return walk_tagged_line(model.total_rate, t_end, seed, draw)


def shed(line):
    """(roots of the pieces a TaggedLine shed, its log mass at t_end).

    A root is (birth time, log mass, key); piece i of event k is keyed
    derive_key(derive_key(derive_key(seed, 0), k), i).
    """
    line_key = derive_key(line.seed, 0)
    lm = 0.0
    roots = []
    for k, (t, part, j) in enumerate(zip(line.jump_times, line.partitions,
                                         line.picks)):
        event_key = derive_key(line_key, k)
        for i, m in enumerate(part.masses):
            if i != j:
                roots.append((t, lm + math.log(m), derive_key(event_key, i)))
        lm += math.log(part.masses[j])
    return roots, lm


def population(model, t_end, eps_freeze, line):
    """The population at t_end of a spine walked to t_end: its own fragment
    beside the pieces it shed, each grown to t_end on its own, frozen at
    eps_freeze; frozen masses are added in the order of the roots."""
    roots, lm = shed(line)
    grown = [simulate_lanes(model, t_end, [t_end], eps_freeze, [0], [key],
                            initial_log_mass=[root_lm], start_time=[birth],
                            reduce=lambda snaps: snaps[0])[0]
             for birth, root_lm, key in roots]
    logs = np.concatenate([[lm]] + [s.log_masses for s in grown])
    return PopulationSnapshot(
        time=t_end, log_masses=np.sort(logs)[::-1],
        frozen_mass=reduce(add, (s.frozen_mass for s in grown), 0.0),
        frozen_count=sum(s.frozen_count for s in grown),
        event_count=len(line) + sum(s.event_count for s in grown),
        eps_freeze=eps_freeze, seed=line.seed)
