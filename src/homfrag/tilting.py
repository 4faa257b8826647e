"""Exponential tilting: spine dynamics, tilted splits, and fiber thinning.

Size-biasing the additive martingale M(p, .) singles out one distinguished
line of descent (the spine).  Under the tilted law the spine dislocates at
rate nu_total - phi(p), each split is reweighted by sum_i s_i^(p+1), the
spine follows child j with probability s_j^(p+1) / sum_i s_i^(p+1), and the
fragments it sheds evolve as ordinary untilted populations.

The same change of measure acts on the spine's event stream by thinning:
keeping an event of the untilted stream with probability (picked mass)^p
(p > 0) turns it into the tilted stream.
"""

import math
from bisect import bisect_right

import numpy as np

from .errors import (
    BelowPLowerError,
    NotComputableError,
    ThinningDirectionError,
)
from .measures import sample_size_biased, SplitSample
from .ranked import DEFAULT_MAX_FRAGMENTS, PopulationSnapshot, simulate
from .streams import Stream, derive_key


def esscher_exponent(evaluator, p, q):
    """Laplace exponent of the tilted subordinator: phi(p+q) - phi(p)."""
    return evaluator.phi(p + q) - evaluator.phi(p)


def tilted_split_rate(model, evaluator, p):
    """Total dislocation rate felt by the spine: nu_total - phi(p)."""
    rate = model.total_rate - evaluator.phi(p)
    if rate <= 0.0:
        raise NotComputableError(f"tilted rate {rate} is not positive at p={p}")
    return rate


def sample_tilted_split(model, p, stream, evaluator=None,
                        max_rejections=1_000_000):
    """One draw whose law is the split measure reweighted by sum_i s_i^(p+1).

    For p >= 0 the reweighting is a rejection probability (exact, weight 1).
    For p_lower < p < 0 it exceeds one, so the draw is returned with an
    importance weight of mean one instead; pass a PhiEvaluator to avoid
    rebuilding one per call.
    """
    if p <= model.p_lower:
        raise BelowPLowerError(f"tilting needs p > p_lower = {model.p_lower}")
    if p >= 0.0:
        for _ in range(max_rejections):
            part = model.sample(stream)
            if stream.uniform() < part.power_sum(p + 1.0):
                return SplitSample(part, 1.0)
        raise NotComputableError(
            f"tilted rejection did not accept after {max_rejections} tries"
        )
    if evaluator is None:
        from .analytics import PhiEvaluator
        evaluator = PhiEvaluator(model)
    norm = tilted_split_rate(model, evaluator, p) / model.total_rate
    part = model.sample(stream)
    return SplitSample(part, part.power_sum(p + 1.0) / norm)


def spine_child_select(partition, p, stream):
    """Index of the spine's child: j with probability s_j^(p+1) (normalized)."""
    cum = []
    acc = 0.0
    for m in partition.masses:
        acc += m ** (p + 1.0)
        cum.append(acc)
    return stream.pick(cum)


def walk_tagged_line(rate, t_end, key, draw):
    """One line of descent to t_end: events at `rate` on the stream `key`.

    draw(stream) gives each event's (split, index of the followed piece,
    importance weight).  Returns (times, splits, picks, weight product).
    """
    stream = Stream(key)
    exponential = stream.exponential
    t = 0.0
    weight = 1.0
    times, parts, picks = [], [], []
    while True:
        t += exponential(rate)
        if t > t_end:
            return times, parts, picks, weight
        part, j, w = draw(stream)
        weight *= w
        times.append(t)
        parts.append(part)
        picks.append(j)


class SpineRun:
    """One spine trajectory plus the fragments it shed.

    weight is the product of importance weights (1 unless p < 0).  The
    population field is filled only when the run also evolves the shed
    fragments to the horizon.
    """

    def __init__(self, p, t_end, jump_times, jump_sizes, unmarked_roots,
                 weight, seed, population=None):
        self.p = p
        self.t_end = t_end
        self.jump_times = jump_times
        self.jump_sizes = jump_sizes
        self.unmarked_roots = unmarked_roots  # (birth time, log mass, key)
        self.weight = weight
        self.seed = seed
        self.population = population

    def spine_log_mass(self, t):
        """Spine log-mass at time t (minus the accumulated jumps)."""
        i = bisect_right(self.jump_times, t)
        return -sum(self.jump_sizes[:i])


def simulate_spine(model, p, t_end, seed, evaluator=None, *,
                   with_population=False, eps_freeze=None,
                   max_fragments=DEFAULT_MAX_FRAGMENTS):
    """Simulate the spine under the tilted law up to t_end.

    The spine itself is never frozen.  With with_population=True (requires
    eps_freeze) every shed fragment is evolved to t_end as an ordinary
    population and the combined state is returned as a snapshot that
    includes the spine fragment.
    """
    if evaluator is None:
        from .analytics import PhiEvaluator
        evaluator = PhiEvaluator(model)
    if with_population and eps_freeze is None:
        raise ValueError("with_population requires eps_freeze")
    rate = tilted_split_rate(model, evaluator, p)

    def draw(stream):
        split = sample_tilted_split(model, p, stream, evaluator)
        j = spine_child_select(split.partition, p, stream)
        return split.partition, j, split.weight

    spine_key = derive_key(seed, 0)
    times, parts, picks, weight = walk_tagged_line(rate, t_end, spine_key, draw)
    lm = 0.0
    jump_sizes, roots = [], []
    for k, (t, part, j) in enumerate(zip(times, parts, picks)):
        event_key = derive_key(spine_key, k)
        for i, m in enumerate(part.masses):
            if i != j:
                roots.append((t, lm + math.log(m), derive_key(event_key, i)))
        jump_sizes.append(-math.log(part.masses[j]))
        lm += math.log(part.masses[j])

    population = None
    if with_population:
        logs = [lm]
        frozen_mass = 0.0
        frozen_count = 0
        event_count = len(times)
        for birth, root_lm, key in roots:
            snaps = simulate(model, t_end, [t_end], eps_freeze, 0,
                             root_key=key, initial_log_mass=root_lm,
                             start_time=birth, max_fragments=max_fragments)
            s = snaps[0]
            logs.extend(s.log_masses.tolist())
            frozen_mass += s.frozen_mass
            frozen_count += s.frozen_count
            event_count += s.event_count
        arr = np.sort(np.array(logs))[::-1]
        population = PopulationSnapshot(
            time=t_end, log_masses=arr, frozen_mass=frozen_mass,
            frozen_count=frozen_count, event_count=event_count,
            eps_freeze=eps_freeze, seed=seed,
        )
    return SpineRun(p, t_end, times, jump_sizes, roots, weight, seed,
                    population=population)


class EventLog:
    """Dislocation events seen from the tagged fragment: time, split, pick."""

    def __init__(self, t_end, times, partitions, picks, kept=None, p=None):
        self.t_end = t_end
        self.times = times
        self.partitions = partitions
        self.picks = picks
        self.kept = kept        # None before thinning
        self.p = p              # thinning exponent once applied

    def __len__(self):
        return len(self.times)

    def kept_events(self):
        if self.kept is None:
            raise ThinningDirectionError("event log has not been thinned yet")
        return [(t, part, j) for t, part, j, k in
                zip(self.times, self.partitions, self.picks, self.kept) if k]


def simulate_event_log(model, t_end, seed):
    """Untilted tagged-fragment event stream: rate nu_total, size-biased picks."""

    def draw(stream):
        _, j, part = sample_size_biased(model, stream)
        return part, j, 1.0

    times, parts, picks, _ = walk_tagged_line(model.total_rate, t_end,
                                              derive_key(seed, 0), draw)
    return EventLog(t_end, times, parts, picks)


def thin_fiber(log, p, stream):
    """Keep each event with probability (picked mass)^p; returns a new log.

    Turns the untilted tagged stream into the p-tilted one.  Only p >= 0
    makes sense in this direction (masses are <= 1, so the keep probability
    is <= 1); going the other way means thinning the tilted stream instead.
    """
    if p < 0.0:
        raise ThinningDirectionError(
            "thinning with p < 0 is the inverse direction: thin the tilted "
            "stream with exponent -p instead"
        )
    kept = [stream.uniform() < part.masses[j] ** p
            for part, j in zip(log.partitions, log.picks)]
    return EventLog(log.t_end, list(log.times), list(log.partitions),
                    list(log.picks), kept=kept, p=p)
