"""Exponential tilting: spine dynamics, tilted splits, and fiber thinning.

Size-biasing the additive martingale M(p, .) singles out one distinguished
line of descent (the spine).  Under the tilted law the spine dislocates at
rate nu_total - phi(p), each split is reweighted by sum_i s_i^(p+1), the
spine follows child j with probability s_j^(p+1) / sum_i s_i^(p+1), and the
fragments it sheds evolve as ordinary untilted populations.

The same change of measure acts on the spine's event stream by thinning:
keeping an event of the untilted stream with probability (picked mass)^p
(p > 0) turns it into the tilted stream.

The untilted event log, the tilted spine and a thinned log are one record,
TaggedLine: a line of descent walked by walk_tagged_line.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import (
    BelowPLowerError,
    NotComputableError,
    ThinningDirectionError,
)
from .measures import sample_size_biased
from .ranked import DEFAULT_MAX_FRAGMENTS, PopulationSnapshot, simulate_lanes
from .streams import Stream, derive_key


def esscher_exponent(evaluator, p, q):
    """Laplace exponent of the tilted subordinator: phi(p+q) - phi(p)."""
    return evaluator.phi(p + q) - evaluator.phi(p)


def tilted_split_rate(model, evaluator, p):
    """Total dislocation rate felt by the spine: nu_total - phi(p)."""
    rate = model.total_rate - evaluator.phi(p)
    if not rate > 0.0:  # NaN included
        raise NotComputableError(f"tilted rate {rate} is not positive at p={p}")
    return rate


def sample_tilted_split(model, p, stream, evaluator=None,
                        max_rejections=1_000_000):
    """One draw whose law is the split measure reweighted by sum_i s_i^(p+1).

    Returns (partition, importance weight).  For p >= 0 the reweighting is
    a rejection probability (exact, weight 1).  For p_lower < p < 0 it
    exceeds one, so the draw comes with an importance weight of mean one
    instead; pass a PhiEvaluator to avoid rebuilding one per call.
    """
    if p <= model.p_lower:
        raise BelowPLowerError(f"tilting needs p > p_lower = {model.p_lower}")
    if p >= 0.0:
        for _ in range(max_rejections):
            part = model.sample(stream)
            if stream.uniform() < part.power_sum(p + 1.0):
                return part, 1.0
        raise NotComputableError(
            f"tilted rejection did not accept after {max_rejections} tries"
        )
    if evaluator is None:
        from .analytics import PhiEvaluator
        evaluator = PhiEvaluator(model)
    norm = tilted_split_rate(model, evaluator, p) / model.total_rate
    part = model.sample(stream)
    return part, part.power_sum(p + 1.0) / norm


def spine_child_select(partition, p, stream):
    """Index of the spine's child: j with probability s_j^(p+1) (normalized)."""
    cum = []
    acc = 0.0
    for m in partition.masses:
        acc += m ** (p + 1.0)
        cum.append(acc)
    return stream.pick(cum)


@dataclass(slots=True, eq=False)
class TaggedLine:
    """One line of descent to t_end: its jump times, splits and picks.

    The untilted event log, the p-tilted spine and a thinned log are all
    this record; picks[k] indexes the piece of partitions[k] followed.
    weight multiplies the importance weights (1 unless a spine has p < 0),
    p is the tilt or thinning exponent (0 when untilted), kept holds the
    thinning flags (None before thinning) and population is a spine run's
    combined population at t_end when asked for.
    """

    t_end: float
    jump_times: list
    partitions: list
    picks: list
    seed: int
    weight: float = 1.0
    p: float = 0.0
    kept: list = None
    population: PopulationSnapshot = None

    def __len__(self):
        return len(self.jump_times)

    @property
    def jump_sizes(self):
        """-log of the followed piece's mass, one per jump."""
        return [-math.log(part.masses[j])
                for part, j in zip(self.partitions, self.picks)]

    def value(self, t):
        """Subordinator value: the sum of the jumps up to and including t."""
        if t > self.t_end:
            raise ValueError(f"path simulated only to {self.t_end}, asked at {t}")
        i = bisect_right(self.jump_times, t)
        # summed from the first jump, not from 0.0 (0.0 + -0.0 is 0.0)
        return reduce(add, self.jump_sizes[:i]) if i else 0.0

    def spine_log_mass(self, t):
        """Log mass of the followed piece at time t: minus the jumps so far."""
        i = bisect_right(self.jump_times, t)
        return -sum(self.jump_sizes[:i])

    def shed(self):
        """(roots of the pieces the line shed, its log mass at t_end).

        A root is (birth time, log mass, key); piece i of event k is keyed
        derive_key(derive_key(derive_key(seed, 0), k), i).
        """
        line_key = derive_key(self.seed, 0)
        lm = 0.0
        roots = []
        for k, (t, part, j) in enumerate(zip(self.jump_times, self.partitions,
                                             self.picks)):
            event_key = derive_key(line_key, k)
            for i, m in enumerate(part.masses):
                if i != j:
                    roots.append((t, lm + math.log(m), derive_key(event_key, i)))
            lm += math.log(part.masses[j])
        return roots, lm

    def kept_events(self):
        if self.kept is None:
            raise ThinningDirectionError("event log has not been thinned yet")
        return [(t, part, j) for t, part, j, k in
                zip(self.jump_times, self.partitions, self.picks, self.kept)
                if k]


def walk_tagged_line(rate, t_end, seed, draw, p=0.0):
    """One line of descent to t_end: events at `rate` on the line's stream.

    draw(stream) gives each event's (split, index of the followed piece,
    importance weight); p labels the law the draws follow.
    """
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
        weight *= w
        times.append(t)
        parts.append(part)
        picks.append(j)


def simulate_spine(model, p, t_end, seed, evaluator=None, *,
                   with_population=False, eps_freeze=None,
                   max_fragments=DEFAULT_MAX_FRAGMENTS):
    """Simulate the spine under the tilted law up to t_end.

    The spine itself is never frozen.  With with_population=True (requires
    eps_freeze) every shed fragment is evolved to t_end as an ordinary
    population, and the combined state, spine fragment included, is stored
    as the record's population snapshot.
    """
    if evaluator is None:
        from .analytics import PhiEvaluator
        evaluator = PhiEvaluator(model)
    if with_population and eps_freeze is None:
        raise ValueError("with_population requires eps_freeze")
    rate = tilted_split_rate(model, evaluator, p)

    def draw(stream):
        part, w = sample_tilted_split(model, p, stream, evaluator)
        return part, spine_child_select(part, p, stream), w

    line = walk_tagged_line(rate, t_end, seed, draw, p)
    if with_population:
        roots, lm = line.shed()
        logs = [lm]
        frozen_mass = 0.0
        frozen_count = 0
        event_count = len(line)
        births, root_lms, keys = zip(*roots) if roots else ((), (), ())
        shed = simulate_lanes(
            model, t_end, [t_end], eps_freeze, [0] * len(roots), keys,
            initial_log_mass=root_lms, start_time=births,
            max_fragments=max_fragments, reduce=lambda snaps: snaps[0])
        for s in shed:
            logs.extend(s.log_masses.tolist())
            frozen_mass += s.frozen_mass
            frozen_count += s.frozen_count
            event_count += s.event_count
        arr = np.sort(np.array(logs))[::-1]
        line.population = PopulationSnapshot(
            time=t_end, log_masses=arr, frozen_mass=frozen_mass,
            frozen_count=frozen_count, event_count=event_count,
            eps_freeze=eps_freeze, seed=seed,
        )
    return line


def simulate_event_log(model, t_end, seed):
    """Untilted tagged-fragment event stream: rate nu_total, size-biased picks."""

    def draw(stream):
        _, j, part = sample_size_biased(model, stream)
        return part, j, 1.0

    return walk_tagged_line(model.total_rate, t_end, seed, draw)


def thin_fiber(line, p, stream):
    """Keep each event with probability (picked mass)^p; returns a new line.

    Turns the untilted tagged stream into the p-tilted one.  Only p >= 0
    makes sense in this direction (masses are <= 1, so the keep probability
    is <= 1); going the other way means thinning the tilted stream instead.
    """
    if p < 0.0:
        raise ThinningDirectionError(
            "thinning with p < 0 is the inverse direction: thin the tilted "
            "stream with exponent -p instead"
        )
    if line.p != 0.0:
        raise ThinningDirectionError(
            f"thinning acts on the untilted stream; this line has "
            f"p = {line.p}")
    kept = [stream.uniform() < part.masses[j] ** p
            for part, j in zip(line.partitions, line.picks)]
    return TaggedLine(line.t_end, line.jump_times, line.partitions, line.picks,
                      line.seed, kept=kept, p=p)
