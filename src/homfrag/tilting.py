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

from .analytics import PhiEvaluator
from .errors import (
    BelowPLowerError,
    BudgetExceededError,
    NotComputableError,
    ThinningDirectionError,
)
from .measures import size_biased_draw
from .ranked import DEFAULT_MAX_FRAGMENTS, PopulationSnapshot, simulate_lanes
from .streams import Stream, StreamBatch, derive_key, lanewise

# draws before a rejection loop is declared not computable: tilted splits
# at one p >= 0 event, paintboxes at one partitions.simulate_partition ring
_MAX_REJECTIONS = 1_000_000


def esscher_exponent(evaluator, p, q):
    """Laplace exponent of the tilted subordinator: phi(p+q) - phi(p)."""
    return evaluator.phi(p + q) - evaluator.phi(p)


def tilted_split_rate(model, evaluator, p):
    """Total dislocation rate felt by the spine: nu_total - phi(p)."""
    rate = model.total_rate - evaluator.phi(p)
    if not rate > 0.0:  # NaN included
        raise NotComputableError(f"tilted rate {rate} is not positive at p={p}")
    return rate


def _tilted_draw(model, p, evaluator, pick):
    """draw(stream) -> (split, pick(stream, cum), importance weight): one
    draw of the split measure reweighted by sum_i s_i^(p+1), where cum holds
    the running sums of s_i^(p+1) over the split's pieces.

    The p_lower check and, for p < 0, the normaliser hold for every draw of
    a path, so they run here, once.
    """
    if p <= model.p_lower:
        raise BelowPLowerError(f"tilting needs p > p_lower = {model.p_lower}")
    sample = model.sample
    q = p + 1.0
    if p >= 0.0:
        def draw(stream):
            for _ in range(_MAX_REJECTIONS):
                part = sample(stream)
                cum = _running_powers(part.masses, q)
                if stream.uniform() < cum[-1]:
                    return part, pick(stream, cum), 1.0
            raise NotComputableError(
                f"tilted rejection did not accept after {_MAX_REJECTIONS} tries"
            )
        return draw
    if evaluator is None:
        evaluator = PhiEvaluator(model)
    norm = tilted_split_rate(model, evaluator, p) / model.total_rate

    def draw(stream):
        part = sample(stream)
        cum = _running_powers(part.masses, q)
        return part, pick(stream, cum), cum[-1] / norm
    return draw


def _running_powers(masses, q):
    """Running sums of s_i^q over the pieces: their last entry is the tilt's
    sum_i s_i^q, and they are the spine pick's weights."""
    cum = []
    acc = 0.0
    for m in masses:
        acc += m ** q
        cum.append(acc)
    return cum


def sample_tilted_split(model, p, stream, evaluator=None):
    """One draw whose law is the split measure reweighted by sum_i s_i^(p+1).

    Returns (partition, importance weight).  For p >= 0 the reweighting is
    a rejection probability (exact, weight 1).  For p_lower < p < 0 it
    exceeds one, so the draw comes with an importance weight of mean one
    instead; pass a PhiEvaluator to avoid rebuilding one per call.
    """
    part, _, weight = _tilted_draw(model, p, evaluator, _no_pick)(stream)
    return part, weight


def _no_pick(stream, cum):
    return None


def spine_child_select(partition, p, stream):
    """Index of the spine's child: j with probability s_j^(p+1) (normalized)."""
    return stream.pick(_running_powers(partition.masses, p + 1.0))


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
        i = self._jumps_to(t)
        # summed from the first jump, not from 0.0 (0.0 + -0.0 is 0.0)
        return reduce(add, self.jump_sizes[:i]) if i else 0.0

    def spine_log_mass(self, t):
        """Log mass of the followed piece at time t: minus the jumps so far."""
        # summed left to right from int 0, as sum does up to Python 3.11
        return -reduce(add, self.jump_sizes[:self._jumps_to(t)], 0)

    def _jumps_to(self, t):
        """How many jumps fall up to and including t, for t <= t_end."""
        if t > self.t_end:
            raise ValueError(f"path simulated only to {self.t_end}, asked at {t}")
        return bisect_right(self.jump_times, t)

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


def check_horizon(rate, t_end):
    """Refuse a horizon that no walk of a line at `rate` ends by.

    t_end must be finite and >= 0 (t > nan never ends a walk), and the
    expected event count rate * t_end must not exceed DEFAULT_MAX_FRAGMENTS
    (a huge finite horizon would walk until memory runs out).
    """
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    if rate * t_end > DEFAULT_MAX_FRAGMENTS:
        raise BudgetExceededError(
            f"a line at rate {rate!r} expects {rate * t_end:.6g} events by "
            f"t_end = {t_end!r}, above the budget of {DEFAULT_MAX_FRAGMENTS}")


def walk_tagged_line(rate, t_end, seed, draw, p=0.0):
    """One line of descent to t_end: events at `rate` on the line's stream.

    draw(stream) gives each event's (split, index of the followed piece,
    importance weight); p labels the law the draws follow.  check_horizon
    refuses t_end first.
    """
    check_horizon(rate, t_end)
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
        evaluator = PhiEvaluator(model)
    if with_population and eps_freeze is None:
        raise ValueError("with_population requires eps_freeze")
    rate = tilted_split_rate(model, evaluator, p)
    line = walk_tagged_line(rate, t_end, seed,
                            _tilted_draw(model, p, evaluator, Stream.pick), p)
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
    return walk_tagged_line(model.total_rate, t_end, seed,
                            size_biased_draw(model))


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


def thin_lanes(keys, lane, picked, p):
    """The flags thin_fiber gives lines l = 0, 1, ... thinned with
    Stream(keys[l]), bit for bit.  Events come line by line (lane is
    nondecreasing); event i, the k-th of line lane[i], is kept when draw k
    of that stream falls below picked[i] ** p, powers taken in libm event by
    event, so that the first to overflow raises OverflowError as there."""
    if p < 0.0:
        raise ThinningDirectionError(f"thinning needs p >= 0, got {p}")
    lane = np.asarray(lane, dtype=np.intp)
    k = np.arange(1, lane.size + 1) - np.searchsorted(lane, lane)
    keep = lanewise(pow, np.asarray(picked, dtype=float), p)
    return StreamBatch(keys).uniform_at(lane, k) < keep
