"""Exponential tilting: spine dynamics, tilted splits, and fiber thinning.

Size-biasing the additive martingale M(p, .) singles out one distinguished
line of descent (the spine).  Under the tilted law the spine dislocates at
rate nu_total - phi(p), each split is reweighted by sum_i s_i^(p+1), the
spine follows child j with probability s_j^(p+1) / sum_i s_i^(p+1), and the
fragments it sheds evolve as ordinary untilted populations.

The same change of measure acts on the spine's event stream by thinning:
keeping an event of the untilted stream with probability (picked mass)^p
(p > 0) turns it into the tilted stream.  The spine at p >= 0 is made that
way: the untilted line's tries at rate nu_total, each split by the usual
split law and kept with probability sum_i s_i^(p+1), so every tagged line
spends draws 3e+1, 3e+2 and 3e+3 (wait, split, keep-and-pick) on its try e.
At p < 0 every try is an event, at the tilted rate, importance-weighted.

The untilted event log, the tilted spine and a thinned log are one record,
TaggedLine: a line of descent walked by walk_tagged_line.  The untilted
line is the tagged-piece subordinator (its jumps are -log of size-biased
picks).  read_tagged_lines and read_spines read many replicas of the
untilted line and of the spine at once, as TaggedLines records.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate
from operator import add
from typing import NamedTuple

import numpy as np

from .analytics import PhiEvaluator
from .errors import (
    BudgetExceededError,
    DustNotSupportedError,
    NotComputableError,
    ThinningDirectionError,
)
from .ranked import DEFAULT_MAX_FRAGMENTS, PopulationSnapshot, simulate_lanes
from .streams import (
    Stream,
    StreamBatch,
    derive_key,
    derive_keys,
    lanewise,
    pick_indices,
    replica_keys,
)

# events (lanes x block width) read at once by read_tagged_lines and
# read_spines: bounds their memory, not a knob
_CHUNK_CELLS = 1 << 20
# shed roots grown by one simulate_lanes call: bounds the populations held
# at once, not a knob
_SHED_ROOTS = 256


def esscher_exponent(evaluator, p, q):
    """Laplace exponent of the tilted subordinator: phi(p+q) - phi(p)."""
    return evaluator.phi(p + q) - evaluator.phi(p)


def tilted_split_rate(model, evaluator, p):
    """Total dislocation rate felt by the spine: nu_total - phi(p)."""
    rate = model.total_rate - evaluator.phi(p)
    if not rate > 0.0:  # NaN included
        raise NotComputableError(f"tilted rate {rate} is not positive at p={p}")
    return rate


def _spine_law(model, p, evaluator):
    """(rate of the spine's tries, normaliser of its p < 0 weights) once
    tilted_split_rate has refused p: at p >= 0 the spine is the untilted
    line at rate nu_total, thinned, and every weight is 1."""
    if evaluator is None:
        evaluator = PhiEvaluator(model)
    rate = tilted_split_rate(model, evaluator, p)
    if p >= 0.0:
        return model.total_rate, None
    return rate, rate / model.total_rate


def _line_draw(model, p=None, norm=None):
    """draw(stream) -> (split, index of the piece followed, importance
    weight) for one try of a tagged line, or None for a try it thins away.

    A try draws its split, then one uniform u.  The p-tilted spine at p >= 0
    keeps the try iff u < sum_i s_i^(p+1) and then follows the first piece
    whose running sum of s_i^(p+1) is above u.  The untilted event log (p
    None) draws as the spine at p = 0 does, but keeps every try: where u is
    not below the total it follows the last piece.  It needs a conservative
    model, checked here, once per draw function.  At p < 0 the spine keeps
    every try, picks piece j with probability s_j^(p+1) / sum_i s_i^(p+1) by
    Stream.pick and weighs it sum_i s_i^(p+1) / norm.
    """
    sample = model.sample
    if p is None and not model.conservative:
        def draw(stream):
            raise DustNotSupportedError(
                "size-biased pick needs a conservative model")
        return draw
    q = 1.0 if p is None else p + 1.0
    if p is None or p >= 0.0:
        def draw(stream):
            part = sample(stream)
            u = stream.uniform()
            acc = 0.0
            for j, m in enumerate(part.masses):
                acc += m ** q
                if u < acc:
                    return part, j, 1.0
            # u is not below the total: the event log follows the last
            # piece, the spine thins the try away
            return (part, j, 1.0) if p is None else None
        return draw

    def draw(stream):
        part = sample(stream)
        cum = []
        acc = 0.0
        for m in part.masses:
            acc += m ** q
            cum.append(acc)
        return part, stream.pick(cum), acc / norm
    return draw


@dataclass(slots=True, eq=False)
class TaggedLine:
    """One line of descent to t_end: its jump times, splits and picks.

    The untilted event log, the p-tilted spine and a thinned log are all
    this record; picks[k] indexes the piece of partitions[k] followed.
    weight multiplies the importance weights (1 unless a spine has p < 0),
    p is the tilt or thinning exponent (0 when untilted), kept holds the
    thinning flags (None before thinning).
    """

    t_end: float
    jump_times: list
    partitions: list
    picks: list
    seed: int
    weight: float = 1.0
    p: float = 0.0
    kept: list = None

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
        """Log mass of the followed piece at time t: minus the jumps so far
        (0.0, not -0.0, before the first)."""
        return 0.0 - self.value(t)

    def _jumps_to(self, t):
        """How many jumps fall up to and including t, for t <= t_end."""
        if t > self.t_end:
            raise ValueError(f"path simulated only to {self.t_end}, asked at {t}")
        return bisect_right(self.jump_times, t)


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
    """One line of descent to t_end: tries at `rate` on the line's stream.

    draw(stream) gives each try's (split, index of the followed piece,
    importance weight), or None for a try the line thins away, which is no
    event; p labels the law the draws follow.  check_horizon refuses t_end
    first.
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
        event = draw(stream)
        if event is None:
            continue
        part, j, w = event
        weight *= w
        times.append(t)
        parts.append(part)
        picks.append(j)


def simulate_spine(model, p, t_end, seed, evaluator=None):
    """Simulate the spine under the tilted law up to t_end: at p >= 0 the
    untilted line's tries at rate nu_total, thinned (see _line_draw).  The
    spine itself is never frozen; shed_populations grows what it sheds."""
    rate, norm = _spine_law(model, p, evaluator)
    return walk_tagged_line(rate, t_end, seed, _line_draw(model, p, norm), p)


def simulate_event_log(model, t_end, seed):
    """Untilted tagged-fragment event stream: rate nu_total, size-biased picks."""
    return walk_tagged_line(model.total_rate, t_end, seed, _line_draw(model))


# the event log's value(t) is the tagged-piece subordinator
simulate_subordinator = simulate_event_log


class TaggedLines(NamedTuple):
    """The tagged lines of a chunk of lanes, as arrays.

    Lane i is keyed keys[i] and has counts[i] events by t_end.  The 2-d
    arrays have one row per event index and one column per lane:
    events[e, i] marks event e of lane i and times[e, i] is its jump time
    (entries not marked are filler).  The events are listed lane by lane,
    each lane's in order, as np.nonzero(events.T) lists them: event k is of
    lane lane[k] and has the split masses[k] (a row zero-padded to the
    widest split), the index picks[k] of the piece the line follows and
    that piece's mass picked[k].  weights[i] is lane i's importance weight
    (1.0 unless a spine has p < 0).  Every lane of a read_tagged_lines
    record equals simulate_event_log(model, t_end, keys[i]) bit for bit,
    and every lane of a read_spines record simulate_spine(model, p, t_end,
    keys[i]).
    """

    keys: np.ndarray
    counts: np.ndarray
    events: np.ndarray
    times: np.ndarray
    lane: np.ndarray
    masses: np.ndarray
    picks: np.ndarray
    picked: np.ndarray
    weights: np.ndarray

    def jump_sizes(self):
        """-log of each picked mass, by libm, as TaggedLine.jump_sizes."""
        return -lanewise(math.log, self.picked)

    def values(self):
        """Each lane's value(t_end): its jumps summed in event order from the
        first one, as TaggedLine.value sums them (0.0 for a lane with none)."""
        jumps = np.zeros(self.events.shape)
        jumps.T[self.events.T] = self.jump_sizes()
        out = np.zeros(len(self.keys))
        done = np.flatnonzero(self.counts)
        out[done] = np.cumsum(jumps, axis=0)[self.counts[done] - 1, done]
        return out

    def shed(self):
        """(roots, log masses at t_end) of every lane: roots are the columns
        (lane, birth time, log mass, key), by lane, then by event, then by
        piece.  A root is a piece a lane did not follow, born at its event
        with the followed piece's log mass before it plus its own; piece j
        of event e of lane i is keyed
        derive_key(derive_key(derive_key(keys[i], 0), e), j)."""
        n = len(self.keys)
        # the followed piece's log mass before each event and at t_end:
        # running sums of libm logs from 0.0, in event order
        logs = np.zeros((len(self.events) + 1, n))
        logs[1:].T[self.events.T] = lanewise(math.log, self.picked)
        before = np.cumsum(logs, axis=0)
        row, piece = np.nonzero(self.masses)     # row-major: (event, piece)
        shed = piece != self.picks[row]
        row, piece = row[shed], piece[shed]
        lane, e = self.lane[row], np.nonzero(self.events.T)[1][row]
        lms = before[e, lane] + lanewise(math.log, self.masses[row, piece])
        keys = derive_keys(derive_keys(derive_keys(self.keys, 0)[lane], e),
                           piece)
        return ((lane, self.times[e, lane], lms, keys),
                before[self.counts, np.arange(n)])


def shed_populations(model, t_end, eps_freeze, rec):
    """The population at t_end of every lane of rec, a read_spines record
    to t_end, made as they are iterated: the lane's own fragment beside
    the roots it shed (TaggedLines.shed), grown to t_end by simulate_lanes,
    frozen at eps_freeze, within DEFAULT_MAX_FRAGMENTS.

    Each root is a lane of its own, and a lane's frozen masses are added in
    the order of its roots.  One simulate_lanes call grows the roots of
    consecutive lanes, at most _SHED_ROOTS of them unless one lane has
    more, and only that call's populations are held at once.  A snapshot's
    event count is its lane's events and its roots' splits, and its seed is
    its lane's key.
    """
    (line, births, lms, keys), line_lms = rec.shed()
    seeds, counts = rec.keys.tolist(), rec.counts.tolist()
    bounds = np.searchsorted(line, np.arange(len(seeds) + 1)).tolist()
    a = 0
    while a < len(seeds):
        # lanes a, ..., b - 1: as many as _SHED_ROOTS roots hold, one at least
        b = max(a + 1, bisect_right(bounds, bounds[a] + _SHED_ROOTS) - 1)
        lo, hi = bounds[a], bounds[b]
        shed = simulate_lanes(model, t_end, [t_end], eps_freeze,
                              [0] * (hi - lo), keys[lo:hi],
                              initial_log_mass=lms[lo:hi],
                              start_time=births[lo:hi],
                              reduce=lambda snaps: snaps[0])
        for c in range(a, b):
            grown = shed[bounds[c] - lo:bounds[c + 1] - lo]
            logs = np.concatenate([line_lms[c:c + 1]]
                                  + [s.log_masses for s in grown])
            yield PopulationSnapshot(
                time=t_end, log_masses=np.sort(logs)[::-1],
                frozen_mass=reduce(add, (s.frozen_mass for s in grown), 0.0),
                frozen_count=sum(s.frozen_count for s in grown),
                event_count=counts[c] + sum(s.event_count for s in grown),
                eps_freeze=eps_freeze, seed=seeds[c],
            )
        a = b


def read_tagged_lines(model, t_end, seed, n_replicas):
    """The untilted tagged lines of replicas 0, ..., n_replicas - 1, as
    TaggedLines records of consecutive chunks of lanes, made as they are
    iterated.

    Replica i is the line simulate_event_log(model, t_end,
    replica_key(seed, i)).  Each lane's path is read off its counter-based
    stream in numpy, with the scalar walk's arithmetic: a model splits by
    one uniform, so try e spends draws 3e+1, 3e+2 and 3e+3 (wait, split,
    keep-and-pick), and a lane longer than one block reads on from its last
    jump (see _jump_times).  Chunks hold at most _CHUNK_CELLS cells (lanes
    times the block's tries), so memory stays bounded and no lane depends
    on the chunk size or on n_replicas.  check_horizon refuses t_end first.
    """
    return _read_lines(model.total_rate, t_end, seed, n_replicas,
                       partial(sample_tagged_batch, model, None, None))


def read_spines(model, p, t_end, seed, n_replicas, evaluator=None):
    """The p-tilted spines of replicas 0, ..., n_replicas - 1, as
    TaggedLines records of consecutive chunks of lanes, made as they are
    iterated; lane i is simulate_spine(model, p, t_end,
    replica_key(seed, i), evaluator) bit for bit (shed_populations grows
    what the lanes shed).

    The lanes are read as read_tagged_lines reads them, with the spine's
    draw (sample_tagged_batch): at p < 0 at the tilted rate, each try an
    event with its weight; at p >= 0 at nu_total, each lane keeping the
    tries it does not thin away.  tilted_split_rate refuses p <= p_lower
    (and NaN) first, then check_horizon refuses t_end.
    """
    rate, norm = _spine_law(model, p, evaluator)
    return _read_lines(rate, t_end, seed, n_replicas,
                       partial(sample_tagged_batch, model, p, norm))


def _read_lines(rate, t_end, seed, n_replicas, draw):
    """The lines at `rate` to t_end of replicas 0, ..., n_replicas - 1, read
    by _read_block with `draw` in consecutive chunks of lanes, made as they
    are iterated; check_horizon refuses t_end first."""
    check_horizon(rate, t_end)
    mean = rate * t_end
    # a Poisson(mean) path outgrows this block with probability below 1e-9,
    # unless the cap applies (mean above about 10^6): then it reads on
    width = int(min(mean + 6.0 * math.sqrt(mean) + 9.0, _CHUNK_CELLS))
    lanes = _CHUNK_CELLS // width
    keys = replica_keys(seed, n_replicas)
    return (_read_block(rate, t_end, keys[start:start + lanes], width, draw)
            for start in range(0, n_replicas, lanes))


def subordinator_values(model, t_end, seed, n_replicas):
    """xi(t_end) of replicas 0, ..., n_replicas - 1 of the tagged subordinator.

    Entry i equals simulate_event_log(model, t_end,
    replica_key(seed, i)).value(t_end) bit for bit (TaggedLines.values of
    the lines read_tagged_lines reads).
    """
    return np.concatenate([np.zeros(0)] + [
        rec.values() for rec in read_tagged_lines(model, t_end, seed,
                                                  n_replicas)])


def _read_block(rate, t_end, keys, width, draw):
    """The TaggedLines of the lanes keyed keys: their tries' times, read in
    blocks of `width` tries by _jump_times, then the splits' and the
    keep-and-picks' draws of all their tries, mapped by draw(split_u, u) to
    (picked masses, their indices, split matrix, each try's importance
    weight or None when every weight is 1.0, each try's keep flag or None
    when every try is kept).  A lane's events are its kept tries, numbered
    in order from 0."""
    streams = StreamBatch(derive_keys(keys, 0))
    counts, times = _jump_times(streams, np.arange(len(keys)), rate, t_end,
                                width, 0, 0.0)
    events = np.arange(len(times))[:, None] < counts
    lane, e = np.nonzero(events.T)
    weights = np.ones(len(keys))
    if not lane.size:  # no tries: a dust model raises only on a line with one
        return TaggedLines(keys, counts, events, times, lane,
                           np.empty((0, 0)), np.empty(0, np.intp), np.empty(0),
                           weights)
    # the splits' draws at 3e + 2, the keep-and-picks' at 3e + 3
    picked, picks, masses, w, kept = draw(*streams.uniform_at(
        lane, 3 * e + [[2], [3]]))
    if w is not None:  # each lane's product, in event order from 1.0
        factors = np.ones(events.shape)
        factors.T[events.T] = w
        weights = np.cumprod(factors, axis=0)[-1]
    if kept is not None:  # a lane's events are its kept tries, in order
        flags = events.copy()
        flags.T[events.T] = kept
        counts = np.count_nonzero(flags, axis=0)
        events = np.arange(counts.max())[:, None] < counts
        kept_times = times.T[flags.T]
        times = times[:len(events)]
        times.T[events.T] = kept_times
        lane, picked, picks, masses = (
            x[kept] for x in (lane, picked, picks, masses))
    return TaggedLines(keys, counts, events, times, lane, masses, picks,
                       picked, weights)


def _jump_times(streams, lanes, rate, t_end, width, start, clock):
    """(event counts by t_end, jump times) of the lanes `lanes` of streams,
    from their event `start` on, the last jump before it at time `clock`.

    times[e, i] is the jump time of event start + e of lane i, for e below
    counts[i] (the rest is filler).  numpy's log1p of a block of `width`
    waits (event e's at draw 3e + 1) only estimates each lane's count E.
    The first min(E + 1, width) waits then go through libm, as
    Stream.exponential does, and a sequential cumsum from clock gives the
    scalar walk's jump times.  A lane's count is the number of them at or
    before t_end; a lane whose times all lie there reads on, from the event
    after its last, so no estimate reaches the record.
    """
    u = streams.uniform_at(lanes, 3 * (start + np.arange(width)[:, None]) + 1)
    reads = np.minimum(_estimate_events(u, rate, t_end - clock) + 1, width)
    # one row per event, one column per lane: cumsum down a column adds
    # that lane's terms in event order
    first = np.arange(reads.max())[:, None] < reads
    wait = np.zeros(first.shape)
    wait[first] = -lanewise(math.log1p, -u[:len(wait)][first]) / rate
    wait[0] += clock
    times = np.cumsum(wait, axis=0)
    counts = np.count_nonzero(first & (times <= t_end), axis=0)
    on = np.flatnonzero(counts == reads)
    if on.size:
        more, tail = _jump_times(streams, lanes[on], rate, t_end, width,
                                 (start + reads)[on], times[reads[on] - 1, on])
        counts[on] += more
        e, j = np.nonzero(np.arange(len(tail))[:, None] < more)
        grown = np.zeros((max(len(times), counts.max()), len(lanes)))
        grown[:len(times)] = times
        grown[reads[on][j] + e, on[j]] = tail[e, j]
        times = grown
    return counts, times


def _estimate_events(u, rate, t_end):
    """Events of each lane within t_end (one for all lanes or one each) of
    its block's start, from its block of wait draws u and numpy's log1p,
    which can differ from libm's in the last bit."""
    t = np.cumsum(-np.log1p(-u) / rate, axis=0)
    return np.count_nonzero(t <= t_end, axis=0)


def sample_tagged_batch(model, p, norm, split_u, u):
    """The draw of _line_draw(model, p, norm) for each pair of uniforms
    (split_u[r], u[r]): the split the first maps to, then the piece the
    second picks and, at p >= 0, whether it keeps the try.

    Returns (picked masses, their indices, the zero-padded split matrix,
    the weights (None when all are 1.0), the keep flags (None when every
    try is kept)).
    """
    if p is None and not model.conservative:
        raise DustNotSupportedError("size-biased pick needs a conservative model")
    masses = model.splits(split_u)
    q = 1.0 if p is None else p + 1.0
    powers = masses  # s^1 is s: the event log takes no pow
    if q != 1.0:
        # s^q of the real pieces only, by libm: 0.0 is never raised, so a
        # negative q raises no ZeroDivisionError
        real = masses > 0.0
        powers = np.zeros(masses.shape)
        powers[real] = lanewise(pow, masses[real], q)
    # each row's running sums, bit for bit np.cumsum(axis=1): a column
    # accumulate adds a row's entries left to right, and numpy accumulates
    # along a short last axis slowly
    cum = np.array(list(accumulate(powers.T))).T
    total = cum[:, -1]
    w = kept = None
    if p is not None and p < 0.0:  # every try kept, picked by u times total
        u, w = u * total, total / norm
    elif p is not None:
        kept = u < total
    # a row's last real piece: zeros pad the rest
    pick = pick_indices(cum, u, sum(column > 0.0 for column in masses.T) - 1)
    return masses[np.arange(len(pick)), pick], pick, masses, w, kept


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
