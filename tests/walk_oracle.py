"""Per-draw reference walk of one tagged line (test oracle).

This is the scalar walk homfrag.tilting ran before its draws were built
once per path: every draw re-checks p_lower and the model's conservation,
recomputes the p < 0 normaliser, validates each split as a MassPartition,
and sums s^(p+1) once for the acceptance test and again for the child
pick.  The spine is walked without its shed population, which reads only
the line.  Tests check the walk against it field for field, bit for bit.
Its one-draw calls sample_tilted_split, spine_child_select and
sample_size_biased are also where tests take single draws: the library
draws only whole lines.  sample_size_biased picks by Stream.pick over the
split's running masses, the package's one rule for a weighted pick.
"""

from itertools import accumulate

from homfrag.analytics import PhiEvaluator
from homfrag.errors import (
    BelowPLowerError,
    DustNotSupportedError,
    NotComputableError,
)
from homfrag.measures import MassPartition
from homfrag.streams import _MAX_REJECTIONS, Stream, derive_key
from homfrag.tilting import TaggedLine, tilted_split_rate


def _sample(model, stream):
    """A split, checked as every split was: a MassPartition of sample_masses."""
    return MassPartition(model.sample_masses(stream))


def sample_tilted_split(model, p, stream, evaluator=None):
    if p <= model.p_lower:
        raise BelowPLowerError(f"tilting needs p > p_lower = {model.p_lower}")
    if p >= 0.0:
        for _ in range(_MAX_REJECTIONS):
            part = _sample(model, stream)
            if stream.uniform() < part.power_sum(p + 1.0):
                return part, 1.0
        raise NotComputableError(
            f"tilted rejection did not accept after {_MAX_REJECTIONS} tries"
        )
    if evaluator is None:
        evaluator = PhiEvaluator(model)
    norm = tilted_split_rate(model, evaluator, p) / model.total_rate
    part = _sample(model, stream)
    return part, part.power_sum(p + 1.0) / norm


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
    j = stream.pick(list(accumulate(part.masses)))
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
        weight *= w
        times.append(t)
        parts.append(part)
        picks.append(j)


def simulate_spine(model, p, t_end, seed, evaluator=None):
    """homfrag.tilting.simulate_spine without eps_freeze: no population."""
    if evaluator is None:
        evaluator = PhiEvaluator(model)
    rate = tilted_split_rate(model, evaluator, p)

    def draw(stream):
        part, w = sample_tilted_split(model, p, stream, evaluator)
        return part, spine_child_select(part, p, stream), w

    return walk_tagged_line(rate, t_end, seed, draw, p)


def simulate_event_log(model, t_end, seed):
    def draw(stream):
        _, j, part = sample_size_biased(model, stream)
        return part, j, 1.0

    return walk_tagged_line(model.total_rate, t_end, seed, draw)
