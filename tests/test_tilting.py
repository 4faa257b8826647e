"""Exponential tilting: reweighted splits, spine runs, thinning."""

import math
from functools import reduce
from operator import add
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import make_golden
import walk_oracle

from homfrag import tilting
from homfrag.analytics import PhiEvaluator
from homfrag.errors import (
    BelowPLowerError,
    BudgetExceededError,
    NotComputableError,
    ThinningDirectionError,
)
from homfrag.measures import (
    AtomicModel,
    MassPartition,
    PowerTailBinaryModel,
    UniformBinaryModel,
    model_from_json,
)
from homfrag.ranked import DEFAULT_MAX_FRAGMENTS
from homfrag.streams import Stream, derive_key, replica_key
from homfrag.tilting import (
    TaggedLine,
    check_horizon,
    esscher_exponent,
    read_spines,
    read_tagged_lines,
    shed_populations,
    simulate_event_log,
    simulate_spine,
    simulate_subordinator,
    subordinator_values,
    thin_fiber,
    thin_lanes,
    tilted_split_rate,
)


def test_esscher_exponent_closed_values(ub_eval):
    assert esscher_exponent(ub_eval, 0.5, 1.0) == pytest.approx(8.0 / 35.0, abs=1e-12)
    assert esscher_exponent(ub_eval, 1.0, 0.0) == 0.0


def test_tilted_split_rate(ub, ub_eval):
    assert tilted_split_rate(ub, ub_eval, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert tilted_split_rate(ub, ub_eval, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_tilted_split_nonnegative_index(ub, ub_eval):
    s = Stream(61)
    draws = [walk_oracle.sample_tilted_split(ub, 1.0, s, ub_eval)
             for _ in range(30_000)]
    assert all(w == 1.0 for _, _, w in draws)
    # a try is kept with probability E[u^2 + (1-u)^2] = 2/3
    tops = np.array([part[0] for part, j, _ in draws if j is not None])
    assert abs(len(tops) / len(draws) - 2.0 / 3.0) < 4 * math.sqrt(
        2.0 / 9.0 / len(draws))
    se = tops.std(ddof=1) / math.sqrt(len(tops))
    # tilting by u^2 + (1-u)^2 puts the larger-piece mean at 25/32
    assert abs(tops.mean() - 25.0 / 32.0) < 4 * se


def test_tilted_split_negative_index_weights(ub, ub_eval):
    s = Stream(62)
    draws = [walk_oracle.sample_tilted_split(ub, -0.5, s, ub_eval)
             for _ in range(20_000)]
    assert all(j is not None for _, j, _ in draws)
    w = np.array([w for _, _, w in draws])
    assert (w > 0).all()
    se = w.std(ddof=1) / math.sqrt(len(w))
    assert abs(w.mean() - 1.0) < 4 * se


def test_tilted_split_below_threshold(ub):
    with pytest.raises(BelowPLowerError):
        walk_oracle.sample_tilted_split(ub, -2.0, Stream(1))


def test_spine_child_select_frequencies():
    part = MassPartition([0.8, 0.2])
    s = Stream(63)
    picks = np.array([walk_oracle.spine_child_select(part, 1.0, s)
                      for _ in range(5000)])
    target = 0.64 / (0.64 + 0.04)
    assert abs((picks == 0).mean() - target) < 4 * math.sqrt(target * (1 - target) / 5000)


def test_spine_weight_one_for_nonnegative_index(ub):
    for seed in range(50):
        run = simulate_spine(ub, 1.0, 1.0, seed)
        assert run.weight == 1.0


def test_spine_importance_weights_mean_one(ub, ub_eval):
    w = np.array([simulate_spine(ub, -0.5, 1.0, seed, ub_eval).weight
                  for seed in range(8000)])
    se = w.std(ddof=1) / math.sqrt(len(w))
    assert abs(w.mean() - 1.0) < 4 * se


def test_spine_laplace_transform(ub, ub_eval):
    # E[e^{-q xi(1)}] under the p-tilt equals e^{-(phi(p+q) - phi(p))}
    p, q = 1.0, 0.5
    target = math.exp(-esscher_exponent(ub_eval, p, q))
    vals = np.array([
        math.exp(q * simulate_spine(ub, p, 1.0, seed, ub_eval).spine_log_mass(1.0))
        for seed in range(8000)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) < 4 * se


def test_spine_at_zero_tilt_matches_subordinator(ub, ub_eval):
    spine_vals = np.array([
        -simulate_spine(ub, 0.0, 1.0, seed, ub_eval).spine_log_mass(1.0)
        for seed in range(1500)])
    sub_vals = np.array([
        simulate_subordinator(ub, 1.0, 50_000 + seed).value(1.0)
        for seed in range(1500)])
    d, pvalue = stats.ks_2samp(spine_vals, sub_vals)
    assert pvalue > 0.01


def test_spine_log_mass_steps(ub):
    run = simulate_spine(ub, 0.5, 2.0, 11)
    assert run.spine_log_mass(0.0) == 0.0
    assert math.copysign(1.0, run.spine_log_mass(0.0)) == 1.0  # not -0.0
    vals = [run.spine_log_mass(t) for t in np.linspace(0.0, 2.0, 21)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert run.spine_log_mass(2.0) == pytest.approx(-sum(run.jump_sizes))


@pytest.mark.parametrize("t_end", [math.inf, math.nan, -1.0])
def test_a_tagged_line_needs_a_finite_horizon(ub, ub_eval, t_end):
    # t > nan never ends a walk, and t > inf ends it only past every event
    walks = [lambda: simulate_event_log(ub, t_end, 1),
             lambda: simulate_subordinator(ub, t_end, 1),
             lambda: simulate_spine(ub, 0.5, t_end, 1, ub_eval),
             lambda: read_spines(ub, -0.5, t_end, 1, 3, ub_eval),
             lambda: read_spines(ub, 0.5, t_end, 1, 3, ub_eval)]
    for walk in walks:
        with pytest.raises(ValueError, match="t_end must be finite and >= 0"):
            walk()


def test_a_horizon_past_the_event_budget_raises_up_front(ub, ub_eval):
    # rate * t_end expected events: a finite horizon that large would walk
    # until memory runs out
    walks = [lambda: simulate_event_log(ub, 1e300, 1),
             lambda: simulate_subordinator(ub, 1e300, 1),
             lambda: simulate_spine(ub, 0.5, 1e300, 1, ub_eval),
             lambda: subordinator_values(ub, 1e300, 1, 3),
             lambda: read_tagged_lines(ub, 1e300, 1, 3),
             lambda: read_spines(ub, -0.5, 1e300, 1, 3, ub_eval),
             lambda: read_spines(ub, 0.5, 1e300, 1, 3, ub_eval)]
    for walk in walks:
        with pytest.raises(BudgetExceededError, match="above the budget"):
            walk()
    check_horizon(2.0, DEFAULT_MAX_FRAGMENTS / 2.0)  # at the budget: walked
    with pytest.raises(BudgetExceededError):
        check_horizon(2.0, math.nextafter(DEFAULT_MAX_FRAGMENTS / 2.0, math.inf))


def test_a_line_is_read_only_up_to_t_end(ub):
    run = simulate_spine(ub, 0.5, 1.0, 3)
    assert run.spine_log_mass(1.0) == -reduce(add, run.jump_sizes)
    assert run.value(1.0) == pytest.approx(sum(run.jump_sizes))
    for read in (run.spine_log_mass, run.value):
        with pytest.raises(ValueError, match="path simulated only to 1.0"):
            read(5.0)
        with pytest.raises(ValueError, match="path simulated only to 1.0"):
            read(math.nextafter(1.0, 2.0))


def test_spine_population_conserves_mass(ub, ub_eval):
    rec, = read_spines(ub, 1.0, 2.0, 0, 10, ub_eval)
    spine_lms = 0.0 - rec.values()
    pops = list(shed_populations(ub, 2.0, 1e-7, rec))
    assert len(pops) == 10
    for snap, spine_lm in zip(pops, spine_lms):
        assert abs(snap.total_mass + snap.frozen_mass - 1.0) <= 1e-9
        # the spine fragment itself is part of the live population
        assert np.isclose(snap.log_masses, spine_lm, atol=1e-12).any()


def test_event_log_structure(ub):
    log = simulate_event_log(ub, 2.0, 71)
    assert (len(log) == len(log.jump_times) == len(log.partitions)
            == len(log.picks))
    assert all(0.0 < t <= 2.0 for t in log.jump_times)
    assert all(t1 < t2 for t1, t2 in zip(log.jump_times, log.jump_times[1:]))
    for part, j in zip(log.partitions, log.picks):
        assert 0 <= j < len(part)
    assert log.kept is None


def test_thinning_direction(ub):
    log = simulate_event_log(ub, 1.0, 72)
    with pytest.raises(ThinningDirectionError):
        thin_fiber(log, -0.5, Stream(1))


def test_thinning_refuses_a_tilted_line(ub):
    run = simulate_spine(ub, 0.5, 1.0, 72)
    with pytest.raises(ThinningDirectionError):
        thin_fiber(run, 1.0, Stream(1))
    thinned = thin_fiber(simulate_event_log(ub, 1.0, 72), 0.5, Stream(1))
    with pytest.raises(ThinningDirectionError):
        thin_fiber(thinned, 0.5, Stream(2))


def test_thinning_keep_fraction(ub):
    kept = total = 0
    for seed in range(3000):
        log = simulate_event_log(ub, 1.0, seed)
        thinned = thin_fiber(log, 1.0, Stream(derive_key(seed, 99)))
        assert thinned.p == 1.0
        assert len(thinned.kept) == len(log)
        kept += sum(thinned.kept)
        total += len(log)
    # keep probability is the picked mass; its mean is 2/3
    assert abs(kept / total - 2.0 / 3.0) < 0.03


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.5])
def test_thin_lanes_gives_each_line_the_flags_of_thin_fiber(ptail, p):
    lines = [simulate_event_log(ptail, 2.0, seed) for seed in range(12)]
    keys = [derive_key(seed, 1) for seed in range(12)]
    lane, picked = zip(*((lane, part.masses[j])
                         for lane, line in enumerate(lines)
                         for part, j in zip(line.partitions, line.picks)))
    flags = thin_lanes(keys, lane, picked, p)
    for i, line in enumerate(lines):
        expected = thin_fiber(line, p, Stream(keys[i])).kept
        assert flags[np.equal(lane, i)].tolist() == expected
    assert thin_lanes(keys, [], [], p).tolist() == []
    with pytest.raises(ThinningDirectionError):
        thin_lanes(keys, lane, picked, -p - 0.5)


def test_thinning_deterministic_and_preserving(ub):
    log = simulate_event_log(ub, 3.0, 73)
    a = thin_fiber(log, 1.0, Stream(5))
    b = thin_fiber(log, 1.0, Stream(5))
    assert a.kept == b.kept
    assert a.jump_times == log.jump_times
    assert a.picks == log.picks
    assert len(a.kept) == len(log)


def test_subordinator_event_log_and_spine_share_one_walk():
    # three distinct masses, so each shed root's piece index can be read
    # back from its log-mass
    model = AtomicModel([([0.5, 0.3, 0.2], 1.0)])
    seed = 4242
    sub = simulate_subordinator(model, 3.0, seed)
    log = simulate_event_log(model, 3.0, seed)
    thinned = thin_fiber(log, 1.0, Stream(1))
    assert len(log) > 0
    assert (sub.picks, sub.partitions) == (log.picks, log.partitions)
    assert (thinned.picks, thinned.partitions) == (log.picks, log.partitions)
    assert sub.jump_times == log.jump_times
    assert sub.jump_sizes == [
        -math.log(part.masses[j]) for part, j in zip(log.partitions, log.picks)]

    # the spine at p = 0 keeps every try when each split's masses total 1.0
    zero = simulate_spine(model, 0.0, 3.0, seed, PhiEvaluator(model))
    assert (zero.jump_times, zero.partitions, zero.picks) == (
        log.jump_times, log.partitions, log.picks)

    run = simulate_spine(model, 0.5, 3.0, seed, PhiEvaluator(model))
    assert len(run.jump_times) > 0
    assert all(type(r) is TaggedLine for r in (sub, log, thinned, run))
    spine_key = derive_key(seed, 0)
    masses = model.atoms[0][0].masses
    seen = set()
    roots, _ = walk_oracle.shed(run)
    for t, lm, key in roots:
        k = run.jump_times.index(t)
        piece = math.exp(lm + sum(run.jump_sizes[:k]))
        i = min(range(len(masses)), key=lambda r: abs(masses[r] - piece))
        assert piece == pytest.approx(masses[i], rel=1e-12)
        assert key == derive_key(derive_key(spine_key, k), i)
        seen.add((k, i))
    assert len(seen) == len(roots) == 2 * len(run.jump_times)


def _fields(run):
    """What a line holds, every float by repr, or what it raised."""
    try:
        line = run()
    except Exception as e:
        return type(e), str(e)
    thinned = (thin_fiber(line, 1.0, Stream(derive_key(line.seed, 1)))
               if line.p == 0.0 else line)
    return (repr(line.jump_times), repr(line.weight),
            [repr(part.masses) for part in line.partitions],
            line.picks, repr(line.p), thinned.kept)


# splits whose masses, ranked and summed left to right, total one ulp below
# and one ulp above 1: u and u times the total pick apart only on them
_ULP_MODELS = {"ulp_below": AtomicModel([([0.1, 0.2, 0.7], 1.0)]),
               "ulp_above": AtomicModel([([0.56, 0.34, 0.1], 1.0)])}

_ORACLE_MODELS = {
    "uniform": UniformBinaryModel(),
    "uniform_eps0.1": UniformBinaryModel(0.1),
    "power_tail_eps0.01": PowerTailBinaryModel(0.01),
    "power_tail_eps0.05": PowerTailBinaryModel(0.05),
    "dyadic": AtomicModel([([0.5, 0.5], 1.0)]),
    "three_piece": AtomicModel([([0.5, 0.3, 0.2], 1.0),
                                ([0.7, 0.2, 0.1], 0.5),
                                ([0.9, 0.1], 2.0)]),
    **_ULP_MODELS,
}


@pytest.mark.parametrize("name", list(_ORACLE_MODELS))
def test_the_walk_equals_the_per_draw_oracle_bit_for_bit(name):
    model = _ORACLE_MODELS[name]
    ev = PhiEvaluator(model)
    tilts = [1.0, 0.5, 0.0, -0.5] + ([-1.9, -2.0, -2.5] if name == "uniform"
                                     else [])
    for seed in list(range(100)) + [2**64 - 1]:
        for t_end in (0.0, 1.0, 4.0):
            for p in tilts:
                assert _fields(lambda: simulate_spine(
                    model, p, t_end, seed, ev)) == _fields(
                    lambda: walk_oracle.simulate_spine(
                        model, p, t_end, seed, ev)), (p, seed, t_end)
            assert _fields(lambda: simulate_event_log(
                model, t_end, seed)) == _fields(
                lambda: walk_oracle.simulate_event_log(
                    model, t_end, seed)), (seed, t_end)


def _outcome(call):
    try:
        return repr(call())
    except Exception as e:
        return type(e), str(e)


def test_the_walk_raises_as_the_oracle_does():
    ub = _ORACLE_MODELS["uniform"]
    dusty = AtomicModel([([0.5, 0.3], 1.0)])
    new = SimpleNamespace(simulate_event_log=simulate_event_log,
                          simulate_spine=simulate_spine)
    cases = [
        (lambda m: m.simulate_event_log(dusty, 4.0, 5), True),
        # no event before t_end: no draw, so nothing to refuse
        (lambda m: m.simulate_event_log(dusty, 0.0, 5), False),
        (lambda m: m.simulate_spine(ub, -2.0, 4.0, 5), True),
        (lambda m: m.simulate_spine(ub, -2.0, 0.0, 5), True),
    ]
    for case, raises in cases:
        got = _outcome(lambda: case(new))
        assert got == _outcome(lambda: case(walk_oracle))
        assert isinstance(got, tuple) == raises, got


# --- the spine as lanes --------------------------------------------------------

_CORPUS_MODELS = {name: model_from_json(obj)
                  for name, obj in make_golden.MODELS.items()}


def _line(line):
    """What a line holds, every float by repr: its jump times, weight,
    splits and picks, then its shed roots and final log mass."""
    roots, lm = walk_oracle.shed(line)
    return (repr(line.jump_times), repr(line.weight),
            [repr(part.masses) for part in line.partitions], line.picks,
            repr(roots), repr(lm))


def _lanes(records):
    """_line of every lane of TaggedLines records, read off their columns."""
    out = []
    for rec in records:
        (root_lane, births, lms, keys), lm = rec.shed()
        for a in range(len(rec.keys)):
            mine, shed = rec.lane == a, root_lane == a
            roots = list(zip(births[shed].tolist(), lms[shed].tolist(),
                             keys[shed].tolist()))
            out.append((
                repr(rec.times[:, a][rec.events[:, a]].tolist()),
                repr(rec.weights.tolist()[a]),
                [repr(tuple(row[row != 0.0].tolist()))
                 for row in rec.masses[mine]],
                rec.picks[mine].tolist(), repr(roots), repr(lm.tolist()[a])))
    return out


@pytest.mark.parametrize("name", list(_CORPUS_MODELS) + list(_ULP_MODELS))
def test_every_spine_lane_equals_its_walk_bit_for_bit(name):
    model = {**_CORPUS_MODELS, **_ULP_MODELS}[name]
    ev = PhiEvaluator(model)
    tilts = [-0.5, -0.2, 0.0, 0.5, 1.0, 3.0] + (
        [-1.9] if name == "uniform" else [])
    n = 12
    for seed in (5, 2**64 - 1, 913):
        for t_end in (0.0, 1.0, 4.0):
            for p in tilts:
                keys = [replica_key(seed, i) for i in range(n)]
                lanes = _lanes(read_spines(model, p, t_end, seed, n, ev))
                assert lanes == [
                    _line(simulate_spine(model, p, t_end, k, ev))
                    for k in keys], (p, seed, t_end)
                assert lanes == [
                    _line(walk_oracle.simulate_spine(model, p, t_end, k, ev))
                    for k in keys], (p, seed, t_end)


@pytest.mark.parametrize("name", ["ternary", "dust", "power_tail"])
@pytest.mark.parametrize("p", [-0.5, -0.2, 0.5, 1.0])
def test_shed_populations_equal_the_walks_populations(name, p, monkeypatch):
    model = _CORPUS_MODELS[name]
    ev = PhiEvaluator(model)
    refs = [walk_oracle.population(
        model, 3.0, 0.01, simulate_spine(model, p, 3.0, replica_key(5, i), ev))
        for i in range(16)]
    assert any(ref.frozen_count for ref in refs)
    # one simulate_lanes call per group of lanes, whatever the group's size
    for roots in (256, 5, 1):
        monkeypatch.setattr(tilting, "_SHED_ROOTS", roots)
        pops = [pop for rec in read_spines(model, p, 3.0, 5, 16, ev)
                for pop in shed_populations(model, 3.0, 0.01, rec)]
        assert len(pops) == 16
        for pop, ref in zip(pops, refs):
            assert (repr(pop.log_masses.tolist())
                    == repr(ref.log_masses.tolist()))
            assert (repr(pop.frozen_mass), pop.frozen_count, pop.event_count,
                    pop.seed, pop.time) == (repr(ref.frozen_mass),
                                            ref.frozen_count, ref.event_count,
                                            ref.seed, ref.time)


def test_shed_populations_grow_a_bounded_number_of_roots_at_once(
        ub, ub_eval, monkeypatch):
    grown = []
    lanes = tilting.simulate_lanes

    def spy(model, t_end, snaps, eps_freeze, seeds, keys, **kw):
        grown.append(len(keys))
        return lanes(model, t_end, snaps, eps_freeze, seeds, keys, **kw)
    monkeypatch.setattr(tilting, "simulate_lanes", spy)
    monkeypatch.setattr(tilting, "_SHED_ROOTS", 6)
    rec, = read_spines(ub, -0.5, 3.0, 9, 40, ub_eval)
    n_roots = len(rec.shed()[0][0])
    pops = shed_populations(ub, 3.0, 0.01, rec)
    next(pops)
    assert len(grown) == 1 and 1 <= grown[0] <= 6  # grown as iterated
    assert len(list(pops)) == 39
    assert sum(grown) == n_roots and len(grown) > n_roots // 6
    # a group holds more than _SHED_ROOTS roots only when one line sheds them
    per_line = np.bincount(rec.shed()[0][0], minlength=40)
    assert all(g <= 6 or g in per_line for g in grown)


def test_a_record_lists_its_events_lane_by_lane(ub, ub_eval):
    dust = _CORPUS_MODELS["dust"]
    dust_eval = PhiEvaluator(dust)
    cases = [  # (records, the walk of a key, whether a record holds events)
        (read_tagged_lines(ub, 4.0, 5, 12),
         lambda k: simulate_event_log(ub, 4.0, k), True),
        (read_spines(ub, -0.5, 4.0, 5, 12, ub_eval),
         lambda k: simulate_spine(ub, -0.5, 4.0, k, ub_eval), True),
        (read_spines(ub, 0.5, 4.0, 5, 12, ub_eval),
         lambda k: simulate_spine(ub, 0.5, 4.0, k, ub_eval), True),
        # every try thinned away (see the test below), then no try at all
        (read_spines(dust, 3.0, 1.0, 3, 3, dust_eval),
         lambda k: simulate_spine(dust, 3.0, 1.0, k, dust_eval), False),
        (read_tagged_lines(ub, 0.0, 5, 4),
         lambda k: simulate_event_log(ub, 0.0, k), False),
    ]
    for records, walk, has_events in cases:
        rec, = records
        n = np.count_nonzero(rec.events)
        assert (n > 0) == has_events and n == rec.counts.sum()
        assert len(rec.lane) == len(rec.masses) == len(rec.picks) == len(
            rec.picked) == n
        assert (np.diff(rec.lane) >= 0).all()
        assert rec.lane.tolist() == np.nonzero(rec.events.T)[0].tolist()
        times = np.split(rec.times.T[rec.events.T], np.cumsum(rec.counts)[:-1])
        assert [repr(t.tolist()) for t in times] == [
            repr(walk(k).jump_times) for k in rec.keys.tolist()]


def test_spine_lanes_do_not_depend_on_the_chunk_size(ub, ub_eval,
                                                     monkeypatch):
    full = _lanes(read_spines(ub, -0.5, 4.0, 31, 40, ub_eval))
    assert _lanes(read_spines(ub, -0.5, 4.0, 31, 7, ub_eval)) == full[:7]
    # chunks of one lane (reading blocks of 3 events), then of a few lanes:
    # a block holds 28 events at p = -0.5
    for cells in (3, 100, 500):
        monkeypatch.setattr(tilting, "_CHUNK_CELLS", cells)
        records = list(read_spines(ub, -0.5, 4.0, 31, 40, ub_eval))
        sizes = [len(rec.keys) for rec in records]
        assert sum(sizes) == 40
        assert (max(sizes) == 1) if cells == 3 else (1 < max(sizes) < 40)
        assert _lanes(records) == full


def test_a_chunk_whose_every_try_is_thinned_reads_as_its_walks():
    # a try is kept with probability 0.5^4 + 0.3^4 = 0.07; at seed 3 the
    # lanes' tries are all thinned away, so the record holds no event row
    model = _CORPUS_MODELS["dust"]
    ev = PhiEvaluator(model)
    rec, = read_spines(model, 3.0, 1.0, 3, 3, ev)
    assert rec.events.shape == (0, 3) and rec.counts.tolist() == [0, 0, 0]
    assert rec.values().tolist() == [0.0, 0.0, 0.0]
    assert _lanes([rec]) == [
        _line(simulate_spine(model, 3.0, 1.0, replica_key(3, i), ev))
        for i in range(3)]


def test_spine_lanes_raise_as_the_walk_does(ub, ub_eval):
    def walks(p, t_end, seed, n):
        """_line of each replica's walk in turn, or the first walk's error."""
        try:
            return [_line(simulate_spine(ub, p, t_end, replica_key(seed, i),
                                         ub_eval)) for i in range(n)]
        except Exception as e:
            return type(e), str(e)

    for p, t_end in ((-2.0, 4.0), (-2.0, 0.0), (-2.5, 1.0)):
        try:
            got = _lanes(read_spines(ub, p, t_end, 5, 3, ub_eval))
        except Exception as e:
            got = type(e), str(e)
        assert got == walks(p, t_end, 5, 3)
        assert got[0] is BelowPLowerError


def test_read_spines_and_the_walk_refuse_a_nan_tilt_alike(ub, ub_eval):
    errors = []
    for read in (lambda: simulate_spine(ub, math.nan, 4.0, 5, ub_eval),
                 lambda: read_spines(ub, math.nan, 4.0, 5, 3, ub_eval)):
        with pytest.raises(NotComputableError) as caught:
            read()
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
