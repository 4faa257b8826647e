"""Exponential tilting: reweighted splits, spine runs, thinning."""

import math

import numpy as np
import pytest
from scipy import stats

from homfrag.analytics import PhiEvaluator
from homfrag.errors import BelowPLowerError, ThinningDirectionError
from homfrag.measures import AtomicModel, MassPartition
from homfrag.partitions import simulate_subordinator
from homfrag.streams import Stream, derive_key
from homfrag.tilting import (
    TaggedLine,
    esscher_exponent,
    sample_tilted_split,
    simulate_event_log,
    simulate_spine,
    spine_child_select,
    thin_fiber,
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
    draws = [sample_tilted_split(ub, 1.0, s, ub_eval) for _ in range(20_000)]
    assert all(w == 1.0 for _, w in draws)
    tops = np.array([part[0] for part, _ in draws])
    se = tops.std(ddof=1) / math.sqrt(len(tops))
    # tilting by u^2 + (1-u)^2 puts the larger-piece mean at 25/32
    assert abs(tops.mean() - 25.0 / 32.0) < 4 * se


def test_tilted_split_negative_index_weights(ub, ub_eval):
    s = Stream(62)
    draws = [sample_tilted_split(ub, -0.5, s, ub_eval) for _ in range(20_000)]
    w = np.array([w for _, w in draws])
    assert (w > 0).all()
    se = w.std(ddof=1) / math.sqrt(len(w))
    assert abs(w.mean() - 1.0) < 4 * se


def test_tilted_split_below_threshold(ub):
    with pytest.raises(BelowPLowerError):
        sample_tilted_split(ub, -2.0, Stream(1))


def test_spine_child_select_frequencies():
    part = MassPartition([0.8, 0.2])
    s = Stream(63)
    picks = np.array([spine_child_select(part, 1.0, s) for _ in range(5000)])
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


def test_spine_population_conserves_mass(ub):
    for seed in range(10):
        run = simulate_spine(ub, 1.0, 2.0, seed, with_population=True,
                             eps_freeze=1e-7)
        snap = run.population
        assert snap is not None
        assert abs(snap.total_mass + snap.frozen_mass - 1.0) <= 1e-9
        # the spine fragment itself is part of the live population
        spine_lm = run.spine_log_mass(2.0)
        assert np.isclose(snap.log_masses, spine_lm, atol=1e-12).any()


def test_spine_population_requires_eps(ub):
    with pytest.raises(ValueError):
        simulate_spine(ub, 1.0, 1.0, 1, with_population=True)


def test_event_log_structure(ub):
    log = simulate_event_log(ub, 2.0, 71)
    assert (len(log) == len(log.jump_times) == len(log.partitions)
            == len(log.picks))
    assert all(0.0 < t <= 2.0 for t in log.jump_times)
    assert all(t1 < t2 for t1, t2 in zip(log.jump_times, log.jump_times[1:]))
    for part, j in zip(log.partitions, log.picks):
        assert 0 <= j < len(part)
    assert log.kept is None
    with pytest.raises(ThinningDirectionError):
        log.kept_events()


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


def test_thinning_deterministic_and_preserving(ub):
    log = simulate_event_log(ub, 3.0, 73)
    a = thin_fiber(log, 1.0, Stream(5))
    b = thin_fiber(log, 1.0, Stream(5))
    assert a.kept == b.kept
    assert a.jump_times == log.jump_times
    assert a.picks == log.picks
    assert len(a.kept_events()) == sum(a.kept)


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

    run = simulate_spine(model, 0.5, 3.0, seed, PhiEvaluator(model))
    assert len(run.jump_times) > 0
    assert all(type(r) is TaggedLine for r in (sub, log, thinned, run))
    spine_key = derive_key(seed, 0)
    masses = model.atoms[0][0].masses
    seen = set()
    roots, _ = run.shed()
    for t, lm, key in roots:
        k = run.jump_times.index(t)
        piece = math.exp(lm + sum(run.jump_sizes[:k]))
        i = min(range(len(masses)), key=lambda r: abs(masses[r] - piece))
        assert piece == pytest.approx(masses[i], rel=1e-12)
        assert key == derive_key(derive_key(spine_key, k), i)
        seen.add((k, i))
    assert len(seen) == len(roots) == 2 * len(run.jump_times)
